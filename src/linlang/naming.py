"""Identifier rules and deterministic fresh-name allocation."""

from __future__ import annotations

import re

from .errors import InvalidIdentifier

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: Token that denotes the empty string in every text format.
EPS = "eps"


def is_valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name)) and name != EPS


def check_name(name: str, role: str = "symbol", single: bool = False) -> str:
    """Return ``name`` if it may name a ``role``; ``single`` also demands one
    character, the rule for input symbols, because words are plain strings."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise InvalidIdentifier(f"invalid {role} name {name!r}", subject=name)
    if name == EPS:
        raise InvalidIdentifier(f"{EPS!r} is reserved and cannot name a {role}",
                                subject=name)
    if single and len(name) != 1:
        raise InvalidIdentifier(f"{role} {name!r} must be a single character",
                                subject=name)
    return name


def fresh_name(base: str, used: set[str]) -> str:
    """Smallest-index name of the form ``<base>_k`` not present in ``used``.

    Falls back to ``base`` itself when it is free, so generated names stay
    readable.  The name is added to ``used``, so repeated calls on one set
    never hand out the same name twice.
    """
    name = base
    if base in used or not is_valid_name(base):
        k = 1
        while f"{base}_{k}" in used:
            k += 1
        name = f"{base}_{k}"
    used.add(name)
    return name
