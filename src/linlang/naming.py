"""Identifier rules and deterministic fresh-name allocation."""

from __future__ import annotations

import re
from typing import Collection, Iterable

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


def scan_order(name) -> tuple:
    """Sort key for a scan over names: names that are not str come first,
    so that ``check_name`` rejects them before any comparison fails."""
    return (True, name) if isinstance(name, str) else (False, repr(name))


def names_ok(names: Collection[str], single: bool = False) -> bool:
    """True when ``check_name`` would pass every name, with no Python-level
    call per name."""
    try:
        return (EPS not in names and all(map(NAME_RE.match, names))
                and (not single or max(map(len, names), default=1) == 1))
    except TypeError:  # a name that is not a str
        return False


class NamePool:
    """Names in use, and deterministic fresh-name allocation among them."""

    def __init__(self, used: Iterable[str] = ()):
        self._used = set(used)
        # per base, an index with every ``<base>_k`` below it in use
        self._next: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        """``base`` itself when it is a free valid name, else the free
        ``<base>_k`` of smallest index; either way the name is then in use."""
        name, k = base, self._next.get(base, 1)
        if base in self._used or not is_valid_name(base):
            while f"{base}_{k}" in self._used:
                k += 1
            self._next[base], name = k + 1, f"{base}_{k}"
        self._used.add(name)
        return name
