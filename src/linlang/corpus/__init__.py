"""Built-in fixture library: every example object paired with an oracle.

Grammar and automaton fixtures live as format files under ``data/``; the
language predicates are direct string checks that never touch grammar or
automaton code, so they can serve as independent oracles for everything the
rest of the package constructs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from ..errors import UnknownFixture
from ..hierarchy import lk_predicate
from .. import textio

MAX_LK = 6


@dataclass(frozen=True)
class Fixture:
    id: str
    kind: str  # grammar | automaton | predicate
    payload: object
    provenance: str
    caveats: str = ""


def _runs(word: str) -> list[tuple[str, int]]:
    runs: list[tuple[str, int]] = []
    for ch in word:
        if runs and runs[-1][0] == ch:
            runs[-1] = (ch, runs[-1][1] + 1)
        else:
            runs.append((ch, 1))
    return runs


def eq1_predicate(word: str) -> bool:
    """a^m b^n with 1 <= m <= n <= 3m."""
    runs = _runs(word)
    if len(runs) != 2 or runs[0][0] != "a" or runs[1][0] != "b":
        return False
    m, n = runs[0][1], runs[1][1]
    return 1 <= m <= n <= 3 * m


def exnla_predicate(word: str) -> bool:
    """a^m b^n a^(2n) with m >= 1, n >= 0, or a^k b^(2m) a^m b^n with k,m >= 0, n >= 1."""
    runs = _runs(word)
    shape = [c for c, _ in runs]
    counts = [x for _, x in runs]
    if shape == ["a"]:
        return True  # first component with n = 0
    if shape == ["a", "b", "a"] and counts[2] == 2 * counts[1]:
        return True
    if shape == ["b"]:
        return True  # second component with k = m = 0
    if shape == ["a", "b"]:
        return True  # second component with m = 0
    if shape == ["b", "a", "b"] and counts[0] == 2 * counts[1]:
        return True
    if shape == ["a", "b", "a", "b"] and counts[1] == 2 * counts[2]:
        return True
    return False


def palindrome_predicate(word: str) -> bool:
    """Palindromes over {a, b}."""
    return set(word) <= {"a", "b"} and word == word[::-1]


def even_palindrome_predicate(word: str) -> bool:
    """Even-length palindromes over {a, b}."""
    return len(word) % 2 == 0 and palindrome_predicate(word)


def anbn_ancn_predicate(word: str) -> bool:
    """a^n b^n or a^n c^n with n >= 1."""
    runs = _runs(word)
    return (len(runs) == 2 and runs[0][0] == "a" and runs[1][0] in ("b", "c")
            and runs[0][1] == runs[1][1])


def det_2_1_predicate(word: str) -> bool:
    """b^m a^n b^n with m even and n odd."""
    runs = _runs(word)
    if runs and runs[0][0] == "b" and len(runs) == 3:
        m, rest = runs[0][1], runs[1:]
    else:
        m, rest = 0, runs
    if [c for c, _ in rest] != ["a", "b"] or rest[0][1] != rest[1][1]:
        return False
    return m % 2 == 0 and rest[0][1] % 2 == 1


def homogeneous_predicate(word: str) -> bool:
    """(ab)^n c^n with n >= 0."""
    n = word.count("c")
    return word == "ab" * n + "c" * n


_GRAMMARS: dict[str, tuple[str, str, str]] = {
    "ex_lg_grammar": (
        "ex_lg.grm",
        "motivating grammar for a^m b^n with 1 <= m <= n <= 3m; no variable is one-sided",
        ""),
    "ex_lnf_grammar": (
        "ex_lnf.grm",
        "hand-derived one-sided form of ex_lg_grammar",
        ""),
    "ex_slnf_grammar": (
        "ex_slnf.grm",
        "hand-derived strong form of ex_lg_grammar with shared chain suffixes",
        ""),
    "det_grammar_2_1": (
        "det_2_1.grm",
        "deterministic grammar for b^m a^n b^n with m even, n odd",
        "the intended language is read as b^m a^n b^n with m even and n odd, "
        "confirmed by the enumeration oracle"),
    "det_grammar_2_1_lnf": (
        "det_2_1_lnf.grm",
        "hand-derived one-sided stage of det_grammar_2_1",
        ""),
    "det_grammar_2_1_slnf": (
        "det_2_1_slnf.grm",
        "hand-derived strong stage of det_grammar_2_1",
        ""),
    "even_palindrome_grammar": (
        "even_palindrome.grm",
        "even grammar for even-length palindromes over {a, b}",
        ""),
}

_AUTOMATA: dict[str, tuple[str, str, str]] = {
    "ex_nla": (
        "ex_nla.lin",
        "two-head automaton with a lambda move accepting a two-component union",
        ""),
    "dla_anbn_ancn": (
        "dla_anbn_ancn.lin",
        "deterministic two-head automaton for a^n b^n union a^n c^n",
        ""),
    "palindrome_even": (
        "palindrome_even.lin",
        "palindrome matcher whose start state is the only accepting state",
        "with only q0 accepting, simulation yields exactly the even-length "
        "palindromes; whether the odd lengths were meant to be included is "
        "ambiguous, so palindrome_all ships the other reading"),
    "palindrome_all": (
        "palindrome_all.lin",
        "palindrome matcher with the mid-read states also accepting",
        "adds p1 and p2 to the final set so odd-length palindromes are "
        "accepted too; palindrome_even is the minimal-final-set variant"),
    "nla_homogeneous": (
        "nla_homogeneous.lin",
        "nondeterministic but determinizable automaton for (ab)^n c^n",
        ""),
}

_LK_PROVENANCE = ("level-{k} witness of the explicit-nondeterminism hierarchy, "
                  "accepting a^m b^n with m <= n <= {k1}m")

ORACLES: dict[str, str] = {
    "ex_lg_grammar": "eq1_predicate",
    "ex_lnf_grammar": "eq1_predicate",
    "ex_slnf_grammar": "eq1_predicate",
    "det_grammar_2_1": "det_2_1_predicate",
    "det_grammar_2_1_lnf": "det_2_1_predicate",
    "det_grammar_2_1_slnf": "det_2_1_predicate",
    "even_palindrome_grammar": "even_palindrome_predicate",
    "ex_nla": "exnla_predicate",
    "dla_anbn_ancn": "anbn_ancn_predicate",
    "palindrome_even": "even_palindrome_predicate",
    "palindrome_all": "palindrome_predicate",
    "nla_homogeneous": "homogeneous_predicate",
    **{f"lk_automaton_{k}": f"lk_predicate_{k}" for k in range(MAX_LK + 1)},
}

_PREDICATES: dict[str, tuple[Callable[[str], bool], str]] = {
    "eq1_predicate": (eq1_predicate,
                      "membership check for a^m b^n with 1 <= m <= n <= 3m"),
    "exnla_predicate": (exnla_predicate,
                        "membership check for the ex_nla union language"),
    "palindrome_predicate": (palindrome_predicate,
                             "membership check for palindromes over {a, b}"),
    "even_palindrome_predicate": (even_palindrome_predicate,
                                  "membership check for even-length palindromes"),
    "anbn_ancn_predicate": (anbn_ancn_predicate,
                            "membership check for a^n b^n union a^n c^n, n >= 1"),
    "det_2_1_predicate": (det_2_1_predicate,
                          "membership check for b^m a^n b^n, m even, n odd"),
    "homogeneous_predicate": (homogeneous_predicate,
                              "membership check for (ab)^n c^n"),
    **{f"lk_predicate_{k}": (functools.partial(lk_predicate, k),
                             f"membership check for a^m b^n with m <= n <= {k + 1}m")
       for k in range(MAX_LK + 1)},
}


def _read_data(filename: str) -> str:
    return (resources.files(__package__) / "data" / filename).read_text(encoding="utf-8")


def fixture_ids() -> list[str]:
    ids = (list(_GRAMMARS) + list(_AUTOMATA)
           + [f"lk_automaton_{k}" for k in range(MAX_LK + 1)] + list(_PREDICATES))
    return sorted(ids)


def load_fixture(fixture_id: str) -> Fixture:
    """Fetch one registered fixture; payloads are parsed from the data files."""
    if fixture_id not in fixture_ids():
        raise UnknownFixture(f"no fixture registered as {fixture_id!r}")
    if fixture_id in _GRAMMARS:
        filename, provenance, caveats = _GRAMMARS[fixture_id]
        payload = textio.parse_grammar(_read_data(filename))
        return Fixture(fixture_id, "grammar", payload, provenance, caveats)
    if fixture_id in _AUTOMATA:
        filename, provenance, caveats = _AUTOMATA[fixture_id]
        payload = textio.parse_automaton(_read_data(filename))
        return Fixture(fixture_id, "automaton", payload, provenance, caveats)
    if fixture_id in _PREDICATES:
        func, provenance = _PREDICATES[fixture_id]
        return Fixture(fixture_id, "predicate", func, provenance)
    # every other listed id is lk_automaton_<k> with k in 0..MAX_LK
    k = int(fixture_id.removeprefix("lk_automaton_"))
    payload = textio.parse_automaton(_read_data(f"lk_{k}.lin"))
    return Fixture(fixture_id, "automaton", payload, _LK_PROVENANCE.format(k=k, k1=k + 1),
                   "accepts the empty word (the start state is final); "
                   "the m >= 1 reading ships as lk_predicate_strict")


def oracle_for(fixture_id: str) -> Callable[[str], bool]:
    """The independent membership predicate paired with a fixture."""
    if fixture_id not in ORACLES:
        raise UnknownFixture(f"no oracle registered for {fixture_id!r}")
    return load_fixture(ORACLES[fixture_id]).payload  # type: ignore[return-value]
