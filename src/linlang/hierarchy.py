"""The explicit-nondeterminism hierarchy and its parametric witness family.

The witness language for level k is {a^m b^n : m <= n <= (k+1)m}.  Its
automaton keeps one left state p1 that reads a single ``a`` per round while a
right-side chain q0..qk nondeterministically reads one to k+1 ``b``s, giving
exactly k two-target transition cells.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .automaton import LinearAutomaton, _require_lambda_free, ndeg, validate_automaton
from .errors import SymbolNotInAlphabet
from .naming import NamePool


def build_lk_automaton(k: int) -> LinearAutomaton:
    """Witness automaton of nondeterminism degree exactly ``k``."""
    if k < 0:
        raise ValueError("k must be non-negative")
    chain = [f"q{i}" for i in range(k + 1)]
    delta: dict[tuple[str, str], set[str]] = {("p1", "a"): {"q0"}}
    for i in range(k):
        delta[(chain[i], "b")] = {chain[i + 1], "p1"}
    delta[(chain[k], "b")] = {"p1"}
    return validate_automaton(left=["p1"], right=chain, alphabet=["a", "b"],
                              delta=delta, initial=["q0"], final=["q0"])


def _ab_counts(word: str) -> tuple[int, int] | None:
    m = 0
    while m < len(word) and word[m] == "a":
        m += 1
    n = len(word) - m
    if word[m:] != "b" * n:
        return None
    return m, n


def lk_predicate(k: int, word: str) -> bool:
    """Membership in {a^m b^n : m <= n <= (k+1)m}; m = n = 0 admits the empty word."""
    counts = _ab_counts(word)
    if counts is None:
        return False
    m, n = counts
    return m <= n <= (k + 1) * m


def lk_predicate_strict(k: int, word: str) -> bool:
    """The m >= 1 variant, which excludes the empty word."""
    return word != "" and lk_predicate(k, word)


def lin_k_upper_bound(m: LinearAutomaton) -> int:
    """Hierarchy level witnessed by this particular automaton.

    This is an upper bound on the language's level via ``m``; a smarter
    automaton for the same language may sit lower.
    """
    return ndeg(m)


def pad_ndeg(m: LinearAutomaton, symbol: str) -> LinearAutomaton:
    """Raise the nondeterminism degree by one without touching the language.

    Adds two fresh left states, unreachable from the start set, with a single
    transition from the first fanning out to both.
    """
    if symbol not in m.alphabet:
        raise SymbolNotInAlphabet(f"symbol {symbol!r} is not in the alphabet")
    _require_lambda_free(m, "pad_ndeg")
    names = NamePool(m.states)
    x1, x2 = names.fresh("x_1"), names.fresh("x_2")
    delta = dict(m.delta)
    delta[(x1, symbol)] = frozenset({x1, x2})
    return replace(m, left_states=m.left_states | {x1, x2}, delta=delta)


@dataclass(frozen=True)
class HierarchyWitness:
    k: int
    automaton: LinearAutomaton
    predicate: Callable[[str], bool]


def hierarchy_witness(k: int) -> HierarchyWitness:
    """Bundle level ``k``'s automaton with its independent membership check."""
    auto = build_lk_automaton(k)
    assert ndeg(auto) == k
    return HierarchyWitness(k, auto, lambda w: lk_predicate(k, w))
