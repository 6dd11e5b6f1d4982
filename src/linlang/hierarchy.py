"""The explicit-nondeterminism hierarchy and its parametric witness family.

The witness language for level k is {a^m b^n : m <= n <= (k+1)m}.  Its
automaton keeps one left state p1 that reads a single ``a`` per round while a
right-side chain q0..qk nondeterministically reads one to k+1 ``b``s, giving
exactly k two-target transition cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .automaton import LinearAutomaton, _named, _require_lambda_free, ndeg
from .errors import SymbolNotInAlphabet
from .naming import NamePool


def build_lk_automaton(k: int) -> LinearAutomaton:
    """Witness automaton of nondeterminism degree exactly ``k``."""
    if k < 0:
        raise ValueError("k must be non-negative")
    chain = [f"q{i}" for i in range(k + 1)]
    cells = [("p1", "a", "->", "q0"), (chain[k], "b", "->", "p1"),
             *((q, "b", "->", t, "p1") for q, t in zip(chain, chain[1:]))]
    # the sweep looks symbols up in a dict keyed by the alphabet's str
    # objects, fastest when the cells hold the same objects
    return _named(["p1"], chain, ["a", "b"], ["q0"], ["q0"], cells)


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
    # the fresh names renumber the states, so the constructor builds the rows
    return LinearAutomaton(m.left_states | {x1, x2}, m.right_states, m.alphabet,
                           {**m.delta, (x1, symbol): {x1, x2}}, m.initial, m.final)


@dataclass(frozen=True)
class HierarchyWitness:
    k: int
    automaton: LinearAutomaton
    predicate: Callable[[str], bool]


def hierarchy_witness(k: int) -> HierarchyWitness:
    """Bundle level ``k``'s automaton with its independent membership check."""
    return HierarchyWitness(k, build_lk_automaton(k), lambda w: lk_predicate(k, w))
