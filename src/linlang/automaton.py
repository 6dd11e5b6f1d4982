"""Two-head linear automata: simulation, lambda elimination, determinization.

States come in two disjoint classes: left-reading states consume the leftmost
remaining input symbol, right-reading states the rightmost.  The transition
map sends (state, symbol-or-lambda) to a set of states; lambda moves change
state without reading.  A word is accepted when some run starting in a start
state consumes the whole word and ends in a final state.

Everything is an immutable value and every operation is pure; the search
structures are operation-local, so concurrent use is safe.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .errors import (
    ClassOverlap,
    EmptyInitialSetWarning,
    HasLambdaMoves,
    NotDeterminizable,
    SymbolNotInAlphabet,
    UnknownState,
    UnknownSymbol,
)
from .grammar import _closure, _enumerate_words
from .naming import NamePool, check_name, names_ok

#: Internal marker for the empty-string move; rendered as ``eps`` in all I/O.
LAMBDA = ""


class StateClass(enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class LinearAutomaton:
    left_states: frozenset[str]
    right_states: frozenset[str]
    alphabet: frozenset[str]
    #: Read-only view; unhashable, so the automaton's hash leaves it out.
    delta: Mapping[tuple[str, str], frozenset[str]] = field(hash=False)
    initial: frozenset[str]
    final: frozenset[str]

    def __post_init__(self):
        for name in ("left_states", "right_states", "alphabet", "initial", "final"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        cells = {k: frozenset(v) for k, v in self.delta.items() if v}
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "delta", MappingProxyType(cells))
        states = self.states
        named = states | self.initial | self.final
        if not (names_ok(named) and names_ok(self.alphabet, single=True)):
            # Names are visited in sorted order, so of several faults the
            # same one is always reported.
            for q in sorted(named):
                check_name(q, "state")
            for a in sorted(self.alphabet):
                check_name(a, "alphabet symbol", single=True)
        if overlap := self.left_states & self.right_states:
            q = min(overlap)
            raise ClassOverlap(f"state {q!r} declared in both classes", subject=q)
        for pool, what in ((self.initial, "initial"), (self.final, "final")):
            if missing := pool - states:
                q = min(missing)
                raise UnknownState(f"{what} state {q!r} is not declared", subject=q)
        for (q, a), targets in cells.items():
            if q not in states:
                raise UnknownState(f"transition from undeclared state {q!r}", subject=q)
            if a != LAMBDA and a not in self.alphabet:
                raise UnknownSymbol(f"transition on undeclared symbol {a!r}", subject=a)
            if missing := targets - states:
                t = min(missing)
                raise UnknownState(f"transition into undeclared state {t!r}", subject=t)

    @cached_property
    def states(self) -> frozenset[str]:
        return self.left_states | self.right_states

    @property
    def has_lambda_moves(self) -> bool:
        return any(a == LAMBDA for (_, a) in self.delta)

    @cached_property
    def _lambda_free(self) -> LinearAutomaton:
        # built on first use, so each automaton folds its lambda moves once
        return eliminate_lambda(self) if self.has_lambda_moves else self

    def class_of(self, q: str) -> StateClass:
        if q in self.left_states:
            return StateClass.LEFT
        if q in self.right_states:
            return StateClass.RIGHT
        raise UnknownState(f"no state named {q!r}")

    @cached_property
    def _reads(self) -> dict[str, tuple[bool, tuple[tuple[str, tuple[str, ...]], ...]]]:
        # each state's reading moves, so a sweep visits only the moves it has
        reads: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for (q, a), targets in self._cells.items():
            if a != LAMBDA:
                reads.setdefault(q, []).append((a, tuple(sorted(targets))))
        return {q: (q in self.left_states, tuple(moves)) for q, moves in reads.items()}

    def targets(self, q: str, a: str) -> frozenset[str]:
        # the plain dict: a lookup through the read-only view costs more
        return self._cells.get((q, a), frozenset())

    def transitions(self) -> list[tuple[str, str, frozenset[str]]]:
        """Transition entries sorted by state, then symbol with lambda last."""
        return sorted(((q, a, ts) for (q, a), ts in self.delta.items()),
                      key=lambda e: (e[0], e[1] == LAMBDA, e[1]))


def validate_automaton(*, left: Iterable[str], right: Iterable[str],
                       alphabet: Iterable[str],
                       delta: Mapping[tuple[str, str], Iterable[str]],
                       initial: Iterable[str], final: Iterable[str],
                       ) -> LinearAutomaton:
    """Build a LinearAutomaton, warning when the start set is empty."""
    m = LinearAutomaton(left, right, alphabet, delta, initial, final)
    if not m.initial:
        warnings.warn("automaton has no start states and accepts nothing",
                      EmptyInitialSetWarning, stacklevel=2)
    return m


class InstantaneousDescription(NamedTuple):
    """Current state plus the remaining substring input[lo:hi)."""

    state: str
    lo: int
    hi: int

    def remaining(self, word: str) -> str:
        return word[self.lo:self.hi]


def _symbol_masks(m: LinearAutomaton, word: str) -> dict[str, int]:
    """Bit i of ``masks[a]`` is set when ``word[i] == a``, for each symbol of m."""
    if not m.alphabet.issuperset(word):
        bad = next(ch for ch in word if ch not in m.alphabet)
        raise SymbolNotInAlphabet(f"symbol {bad!r} is not in the alphabet")
    masks = dict.fromkeys(m.alphabet, 0)
    rev, present = word[::-1], set(word)
    zeros = dict.fromkeys(map(ord, present), "0")
    for a in present:
        # base 2 is exempt from the int/str digit limit, so any length works
        masks[a] = int(rev.translate({**zeros, ord(a): "1"}), 2)
    return masks


def step(m: LinearAutomaton, ident: InstantaneousDescription, word: str,
         ) -> set[InstantaneousDescription]:
    """All one-move successors of an instantaneous description."""
    q, lo, hi = ident
    out: set[InstantaneousDescription] = set()
    if lo < hi:
        if q in m.left_states:
            for t in m.targets(q, word[lo]):
                out.add(InstantaneousDescription(t, lo + 1, hi))
        elif q in m.right_states:
            for t in m.targets(q, word[hi - 1]):
                out.add(InstantaneousDescription(t, lo, hi - 1))
    for t in m.targets(q, LAMBDA):
        out.add(InstantaneousDescription(t, lo, hi))
    return out


def accepts(m: LinearAutomaton, word: str) -> bool:
    """Sweep the lambda-free automaton over the word one read at a time.

    After k reads a configuration (q, lo, hi) has hi = n - k + lo, so each
    level keeps one bitset over ``lo`` per state.  With bit i of ``masks[a]``
    set when ``word[i] == a``, a left read is ``(S & masks[a]) << 1`` and a
    right read is ``S & (masks[a] >> (n - 1 - k))``.
    """
    masks = _symbol_masks(m, word)
    m = m._lambda_free
    reads = m._reads
    n = len(word)
    level = dict.fromkeys(m.initial, 1)
    for k in range(n):
        if not level:
            return False
        shift = n - 1 - k
        nxt: dict[str, int] = {}
        for q, s in level.items():
            if q not in reads:
                continue
            left, moves = reads[q]
            for a, targets in moves:
                moved = (s & masks[a]) << 1 if left else s & (masks[a] >> shift)
                if moved:
                    for t in targets:
                        nxt[t] = nxt.get(t, 0) | moved
        level = nxt
    return not m.final.isdisjoint(level)


class _Liveness:
    """Backward sweep: bit lo of ``level(k)[q]`` is set when (q, lo, n - k + lo)
    still has an accepting run.

    Level n holds the final states with every bit set; level k comes from
    level k + 1 by the reverse reads, a left read giving ``(L >> 1) & mask``
    and a right read ``L & (mask >> (n - 1 - k))``; each level is closed under
    reverse lambda moves.  Only every ceil(sqrt(n))-th level is kept; a level
    in between is rebuilt with the rest of its block from the checkpoint
    above it, and the last block built is kept (Hirschberg's linear-space
    idea).  A search that visits levels in increasing order rebuilds each
    block once.
    """

    def __init__(self, m: LinearAutomaton, word: str, masks: dict[str, int]):
        n = self.n = len(word)
        # the move table inverted: target -> (source, reads left?, mask)
        self.into: dict[str, list[tuple[str, bool, int]]] = {}
        for q, (left, moves) in m._reads.items():
            for a, targets in moves:
                if masks[a]:
                    for t in targets:
                        self.into.setdefault(t, []).append((q, left, masks[a]))
        # t -> the other states whose lambda closure holds t
        self.back: dict[str, list[str]] = {}
        for q in {q for (q, a) in m.delta if a == LAMBDA}:
            for t in lambda_closure(m, q) - {q}:
                self.back.setdefault(t, []).append(q)
        self.gap = math.isqrt(n - 1) + 1 if n else 1
        live = self._closed(dict.fromkeys(m.final, (2 << n) - 1))
        self.checkpoints = {n: live}
        for k in reversed(range(n)):
            live = self._below(live, k)
            if k % self.gap == 0:
                self.checkpoints[k] = live
        self.block: dict[int, dict[str, int]] = {}

    def _closed(self, pre: dict[str, int]) -> dict[str, int]:
        if not self.back:
            return pre
        live = dict(pre)
        for t, s in pre.items():
            for q in self.back.get(t, ()):
                live[q] = live.get(q, 0) | s
        return live

    def _below(self, live: dict[str, int], k: int) -> dict[str, int]:
        shift = self.n - 1 - k
        pre: dict[str, int] = {}
        for t, s in live.items():
            for q, left, mask in self.into.get(t, ()):
                bits = (s >> 1) & mask if left else s & (mask >> shift)
                if bits:
                    pre[q] = pre.get(q, 0) | bits
        return self._closed(pre)

    def level(self, k: int) -> dict[str, int]:
        if k in self.checkpoints:
            return self.checkpoints[k]
        if k not in self.block:
            base = k - k % self.gap
            self.block.clear()
            live = self.checkpoints[min(self.n, base + self.gap)]
            for j in reversed(range(base + 1, min(self.n, base + self.gap))):
                live = self.block[j] = self._below(live, j)
        return self.block[k]

    def __contains__(self, ident: InstantaneousDescription) -> bool:
        q, lo, hi = ident
        return self.level(lo + self.n - hi).get(q, 0) >> lo & 1 == 1


def _run(m: LinearAutomaton, word: str) -> list[InstantaneousDescription] | None:
    """The search behind ``trace``, returning descriptions: O(n) memory, not n²/2 characters."""
    live = _Liveness(m, word, _symbol_masks(m, word))
    starts = [InstantaneousDescription(q, 0, len(word)) for q in sorted(m.initial)]
    stack: list[tuple[InstantaneousDescription, InstantaneousDescription | None]]
    stack = [(ident, None) for ident in reversed(starts) if ident in live]
    parent: dict[InstantaneousDescription, InstantaneousDescription | None] = {}
    while stack:
        ident, via = stack.pop()
        if ident in parent:
            continue
        parent[ident] = via
        if ident.lo >= ident.hi and ident.state in m.final:
            path = [ident]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        # a read leaves less input than a lambda move, so it sorts first
        for nxt in sorted(step(m, ident, word), key=lambda i: (i.hi - i.lo, i.state),
                          reverse=True):
            if nxt not in parent and nxt in live:
                stack.append((nxt, ident))
    return None


def trace(m: LinearAutomaton, word: str) -> list[tuple[str, str]] | None:
    """One accepting run as (state, remaining-substring) pairs, or None.

    Depth-first with a fixed tie-break (reading moves before lambda moves,
    target states in name order), so the returned run is reproducible.  A
    backward liveness sweep comes first and the search pushes only
    descriptions that can still accept: a rejected word has no live start,
    and an accepted one is found without entering a dead branch, in steps
    linear in the number of levels.  Dropping dead descriptions changes
    neither the order nor the parent of the first visit to a live one, so
    the run is the one the plain search would return.
    """
    run = _run(m, word)
    return None if run is None else [(q, word[lo:hi]) for q, lo, hi in run]


def lambda_closure(m: LinearAutomaton, q: str) -> frozenset[str]:
    """States reachable from ``q`` by lambda moves alone (including ``q``)."""
    if q not in m.states:
        raise UnknownState(f"no state named {q!r}")
    return frozenset(_closure(q, lambda u: m.targets(u, LAMBDA)))


def eliminate_lambda(m: LinearAutomaton) -> LinearAutomaton:
    """Equivalent automaton with no lambda moves.

    Closures are folded into transition targets and into the start set, never
    into sources: the reading direction belongs to the state performing the
    read, and a lambda move may cross between the two classes.
    """
    closures = {q: lambda_closure(m, q) for q, a in m.delta if a == LAMBDA}
    delta = {(q, a): frozenset().union(*(closures.get(t, (t,)) for t in targets))
             for (q, a), targets in m.delta.items() if a != LAMBDA}
    initial = frozenset().union(*(closures.get(q, (q,)) for q in m.initial))
    return LinearAutomaton(m.left_states, m.right_states, m.alphabet,
                           delta, initial, m.final)


def is_deterministic(m: LinearAutomaton) -> bool:
    """No lambda moves and at most one target per state and symbol."""
    return not m.has_lambda_moves and all(len(ts) <= 1 for ts in m.delta.values())


def _require_lambda_free(m: LinearAutomaton, op: str) -> None:
    if m.has_lambda_moves:
        raise HasLambdaMoves(f"{op} is defined only for lambda-free automata")


def is_even(m: LinearAutomaton) -> bool:
    """True when every transition crosses between the two state classes."""
    _require_lambda_free(m, "is_even")
    for (q, _), targets in m.delta.items():
        opposite = m.right_states if q in m.left_states else m.left_states
        if not targets <= opposite:
            return False
    return True


def ndeg(m: LinearAutomaton) -> int:
    """Total transition-target count minus the number of non-empty cells."""
    _require_lambda_free(m, "ndeg")
    return sum(len(ts) - 1 for ts in m.delta.values())


class Homogeneity(enum.Enum):
    ALL_LEFT = "all-left"
    ALL_RIGHT = "all-right"
    MIXED = "mixed"


@dataclass(frozen=True)
class SubsetState:
    members: frozenset[str]
    homogeneity: Homogeneity


class _Subsets(NamedTuple):
    """The reachable subsets, numbered breadth-first; each list is indexed by number."""

    members: list[tuple[str, ...]]  # the subset's states in name order
    homogeneity: list[Homogeneity]
    final: list[bool]
    succ: list[dict[str, int]]  # symbol -> number of the successor


def _subset_table(m: LinearAutomaton) -> _Subsets:
    # A subset is an int mask over the states in name order.  Each state and
    # symbol has one target mask, a subset's successor is the OR of its
    # members' masks, and its homogeneity and finality are one AND each.  The
    # empty union is skipped, matching a partial transition function on the
    # determinized side.
    _require_lambda_free(m, "subset construction")
    order = sorted(m.states)
    at = {q: i for i, q in enumerate(order)}

    def mask(states: Iterable[str]) -> int:
        return sum(1 << at[q] for q in states)

    targets = {a: [0] * len(order) for a in sorted(m.alphabet)}
    for (q, a), ts in m._cells.items():
        targets[a][at[q]] = mask(ts)
    left, right, final = mask(m.left_states), mask(m.right_states), mask(m.final)
    t = _Subsets([], [], [], [])
    all_left, all_right, mixed = Homogeneity  # enum member lookups are slow
    masks = [1 << at[q] for q in sorted(m.initial)]
    number = {x: k for k, x in enumerate(masks)}
    for k, x in enumerate(masks):  # the loop sees subsets appended as they are found
        members, rest = [], x
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        t.members.append(tuple(map(order.__getitem__, members)))
        t.homogeneity.append(all_left if not x & right else
                             all_right if not x & left else mixed)
        t.final.append(x & final != 0)
        succ = {}
        for a, row in targets.items():
            if y := reduce(or_, map(row.__getitem__, members)):
                if y not in number:
                    number[y] = len(masks)
                    masks.append(y)
                succ[a] = number[y]
        t.succ.append(succ)
    return t


def subset_states(m: LinearAutomaton) -> set[SubsetState]:
    """The reachable subset-state family, each tagged with its homogeneity."""
    t = _subset_table(m)
    return set(map(SubsetState, map(frozenset, t.members), t.homogeneity))


def is_determinizable(m: LinearAutomaton) -> bool:
    """True when no reachable subset mixes left and right states."""
    return Homogeneity.MIXED not in _subset_table(m).homogeneity


def mixed_subset_witness(m: LinearAutomaton) -> tuple[tuple[str, ...], str | None] | None:
    """The least mixed subset (its members in name order) and a shortest input
    word reaching it, or None when the automaton is determinizable.

    The word is searched breadth-first over the subset table: an all-left
    subset reads the next symbol from the word's left end, an all-right one
    from its right end.  A mixed subset reads from both ends at once, so no
    word leads past one; when every path to the least mixed subset passes
    another mixed subset, the word is None.
    """
    t = _subset_table(m)
    mixed = [k for k, h in enumerate(t.homogeneity) if h is Homogeneity.MIXED]
    if not mixed:
        return None
    target = min(mixed, key=t.members.__getitem__)
    read = {k: ("", "") for k in range(len(m.initial))}  # subset -> (left, right) reads
    queue = list(read)  # the start singletons are numbered first
    for k in queue:
        if k == target:
            return t.members[k], "".join(read[k])
        if (h := t.homogeneity[k]) is Homogeneity.MIXED:
            continue
        x, y = read[k]
        for a, n in t.succ[k].items():
            if n not in read:
                read[n] = (x + a, y) if h is Homogeneity.ALL_LEFT else (x, a + y)
                queue.append(n)
    return t.members[target], None


def determinize(m: LinearAutomaton) -> LinearAutomaton:
    """Subset construction over homogeneous subsets; start set kept as-is."""
    t = _subset_table(m)
    if Homogeneity.MIXED in t.homogeneity:
        worst = list(t.members[t.homogeneity.index(Homogeneity.MIXED)])
        raise NotDeterminizable(f"subset mixes both classes: {worst}")
    pool = NamePool()
    names = [pool.fresh("_".join(x)) for x in t.members]
    left = {q for q, h in zip(names, t.homogeneity) if h is Homogeneity.ALL_LEFT}
    delta = {(names[k], a): (names[y],) for k, succ in enumerate(t.succ)
             for a, y in succ.items()}
    final = {q for q, f in zip(names, t.final) if f}
    # the start singletons are numbered first
    return LinearAutomaton(frozenset(left), frozenset(names) - left, m.alphabet,
                           delta, frozenset(names[:len(m.initial)]), frozenset(final))


def _move_rules(m: LinearAutomaton) -> dict[str, list[tuple[str, str | None, str]]]:
    """Every move read as its linear production, keyed by source state.

    A left read q -a-> t is q -> a t, a right read q -> t a, a lambda move
    the unit production q -> t (LAMBDA is the empty flank), and a final
    state q erases.  Rules are (left flank, target or None, right flank).
    """
    rules: dict[str, list[tuple[str, str | None, str]]] = {}
    for (q, a), targets in m.delta.items():
        left, right = (a, "") if q in m.left_states else ("", a)
        rules.setdefault(q, []).extend((left, t, right) for t in targets)
    for q in m.final:
        rules.setdefault(q, []).append(("", None, ""))
    return rules


def enumerate_accepted(m: LinearAutomaton, max_len: int) -> list[str]:
    """All accepted words of at most ``max_len`` symbols, shortest first.

    Each move is read as its linear production, and the words each state
    derives are built one length at a time, as for a grammar; no word is
    tested, and only lengths at which a state derives something cost work,
    so sparse languages come out fast.
    """
    return _enumerate_words(_move_rules(m), m.initial, max_len)


def class_swapped(m: LinearAutomaton) -> LinearAutomaton:
    """Same transitions with the two state classes exchanged.

    The result accepts exactly the reversals of the words ``m`` accepts.
    """
    return replace(m, left_states=m.right_states, right_states=m.left_states)
