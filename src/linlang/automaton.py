"""Two-head linear automata: simulation, lambda elimination, determinization.

States come in two disjoint classes: left-reading states consume the leftmost
remaining input symbol, right-reading states the rightmost.  The transition
map sends (state, symbol-or-lambda) to a set of states; lambda moves change
state without reading.  A word is accepted when some run starting in a start
state consumes the whole word and ends in a final state.  An automaton holds
its states numbered in name order and one row of moves per state; the
name-level transition map is a view.

Everything is an immutable value and every operation is pure; the search
structures are operation-local, so concurrent use is safe.
"""

from __future__ import annotations

import enum
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import chain, compress
from operator import or_
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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
from .naming import NamePool, check_name, names_ok, scan_order

#: Internal marker for the empty-string move; rendered as ``eps`` in all I/O.
LAMBDA = ""


@dataclass(frozen=True, init=False)
class LinearAutomaton:
    """States numbered in name order, with one row per state number: its
    side, its reads (symbol -> target numbers, symbols and targets in order)
    and its lambda targets.  ``states``, ``left_states``, ``right_states``,
    ``initial``, ``final`` and ``delta`` are views cached on first use."""

    _names: tuple[str, ...]
    _left: tuple[bool, ...]  # reads the left end
    #: Unhashable, so the automaton's hash leaves it out.
    _reads: tuple[dict[str, tuple[int, ...]], ...] = field(hash=False)
    _lam: tuple[tuple[int, ...], ...]
    alphabet: frozenset[str]
    _initial: tuple[int, ...]
    _final: frozenset[int]

    def __init__(self, left_states: Iterable[str], right_states: Iterable[str],
                 alphabet: Iterable[str], delta: Mapping[tuple[str, str], Iterable[str]],
                 initial: Iterable[str], final: Iterable[str]):
        cells = [c for (q, a), ts in delta.items() if len(c := (q, a, "->", *ts)) > 3]
        self.__dict__.update(vars(_named(left_states, right_states, alphabet, initial,
                                         final, cells)))

    def __reduce__(self):
        # str hashes differ between processes, so a copy rebuilds its dicts and sets
        return _automaton, (self._names, self._left, self._reads, self._lam,
                            self.alphabet, self._initial, self._final)

    states = cached_property(lambda self: frozenset(self._names))
    left_states = cached_property(lambda self: frozenset(compress(self._names, self._left)))
    right_states = cached_property(lambda self: self.states - self.left_states)
    initial = cached_property(lambda self: frozenset(map(self._names.__getitem__, self._initial)))
    final = cached_property(lambda self: frozenset(map(self._names.__getitem__, self._final)))

    @cached_property
    def delta(self) -> Mapping[tuple[str, str], frozenset[str]]:
        """Read-only view of the cells, in the order of ``transitions()``."""
        names, cells = self._names, {}
        one = [frozenset((q,)) for q in names]  # most cells have one target
        for q, reads, lam in zip(names, self._reads, self._lam):
            for a, ts in (*reads.items(), (LAMBDA, lam)) if lam else reads.items():
                cells[q, a] = one[ts[0]] if len(ts) == 1 else frozenset(map(names.__getitem__, ts))
        return MappingProxyType(cells)

    has_lambda_moves = property(lambda self: any(self._lam))
    # built on first use, so each automaton folds its lambda moves once
    _lambda_free = cached_property(lambda self: eliminate_lambda(self))

    # The sweeps iterate tuples of moves faster than dict items.
    _moves = cached_property(lambda self: tuple(zip(self._left, map(tuple, map(
        dict.items, self._reads)))))

    # each state with a lambda move -> its lambda closure
    _closures = cached_property(lambda self: {
        q: _closure(q, self._lam.__getitem__) for q, ts in enumerate(self._lam) if ts})

    @cached_property
    def _back(self) -> dict[int, list[int]]:
        # the other states whose lambda closure holds this one
        back: dict[int, list[int]] = {}
        for q, closure in self._closures.items():
            for t in closure - {q}:
                back.setdefault(t, []).append(q)
        return back

    def targets(self, q: str, a: str) -> frozenset[str]:
        return self.delta.get((q, a), frozenset())

    def transitions(self) -> list[tuple[str, str, frozenset[str]]]:
        """Transition entries sorted by state, then symbol with lambda last."""
        return [(q, a, ts) for (q, a), ts in self.delta.items()]


def _fault(left: Iterable, right: Iterable, alphabet: Iterable, initial: Iterable,
           final: Iterable, cells: Iterable[Sequence]) -> None:
    """Raise the first of an automaton's faults, in one order so that the same
    one is always reported: each state name, then each symbol, each sorted
    with names that are not str first; a state of both classes; an undeclared
    initial, then final, state; then cell by cell, in the order given, an
    undeclared source, symbol or target.  Cells are as ``_named`` takes them."""
    states = {*left, *right}
    for q in sorted(states.union(initial, final), key=scan_order):
        check_name(q, "state")
    for a in sorted(alphabet, key=scan_order):
        check_name(a, "alphabet symbol", single=True)
    if overlap := set(left).intersection(right):
        q = min(overlap)
        raise ClassOverlap(f"state {q!r} declared in both classes", subject=q)
    for pool, what in ((initial, "initial"), (final, "final")):
        if missing := set(pool) - states:
            q = min(missing)
            raise UnknownState(f"{what} state {q!r} is not declared", subject=q)
    for q, a, _, *targets in cells:
        if q not in states:
            raise UnknownState(f"transition from undeclared state {q!r}", subject=q)
        if a != LAMBDA and a not in alphabet:
            raise UnknownSymbol(f"transition on undeclared symbol {a!r}", subject=a)
        if missing := set(targets) - states:
            t = min(missing, key=scan_order)
            raise UnknownState(f"transition into undeclared state {t!r}", subject=t)


def _automaton(names: Sequence[str], left: Sequence[bool],
               reads: Sequence[dict[str, tuple[int, ...]]], lam: Sequence[tuple[int, ...]],
               alphabet: Iterable[str], initial: Sequence[int], final: Iterable[int],
               fault: Callable[[], None] | None = None) -> LinearAutomaton:
    """An automaton from rows, ``names`` in order, each row's reads in symbol
    order, each cell and ``initial`` a tuple of distinct increasing numbers.
    Every name-level check is made in one batch: valid state names,
    one-character symbols, each read on a symbol of the alphabet.  On a fault
    ``fault`` reports it, by default ``_fault`` over the names the rows spell.
    """
    alphabet = frozenset(alphabet)
    if not (names_ok(names) and names_ok(alphabet, single=True)
            and alphabet.issuperset(chain.from_iterable(reads))):
        (fault or partial(_fault, names, (), alphabet, (), (),
                          [(names[q], a, "->") for q, r in enumerate(reads) for a in r]))()
    m = object.__new__(LinearAutomaton)
    m.__dict__.update(_names=tuple(names), _left=tuple(left), _reads=tuple(reads),
                      _lam=tuple(lam), alphabet=alphabet, _initial=tuple(initial),
                      _final=frozenset(final))
    return m


def _named(left: Iterable[str], right: Iterable[str], alphabet: Iterable[str],
           initial: Iterable[str], final: Iterable[str],
           cells: Sequence[Sequence[str]]) -> LinearAutomaton:
    """An automaton from names, each cell a transition line's tokens: a
    source, a symbol (LAMBDA for a lambda move), ``->`` and targets.  A source
    and symbol may come in several cells."""
    left, right = [*left], [*right]
    pools = left_set, right_set, alphabet, initial, final = tuple(map(
        frozenset, (left, right, alphabet, initial, final)))
    fault = partial(_fault, *pools, cells)
    states = left_set | right_set
    if not (left_set.isdisjoint(right_set) and initial | final <= states):
        fault()
    try:
        # sorted declarations sort in linear time
        names = sorted(left + right if len(states) == len(left) + len(right) else states)
        at = dict(zip(names, range(len(names))))
        reads: list[dict[str, tuple[int, ...]]] = [{} for _ in names]
        for c in cells:  # lambda moves go under LAMBDA for now
            ts = (at[c[3]],) if len(c) == 4 else tuple(sorted(set(map(at.__getitem__, c[3:]))))
            row = reads[at[c[0]]]
            row[c[1]] = tuple(sorted({*row[c[1]], *ts})) if c[1] in row else ts
    except (TypeError, KeyError):  # a name that is not a str, or one not declared
        fault()
    lam = [r.pop(LAMBDA, ()) for r in reads]
    return _automaton(names, [q in left_set for q in names],
                      [dict(sorted(r.items())) if len(r) > 1 else r for r in reads], lam,
                      alphabet, sorted(map(at.__getitem__, initial)),
                      map(at.__getitem__, final), fault)


def validate_automaton(*, left: Iterable[str], right: Iterable[str],
                       alphabet: Iterable[str],
                       delta: Mapping[tuple[str, str], Iterable[str]],
                       initial: Iterable[str], final: Iterable[str],
                       ) -> LinearAutomaton:
    """Build a LinearAutomaton, warning when the start set is empty."""
    return _started(LinearAutomaton(left, right, alphabet, delta, initial, final))


def _started(m: LinearAutomaton) -> LinearAutomaton:
    if not m._initial:  # the warning points at the caller's caller
        warnings.warn("automaton has no start states and accepts nothing",
                      EmptyInitialSetWarning, stacklevel=3)
    return m


class InstantaneousDescription(NamedTuple):
    """Current state plus the remaining substring input[lo:hi)."""

    state: str
    lo: int
    hi: int

    def remaining(self, word: str) -> str:
        return word[self.lo:self.hi]


def _check_word(m: LinearAutomaton, word: str) -> None:
    if not m.alphabet.issuperset(word):
        bad = next(ch for ch in word if ch not in m.alphabet)
        raise SymbolNotInAlphabet(f"symbol {bad!r} is not in the alphabet")


def _symbol_masks(m: LinearAutomaton, word: str) -> dict[str, int]:
    """Bit i of ``masks[a]`` is set when ``word[i] == a``, for each symbol of m."""
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


def _forced(m: LinearAutomaton, word: str, path: list[tuple[str, int, int]] | None,
            ) -> tuple[Sequence[int], int, int] | None:
    """Step a lone start configuration while its next move is forced.

    Appends each (state, lo, hi) stepped from to ``path`` unless it is None.
    Returns the states to go on from, lo and the level k (reads made): the
    start states at level 0 when there are several, else the state reached
    at level n or at the first branch, a node with a lambda move or two or
    more read targets.  None means the run halted with no move before level n.
    """
    if len(m._initial) != 1:
        return m._initial, 0, 0
    names, reads, left, lam = m._names, m._reads, m._left, m._lam
    (q,), n, lo, hi = m._initial, len(word), 0, len(word)
    while lo < hi:
        ts = reads[q].get(word[lo] if left[q] else word[hi - 1], ())
        if len(ts) != 1 or lam[q]:
            return ([q], lo, n - hi + lo) if ts or lam[q] else None
        if path is not None:
            path.append((names[q], lo, hi))
        if left[q]:
            lo += 1
        else:
            hi -= 1
        q = ts[0]
    return [q], lo, n


def accepts(m: LinearAutomaton, word: str) -> bool:
    """Sweep the lambda-free automaton over the word one read at a time.

    After k reads a configuration (q, lo, hi) has hi = n - k + lo, so each
    level keeps one bitset over ``lo`` per state.  With bit i of ``masks[a]``
    set when ``word[i] == a``, a left read is ``(S & masks[a]) << 1`` and a
    right read is ``S & (masks[a] >> (n - 1 - k))``.  A lone start state
    first steps by plain lookups while its read is forced, and masks and
    sweep start at the first branch, so a deterministic automaton decides
    the word with no big int at all.
    """
    _check_word(m, word)
    t = m._lambda_free
    if (at := _forced(t, word, None)) is None:
        return False
    (entries, lo, top), n = at, len(word)
    if top == n:
        return not t._final.isdisjoint(entries)
    masks, moves = _symbol_masks(m, word), t._moves
    level = dict.fromkeys(entries, 1 << lo)
    for k in range(top, n):
        if not level:
            return False
        shift = n - 1 - k
        nxt: dict[int, int] = {}
        for q, s in level.items():
            left, cells = moves[q]
            for a, targets in cells:
                moved = (s & masks[a]) << 1 if left else s & (masks[a] >> shift)
                if moved:
                    for u in targets:
                        nxt[u] = nxt.get(u, 0) | moved
        level = nxt
    return not t._final.isdisjoint(level)


def _live_levels(m: LinearAutomaton, word: str, masks: dict[str, int], top: int,
                 ) -> Iterator[dict[int, int]]:
    """Levels ``top`` to n of a backward sweep, in increasing order: bit lo
    of level k's ``[q]`` is set when (q, lo, n - k + lo) has an accepting run.

    Level n holds the final states with every bit set; level k comes from
    level k + 1 by the reverse reads, a left read giving ``(L >> 1) & mask``
    and a right read ``L & (mask >> (n - 1 - k))``; each level is closed under
    reverse lambda moves.  An empty level empties every level below it, so
    the sweep stops there and yields nothing.  Only every
    ceil(sqrt(n - top))-th level is kept, and the levels between two kept
    ones are rebuilt from the upper one as the search reaches them
    (Hirschberg's linear-space idea).
    """
    n, back = len(word), m._back
    into: list[list[tuple[int, bool, int]]] = [[] for _ in m._names]  # (source, left, mask)
    for q, (left, cells) in enumerate(m._moves):
        for a, targets in cells:
            for u in targets if masks[a] else ():
                into[u].append((q, left, masks[a]))

    def closed(live: dict[int, int]) -> dict[int, int]:
        # back lists whole lambda closures, so one pass closes the level
        for u, s in list(live.items()) if back else ():
            for q in back.get(u, ()):
                live[q] = live.get(q, 0) | s
        return live

    def below(live: dict[int, int], k: int) -> dict[int, int]:
        shift, pre = n - 1 - k, {}
        for u, s in live.items():
            for q, left, mask in into[u]:
                if bits := (s >> 1) & mask if left else s & (mask >> shift):
                    pre[q] = pre.get(q, 0) | bits
        return closed(pre)

    gap = math.isqrt(n - top - 1) + 1 if n > top else 1
    live = closed(dict.fromkeys(m._final, (2 << n) - 1))
    kept = {n: live}
    for k in reversed(range(top, n)):
        if not live:
            return
        live = below(live, k)
        if (k - top) % gap == 0:
            kept[k] = live
    for base in range(top, n, gap):
        yield kept[base]
        block = [kept[min(n, base + gap)]]
        for j in reversed(range(base + 1, min(n, base + gap))):
            block.append(below(block[-1], j))
        yield from reversed(block[1:])
    yield kept[n]


def _search(m: LinearAutomaton, word: str) -> list[tuple[str, int, int]] | None:
    """The run ``trace`` returns, as (state, lo, hi) triples.

    A lone start state first steps while its move is forced, and the
    liveness sweep is built at the first branch, for the levels from there
    on.  The search then goes level by level: it leaves a level by the first
    live read target, in name order, of the first visited node that has one.
    Only a node with no live read searches its live lambda moves, depth-first
    within the level.  Once a level is entered at a live node, the search
    never backs out of it: the node's accepting run stays in the level by
    live lambda moves up to a node with a live read (or a final node at
    level n), the search reaches such a node before it could back out, and
    the read target is entered live at a level not visited yet.  So no
    parent map or stack of descriptions is kept, and the run is the one the
    plain depth-first search returns.
    """
    _check_word(m, word)
    n, run = len(word), []
    names, left, reads, lam = m._names, m._left, m._reads, m._lam
    if (at := _forced(m, word, run)) is None:
        return None
    entries, lo, k = at
    levels = _live_levels(m, word, _symbol_masks(m, word), k)
    here = next(levels, {})
    if (entry := next((q for q in entries if here.get(q, 0) >> lo & 1), None)) is None:
        return None

    def leave(u: int) -> int | None:
        # u's first live read target, or -1 when u is final at level n
        if k == n:
            return -1 if u in m._final else None
        after = lo + left[u]
        for v in reads[u].get(word[lo] if left[u] else word[hi - 1], ()):
            if ahead.get(v, 0) >> after & 1:
                return v
        return None

    while True:
        hi = n - k + lo
        ahead = next(levels) if k < n else {}
        path, todo, seen = [entry], [iter(lam[entry])], {entry}
        while (target := leave(path[-1])) is None:  # depth-first over live lambda moves
            u = next((u for u in todo[-1] if u not in seen and here.get(u, 0) >> lo & 1), None)
            if u is None:
                path.pop()
                todo.pop()
            else:
                seen.add(u)
                path.append(u)
                todo.append(iter(lam[u]))
        for u in path:
            run.append((names[u], lo, hi))
        if k == n:
            return run
        lo, k, entry, here = lo + left[path[-1]], k + 1, target, ahead


def trace(m: LinearAutomaton, word: str) -> list[tuple[str, str]] | None:
    """One accepting run as (state, remaining-substring) pairs, or None.

    Depth-first with a fixed tie-break (reading moves before lambda moves,
    target states in name order), so the returned run is reproducible.  A
    backward liveness sweep steers the search past every dead branch (see
    ``_search``), in steps linear in the number of levels.
    """
    run = _search(m, word)
    return None if run is None else [(q, word[lo:hi]) for q, lo, hi in run]


def lambda_closure(m: LinearAutomaton, q: str) -> frozenset[str]:
    """States reachable from ``q`` by lambda moves alone (including ``q``)."""
    if q not in m.states:
        raise UnknownState(f"no state named {q!r}", subject=q)
    i = bisect_left(m._names, q)
    return frozenset(map(m._names.__getitem__, m._closures.get(i, (i,))))


def eliminate_lambda(m: LinearAutomaton) -> LinearAutomaton:
    """Equivalent automaton with no lambda moves.

    Closures are folded into transition targets and into the start set, never
    into sources: the reading direction belongs to the state performing the
    read, and a lambda move may cross between the two classes.
    """
    if not (closures := m._closures):
        return m
    def fold(ts: tuple[int, ...]) -> tuple[int, ...]:  # each state with its closure
        return tuple(sorted(set().union(*(closures.get(t, (t,)) for t in ts))))

    plain = closures.keys().isdisjoint  # no state here has a lambda move
    reads = [r if plain(chain.from_iterable(r.values()))
             else {a: ts if plain(ts) else fold(ts) for a, ts in r.items()} for r in m._reads]
    return _automaton(m._names, m._left, reads, ((),) * len(reads), m.alphabet,
                      fold(m._initial), m._final)


def is_deterministic(m: LinearAutomaton) -> bool:
    """No lambda moves and at most one target per state and symbol."""
    return not m.has_lambda_moves and all(len(ts) <= 1 for r in m._reads for ts in r.values())


def _require_lambda_free(m: LinearAutomaton, op: str) -> None:
    if m.has_lambda_moves:
        raise HasLambdaMoves(f"{op} is defined only for lambda-free automata")


def is_even(m: LinearAutomaton) -> bool:
    """True when every transition crosses between the two state classes."""
    _require_lambda_free(m, "is_even")
    left = m._left
    return all(left[t] != left[q] for q, r in enumerate(m._reads) for ts in r.values() for t in ts)


def ndeg(m: LinearAutomaton) -> int:
    """Total transition-target count minus the number of non-empty cells."""
    _require_lambda_free(m, "ndeg")
    return sum(len(ts) - 1 for r in m._reads for ts in r.values())


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
    names = m._names
    targets = {a: [0] * len(names) for a in sorted(m.alphabet)}
    for q, reads in enumerate(m._reads):
        for a, ts in reads.items():
            targets[a][q] = sum(1 << u for u in ts)
    left = sum(1 << q for q, lft in enumerate(m._left) if lft)
    right, final = (1 << len(names)) - 1 - left, sum(1 << q for q in m._final)
    t = _Subsets([], [], [], [])
    all_left, all_right, mixed = Homogeneity  # enum member lookups are slow
    masks = [1 << q for q in m._initial]
    number = {x: k for k, x in enumerate(masks)}
    for k, x in enumerate(masks):  # the loop sees subsets appended as they are found
        members, rest = [], x
        while rest:
            low = rest & -rest
            members.append(low.bit_length() - 1)
            rest ^= low
        t.members.append(tuple(map(names.__getitem__, members)))
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
    read = {k: ("", "") for k in range(len(m._initial))}  # subset -> (left, right) reads
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
    # renumbered in name order here, so that each row is built once
    order = sorted(range(len(names)), key=names.__getitem__)
    new = sorted(range(len(names)), key=order.__getitem__)
    return _automaton([names[k] for k in order],
                      [t.homogeneity[k] is Homogeneity.ALL_LEFT for k in order],
                      [{a: (new[y],) for a, y in t.succ[k].items()} for k in order],
                      ((),) * len(names), m.alphabet,
                      # the start singletons are numbered first
                      sorted(new[:len(m._initial)]), compress(new, t.final))


def _move_rules(m: LinearAutomaton, names: Sequence[str] | None = None,
                ) -> dict[str, list[tuple[str, str | None, str]]]:
    """Every move read as its linear production, keyed by source state, each
    state named ``names[q]`` (by default its own name).

    A left read q -a-> t is q -> a t, a right read q -> t a, a lambda move
    the unit production q -> t (LAMBDA is the empty flank), and a final
    state q erases.  Rules are (left flank, target or None, right flank).
    """
    names, lam = names or m._names, m._lam
    rules: dict[str, list[tuple[str, str | None, str]]] = {}
    for q, v, left, reads in zip(range(len(names)), names, m._left, m._reads):
        rs = [(a, names[t], "") if left else ("", names[t], a)
              for a, ts in reads.items() for t in ts]
        if lam[q]:
            rs += [("", names[t], "") for t in lam[q]]
        if q in m._final:
            rs.append(("", None, ""))
        if rs:
            rules[v] = rs
    return rules


def enumerate_accepted(m: LinearAutomaton, max_len: int) -> list[str]:
    """All accepted words of at most ``max_len`` symbols, shortest first.

    Each move is read as its linear production, and the words each state
    derives are built one length at a time, as for a grammar; no word is
    tested, and only lengths at which a state derives something cost work,
    so sparse languages come out fast.
    """
    return _enumerate_words(_move_rules(m), map(m._names.__getitem__, m._initial), max_len)


def class_swapped(m: LinearAutomaton) -> LinearAutomaton:
    """Same transitions with the two state classes exchanged.

    The result accepts exactly the reversals of the words ``m`` accepts.
    """
    return _automaton(m._names, [not left for left in m._left], m._reads, m._lam,
                      m.alphabet, m._initial, m._final)
