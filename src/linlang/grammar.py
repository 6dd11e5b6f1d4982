"""Linear grammars: validation, classification, normal forms, enumeration.

A grammar is linear when every production body holds at most one variable.
All objects here are immutable values; every operation is a pure function,
so concurrent use needs no synchronization.  A grammar caches its normal
forms on first use; two threads racing to fill the cache build equal
values, and either may be kept.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateSymbol,
    NotEvenLinear,
    NotLinear,
    StartNotDeclared,
    UnknownSymbol,
)
from .naming import NamePool, check_name, names_ok


class SymbolKind(enum.Enum):
    TERMINAL = "terminal"
    VARIABLE = "variable"


# Hot paths read these: looking a member up on an Enum class is slow.
_TERMINAL, _VARIABLE = SymbolKind.TERMINAL, SymbolKind.VARIABLE
_set = object.__setattr__
_kind, _name, _head = attrgetter("kind"), attrgetter("name"), attrgetter("head")


@dataclass(frozen=True, slots=True)
class Symbol:
    name: str
    kind: SymbolKind
    _hash: int = field(init=False, repr=False, compare=False)  # hashed once

    def __post_init__(self):
        _set(self, "_hash", hash((self.name, self.kind)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes differ between processes, so a copy rehashes
        return Symbol, (self.name, self.kind)

    def __str__(self) -> str:
        return self.name


def terminal(name: str) -> Symbol:
    return Symbol(name, _TERMINAL)


def variable(name: str) -> Symbol:
    return Symbol(name, _VARIABLE)


@dataclass(frozen=True, slots=True, init=False)
class Production:
    """One rewrite rule; an empty body is the erasing production."""

    head: Symbol
    body: tuple[Symbol, ...]
    #: Position of the body's variable, or None for terminal-only bodies.
    variable_index: int | None = field(repr=False, compare=False)
    # The names joined by spaces, which sort below every name character, so
    # it sorts as ``sort_key`` does; str keeps its hash once computed.
    _key: str = field(repr=False, compare=False)

    def __init__(self, head: Symbol, body: Iterable[Symbol]):
        body = tuple(body)
        _set(self, "head", head)
        _set(self, "body", body)
        # the key comes first: the errors below print the production
        key = " ".join(map(str, (head.name, *map(_name, body))))
        hash(key)
        _set(self, "_key", key)
        if head.kind is not _VARIABLE:
            raise UnknownSymbol(f"production head {head.name!r} is not a variable",
                                subject=self)
        kinds = list(map(_kind, body))
        if (count := kinds.count(_VARIABLE)) > 1:
            raise NotLinear(f"body of {self} holds more than one variable", subject=self)
        _set(self, "variable_index", kinds.index(_VARIABLE) if count else None)

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):
        return Production, (self.head, self.body)

    def sort_key(self) -> tuple:
        return (self.head.name, tuple(map(_name, self.body)))

    def __str__(self) -> str:
        # the key is the line with the arrow left out
        return self._key.replace(" ", " -> ", 1) if self.body else f"{self._key} -> eps"


class VariableClass(enum.Enum):
    RIGHT_LINEAR = "right-linear"
    LEFT_LINEAR = "left-linear"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True)
class LinearGrammar:
    variables: frozenset[Symbol]
    terminals: frozenset[Symbol]
    start: Symbol
    productions: frozenset[Production]

    def __post_init__(self):
        for name in ("variables", "terminals", "productions"):
            _set(self, name, frozenset(getattr(self, name)))
        pools = ((_VARIABLE, self.variables), (_TERMINAL, self.terminals))
        if not all(names_ok([s.name for s in pool], single=kind is _TERMINAL)
                   and set(map(_kind, pool)) <= {kind} for kind, pool in pools):
            # Names are visited in sorted order, so of several faults the
            # same one is always reported.
            for kind, pool in pools:
                for s in sorted(pool, key=_name):
                    check_name(s.name, kind.value, single=kind is _TERMINAL)
                    if s.kind is not kind:
                        raise UnknownSymbol(f"{s.name!r} listed as {kind.value} "
                                            f"with kind {s.kind.value}", subject=s.name)
        if clash := {s.name for s in self.variables} & {s.name for s in self.terminals}:
            name = min(clash)
            raise DuplicateSymbol(f"{name!r} declared as both terminal and variable",
                                  subject=name)
        if self.start not in self.variables:
            raise StartNotDeclared(f"start {self.start.name!r} is not a declared variable",
                                   subject=self.start.name)
        used = set(map(_head, self.productions)).union(*(p.body for p in self.productions))
        if bad := used - self.variables - self.terminals:
            name = min(s.name for s in bad)
            raise UnknownSymbol(f"undeclared symbol {name!r} in a production", subject=name)
        # One sort, grouped by head: every per-variable pass reads this index.
        ordered = tuple(sorted(self.productions, key=attrgetter("_key")))
        _set(self, "_sorted", ordered)
        _set(self, "_by_head", {v: tuple(ps) for v, ps in groupby(ordered, _head)})

    # Normal forms, built on first use, so each grammar folds them once.
    _lnf = cached_property(lambda self: _build_lnf(self))
    _slnf = cached_property(lambda self: _build_slnf(self._lnf))

    @cached_property
    def _classes(self) -> dict[Symbol, VariableClass]:
        # every head's class, read from its bodies once; a variable that
        # heads nothing is BOTH
        classes = {}
        for v, ps in self._by_head.items():
            right = left = True
            for p in ps:
                if (i := p.variable_index) is not None:
                    right = right and i == len(p.body) - 1
                    left = left and i == 0
            classes[v] = ((VariableClass.BOTH if left else VariableClass.RIGHT_LINEAR) if right
                          else VariableClass.LEFT_LINEAR if left else VariableClass.NEITHER)
        return classes

    # -- conveniences used throughout the package --

    def variable_named(self, name: str) -> Symbol:
        if (v := variable(name)) in self.variables:
            return v
        raise UnknownSymbol(f"no variable named {name!r}")

    def productions_of(self, head: Symbol) -> tuple[Production, ...]:
        return self._by_head.get(head, ())

    def sorted_productions(self) -> tuple[Production, ...]:
        return self._sorted

    def sorted_variables(self) -> tuple[Symbol, ...]:
        rest = sorted((s for s in self.variables if s != self.start), key=lambda s: s.name)
        return (self.start, *rest)

    def symbol_names(self) -> set[str]:
        return {s.name for s in self.variables} | {s.name for s in self.terminals}


def validate_grammar(*, variables: Iterable[str], terminals: Iterable[str],
                     start: str, productions: Iterable[tuple[str, Sequence[str]]],
                     ) -> LinearGrammar:
    """Build a LinearGrammar from name-level data.

    ``productions`` pairs a head name with a sequence of symbol names; an
    empty sequence is the erasing production.  A name declared twice raises
    DuplicateSymbol; every other rule is checked by Production and
    LinearGrammar.  An undeclared name passes through for them to reject: as
    a variable as start or head, as a terminal in a body, where it cannot
    make the body non-linear.
    """
    table: dict[str, Symbol] = {}
    for names, make in ((variables, variable), (terminals, terminal)):
        for n in names:
            if n in table:
                raise DuplicateSymbol(f"{n!r} declared twice", subject=n)
            table[n] = make(n)
    prods = frozenset(Production(table.get(head) or variable(head),
                                 tuple(table.get(n) or terminal(n) for n in body))
                      for head, body in productions)
    symbols = table.values()
    return LinearGrammar(frozenset(s for s in symbols if s.kind is _VARIABLE),
                         frozenset(s for s in symbols if s.kind is _TERMINAL),
                         table.get(start) or variable(start), prods)


def classify_variable(g: LinearGrammar, v: Symbol | str) -> VariableClass:
    """Four-way classification of one variable by the shape of its bodies."""
    if isinstance(v, str):
        v = g.variable_named(v)
    if v not in g.variables:
        raise UnknownSymbol(f"no variable named {v.name!r}")
    return g._classes.get(v, VariableClass.BOTH)


def is_lnf(g: LinearGrammar) -> bool:
    """True when every variable is purely left- or right-linear."""
    return VariableClass.NEITHER not in g._classes.values()


def to_lnf(g: LinearGrammar) -> LinearGrammar:
    """Rewrite so each variable is one-sided, preserving the language.

    Two passes: split every body with terminals on both sides of its variable
    at the variable, then funnel the variable-first productions of any
    still-mixed variable through a fresh unit-targeted variable.  Grammars
    already in the normal form come back unchanged.
    """
    return g._lnf


def _build_lnf(g: LinearGrammar) -> LinearGrammar:
    # After the split a head is mixed when it keeps a variable-first body
    # and has a body whose variable is not first (split ones included).
    mixed = dict.fromkeys(v for v, ps in g._by_head.items()
                          if any(p.variable_index == 0 and len(p.body) > 1 for p in ps)
                          and any(p.variable_index for p in ps))
    names = NamePool(g.symbol_names())
    variables = set(g.variables)
    prods: list[Production] = []
    moved: list[Production] = []
    for p in g.sorted_productions():
        idx = p.variable_index
        if idx is not None and 0 < idx < len(p.body) - 1:
            c = variable(names.fresh(p.head.name))
            variables.add(c)
            prods.append(Production(p.head, p.body[:idx] + (c,)))
            prods.append(Production(c, p.body[idx:]))
        elif idx == 0 and len(p.body) > 1 and p.head in mixed:
            moved.append(p)
        else:
            prods.append(p)
    if len(variables) == len(g.variables) and not mixed:
        return g
    # Funnels are named after every split variable, in name order.
    funnels = {v: variable(names.fresh(v.name)) for v in mixed}
    variables.update(funnels.values())
    prods += [Production(v, (f,)) for v, f in funnels.items()]
    prods += [Production(funnels[p.head], p.body) for p in moved]
    return LinearGrammar(frozenset(variables), g.terminals, g.start, frozenset(prods))


def _slnf_body_ok(body: tuple[Symbol, ...]) -> bool:
    # at most two symbols, and two only when one is a terminal, one a variable
    return len(body) < 2 or len(body) == 2 and body[0].kind is not body[1].kind


def is_slnf(g: LinearGrammar) -> bool:
    """True for LNF grammars whose bodies are all aB, Ba, a, B, or empty."""
    return is_lnf(g) and all(_slnf_body_ok(p.body) for p in g.productions)


def to_slnf(g: LinearGrammar) -> LinearGrammar:
    """Chop every body down to at most one terminal next to at most one variable.

    Variable-bearing bodies peel terminals from their variable-free end.
    Terminal-only bodies follow the head's own side (a left-linear head peels
    from the right), so every variable stays one-sided.
    """
    return g._slnf


def _build_slnf(lnf: LinearGrammar) -> LinearGrammar:
    names = NamePool(lnf.symbol_names())
    variables = set(lnf.variables)
    prods: list[Production] = []
    for v, ps in lnf._by_head.items():
        left_linear = lnf._classes.get(v) is VariableClass.LEFT_LINEAR
        for p in ps:
            head, body = v, p.body
            from_right = left_linear if p.variable_index is None else p.variable_index == 0
            while len(body) > 1 and not _slnf_body_ok(body):
                nv = variable(names.fresh(v.name))
                variables.add(nv)
                pair = (nv, body[-1]) if from_right else (body[0], nv)
                prods.append(Production(head, pair))
                head, body = nv, body[:-1] if from_right else body[1:]
            prods.append(p if head is v else Production(head, body))
    if len(variables) == len(lnf.variables):
        return lnf
    return LinearGrammar(frozenset(variables), lnf.terminals, lnf.start, frozenset(prods))


def is_deterministic_linear(g: LinearGrammar) -> bool:
    """Check that every step of a derivation consumes one determined terminal.

    Bodies must be empty or hold exactly one variable plus at least one
    terminal.  Per variable all non-empty bodies must consume at the same
    end: either every body starts with a terminal (keyed by that terminal)
    or every body starts with the variable (keyed by the trailing terminal).
    Per head and key, at most one production may exist; a variable offering
    reads at both ends would face ambiguous choices, and could not become a
    single automaton state.
    """
    seen: set[tuple[str, str]] = set()
    direction: dict[str, str] = {}
    for p in g.productions:
        body = p.body
        if not body:
            continue
        idx = p.variable_index
        if idx is None or len(body) < 2:
            return False
        side = "first" if body[0].kind is _TERMINAL else "last"
        if direction.setdefault(p.head.name, side) != side:
            return False
        key = (p.head.name, body[0].name if side == "first" else body[-1].name)
        if key in seen:
            return False
        seen.add(key)
    return True


def is_even_linear(g: LinearGrammar) -> bool:
    """True when every variable-holding body has equal-length terminal flanks."""
    for p in g.productions:
        idx = p.variable_index
        if idx is not None and idx != len(p.body) - 1 - idx:
            return False
    return True


def _closure(start, successors) -> set:
    """``start`` and everything reachable from it by ``successors``, breadth-first."""
    seen = {start}
    frontier = deque([start])
    while frontier:
        for t in successors(frontier.popleft()):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def eliminate_unit_productions(g: LinearGrammar) -> LinearGrammar:
    """Replace unit productions by copies of their targets' other bodies."""
    unit_targets: dict[Symbol, set[Symbol]] = {v: set() for v in g.variables}
    for p in g.productions:
        if len(p.body) == 1 and p.body[0].kind is _VARIABLE:
            unit_targets[p.head].add(p.body[0])
    prods = set()
    for v in g.variables:
        for u in _closure(v, unit_targets.__getitem__):
            for p in g.productions_of(u):
                if len(p.body) == 1 and p.body[0].kind is _VARIABLE:
                    continue
                prods.add(Production(v, p.body))
    return LinearGrammar(g.variables, g.terminals, g.start, frozenset(prods))


def to_even_normal_form(g: LinearGrammar) -> LinearGrammar:
    """Peel outer terminal pairs until each body is aBb, a single terminal, or empty."""
    if not is_even_linear(g):
        raise NotEvenLinear("grammar has a body with unequal terminal flanks")
    g = eliminate_unit_productions(g)
    names = NamePool(g.symbol_names())
    variables = set(g.variables)
    prods: list[Production] = []
    for p in g.sorted_productions():
        head, body = p.head, p.body
        # a variable sits mid-body: stop at aBb (no unit bodies remain), else at <= 1
        while len(body) > (1 if p.variable_index is None else 3):
            nv = variable(names.fresh(p.head.name))
            variables.add(nv)
            prods.append(Production(head, (body[0], nv, body[-1])))
            head, body = nv, body[1:-1]
        prods.append(p if head is p.head else Production(head, body))
    return LinearGrammar(frozenset(variables), g.terminals, g.start, frozenset(prods))


def _enumerate_words(rules: Mapping[str, Sequence[tuple[str, str | None, str]]],
                     starts: Iterable[str], max_len: int) -> list[str]:
    """All terminal strings of at most ``max_len`` symbols derivable from ``starts``.

    ``rules`` maps a variable name to its productions, each read as (left
    flank, variable name or None, right flank).  Terminals are single
    characters, so a flank's length is its symbol count.  The walk builds
    slices ``L[v][n]``, the words of length ``n`` that ``v`` derives, for
    ``n = 0..max_len`` in turn (the length-indexed recursion of Hickey and
    Cohen, SIAM J. Comput. 1983, with one variable per body):

    - ``room[v]`` is ``max_len`` minus the fewest flank symbols on any
      derivation from a start to ``v`` (one Dijkstra pass); longer words of
      ``v`` cannot be used, and variables out of reach take no part.
    - A slice starts from the erasing rules of its length and the words
      pushed into it earlier, and is closed under unit rules (``d = 0``,
      which include an automaton's lambda moves) by passing new words back
      along unit edges until none is new, so unit cycles terminate.
    - Each non-empty slice of ``u`` is pushed through every rule
      ``v -> x u y`` with ``d = |x| + |y| > 0`` into slice ``n + d`` of ``v``.

    Only non-empty slices are touched, so sparse languages come out fast.
    Words come sorted by length, then lexicographically.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    starts = tuple(starts)
    erasing: list[list[tuple[str, str]]] = [[] for _ in range(max_len + 1)]
    unit_heads: dict[str, list[str]] = {}  # u -> every v with a rule v -> u
    # u -> (last, d, v, x, y) for each rule v -> x u y with d > 0, where
    # last = room[v] - d is the longest slice of u that still fits
    pushes: dict[str, list[tuple[int, int, str, str, str]]] = {}
    # Dijkstra over flank lengths: room[v] is final when v is popped, so
    # v's rules are sorted into the tables then; rules that cannot fit drop
    room: dict[str, int] = {}
    heap = [(0, v) for v in starts]
    heapify(heap)
    while heap:
        dist, v = heappop(heap)
        if v in room:
            continue
        r = room[v] = max_len - dist
        for left, u, right in rules.get(v, ()):
            d = len(left) + len(right)
            if d > r:
                continue
            if u is None:
                erasing[d].append((v, left + right))
                continue
            if u not in room:
                heappush(heap, (dist + d, u))
            if d:
                pushes.setdefault(u, []).append((r - d, d, v, left, right))
            else:
                unit_heads.setdefault(u, []).append(v)
    pending: list[dict[str, set[str]]] = [{} for _ in range(max_len + 1)]
    out: list[str] = []
    for n in range(max_len + 1):
        level, pending[n] = pending[n], {}
        for v, w in erasing[n]:
            level.setdefault(v, set()).add(w)
        todo = [(u, set(ws)) for u, ws in level.items() if u in unit_heads]
        while todo:
            u, new = todo.pop()
            for v in unit_heads[u]:
                if room[v] >= n:
                    have = level.setdefault(v, set())
                    if added := new - have:
                        have |= added
                        if v in unit_heads:
                            todo.append((v, added))
        for u, ws in level.items():
            for last, d, v, left, right in pushes.get(u, ()):
                if n <= last:
                    slot = pending[n + d]
                    grown = {left + w + right for w in ws}
                    if v in slot:
                        slot[v] |= grown
                    else:
                        slot[v] = grown
        out += sorted(set().union(*(level.get(s, ()) for s in starts)))
    return out


def _production_rules(g: LinearGrammar) -> dict[str, list[tuple[str, str | None, str]]]:
    """Each production as (left flank, variable name or None, right flank), by head name.

    Slices are keyed by names, which hash faster than symbols.
    """
    rules: dict[str, list[tuple[str, str | None, str]]] = {}
    for p in g.sorted_productions():
        idx = p.variable_index
        names = [s.name for s in p.body]
        rules.setdefault(p.head.name, []).append(
            ("".join(names), None, "") if idx is None else
            ("".join(names[:idx]), names[idx], "".join(names[idx + 1:])))
    return rules


def enumerate_language(g: LinearGrammar, max_len: int) -> list[str]:
    """All derivable terminal strings of at most ``max_len`` symbols, shortest first."""
    return _enumerate_words(_production_rules(g), [g.start.name], max_len)
