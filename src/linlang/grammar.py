"""Linear grammars: validation, classification, normal forms, enumeration.

A grammar is linear when every production body holds at most one variable.
Terminals are single characters, so a grammar holds each body x·B·y as a
rule over names; its symbols and productions are views.  All objects here
are immutable values; every operation is a pure function, so concurrent use
needs no synchronization.  A grammar caches its normal forms on first use;
two threads racing to fill the cache build equal values, and either may be
kept.
"""

from __future__ import annotations

import enum
from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Collection, Iterable, Mapping, Sequence

from .errors import (
    DuplicateSymbol,
    NotEvenLinear,
    NotLinear,
    StartNotDeclared,
    UnknownSymbol,
)
from .naming import EPS, NamePool, check_name, names_ok, scan_order


class SymbolKind(enum.Enum):
    TERMINAL = "terminal"
    VARIABLE = "variable"


# Hot paths read these: looking a member up on an Enum class is slow.
_TERMINAL, _VARIABLE = SymbolKind.TERMINAL, SymbolKind.VARIABLE
_set = object.__setattr__
_kind, _name, _head = attrgetter("kind"), attrgetter("name"), attrgetter("head")

#: A body as (left flank, variable name or None, right flank): a terminal-only
#: body is (x, None, ""), the erasing body ("", None, ""), a unit body ("", B, "").
Rule = tuple[str, "str | None", str]


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


@dataclass(frozen=True, slots=True)
class Production:
    """One rewrite rule; an empty body is the erasing production."""

    head: Symbol
    body: tuple[Symbol, ...]
    #: Position of the body's variable, or None for terminal-only bodies.
    variable_index: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the body comes first: the errors below print the production
        _set(self, "body", tuple(self.body))
        if self.head.kind is not _VARIABLE:
            raise UnknownSymbol(f"production head {self.head.name!r} is not a variable",
                                subject=self)
        kinds = list(map(_kind, self.body))
        if (count := kinds.count(_VARIABLE)) > 1:
            raise NotLinear(f"body of {self} holds more than one variable", subject=self)
        _set(self, "variable_index", kinds.index(_VARIABLE) if count else None)

    def __reduce__(self):
        return Production, (self.head, self.body)

    def sort_key(self) -> tuple:
        return (self.head.name, tuple(map(_name, self.body)))

    def __str__(self) -> str:
        return f"{self.head.name} -> {' '.join(map(_name, self.body)) or EPS}"


def _body(rule: Rule) -> tuple[str, ...]:  # the tuple of names
    x, u, y = rule
    return (*x,) if u is None else (*x, u, *y)


def _split(names: Sequence[str], i: int | None) -> Rule:  # a body, its variable at i
    try:
        return ("".join(names), None, "") if i is None else (
            "".join(names[:i]), names[i], "".join(names[i + 1:]))
    except TypeError:  # a name that is not a str, which the name check rejects
        return _split([*map(str, names)], i)


class VariableClass(enum.Enum):
    RIGHT_LINEAR = "right-linear"
    LEFT_LINEAR = "left-linear"
    BOTH = "both"
    NEITHER = "neither"


@dataclass(frozen=True, init=False)
class LinearGrammar:
    """Rules over names, heads in name order and each head's bodies in the
    order of their tuples of names.  ``variables``, ``terminals`` and
    ``start`` are views cached on first use; the production views are built
    on every call."""

    _variables: frozenset[str]
    _terminals: frozenset[str]
    _start: str
    #: Unhashable, so the grammar's hash leaves it out.
    _rules: Mapping[str, tuple[Rule, ...]] = field(hash=False)

    def __init__(self, variables: Iterable[Symbol], terminals: Iterable[Symbol],
                 start: Symbol, productions: Iterable[Production]):
        variables, terminals, productions = map(frozenset, (variables, terminals, productions))
        # kinds are what names cannot show; the scan sorts names in the symbols' order
        names = [*map(_name, variables)], [*map(_name, terminals)]
        misfiled = {(s.name, role): s.kind for role, kind, pool in (
            ("variable", _VARIABLE, variables), ("terminal", _TERMINAL, terminals),
            ("start", _VARIABLE, (start,))) for s in pool if s.kind is not kind}
        used = set(map(_head, productions)).union(*(p.body for p in productions))
        if (bad := used - variables - terminals) or misfiled:
            _fault(*names, start.name, {s.name for s in bad}, misfiled)
        rules = defaultdict(list)
        for p in productions:
            rules[p.head.name].append(_split([s.name for s in p.body], p.variable_index))
        self.__dict__.update(vars(_grammar(*names, start.name, rules)))

    # one symbol per name, shared by every view
    _symbol = cached_property(lambda self: {**{t: terminal(t) for t in self._terminals},
                                            **{v: variable(v) for v in self._variables}})
    variables = cached_property(lambda self: frozenset(map(self._symbol.get, self._variables)))
    terminals = cached_property(lambda self: frozenset(map(self._symbol.get, self._terminals)))
    start = cached_property(lambda self: self._symbol[self._start])
    productions = property(lambda self: frozenset(self.sorted_productions()))

    # Normal forms, built on first use, so each grammar folds them once.
    _lnf = cached_property(lambda self: _build_lnf(self))
    _slnf = cached_property(lambda self: _build_slnf(self._lnf))

    @cached_property
    def _classes(self) -> dict[str, VariableClass]:
        # every head's class, read from its bodies once; a variable that
        # heads nothing is BOTH
        classes = {}
        for v, rules in self._rules.items():
            right = all(not y for _, u, y in rules if u is not None)
            left = all(not x for x, u, _ in rules if u is not None)
            classes[v] = ((VariableClass.BOTH if left else VariableClass.RIGHT_LINEAR) if right
                          else VariableClass.LEFT_LINEAR if left else VariableClass.NEITHER)
        return classes

    # -- conveniences used throughout the package --

    def variable_named(self, name: str) -> Symbol:
        if name in self._variables:
            return self._symbol[name]
        raise UnknownSymbol(f"no variable named {name!r}")

    def productions_of(self, head: Symbol) -> tuple[Production, ...]:
        rules = self._rules.get(head.name, ()) if head.kind is _VARIABLE else ()
        return self._views([(head, rules)])

    def sorted_productions(self) -> tuple[Production, ...]:
        return self._views((self._symbol[v], rules) for v, rules in self._rules.items())

    def _views(self, groups: Iterable[tuple[Symbol, Sequence[Rule]]]) -> tuple[Production, ...]:
        # the rules are checked, so no Production checks itself again
        out, symbol = [], self._symbol.get
        for head, rules in groups:
            for x, u, y in rules:
                _set(p := object.__new__(Production), "head", head)
                _set(p, "body", tuple(map(symbol, x if u is None else (*x, u, *y))))
                _set(p, "variable_index", None if u is None else len(x))
                out.append(p)
        return tuple(out)

    def sorted_variables(self) -> tuple[Symbol, ...]:
        rest = sorted(self._variables - {self._start})
        return tuple(map(self._symbol.get, (self._start, *rest)))

    def symbol_names(self) -> set[str]:
        return {*self._variables, *self._terminals}


def _fault(variables: Collection[str], terminals: Collection[str], start: str,
           undeclared: set[str], misfiled: Mapping[tuple[str, str], SymbolKind] = {}) -> None:
    """Raise the first of a grammar's name faults, in one order so that the same
    one is always reported: each declared name with its kind, variables then
    terminals, each sorted with names that are not str first; a name of both
    kinds; the start; the least undeclared name.  ``misfiled`` maps (name,
    role) to a symbol's wrong kind."""
    for kind, pool in ((_VARIABLE, variables), (_TERMINAL, terminals)):
        for n in sorted(pool, key=scan_order):
            check_name(n, kind.value, single=kind is _TERMINAL)
            if (n, kind.value) in misfiled:
                raise UnknownSymbol(f"{n!r} listed as {kind.value} "
                                    f"with kind {misfiled[n, kind.value].value}", subject=n)
    if clash := set(variables).intersection(terminals):
        name = min(clash)
        raise DuplicateSymbol(f"{name!r} declared as both terminal and variable", subject=name)
    if start not in variables or (start, "start") in misfiled:
        raise StartNotDeclared(f"start {start!r} is not a declared variable", subject=start)
    if undeclared:
        name = min(undeclared, key=scan_order)
        raise UnknownSymbol(f"undeclared symbol {name!r} in a production", subject=name)


def _grammar(variables: Iterable[str], terminals: Iterable[str], start: str,
             rules: Mapping[str, Sequence[Rule]], ordered: bool = False) -> LinearGrammar:
    """A grammar from names, with every name-level check in one batch: valid
    names, none of both kinds, a declared start, every name a rule uses
    declared as its kind.  On a fault ``_fault`` reports it.  Heads sort, and
    so do each head's rules by ``_body``, duplicates dropped, unless the rows
    come ``ordered``: ``nla_to_grammar`` orders them for a lambda-free
    automaton with one start whose states keep their names, while the parser,
    the normal forms and unit elimination do not.
    """
    vs, ts = frozenset(variables), frozenset(terminals)
    used = {*rules, *(u for rs in rules.values() for _, u, _ in rs if u is not None)}
    chars = set("".join(x + y for rs in rules.values() for x, _, y in rs))
    if not (names_ok(vs) and names_ok(ts, single=True) and vs.isdisjoint(ts)
            and start in vs and used <= vs and chars <= ts):
        _fault(variables, terminals, start, (used - vs) | (chars - ts))
    g = object.__new__(LinearGrammar)
    g.__dict__.update(_variables=vs, _terminals=ts, _start=start,
                      _rules={v: tuple(rs) if ordered or len(rs) == 1 else
                              tuple(sorted(set(rs), key=_body))
                              for v, rs in sorted(rules.items()) if rs})
    return g


def validate_grammar(*, variables: Iterable[str], terminals: Iterable[str],
                     start: str, productions: Iterable[tuple[str, Sequence[str]]],
                     ) -> LinearGrammar:
    """Build a LinearGrammar from names, each production a head and its body;
    an empty body is the erasing production.  A name declared twice raises
    DuplicateSymbol, then a terminal head or a body with two variables the
    error of its Production, in input order; ``_fault`` reports the rest."""
    kinds: dict[str, SymbolKind] = {}
    for kind, names in ((_VARIABLE, variables), (_TERMINAL, terminals)):
        for n in names:
            if n in kinds:
                raise DuplicateSymbol(f"{n!r} declared twice", subject=n)
            kinds[n] = kind
    rules, undeclared = defaultdict(list), set()
    for head, body in productions:
        ks = list(map(kinds.get, body))
        if kinds.get(head, _VARIABLE) is not _VARIABLE or ks.count(_VARIABLE) > 1:
            Production(Symbol(head, kinds.get(head, _VARIABLE)),
                       tuple(Symbol(n, k or _TERMINAL) for n, k in zip(body, ks)))
        if head not in kinds or None in ks:
            undeclared.update(n for n in (head, *body) if n not in kinds)
        rules[head].append(_split(body, ks.index(_VARIABLE) if _VARIABLE in ks else None))
    pools = [[n for n, k in kinds.items() if k is kind] for kind in (_VARIABLE, _TERMINAL)]
    if undeclared:  # a name of several characters cannot sit in a flank
        _fault(*pools, start, undeclared)
    return _grammar(*pools, start, rules)


def classify_variable(g: LinearGrammar, v: Symbol | str) -> VariableClass:
    """Four-way classification of one variable by the shape of its bodies."""
    if isinstance(v, str):
        v = g.variable_named(v)
    if v not in g.variables:
        raise UnknownSymbol(f"no variable named {v.name!r}")
    return g._classes.get(v.name, VariableClass.BOTH)


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
    mixed = dict.fromkeys(v for v, rules in g._rules.items()
                          if any(u is not None and not x and y for x, u, y in rules)
                          and any(u is not None and x for x, u, _ in rules))
    names = NamePool(g.symbol_names())
    variables = set(g._variables)
    out: dict[str, list[Rule]] = defaultdict(list)
    moved: list[tuple[str, Rule]] = []
    for v, rules in g._rules.items():
        for x, u, y in rules:
            if u is not None and x and y:
                c = names.fresh(v)
                variables.add(c)
                out[v].append((x, c, ""))
                out[c].append(("", u, y))
            elif u is not None and not x and y and v in mixed:
                moved.append((v, (x, u, y)))
            else:
                out[v].append((x, u, y))
    if len(variables) == len(g._variables) and not mixed:
        return g
    # Funnels are named after every split variable, in name order.
    funnels = {v: names.fresh(v) for v in mixed}
    variables.update(funnels.values())
    for v, f in funnels.items():
        out[v].append(("", f, ""))
    for v, rule in moved:
        out[funnels[v]].append(rule)
    return _grammar(variables, g._terminals, g._start, out)


def is_slnf(g: LinearGrammar) -> bool:
    """True for LNF grammars whose bodies are all aB, Ba, a, B, or empty."""
    return is_lnf(g) and all(len(x) + len(y) < 2
                             for rules in g._rules.values() for x, _, y in rules)


def to_slnf(g: LinearGrammar) -> LinearGrammar:
    """Chop every body down to at most one terminal next to at most one variable.

    Variable-bearing bodies peel terminals from their variable-free end.
    Terminal-only bodies follow the head's own side (a left-linear head peels
    from the right), so every variable stays one-sided.
    """
    return g._slnf


def _build_slnf(lnf: LinearGrammar) -> LinearGrammar:
    names = NamePool(lnf.symbol_names())
    variables = set(lnf._variables)
    out: dict[str, list[Rule]] = defaultdict(list)
    for v, rules in lnf._rules.items():
        left_linear = lnf._classes.get(v) is VariableClass.LEFT_LINEAR
        for x, u, y in rules:
            head = v
            # one flank is empty (LNF); the other peels at its far end
            from_right = left_linear if u is None else not x
            while len(x) + len(y) > 1:
                nv = names.fresh(v)
                variables.add(nv)
                out[head].append(("", nv, (x or y)[-1]) if from_right else (x[0], nv, ""))
                head, x, y = nv, x[:-1] if from_right else x[1:], y[:-1]
            out[head].append((x, u, y))
    if len(variables) == len(lnf._variables):
        return lnf
    return _grammar(variables, lnf._terminals, lnf._start, out)


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
    for rules in g._rules.values():
        reads = [r for r in rules if r != ("", None, "")]
        if any(u is None or not (x or y) for x, u, y in reads):
            return False
        keys = {(not x, x[0] if x else y[-1]) for x, _, y in reads}
        if len(keys) < len(reads) or len({side for side, _ in keys}) > 1:
            return False
    return True


def is_even_linear(g: LinearGrammar) -> bool:
    """True when every variable-holding body has equal-length terminal flanks."""
    return all(len(x) == len(y)
               for rules in g._rules.values() for x, u, y in rules if u is not None)


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
    units = {v: [u for x, u, y in rules if u is not None and not x + y]
             for v, rules in g._rules.items()}
    out = {v: [(x, u, y) for t in _closure(v, lambda t: units.get(t, ()))
               for x, u, y in g._rules.get(t, ()) if u is None or x + y]
           for v in g._variables}
    return _grammar(g._variables, g._terminals, g._start, out)


def to_even_normal_form(g: LinearGrammar) -> LinearGrammar:
    """Peel outer terminal pairs until each body is aBb, a single terminal, or empty."""
    if not is_even_linear(g):
        raise NotEvenLinear("grammar has a body with unequal terminal flanks")
    g = eliminate_unit_productions(g)
    names = NamePool(g.symbol_names())
    variables = set(g._variables)
    out: dict[str, list[Rule]] = defaultdict(list)
    for v, rules in g._rules.items():
        for x, u, y in rules:
            head = v
            # stop at aBb (no unit bodies remain), or at one terminal or none
            while len(x) > 1:
                nv = names.fresh(v)
                variables.add(nv)
                # a terminal-only body peels both ends of its one flank
                out[head].append((x[0], nv, (y or x)[-1]))
                head, x, y = nv, x[1:-1] if u is None else x[1:], y[:-1]
            out[head].append((x, u, y))
    return _grammar(variables, g._terminals, g._start, out)


def _enumerate_words(rules: Mapping[str, Sequence[Rule]],
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


def enumerate_language(g: LinearGrammar, max_len: int) -> list[str]:
    """All derivable terminal strings of at most ``max_len`` symbols, shortest first."""
    return _enumerate_words(g._rules, [g._start], max_len)
