"""Linear grammars: validation, classification, normal forms, enumeration.

A grammar is linear when every production body holds at most one variable.
All objects here are immutable values; every operation is a pure function,
so concurrent use needs no synchronization.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
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
from .naming import check_name, fresh_name


class SymbolKind(enum.Enum):
    TERMINAL = "terminal"
    VARIABLE = "variable"


@dataclass(frozen=True)
class Symbol:
    name: str
    kind: SymbolKind

    def __str__(self) -> str:
        return self.name


def terminal(name: str) -> Symbol:
    return Symbol(name, SymbolKind.TERMINAL)


def variable(name: str) -> Symbol:
    return Symbol(name, SymbolKind.VARIABLE)


@dataclass(frozen=True)
class Production:
    """One rewrite rule; an empty body is the erasing production."""

    head: Symbol
    body: tuple[Symbol, ...]

    def __post_init__(self):
        object.__setattr__(self, "body", tuple(self.body))
        if self.head.kind is not SymbolKind.VARIABLE:
            raise UnknownSymbol(f"production head {self.head.name!r} is not a variable",
                                subject=self)
        if sum(1 for s in self.body if s.kind is SymbolKind.VARIABLE) > 1:
            raise NotLinear(f"body of {self} holds more than one variable", subject=self)

    @property
    def variable_index(self) -> int | None:
        """Position of the body's variable, or None for terminal-only bodies."""
        for i, s in enumerate(self.body):
            if s.kind is SymbolKind.VARIABLE:
                return i
        return None

    def sort_key(self) -> tuple:
        return (self.head.name, tuple(s.name for s in self.body))

    def __str__(self) -> str:
        rhs = " ".join(s.name for s in self.body) if self.body else "eps"
        return f"{self.head.name} -> {rhs}"


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
        object.__setattr__(self, "variables", frozenset(self.variables))
        object.__setattr__(self, "terminals", frozenset(self.terminals))
        object.__setattr__(self, "productions", frozenset(self.productions))
        # Names are visited in sorted order, so of several faults the same
        # one is always reported.
        for kind, pool in ((SymbolKind.VARIABLE, self.variables),
                           (SymbolKind.TERMINAL, self.terminals)):
            for s in sorted(pool, key=attrgetter("name")):
                check_name(s.name, kind.value, single=kind is SymbolKind.TERMINAL)
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
        # Heads are variables (Production checks), so declared heads are
        # declared variables.
        declared = self.variables | self.terminals
        if bad := [p for p in self.productions
                   if p.head not in declared or not declared.issuperset(p.body)]:
            name = min(s.name for p in bad for s in (p.head, *p.body) if s not in declared)
            raise UnknownSymbol(f"undeclared symbol {name!r} in a production", subject=name)
        # One sort, grouped by head: every per-variable pass reads this index.
        ordered = tuple(sorted(self.productions, key=Production.sort_key))
        object.__setattr__(self, "_sorted", ordered)
        object.__setattr__(self, "_by_head", {v: tuple(ps) for v, ps in
                                              groupby(ordered, key=attrgetter("head"))})

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
    return LinearGrammar(frozenset(s for s in symbols if s.kind is SymbolKind.VARIABLE),
                         frozenset(s for s in symbols if s.kind is SymbolKind.TERMINAL),
                         table.get(start) or variable(start), prods)


def classify_variable(g: LinearGrammar, v: Symbol | str) -> VariableClass:
    """Four-way classification of one variable by the shape of its bodies."""
    if isinstance(v, str):
        v = g.variable_named(v)
    if v not in g.variables:
        raise UnknownSymbol(f"no variable named {v.name!r}")
    right = left = True
    for p in g.productions_of(v):
        idx = p.variable_index
        if idx is None:
            continue
        if idx != len(p.body) - 1:
            right = False
        if idx != 0:
            left = False
    if right and left:
        return VariableClass.BOTH
    if right:
        return VariableClass.RIGHT_LINEAR
    if left:
        return VariableClass.LEFT_LINEAR
    return VariableClass.NEITHER


def is_lnf(g: LinearGrammar) -> bool:
    """True when every variable is purely left- or right-linear."""
    return all(classify_variable(g, v) is not VariableClass.NEITHER for v in g.variables)


def to_lnf(g: LinearGrammar) -> LinearGrammar:
    """Rewrite so each variable is one-sided, preserving the language.

    Two passes: split every body with terminals on both sides of its variable
    at the variable, then funnel the variable-first productions of any
    still-mixed variable through a fresh unit-targeted variable.  Grammars
    already in the normal form come back unchanged.
    """
    used = g.symbol_names()
    variables = set(g.variables)
    prods: list[Production] = []
    for p in g.sorted_productions():
        idx = p.variable_index
        if idx is not None and 0 < idx < len(p.body) - 1:
            c = variable(fresh_name(p.head.name, used))
            variables.add(c)
            prods.append(Production(p.head, p.body[:idx] + (c,)))
            prods.append(Production(c, p.body[idx:]))
        else:
            prods.append(p)
    stage = LinearGrammar(frozenset(variables), g.terminals, g.start, frozenset(prods))
    mixed = [v for v in sorted(stage.variables, key=lambda s: s.name)
             if classify_variable(stage, v) is VariableClass.NEITHER]
    if not mixed:
        return stage
    funnels = {v: variable(fresh_name(v.name, used)) for v in mixed}
    variables.update(funnels.values())
    prods = {Production(v, (f,)) for v, f in funnels.items()}
    for p in stage.productions:
        moved = p.head in funnels and p.variable_index == 0 and len(p.body) > 1
        prods.add(Production(funnels[p.head], p.body) if moved else p)
    return LinearGrammar(frozenset(variables), g.terminals, g.start, frozenset(prods))


def _slnf_body_ok(body: tuple[Symbol, ...]) -> bool:
    if len(body) > 2:
        return False
    if len(body) == 2:
        kinds = (body[0].kind, body[1].kind)
        return kinds in ((SymbolKind.TERMINAL, SymbolKind.VARIABLE),
                         (SymbolKind.VARIABLE, SymbolKind.TERMINAL))
    return True


def is_slnf(g: LinearGrammar) -> bool:
    """True for LNF grammars whose bodies are all aB, Ba, a, B, or empty."""
    return is_lnf(g) and all(_slnf_body_ok(p.body) for p in g.productions)


def to_slnf(g: LinearGrammar) -> LinearGrammar:
    """Chop every body down to at most one terminal next to at most one variable.

    Variable-bearing bodies peel terminals from their variable-free end.
    Terminal-only bodies follow the head's own side (a left-linear head peels
    from the right), so every variable stays one-sided.
    """
    g = to_lnf(g)
    classes = {v: classify_variable(g, v) for v in g.variables}
    used = g.symbol_names()
    variables = set(g.variables)
    prods: list[Production] = []
    for p in g.sorted_productions():
        head, body = p.head, p.body
        from_right = (classes[p.head] is VariableClass.LEFT_LINEAR
                      if p.variable_index is None
                      else p.variable_index == 0)
        while True:
            if len(body) <= 1 or _slnf_body_ok(body):
                prods.append(Production(head, body))
                break
            nv = variable(fresh_name(p.head.name, used))
            variables.add(nv)
            if from_right:
                prods.append(Production(head, (nv, body[-1])))
                head, body = nv, body[:-1]
            else:
                prods.append(Production(head, (body[0], nv)))
                head, body = nv, body[1:]
    return LinearGrammar(frozenset(variables), g.terminals, g.start, frozenset(prods))


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
        side = "first" if body[0].kind is SymbolKind.TERMINAL else "last"
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


def eliminate_unit_productions(g: LinearGrammar) -> LinearGrammar:
    """Replace unit productions by copies of their targets' other bodies."""
    unit_targets: dict[Symbol, set[Symbol]] = {v: set() for v in g.variables}
    for p in g.productions:
        if len(p.body) == 1 and p.body[0].kind is SymbolKind.VARIABLE:
            unit_targets[p.head].add(p.body[0])
    prods = set()
    for v in g.variables:
        closure = {v}
        frontier = deque([v])
        while frontier:
            u = frontier.popleft()
            for w in unit_targets[u]:
                if w not in closure:
                    closure.add(w)
                    frontier.append(w)
        for u in closure:
            for p in g.productions_of(u):
                if len(p.body) == 1 and p.body[0].kind is SymbolKind.VARIABLE:
                    continue
                prods.add(Production(v, p.body))
    return LinearGrammar(g.variables, g.terminals, g.start, frozenset(prods))


def to_even_normal_form(g: LinearGrammar) -> LinearGrammar:
    """Peel outer terminal pairs until each body is aBb, a single terminal, or empty."""
    if not is_even_linear(g):
        raise NotEvenLinear("grammar has a body with unequal terminal flanks")
    g = eliminate_unit_productions(g)
    used = g.symbol_names()
    variables = set(g.variables)
    prods: list[Production] = []
    for p in g.sorted_productions():
        head, body = p.head, p.body
        while True:
            idx = next((i for i, s in enumerate(body) if s.kind is SymbolKind.VARIABLE), None)
            done = (len(body) <= 1) if idx is None else (len(body) == 3 and idx == 1)
            if done:
                prods.append(Production(head, body))
                break
            nv = variable(fresh_name(p.head.name, used))
            variables.add(nv)
            prods.append(Production(head, (body[0], nv, body[-1])))
            head, body = nv, body[1:-1]
    return LinearGrammar(frozenset(variables), g.terminals, g.start, frozenset(prods))


def _enumerate_words(rules: Mapping[str, Sequence[tuple[str, str | None, str]]],
                     starts: Iterable[str], max_len: int) -> list[str]:
    """All terminal strings of at most ``max_len`` symbols derivable from ``starts``.

    ``rules`` maps a variable name to its productions, each read as (left
    flank, variable name or None, right flank).  Sentential forms are
    (prefix, variable, suffix) triples; flanks never shrink, so pruning at
    ``max_len`` total flank symbols plus a visited set over triples
    guarantees termination even through unit-production cycles.  Terminals
    are single characters, so a flank's length is its symbol count.  Words
    come sorted by length, then lexicographically.
    """
    if max_len < 0:
        raise ValueError("max_len must be non-negative")
    words: set[str] = set()
    start = [("", v, "") for v in starts]
    seen = set(start)
    frontier = deque(start)
    while frontier:
        prefix, v, suffix = frontier.popleft()
        for left, var, right in rules.get(v, ()):
            np, ns = prefix + left, right + suffix
            if len(np) + len(ns) > max_len:
                continue
            if var is None:
                words.add(np + ns)
            else:
                node = (np, var, ns)
                if node not in seen:
                    seen.add(node)
                    frontier.append(node)
    return sorted(words, key=lambda w: (len(w), w))


def enumerate_language(g: LinearGrammar, max_len: int) -> list[str]:
    """All derivable terminal strings of at most ``max_len`` symbols, shortest first."""
    # Each production as (left flank, variable name or None, right flank),
    # split once; nodes hold names, which hash faster than symbols.
    rules: dict[str, list[tuple[str, str | None, str]]] = {}
    for p in g.sorted_productions():
        idx = p.variable_index
        names = [s.name for s in p.body]
        rules.setdefault(p.head.name, []).append(
            ("".join(names), None, "") if idx is None else
            ("".join(names[:idx]), names[idx], "".join(names[idx + 1:])))
    return _enumerate_words(rules, [g.start.name], max_len)
