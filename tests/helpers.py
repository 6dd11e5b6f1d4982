"""Shared test utilities: word enumeration, reference simulators, random inputs."""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from operator import attrgetter
from pathlib import Path

from linlang import (
    Homogeneity,
    InstantaneousDescription,
    LinearAutomaton,
    LinearGrammar,
    Production,
    Symbol,
    SymbolKind,
    VariableClass,
    classify_variable,
    is_even,
    is_even_linear,
    step,
    terminal,
    to_even_normal_form,
    validate_automaton,
    validate_grammar,
    variable,
)
from linlang.automaton import LAMBDA, lambda_closure
from linlang.convert import _slnf_to_nla
from linlang.errors import (
    DuplicateSymbol,
    NotDeterminizable,
    NotEven,
    NotEvenLinear,
    StartNotDeclared,
    SymbolNotInAlphabet,
    UnknownSymbol,
)
from linlang.grammar import _body
from linlang.naming import NamePool, check_name

DATA = Path(__file__).resolve().parent.parent / "src" / "linlang" / "corpus" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


def all_words(alphabet: str, max_len: int) -> list[str]:
    return ["".join(t)
            for n in range(max_len + 1)
            for t in itertools.product(sorted(alphabet), repeat=n)]


def by_length(words) -> list[str]:
    return sorted(set(words), key=lambda w: (len(w), w))


class RefNfa:
    """Independent one-head NFA evaluator (plain subset stepping).

    Used to cross-check automata whose right class is empty; shares no code
    with the package.
    """

    def __init__(self, delta: dict[tuple[str, str], set[str]],
                 initial: set[str], final: set[str]):
        self.delta = delta
        self.initial = initial
        self.final = final

    def _eps_closure(self, states: set[str]) -> set[str]:
        todo = list(states)
        out = set(states)
        while todo:
            q = todo.pop()
            for t in self.delta.get((q, ""), set()):
                if t not in out:
                    out.add(t)
                    todo.append(t)
        return out

    def accepts(self, word: str) -> bool:
        cur = self._eps_closure(set(self.initial))
        for ch in word:
            nxt: set[str] = set()
            for q in cur:
                nxt |= self.delta.get((q, ch), set())
            cur = self._eps_closure(nxt)
        return bool(cur & self.final)


def reference_accepts(m: LinearAutomaton, word: str) -> bool:
    """Breadth-first search over (state, lo, hi) descriptions by ``step``.

    The slow reference for ``accepts``: it follows lambda moves as they
    are and keeps every visited description, O(|Q|·n²) of them.
    """
    frontier = deque(InstantaneousDescription(q, 0, len(word)) for q in sorted(m.initial))
    seen = set(frontier)
    while frontier:
        ident = frontier.popleft()
        if ident.lo >= ident.hi and ident.state in m.final:
            return True
        for nxt in step(m, ident, word):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def reference_enumerate_words(rules, starts, max_len: int) -> list[str]:
    """Breadth-first search over (prefix, variable, suffix) sentential forms.

    The slow reference for ``grammar._enumerate_words``, over the same
    (left flank, variable name or None, right flank) rules: it keeps one
    node per distinct form whose flanks fit in ``max_len``, so unit cycles
    terminate through the visited set.
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


def g_prime() -> LinearGrammar:
    """G′, the seeded 300-variable grammar the enumeration timings are quoted on.

    Each of 3000 draws is a body of ``randint(0, 6)`` terminals; if it is
    non-empty, with probability 0.8 one position becomes a variable; then
    the head is drawn.
    """
    rng = random.Random(7)
    variables = ["S"] + [f"V{i}" for i in range(299)]
    terminals = ["a", "b", "c", "d"]
    productions = []
    for _ in range(3000):
        body = [rng.choice(terminals) for _ in range(rng.randint(0, 6))]
        if body and rng.random() < 0.8:
            body[rng.randrange(len(body))] = rng.choice(variables)
        productions.append((rng.choice(variables), body))
    return validate_grammar(variables=variables, terminals=terminals,
                            start="S", productions=productions)


def random_grammar(rng: random.Random) -> LinearGrammar:
    variables = ["S", "A", "B", "C"][: rng.randint(1, 4)]
    terminals = ["a", "b"][: rng.randint(1, 2)]
    productions = []
    for _ in range(rng.randint(1, 6)):
        head = rng.choice(variables)
        body_len = rng.randint(0, 4)
        body = [rng.choice(terminals) for _ in range(body_len)]
        if body_len and rng.random() < 0.7:
            body[rng.randrange(body_len)] = rng.choice(variables)
        productions.append((head, body))
    return validate_grammar(variables=variables, terminals=terminals,
                            start="S", productions=productions)


def random_even_grammar(rng: random.Random) -> LinearGrammar:
    """An even linear grammar: every variable has equal-length terminal flanks."""
    variables = ["S", "A", "B", "C"][: rng.randint(1, 4)]
    terminals = ["a", "b", "c"][: rng.randint(1, 3)]
    productions = []
    for _ in range(rng.randint(1, 6)):
        head = rng.choice(variables)
        if rng.random() < 0.7:
            flank = rng.randint(0, 3)
            body = ([rng.choice(terminals) for _ in range(flank)] + [rng.choice(variables)]
                    + [rng.choice(terminals) for _ in range(flank)])
        else:
            body = [rng.choice(terminals) for _ in range(rng.randint(0, 5))]
        productions.append((head, body))
    return validate_grammar(variables=variables, terminals=terminals,
                            start="S", productions=productions)


def reference_even_grammar_to_nla(g: LinearGrammar) -> LinearAutomaton:
    """Even normal form, then each ``aBb`` body split by hand into ``a C`` and ``C -> B b``.

    The slow reference for ``even_grammar_to_nla``: its own name pool,
    split loop and even check, read by the same strong-form reader.
    """
    if not is_even_linear(g):
        raise NotEvenLinear("grammar has a body with unequal terminal flanks")
    nf = to_even_normal_form(g)
    names = NamePool(nf.symbol_names())
    variables = set(nf.variables)
    prods: list[Production] = []
    for p in nf.sorted_productions():
        if len(p.body) == 3:
            c = variable(names.fresh(p.head.name))
            variables.add(c)
            prods.append(Production(p.head, (p.body[0], c)))
            prods.append(Production(c, (p.body[1], p.body[2])))
        else:
            prods.append(p)
    split = LinearGrammar(frozenset(variables), nf.terminals, nf.start, frozenset(prods))
    return _slnf_to_nla(split, "right")


def random_automaton(rng: random.Random, allow_lambda: bool = True,
                     single_start: bool = False, states: list[str] | None = None,
                     ) -> LinearAutomaton:
    """Over ``a`` or ``ab``, with states ``s0``..``s3`` unless ``states`` names them."""
    states = states or [f"s{i}" for i in range(rng.randint(1, 4))]
    left = {q for q in states if rng.random() < 0.5}
    right = set(states) - left
    alphabet = ["a", "b"][: rng.randint(1, 2)]
    delta: dict[tuple[str, str], set[str]] = {}
    for q in states:
        for a in alphabet:
            if rng.random() < 0.6:
                targets = {t for t in states if rng.random() < 0.4}
                if targets:
                    delta[(q, a)] = targets
        if allow_lambda and rng.random() < 0.15:
            targets = {t for t in states if rng.random() < 0.3}
            if targets:
                delta[(q, LAMBDA)] = targets
    initial = {q for q in states if rng.random() < 0.5} or {states[0]}
    if single_start:
        initial = {rng.choice(states)}
    final = {q for q in states if rng.random() < 0.4}
    return validate_automaton(left=left, right=right, alphabet=alphabet,
                              delta=delta, initial=initial, final=final)


def reference_trace(m: LinearAutomaton, word: str) -> list[tuple[str, str]] | None:
    """Depth-first search over every reachable description by ``step``.

    The slow reference for ``trace``: the same tie-break (reads before
    lambda moves, targets in name order) with no liveness pruning, so it
    walks dead branches and keeps every visited description.
    """
    starts = [InstantaneousDescription(q, 0, len(word)) for q in sorted(m.initial)]
    stack = [(ident, None) for ident in reversed(starts)]
    parent: dict = {}
    while stack:
        ident, via = stack.pop()
        if ident in parent:
            continue
        parent[ident] = via
        if ident.lo >= ident.hi and ident.state in m.final:
            path = []
            while ident is not None:
                path.append((ident.state, ident.remaining(word)))
                ident = parent[ident]
            return path[::-1]
        for nxt in sorted(step(m, ident, word), key=lambda i: (i.hi - i.lo, i.state),
                          reverse=True):
            if nxt not in parent:
                stack.append((nxt, ident))
    return None


def kth_from_last(k: int) -> LinearAutomaton:
    """One-sided automaton for (a|b)* a (a|b)^k; its subset construction
    reaches 2^(k+1) subsets."""
    states = [f"s{i}" for i in range(k + 2)]
    delta = {("s0", "a"): {"s0", "s1"}, ("s0", "b"): {"s0"}}
    for i in range(1, k + 1):
        delta[(f"s{i}", "a")] = delta[(f"s{i}", "b")] = {f"s{i + 1}"}
    return validate_automaton(left=states, right=[], alphabet="ab", delta=delta,
                              initial=["s0"], final=[f"s{k + 1}"])


def reference_homogeneity(m: LinearAutomaton, members: frozenset[str]) -> Homogeneity:
    if members <= m.left_states:
        return Homogeneity.ALL_LEFT
    if members <= m.right_states:
        return Homogeneity.ALL_RIGHT
    return Homogeneity.MIXED


def reference_subset_table(m: LinearAutomaton) -> dict[frozenset[str], dict[str, frozenset[str]]]:
    """Reachable subsets as frozensets in breadth-first order, each mapped to
    its non-empty successor per symbol.

    The slow reference for ``automaton._subset_table``: every successor is a
    union of frozensets, one per member.
    """
    assert not m.has_lambda_moves
    alphabet = sorted(m.alphabet)
    table: dict[frozenset[str], dict[str, frozenset[str]]] = {}
    frontier = deque(frozenset({q}) for q in sorted(m.initial))
    while frontier:
        x = frontier.popleft()
        if x in table:
            continue
        succ = table[x] = {}
        for a in alphabet:
            y = frozenset().union(*(m.targets(q, a) for q in x))
            if y:
                succ[a] = y
                frontier.append(y)
    return table


def reference_determinize(m: LinearAutomaton) -> LinearAutomaton:
    """Subset construction read from ``reference_subset_table``."""
    subsets = reference_subset_table(m)
    mixed = [x for x in subsets if reference_homogeneity(m, x) is Homogeneity.MIXED]
    if mixed:
        raise NotDeterminizable(f"subset mixes both classes: {sorted(mixed[0])}")
    pool = NamePool()
    names = {x: pool.fresh("_".join(sorted(x))) for x in subsets}
    left = {names[x] for x in subsets
            if reference_homogeneity(m, x) is Homogeneity.ALL_LEFT}
    delta = {(names[x], a): {names[y]} for x, succ in subsets.items() for a, y in succ.items()}
    return LinearAutomaton(frozenset(left), frozenset(names.values()) - left, m.alphabet,
                           delta, frozenset(names[frozenset({q})] for q in m.initial),
                           frozenset(names[x] for x in subsets if x & m.final))


def reference_classify_variable(g: LinearGrammar, v: Symbol) -> VariableClass:
    """One variable's class, recomputed from its own bodies on every call."""
    return _class(g.productions_of(v))


def _error(run) -> tuple | None:
    try:
        run()
    except Exception as exc:  # noqa: BLE001 - whatever the loop raises is the reference
        return type(exc), str(exc), getattr(exc, "subject", None)
    return None


def non_str_first(name) -> tuple:
    """Sort key of the per-name loops: names that are not str first, by repr."""
    return (1, name) if isinstance(name, str) else (0, repr(name))


def _check_declared(variables, terminals) -> None:
    """The sorted per-name loop over a grammar's declared symbols."""
    for kind, pool in ((SymbolKind.VARIABLE, variables), (SymbolKind.TERMINAL, terminals)):
        for s in sorted(pool, key=lambda s: non_str_first(s.name)):
            check_name(s.name, kind.value, single=kind is SymbolKind.TERMINAL)
            if s.kind is not kind:
                raise UnknownSymbol(f"{s.name!r} listed as {kind.value} "
                                    f"with kind {s.kind.value}", subject=s.name)


def reference_grammar_name_error(variables, terminals) -> tuple | None:
    """(type, message, subject) that a sorted per-name loop raises first over a
    grammar's declared symbols, or None when every one passes."""
    return _error(lambda: _check_declared(variables, terminals))


def reference_validate_grammar(*, variables, terminals, start, productions) -> LinearGrammar:
    """``validate_grammar`` on the object path: a Symbol per declared name, a
    Production per body, then the constructor's per-symbol checks in order.

    The slow reference for the name-level checks of ``validate_grammar``.
    An undeclared name passes through for the checks to reject: as a
    variable as start or head, as a terminal in a body.
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
    vs = frozenset(s for s in table.values() if s.kind is SymbolKind.VARIABLE)
    ts = frozenset(s for s in table.values() if s.kind is SymbolKind.TERMINAL)
    start = table.get(start) or variable(start)
    _check_declared(vs, ts)
    if clash := {s.name for s in vs} & {s.name for s in ts}:
        name = min(clash)
        raise DuplicateSymbol(f"{name!r} declared as both terminal and variable", subject=name)
    if start not in vs:
        raise StartNotDeclared(f"start {start.name!r} is not a declared variable",
                               subject=start.name)
    used = {p.head for p in prods}.union(*(p.body for p in prods))
    if bad := used - vs - ts:
        name = min(s.name for s in bad)
        raise UnknownSymbol(f"undeclared symbol {name!r} in a production", subject=name)
    return LinearGrammar(vs, ts, start, prods)


def reference_automaton_name_error(states, alphabet) -> tuple | None:
    """(type, message, subject) that a sorted per-name loop raises first over an
    automaton's states and symbols, or None when every name passes."""
    def run():
        for q in sorted(states, key=non_str_first):
            check_name(q, "state")
        for a in sorted(alphabet, key=non_str_first):
            check_name(a, "alphabet symbol", single=True)
    return _error(run)


# --- object-level references for the rule-level grammar passes ---
#
# Each builds Symbol and Production objects and a grammar through the public
# constructor, as the library did before it held grammars as rules; fresh
# names come from the same NamePool calls in the same order.


def random_compile_grammar(rng: random.Random, even: bool = False,
                           max_vars: int = 60) -> LinearGrammar:
    """A grammar shaped like perfbench's compile family: V log-uniform in
    [5, ``max_vars``], P = 10·V draws, 4 terminals, bodies of at most 6
    symbols, and variables ``S``, ``V1``, ``V2``, ... so that fresh names
    such as ``V1_1`` sit next to declared ones such as ``V11``.

    Each draw is a body of ``randint(0, 6)`` terminals; with probability
    0.8 a non-empty one gets a variable; ``even`` keeps instead 0 to 2
    terminals from each end of the body as the variable's flanks.
    """
    n = round(math.exp(rng.uniform(math.log(5), math.log(max_vars))))
    variables = ["S"] + [f"V{i}" for i in range(1, n)]
    terminals = ["a", "b", "c", "d"]
    productions = []
    for _ in range(10 * n):
        body = [rng.choice(terminals) for _ in range(rng.randint(0, 6))]
        if body and rng.random() < 0.8:
            if even:
                k = rng.randint(0, min(2, len(body) // 2))
                body = body[:k] + [rng.choice(variables)] + body[len(body) - k:]
            else:
                body[rng.randrange(len(body))] = rng.choice(variables)
        productions.append((rng.choice(variables), body))
    return validate_grammar(variables=variables, terminals=terminals,
                            start="S", productions=productions)


def _by_head(g: LinearGrammar) -> dict:
    """The production view read once: head -> its productions in sorted order."""
    groups = itertools.groupby(g.sorted_productions(), attrgetter("head"))
    return {v: tuple(ps) for v, ps in groups}


def _class(ps) -> VariableClass:
    ends = {(p.variable_index, len(p.body) - 1) for p in ps if p.variable_index is not None}
    right = all(i == last for i, last in ends)
    left = all(i == 0 for i, _ in ends)
    if right:
        return VariableClass.BOTH if left else VariableClass.RIGHT_LINEAR
    return VariableClass.LEFT_LINEAR if left else VariableClass.NEITHER


def reference_production_rules(g: LinearGrammar) -> dict[str, list[tuple[str, str | None, str]]]:
    """Each production as (left flank, variable name or None, right flank), by head name."""
    rules: dict[str, list[tuple[str, str | None, str]]] = {}
    for p in g.sorted_productions():
        idx = p.variable_index
        names = [s.name for s in p.body]
        rules.setdefault(p.head.name, []).append(
            ("".join(names), None, "") if idx is None else
            ("".join(names[:idx]), names[idx], "".join(names[idx + 1:])))
    return rules


def reference_lnf(g: LinearGrammar) -> LinearGrammar:
    mixed = dict.fromkeys(v for v, ps in _by_head(g).items()
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
    funnels = {v: variable(names.fresh(v.name)) for v in mixed}
    variables.update(funnels.values())
    prods += [Production(v, (f,)) for v, f in funnels.items()]
    prods += [Production(funnels[p.head], p.body) for p in moved]
    return LinearGrammar(frozenset(variables), g.terminals, g.start, frozenset(prods))


def _slnf_body_ok(body) -> bool:
    return len(body) < 2 or len(body) == 2 and body[0].kind is not body[1].kind


def reference_slnf(lnf: LinearGrammar) -> LinearGrammar:
    """The strong normal form of a grammar already in LNF."""
    names = NamePool(lnf.symbol_names())
    variables = set(lnf.variables)
    prods: list[Production] = []
    for v, ps in _by_head(lnf).items():
        left_linear = _class(ps) is VariableClass.LEFT_LINEAR
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


def reference_eliminate_unit_productions(g: LinearGrammar) -> LinearGrammar:
    def unit(p):
        return len(p.body) == 1 and p.body[0].kind is SymbolKind.VARIABLE

    by_head = _by_head(g)
    targets = {v: {p.body[0] for p in by_head.get(v, ()) if unit(p)} for v in g.variables}
    prods = set()
    for v in g.variables:
        seen, todo = {v}, [v]
        while todo:
            for t in targets[todo.pop()] - seen:
                seen.add(t)
                todo.append(t)
        prods.update(Production(v, p.body) for u in seen for p in by_head.get(u, ())
                     if not unit(p))
    return LinearGrammar(g.variables, g.terminals, g.start, frozenset(prods))


def reference_even_normal_form(g: LinearGrammar) -> LinearGrammar:
    if not is_even_linear(g):
        raise NotEvenLinear("grammar has a body with unequal terminal flanks")
    g = reference_eliminate_unit_productions(g)
    names = NamePool(g.symbol_names())
    variables = set(g.variables)
    prods: list[Production] = []
    for p in g.sorted_productions():
        head, body = p.head, p.body
        while len(body) > (1 if p.variable_index is None else 3):
            nv = variable(names.fresh(p.head.name))
            variables.add(nv)
            prods.append(Production(head, (body[0], nv, body[-1])))
            head, body = nv, body[1:-1]
        prods.append(p if head is p.head else Production(head, body))
    return LinearGrammar(frozenset(variables), g.terminals, g.start, frozenset(prods))


def reference_nla_to_grammar(m: LinearAutomaton) -> LinearGrammar:
    names = NamePool(m.alphabet)
    var_of = {q: variable(names.fresh(q)) for q in sorted(m.states)}
    flank = {a: (terminal(a),) for a in m.alphabet} | {LAMBDA: ()}
    prods = [Production(var_of[q], () if t is None else (*flank[x], var_of[t], *flank[y]))
             for q, rules in reference_move_rules(m).items() for x, t, y in rules]
    variables = set(var_of.values())
    if len(m.initial) == 1:
        start = var_of[next(iter(m.initial))]
    else:
        start = variable(names.fresh("S"))
        variables.add(start)
        initial_vars = {var_of[q] for q in m.initial}
        prods += [Production(start, p.body) for p in prods if p.head in initial_vars]
    return LinearGrammar(frozenset(variables), frozenset(map(terminal, m.alphabet)),
                         start, frozenset(prods))


def reference_serialize_grammar(g: LinearGrammar) -> str:
    """The canonical text, one line built per rule as the serializer once did,
    over the rules sorted here, by head and then by body names, each once,
    whatever order the grammar holds them in."""
    rest = sorted(v.name for v in g.variables if v != g.start)
    out = ["grammar", f"start {g.start.name}",
           " ".join(["terminals", *sorted(t.name for t in g.terminals)]).rstrip(),
           " ".join(["variables", g.start.name, *rest])]
    rules = {(v, _body(r)) for v, rs in g._rules.items() for r in rs}
    out += (f"{v} -> {' '.join(body) or 'eps'}" for v, body in sorted(rules))
    return "\n".join(out) + "\n"


def random_deterministic_grammar(rng: random.Random) -> LinearGrammar:
    """A deterministic linear grammar: each head reads at one end, at most one
    body per terminal, each body a variable and one to five terminals."""
    variables = ["S", "A", "B", "C", "D"][: rng.randint(1, 5)]
    terminals = ["a", "b", "c"][: rng.randint(1, 3)]

    def flank() -> list[str]:
        return [rng.choice(terminals) for _ in range(rng.randint(0, 2))]

    productions = []
    for head in variables:
        if rng.random() < 0.5:
            productions.append((head, []))
        reads_left = rng.random() < 0.5
        for a in terminals:
            if rng.random() < 0.6:
                mid, u = flank(), rng.choice(variables)
                productions.append((head, [a, *mid, u, *flank()] if reads_left
                                    else [u, *mid, a]))
    return validate_grammar(variables=variables, terminals=terminals,
                            start="S", productions=productions)


def reference_even_nla_to_grammar(m: LinearAutomaton) -> LinearGrammar:
    if not is_even(m):
        raise NotEven("automaton has a transition inside one state class")
    mid = reference_nla_to_grammar(m)
    by_head = _by_head(mid)
    prods: set[Production] = set()
    for p in mid.productions:
        body = p.body
        if not body:
            prods.add(p)
        elif p.variable_index == 1:
            prods.update(Production(p.head, (body[0],) + x.body)
                         for x in by_head.get(body[1], ()))
        else:
            prods.update(Production(p.head, x.body + (body[1],))
                         for x in by_head.get(body[0], ()))
    return LinearGrammar(mid.variables, mid.terminals, mid.start, frozenset(prods))


# --- dict-level references for the row-level automaton passes ---
#
# Each reads an automaton through its name-level views (``delta``, the state
# sets) and builds one through the public constructor from a dict of cells,
# as the library did before it held automata as numbered rows.


def reference_serialize_automaton(m: LinearAutomaton) -> str:
    out = ["automaton"]
    out.append(" ".join(["alphabet"] + sorted(m.alphabet)).rstrip())
    out.append(" ".join(["left"] + sorted(m.left_states)).rstrip())
    out.append(" ".join(["right"] + sorted(m.right_states)).rstrip())
    out.append(" ".join(["initial"] + sorted(m.initial)).rstrip())
    out.append(" ".join(["final"] + sorted(m.final)).rstrip())
    cells = sorted(m.delta.items(), key=lambda e: (e[0][0], e[0][1] == LAMBDA, e[0][1]))
    for (q, a), targets in cells:
        out.append(f"{q} {'eps' if a == LAMBDA else a} -> " + " ".join(sorted(targets)))
    return "\n".join(out) + "\n"


def reference_parse_automaton(text: str) -> LinearAutomaton:
    """Directives and transition lines read into one dict of cells."""
    pools: dict[str, list[str]] = {d: [] for d in ("alphabet", "left", "right", "initial", "final")}
    delta: dict[tuple[str, str], list[str]] = {}
    for line in text.splitlines()[1:]:
        toks = line.split("#", 1)[0].split()
        if toks[2:3] == ["->"]:
            a = LAMBDA if toks[1] == "eps" else toks[1]
            delta.setdefault((toks[0], a), []).extend(toks[3:])
        elif toks:
            pools[toks[0]] += toks[1:]
    return LinearAutomaton(pools["left"], pools["right"], pools["alphabet"], delta,
                           pools["initial"], pools["final"])


def reference_to_dot(m: LinearAutomaton) -> str:
    lines = ["digraph {", "  rankdir=LR;"]
    for q in sorted(m.initial):
        lines.append(f"  __start_{q} [shape=point, style=invis];")
    for q in sorted(m.states):
        if q in m.left_states:
            lines.append(f"  {q} [shape={'doublecircle' if q in m.final else 'circle'}];")
        else:
            lines.append(f"  {q} [shape=box{', peripheries=2' if q in m.final else ''}];")
    for q in sorted(m.initial):
        lines.append(f"  __start_{q} -> {q};")
    for (q, a), targets in sorted(m.delta.items(), key=lambda e: (e[0][0], e[0][1] == LAMBDA,
                                                                  e[0][1])):
        for t in sorted(targets):
            lines.append(f'  {q} -> {t} [label="{"eps" if a == LAMBDA else a}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_eliminate_lambda(m: LinearAutomaton) -> LinearAutomaton:
    """Each state's lambda closure from ``lambda_closure``, folded into targets
    and the start set."""
    closures = {q: lambda_closure(m, q) for q, a in m.delta if a == LAMBDA}
    delta = {(q, a): frozenset().union(*(closures.get(t, (t,)) for t in targets))
             for (q, a), targets in m.delta.items() if a != LAMBDA}
    initial = frozenset().union(*(closures.get(q, (q,)) for q in m.initial))
    return LinearAutomaton(m.left_states, m.right_states, m.alphabet, delta, initial, m.final)


def reference_class_swapped(m: LinearAutomaton) -> LinearAutomaton:
    return LinearAutomaton(m.right_states, m.left_states, m.alphabet, dict(m.delta),
                           m.initial, m.final)


def reference_pad_ndeg(m: LinearAutomaton, symbol: str) -> LinearAutomaton:
    if symbol not in m.alphabet:
        raise SymbolNotInAlphabet(f"symbol {symbol!r} is not in the alphabet")
    names = NamePool(m.states)
    x1, x2 = names.fresh("x_1"), names.fresh("x_2")
    delta = {**m.delta, (x1, symbol): {x1, x2}}
    return LinearAutomaton(m.left_states | {x1, x2}, m.right_states, m.alphabet, delta,
                           m.initial, m.final)


def reference_build_lk_automaton(k: int) -> LinearAutomaton:
    chain = [f"q{i}" for i in range(k + 1)]
    delta: dict[tuple[str, str], set[str]] = {("p1", "a"): {"q0"}}
    for i in range(k):
        delta[(chain[i], "b")] = {chain[i + 1], "p1"}
    delta[(chain[k], "b")] = {"p1"}
    return LinearAutomaton(["p1"], chain, ["a", "b"], delta, ["q0"], ["q0"])


def reference_slnf_to_nla(g: LinearGrammar, sink_side: str | None) -> LinearAutomaton:
    """A strong-form grammar's automaton, one cell per head and symbol, built
    from the production view."""
    right = {v.name for v in g.variables if classify_variable(g, v) is VariableClass.LEFT_LINEAR}
    left = {v.name for v in g.variables} - right
    final = set()
    sink = NamePool(g.symbol_names()).fresh("sink") if sink_side else None
    if sink:
        (left if sink_side == "left" else right).add(sink)
        final.add(sink)
    delta: dict[tuple[str, str], set[str]] = {}
    for p in g.sorted_productions():
        names = [s.name for s in p.body]
        if not names:
            final.add(p.head.name)
        elif p.variable_index is None:
            delta.setdefault((p.head.name, names[0]), set()).add(sink)
        else:
            target = names.pop(p.variable_index)
            delta.setdefault((p.head.name, "".join(names)), set()).add(target)
    return LinearAutomaton(left, right, {t.name for t in g.terminals}, delta,
                           {g.start.name}, final)


def reference_move_rules(m: LinearAutomaton) -> dict[str, list[tuple[str, str | None, str]]]:
    rules: dict[str, list[tuple[str, str | None, str]]] = {}
    for (q, a), targets in m.delta.items():
        left, right = (a, "") if q in m.left_states else ("", a)
        rules.setdefault(q, []).extend((left, t, right) for t in targets)
    for q in m.final:
        rules.setdefault(q, []).append(("", None, ""))
    return rules


def reference_is_even(m: LinearAutomaton) -> bool:
    return all(targets <= (m.right_states if q in m.left_states else m.left_states)
               for (q, _), targets in m.delta.items())


def reference_ndeg(m: LinearAutomaton) -> int:
    return sum(len(ts) - 1 for ts in m.delta.values())


def reference_is_deterministic(m: LinearAutomaton) -> bool:
    return all(a != LAMBDA and len(ts) == 1 for (_, a), ts in m.delta.items())


def assert_rows(m: LinearAutomaton) -> None:
    """The rows an automaton holds are in the one canonical form that
    equality and the text round trip rely on."""
    assert list(m._names) == sorted(set(m._names)) and len(m._left) == len(m._names)
    for reads, lam in zip(m._reads, m._lam):
        assert list(reads) == sorted(reads) and LAMBDA not in reads
        for ts in (*reads.values(), lam):
            assert type(ts) is tuple and list(ts) == sorted(set(ts))
        assert all(reads.values())
    assert type(m._initial) is tuple and list(m._initial) == sorted(set(m._initial))
