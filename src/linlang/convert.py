"""Constructions between linear grammars and two-head linear automata."""

from __future__ import annotations

from .automaton import LAMBDA, LinearAutomaton, _move_rules, is_even, validate_automaton
from .errors import NotDeterministicLinear, NotEven, NotEvenLinear
from .grammar import (
    LinearGrammar,
    Production,
    SymbolKind,
    classify_variable,
    VariableClass,
    _slnf_body_ok,
    is_deterministic_linear,
    is_even_linear,
    to_even_normal_form,
    to_slnf,
    validate_grammar,
    variable,
)
from .naming import fresh_name


def _slnf_to_nla(g: LinearGrammar, sink_side: str) -> LinearAutomaton:
    """Core grammar-to-automaton build; ``g`` must already be in strong form.

    One state per variable plus a fresh final sink.  A left-linear variable
    (variable-then-terminal reads) is a right state; every other variable
    reads terminal-then-variable, or not at all, and is a left state.
    The sink performs no reads, so its side is semantically inert; the even
    pipeline puts it on the right so the transition diagram stays bipartite.
    """
    sink = fresh_name("sink", g.symbol_names())
    left, right = _sides(g)
    (left if sink_side == "left" else right).add(sink)
    delta: dict[tuple[str, str], set[str]] = {}
    final = {sink}
    for p in g.productions:
        body = p.body
        if not body:
            final.add(p.head.name)
        elif len(body) == 1 and body[0].kind is SymbolKind.VARIABLE:
            delta.setdefault((p.head.name, LAMBDA), set()).add(body[0].name)
        elif len(body) == 1:
            delta.setdefault((p.head.name, body[0].name), set()).add(sink)
        else:
            t = body[0] if body[0].kind is SymbolKind.TERMINAL else body[1]
            v = body[1] if body[0].kind is SymbolKind.TERMINAL else body[0]
            delta.setdefault((p.head.name, t.name), set()).add(v.name)
    return validate_automaton(left=left, right=right,
                              alphabet={t.name for t in g.terminals},
                              delta=delta, initial={g.start.name}, final=final)


def _sides(g: LinearGrammar) -> tuple[set[str], set[str]]:
    """Left and right state names: right exactly for left-linear variables."""
    right = {v.name for v in g.variables
             if classify_variable(g, v) is VariableClass.LEFT_LINEAR}
    return {v.name for v in g.variables} - right, right


def grammar_to_nla(g: LinearGrammar) -> LinearAutomaton:
    """Automaton accepting exactly the grammar's language (may use lambda moves)."""
    return _slnf_to_nla(to_slnf(g), "left")


def nla_to_grammar(m: LinearAutomaton) -> LinearGrammar:
    """Grammar generating exactly the automaton's language.

    One variable per state and one production per move, as read by
    ``_move_rules``.  Several start states are merged by copying their
    productions onto a fresh start variable.
    """
    alphabet = sorted(m.alphabet)
    used = set(alphabet)
    var_of = {q: fresh_name(q, used) for q in sorted(m.states)}
    prods = [(var_of[q], [] if t is None else [*left, var_of[t], *right])
             for q, rules in _move_rules(m).items() for left, t, right in rules]
    variables = [var_of[q] for q in sorted(m.states)]
    if len(m.initial) == 1:
        start = var_of[next(iter(m.initial))]
    else:
        start = fresh_name("S", used)
        variables.append(start)
        initial_vars = {var_of[q] for q in m.initial}
        prods += [(start, list(body)) for head, body in prods if head in initial_vars]
    return validate_grammar(variables=variables, terminals=alphabet,
                            start=start, productions=prods)


def det_grammar_to_dla(g: LinearGrammar) -> LinearAutomaton:
    """Deterministic automaton for a deterministic linear grammar."""
    if not is_deterministic_linear(g):
        raise NotDeterministicLinear("grammar fails the deterministic-linear condition")
    gh = to_slnf(g)
    for p in gh.productions:
        # The determinism-preserving pipeline cannot emit unit or bare-terminal
        # bodies from a deterministic grammar; guard rather than assume.
        assert not p.body or (len(p.body) == 2 and _slnf_body_ok(p.body)), \
            f"unexpected body shape: {p}"
    left, right = _sides(gh)
    delta: dict[tuple[str, str], set[str]] = {}
    final = set()
    for p in gh.productions:
        if not p.body:
            final.add(p.head.name)
            continue
        t = p.body[0] if p.body[0].kind is SymbolKind.TERMINAL else p.body[1]
        v = p.body[1] if p.body[0].kind is SymbolKind.TERMINAL else p.body[0]
        delta.setdefault((p.head.name, t.name), set()).add(v.name)
    m = validate_automaton(left=left, right=right,
                           alphabet={t.name for t in gh.terminals},
                           delta=delta, initial={gh.start.name}, final=final)
    assert all(len(ts) == 1 for ts in m.delta.values())
    return m


def even_grammar_to_nla(g: LinearGrammar) -> LinearAutomaton:
    """Even automaton for an even linear grammar (strict class alternation)."""
    if not is_even_linear(g):
        raise NotEvenLinear("grammar has a body with unequal terminal flanks")
    nf = to_even_normal_form(g)
    used = nf.symbol_names()
    variables = set(nf.variables)
    prods: list[Production] = []
    for p in nf.sorted_productions():
        if len(p.body) == 3:
            c = variable(fresh_name(p.head.name, used))
            variables.add(c)
            prods.append(Production(p.head, (p.body[0], c)))
            prods.append(Production(c, (p.body[1], p.body[2])))
        else:
            prods.append(p)
    split = LinearGrammar(frozenset(variables), nf.terminals, nf.start, frozenset(prods))
    return _slnf_to_nla(split, "right")


def even_nla_to_grammar(m: LinearAutomaton) -> LinearGrammar:
    """Even-normal-form grammar for an even automaton.

    Builds the one-variable-per-state grammar, then folds each pair of
    consecutive reads into a single both-flanks production; erasing
    productions of final states are retained.
    """
    if not is_even(m):
        raise NotEven("automaton has a transition inside one state class")
    mid = nla_to_grammar(m)
    prods: set[Production] = set()
    for p in mid.productions:
        body = p.body
        if not body:
            prods.add(p)
        elif body[0].kind is SymbolKind.TERMINAL:
            for x in mid.productions_of(body[1]):
                prods.add(Production(p.head, (body[0],) + x.body))
        else:
            for x in mid.productions_of(body[0]):
                prods.add(Production(p.head, x.body + (body[1],)))
    return LinearGrammar(mid.variables, mid.terminals, mid.start, frozenset(prods))
