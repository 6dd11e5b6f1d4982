"""Constructions between linear grammars and two-head linear automata."""

from __future__ import annotations

from .automaton import LAMBDA, LinearAutomaton, _move_rules, is_even, validate_automaton
from .errors import NotDeterministicLinear, NotEven
from .grammar import (
    LinearGrammar,
    Production,
    VariableClass,
    _slnf_body_ok,
    is_deterministic_linear,
    to_even_normal_form,
    terminal,
    to_slnf,
    variable,
)
from .naming import NamePool


def _slnf_to_nla(g: LinearGrammar, sink_side: str | None) -> LinearAutomaton:
    """Core grammar-to-automaton build; ``g`` must already be in strong form.

    One state per variable.  A left-linear variable (variable-then-terminal
    reads) is a right state; every other variable reads terminal-then-
    variable, or not at all, and is a left state.  An erasing body makes its
    head final, a unit body is a lambda move, and a two-symbol body reads
    its terminal into its variable.  A bare terminal reads into a fresh
    final sink on side ``sink_side``, or None when ``g`` has no such body.
    The sink performs no reads, so its side is semantically inert; the even
    pipeline puts it on the right so the transition diagram stays bipartite.
    """
    right = {v.name for v, c in g._classes.items() if c is VariableClass.LEFT_LINEAR}
    left = {v.name for v in g.variables} - right
    final = set()
    sink = NamePool(g.symbol_names()).fresh("sink") if sink_side else None
    if sink:
        (left if sink_side == "left" else right).add(sink)
        final.add(sink)
    delta: dict[tuple[str, str], set[str]] = {}
    for p in g.productions:
        body, idx = p.body, p.variable_index
        if not body:
            final.add(p.head.name)
            continue
        if len(body) == 1:
            sym, target = (LAMBDA, body[0].name) if idx == 0 else (body[0].name, sink)
        else:
            sym, target = body[1 - idx].name, body[idx].name
        delta.setdefault((p.head.name, sym), set()).add(target)
    return validate_automaton(left=left, right=right,
                              alphabet={t.name for t in g.terminals},
                              delta=delta, initial={g.start.name}, final=final)


def grammar_to_nla(g: LinearGrammar) -> LinearAutomaton:
    """Automaton accepting exactly the grammar's language (may use lambda moves)."""
    return _slnf_to_nla(to_slnf(g), "left")


def nla_to_grammar(m: LinearAutomaton) -> LinearGrammar:
    """Grammar generating exactly the automaton's language.

    One variable per state and one production per move, as read by
    ``_move_rules``; each distinct rule's body tuple is built once.
    Several start states are merged by copying their productions onto a
    fresh start variable.
    """
    names = NamePool(m.alphabet)
    var_of = {q: variable(names.fresh(q)) for q in sorted(m.states)}
    terminals = frozenset(map(terminal, m.alphabet))
    flank = {s.name: (s,) for s in terminals} | {LAMBDA: ()}  # a rule's flanks
    rules = _move_rules(m)
    body_of = {(left, t, right): () if t is None else (*flank[left], var_of[t], *flank[right])
               for left, t, right in set().union(*rules.values())}
    prods = [Production(var_of[q], body_of[rule]) for q, rs in rules.items() for rule in rs]
    variables = set(var_of.values())
    if len(m.initial) == 1:
        start = var_of[next(iter(m.initial))]
    else:
        start = variable(names.fresh("S"))
        variables.add(start)
        initial_vars = {var_of[q] for q in m.initial}
        prods += [Production(start, p.body) for p in prods if p.head in initial_vars]
    return LinearGrammar(frozenset(variables), terminals, start, frozenset(prods))


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
    m = _slnf_to_nla(gh, None)
    assert all(len(ts) == 1 for ts in m.delta.values())
    return m


def even_grammar_to_nla(g: LinearGrammar) -> LinearAutomaton:
    """Even automaton for an even linear grammar (strict class alternation)."""
    return _slnf_to_nla(to_slnf(to_even_normal_form(g)), "right")


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
        elif p.variable_index == 1:
            for x in mid.productions_of(body[1]):
                prods.add(Production(p.head, (body[0],) + x.body))
        else:
            for x in mid.productions_of(body[0]):
                prods.add(Production(p.head, x.body + (body[1],)))
    return LinearGrammar(mid.variables, mid.terminals, mid.start, frozenset(prods))
