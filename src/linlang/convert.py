"""Constructions between linear grammars and two-head linear automata."""

from __future__ import annotations

from .automaton import LAMBDA, LinearAutomaton, _move_rules, is_even, validate_automaton
from .errors import NotDeterministicLinear, NotEven
from .grammar import (
    LinearGrammar,
    VariableClass,
    _body,
    _grammar,
    _line,
    is_deterministic_linear,
    to_even_normal_form,
    to_slnf,
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
    right = {v for v, c in g._classes.items() if c is VariableClass.LEFT_LINEAR}
    left = set(g._variables - right)
    final = set()
    sink = NamePool(g.symbol_names()).fresh("sink") if sink_side else None
    if sink:
        (left if sink_side == "left" else right).add(sink)
        final.add(sink)
    delta: dict[tuple[str, str], set[str]] = {}
    for v, rules in g._rules.items():
        for x, u, y in rules:
            if u is None and not x:
                final.add(v)
            else:
                # a unit body's empty flanks are the lambda symbol
                sym, target = (x, sink) if u is None else (x + y or LAMBDA, u)
                delta.setdefault((v, sym), set()).add(target)
    return validate_automaton(left=left, right=right, alphabet=g._terminals,
                              delta=delta, initial={g._start}, final=final)


def grammar_to_nla(g: LinearGrammar) -> LinearAutomaton:
    """Automaton accepting exactly the grammar's language (may use lambda moves)."""
    return _slnf_to_nla(to_slnf(g), "left")


def nla_to_grammar(m: LinearAutomaton) -> LinearGrammar:
    """Grammar generating exactly the automaton's language.

    One variable per state and one production per move, as read by
    ``_move_rules``.  Several start states are merged by copying their
    productions onto a fresh start variable.
    """
    names = NamePool(m.alphabet)
    var_of = {q: names.fresh(q) for q in sorted(m.states)}
    rules = {var_of[q]: [(x, None if t is None else var_of[t], y) for x, t, y in rs]
             for q, rs in _move_rules(m).items()}
    variables = set(var_of.values())
    if len(m.initial) == 1:
        start = var_of[next(iter(m.initial))]
    else:
        start = names.fresh("S")
        variables.add(start)
        rules[start] = [r for q in m.initial for r in rules.get(var_of[q], ())]
    return _grammar(variables, m.alphabet, start, rules)


def det_grammar_to_dla(g: LinearGrammar) -> LinearAutomaton:
    """Deterministic automaton for a deterministic linear grammar."""
    if not is_deterministic_linear(g):
        raise NotDeterministicLinear("grammar fails the deterministic-linear condition")
    gh = to_slnf(g)
    for v, rules in gh._rules.items():
        for x, u, y in rules:
            # The determinism-preserving pipeline cannot emit unit or bare-
            # terminal bodies from a deterministic grammar; guard, not assume.
            assert (x, u, y) == ("", None, "") or u is not None and len(x + y) == 1, \
                f"unexpected body shape: {_line(v, _body((x, u, y)))}"
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
    rules = {v: [(x, u, y) for x, u, y in rs if u is None] for v, rs in mid._rules.items()}
    for v, rs in mid._rules.items():
        # each read x u y with each body x2 u2 y2 of u put in u's place
        rules[v] += [(x + x2 + y, None, "") if u2 is None else (x + x2, u2, y2 + y)
                     for x, u, y in rs if u is not None for x2, u2, y2 in mid._rules.get(u, ())]
    return _grammar(mid._variables, mid._terminals, mid._start, rules)
