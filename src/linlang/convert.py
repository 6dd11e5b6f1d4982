"""Constructions between linear grammars and two-head linear automata."""

from __future__ import annotations

from operator import itemgetter

from .automaton import LinearAutomaton, _automaton, _move_rules, is_even
from .errors import NotDeterministicLinear, NotEven
from .grammar import (
    LinearGrammar,
    VariableClass,
    _grammar,
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
    # Heads come in name order, so sorting the names is near linear.  Each
    # head's bodies come in order too, so a cell's targets come in order but
    # for the sink, and a row's symbols but for a right state's.
    sink = NamePool(g.symbol_names()).fresh("sink") if sink_side else None
    names = sorted([*g._rules, *g._variables.difference(g._rules), *([sink] if sink else ())])
    at = dict(zip(names, range(len(names))))
    left = [g._classes.get(v) is not VariableClass.LEFT_LINEAR for v in names]
    reads: list[dict[str, tuple[int, ...]]] = [{} for _ in names]
    lam: list[tuple[int, ...]] = [()] * len(names)
    final = []
    if sink:
        left[at[sink]] = sink_side == "left"
        final.append(at[sink])
    for v, rules in g._rules.items():
        q, row, units, sunk = at[v], reads[at[v]], [], []
        for x, u, y in rules:
            if u is None:
                if x:
                    row[x] = (*row.get(x, ()), at[sink])
                    sunk.append(x)
                else:
                    final.append(q)
            elif x or y:
                a = x + y
                row[a] = (*row[a], at[u]) if a in row else (at[u],)
            else:
                units.append(at[u])
        for x in sunk:
            row[x] = tuple(sorted(row[x]))
        if not left[q] and len(row) > 1:
            reads[q] = dict(sorted(row.items()))
        lam[q] = tuple(units)
    return _automaton(names, left, reads, lam, g._terminals, (at[g._start],), final)


def grammar_to_nla(g: LinearGrammar) -> LinearAutomaton:
    """Automaton accepting exactly the grammar's language (may use lambda moves)."""
    return _slnf_to_nla(to_slnf(g), "left")


def nla_to_grammar(m: LinearAutomaton) -> LinearGrammar:
    """Grammar generating exactly the automaton's language.

    One variable per state and one production per move, as read by
    ``_move_rules``.  Several start states are merged by copying their
    productions onto a fresh start variable.
    """
    var = m._names
    if not m.alphabet.isdisjoint(var):  # else each state keeps its name
        pool = NamePool(m.alphabet)
        var = [pool.fresh(q) for q in var]
    rules = _move_rules(m, var)
    if ordered := var is m._names and not m.has_lambda_moves and len(m._initial) == 1:
        # Names follow state numbers, so a left row's reads come in body order
        # and a right row's sort by (target, symbol); an erasing rule goes first.
        # Any other automaton leaves the sort to _grammar.
        for v, left in zip(var, m._left):
            if len(rs := rules.get(v, ())) > 1:
                n = len(rs) - (rs[-1][1] is None)  # the reads, then any erasing rule
                rules[v] = rs[n:] + (rs[:n] if left else sorted(rs[:n], key=itemgetter(1, 2)))
    variables = set(var)
    if len(m._initial) == 1:
        start = var[m._initial[0]]
    else:
        start = NamePool(m.alphabet | variables).fresh("S")
        variables.add(start)
        rules[start] = [r for q in m._initial for r in rules.get(var[q], ())]
    return _grammar(variables, m.alphabet, start, rules, ordered)


def det_grammar_to_dla(g: LinearGrammar) -> LinearAutomaton:
    """Deterministic automaton for a deterministic linear grammar."""
    if not is_deterministic_linear(g):
        raise NotDeterministicLinear("grammar fails the deterministic-linear condition")
    # a deterministic grammar's strong form has no unit or bare-terminal body
    return _slnf_to_nla(to_slnf(g), None)


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
