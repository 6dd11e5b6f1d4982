"""Batched name checks: the constructors raise what a per-name loop raises."""

import random

import pytest

from linlang import LinearAutomaton, LinearGrammar, Symbol, SymbolKind, terminal, variable
from linlang.errors import InvalidIdentifier
from linlang.naming import check_name, names_ok

from helpers import reference_automaton_name_error, reference_grammar_name_error

V, T = SymbolKind.VARIABLE, SymbolKind.TERMINAL


def raised(build) -> tuple | None:
    try:
        build()
    except Exception as exc:  # noqa: BLE001 - compared with the reference loop's error
        return type(exc), str(exc), getattr(exc, "subject", None)
    return None


GRAMMAR_POOLS = [
    # (variables, terminals), each with several faults
    ({variable("S"), variable("1A"), variable("eps"), variable("B C")}, {terminal("a")}),
    ({variable("S"), variable("eps"), variable("A\nB")}, {terminal("a"), terminal("bc")}),
    ({variable("S"), variable("eps"), variable("epsilon")}, {terminal("a")}),
    ({variable("S")}, {terminal("ab"), terminal("1"), terminal("eps")}),
    ({variable("S")}, {terminal("a"), terminal("bc"), terminal("de")}),
    ({variable("S")}, {terminal("a"), terminal(" "), terminal("b")}),
    ({variable("S"), Symbol("A B", V)}, {terminal("a")}),
    ({variable("S"), Symbol("A\n", V)}, {Symbol("a b", T)}),
    ({variable("S"), Symbol(3, V)}, {terminal("a")}),
    ({variable("S")}, {Symbol(3, T)}),
    ({variable("S"), terminal("x"), variable("9")}, {terminal("a")}),
    ({variable("S"), variable("")}, {terminal("a")}),
    ({variable("S"), terminal("A")}, {terminal("a"), terminal("bc")}),
]


@pytest.mark.parametrize("variables, terminals", GRAMMAR_POOLS)
def test_grammar_raises_what_the_per_name_loop_raises(variables, terminals):
    variables, terminals = frozenset(variables), frozenset(terminals)
    want = reference_grammar_name_error(variables, terminals)
    assert want is not None
    got = raised(lambda: LinearGrammar(variables, terminals, variable("S"), frozenset()))
    assert got == want


AUTOMATON_POOLS = [
    # (left, right, alphabet), each with several faults
    ({"q0", "1q"}, {"eps"}, {"a", "bc"}),
    ({"q 0", "q1"}, set(), {"a"}),
    ({"q0", "q\n"}, {"eps"}, {"a"}),
    ({"q0"}, {"p 1", "2p"}, {"a"}),
    ({"q0"}, set(), {"ab", "b", "cd"}),
    ({"q0"}, set(), {"a", " ", "eps"}),
    ({"q0"}, set(), {"a", "b\n"}),
    ({3}, set(), {"a"}),
    ({"q0"}, set(), {4}),
    ({"q0", ""}, set(), {"a"}),
]


@pytest.mark.parametrize("left, right, alphabet", AUTOMATON_POOLS)
def test_automaton_raises_what_the_per_name_loop_raises(left, right, alphabet):
    left, right, alphabet = frozenset(left), frozenset(right), frozenset(alphabet)
    want = reference_automaton_name_error(left | right, alphabet)
    assert want is not None
    got = raised(lambda: LinearAutomaton(left, right, alphabet, {}, frozenset(), frozenset()))
    assert got == want


def test_initial_and_final_names_are_checked():
    got = raised(lambda: LinearAutomaton({"q"}, set(), {"a"}, {}, {"q x"}, {"eps"}))
    assert got == reference_automaton_name_error({"q", "q x", "eps"}, {"a"})
    assert got[0] is InvalidIdentifier


def test_batch_agrees_with_per_name_check():
    pieces = ["a", "b", "Z", "_", "0", "9", "eps", "ps", " ", "\n", "é", "-", ""]
    rng = random.Random(0x4E)
    for _ in range(3000):
        names = ["".join(rng.choices(pieces, k=rng.randint(0, 3)))
                 for _ in range(rng.randint(0, 4))]
        for single in (False, True):
            def ok(n):
                try:
                    check_name(n, single=single)
                except InvalidIdentifier:
                    return False
                return True
            assert names_ok(names, single) == all(map(ok, names)), (names, single)


def test_valid_names_pass_in_one_batch():
    assert names_ok(["S", "eps1", "epsilon", "Eps", "_", "_eps", "a_b_1", "x9"])
    assert names_ok(["a", "b", "_", "Z"], single=True)
    assert names_ok([]) and names_ok([], single=True)
    assert not names_ok(["a", "eps"])
    assert not names_ok(["a b"]) and not names_ok(["a", "b c"])
