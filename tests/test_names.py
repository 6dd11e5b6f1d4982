"""Batched name checks: the constructors raise what a per-name loop raises."""

import random

import pytest

from linlang import (
    LinearAutomaton,
    LinearGrammar,
    Symbol,
    SymbolKind,
    terminal,
    validate_grammar,
    variable,
)
from linlang.errors import (
    DuplicateSymbol,
    InvalidIdentifier,
    NotLinear,
    StartNotDeclared,
    UnknownSymbol,
)
from linlang.naming import check_name, names_ok

from helpers import (
    reference_automaton_name_error,
    reference_grammar_name_error,
    reference_validate_grammar,
)

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


def faulty_grammar_data(rng: random.Random) -> dict:
    """validate_grammar's keyword arguments for a small grammar with up to
    three faults, each put at a random place."""
    variables = ["S", "A", "B"][: rng.randint(1, 3)]
    terminals = ["a", "b"][: rng.randint(1, 2)]
    start, productions = "S", []
    for _ in range(rng.randint(0, 5)):
        body = [rng.choice(terminals) for _ in range(rng.randint(0, 4))]
        if body and rng.random() < 0.7:
            body[rng.randrange(len(body))] = rng.choice(variables)
        productions.append((rng.choice(variables), body))

    def add_production(head, body):
        productions.insert(rng.randint(0, len(productions)), (head, body))

    def add_to_body(name):
        body = [rng.choice(terminals) for _ in range(rng.randint(0, 2))]
        body.insert(rng.randint(0, len(body)), name)
        add_production(rng.choice(variables), body)

    for _ in range(rng.randint(0, 3)):
        fault = rng.randrange(10)
        if fault == 0:  # a duplicate declaration
            pool = rng.choice([variables, terminals])
            pool.insert(rng.randint(0, len(pool)), rng.choice(variables + terminals))
        elif fault == 1:  # a bad or reserved variable name
            variables.append(rng.choice(["1A", "A B", "", "eps", "Z-"]))
        elif fault == 2:  # a bad, reserved or multi-character terminal
            terminals.append(rng.choice(["bc", "eps", "1", " ", "", "de"]))
        elif fault == 3:  # a terminal head
            add_production(rng.choice(terminals), [rng.choice(variables)])
        elif fault == 4:  # a body with two variables
            add_production(rng.choice(variables),
                           [rng.choice(variables), rng.choice(terminals), rng.choice(variables)])
        elif fault == 5:  # an undeclared one-character body name
            add_to_body(rng.choice(["z", "Z", "c"]))
        elif fault == 6:  # an undeclared name of several characters in a body
            add_to_body(rng.choice(["zz", "Zq", "ab", "SA", "eps1"]))
        elif fault == 7:  # an undeclared head
            add_production(rng.choice(["X", "XY", "c"]), [rng.choice(terminals)])
        elif fault == 8:  # a missing start
            start = "T"
        else:  # a terminal start
            start = rng.choice(terminals)
    return dict(variables=variables, terminals=terminals, start=start, productions=productions)


def outcome(build) -> tuple:
    try:
        g = build()
    except Exception as exc:  # noqa: BLE001 - compared with the object path's error
        return type(exc), str(exc), str(exc.subject)
    return g


def test_validate_grammar_raises_what_the_object_path_raises():
    rng = random.Random(0x14)
    seen = set()
    names_not_str = [  # a declared terminal and an undeclared body name
        dict(variables=["S"], terminals=[3], start="S", productions=[("S", [3, "S"])]),
        dict(variables=["S"], terminals=["a"], start="S", productions=[("S", ["a", 3])]),
    ]
    for data in names_not_str + [faulty_grammar_data(rng) for _ in range(600)]:
        want = outcome(lambda: reference_validate_grammar(**data))
        assert outcome(lambda: validate_grammar(**data)) == want, data
        seen.add(want[0] if isinstance(want, tuple) else LinearGrammar)
        if isinstance(want, tuple) and want[0] is UnknownSymbol:
            seen.add(len(want[2]))
    assert seen >= {LinearGrammar, DuplicateSymbol, InvalidIdentifier, NotLinear,
                    StartNotDeclared, UnknownSymbol, 1, 2}


def test_a_name_that_is_not_a_str_is_an_invalid_identifier():
    """Among str names, the scans sort it first, whatever the hash seed."""
    builds = [
        lambda: LinearGrammar({variable("S"), variable("A"), Symbol(3, V)}, {terminal("a")},
                              variable("S"), frozenset()),
        lambda: validate_grammar(variables=["S", 3, "A"], terminals=["a"], start="S",
                                 productions=[]),
        lambda: LinearAutomaton({"p", 3, "q"}, set(), {"a"}, {}, {"p"}, set()),
        lambda: LinearAutomaton({"p"}, {"q"}, {"a", 4, "b"}, {}, {"p"}, set()),
    ]
    for build, name in zip(builds, (3, 3, 3, 4)):
        got = raised(build)
        assert got[0] is InvalidIdentifier and got[2] == name, got
