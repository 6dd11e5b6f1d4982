"""The grammar passes, which read and write (left flank, variable, right flank)
rules, against the object-level passes kept in ``helpers``; and every grammar
a pass builds against the text and pickle round trips."""

import dataclasses
import functools
import pickle
import random

import pytest

from linlang import (
    LinearGrammar,
    Symbol,
    det_grammar_to_dla,
    eliminate_unit_productions,
    enumerate_language,
    even_grammar_to_nla,
    even_nla_to_grammar,
    grammar_to_nla,
    is_deterministic_linear,
    is_even,
    is_even_linear,
    is_lnf,
    is_slnf,
    nla_to_grammar,
    parse_grammar,
    serialize_grammar,
    terminal,
    to_even_normal_form,
    to_lnf,
    to_slnf,
    variable,
)
from linlang.corpus import fixture_ids, load_fixture
from linlang.errors import DuplicateSymbol, InvalidIdentifier, StartNotDeclared, UnknownSymbol
from linlang.grammar import Production, _body, _grammar

from helpers import (
    DATA,
    g_prime,
    random_automaton,
    random_compile_grammar,
    random_even_grammar,
    reference_eliminate_unit_productions,
    reference_even_nla_to_grammar,
    reference_even_normal_form,
    reference_lnf,
    reference_nla_to_grammar,
    reference_serialize_grammar,
    reference_slnf,
)

SEEDED = 300


def corpus(kind: str) -> list:
    return [fx.payload for fx in map(load_fixture, fixture_ids()) if fx.kind == kind]


@functools.cache
def compile_grammars() -> list[LinearGrammar]:
    rng = random.Random(0x12)
    return [random_compile_grammar(rng) for _ in range(SEEDED)]


@functools.cache
def even_grammars() -> list[LinearGrammar]:
    # unit bodies link many variables, and unit elimination copies bodies
    # along every link, so the even family stays small
    rng = random.Random(0x13)
    return ([random_compile_grammar(rng, even=True, max_vars=12) for _ in range(40)]
            + [random_even_grammar(rng) for _ in range(SEEDED)]
            + [g for g in corpus("grammar") if is_even_linear(g)])


@functools.cache
def automata() -> list:
    rng = random.Random(0x14)
    return ([grammar_to_nla(g) for g in compile_grammars()[::5]]
            + [random_automaton(rng) for _ in range(SEEDED)] + corpus("automaton"))


@functools.cache
def wide_automata() -> list:
    """Automata of 10 to 13 states, where ``s10`` sorts before ``s2``; every
    other one has states named like a symbol, which ``nla_to_grammar``
    renames out of name order.  With and without lambda moves, and with one
    start state or several."""
    rng = random.Random(0x15)
    out = []
    for i in range(80):
        states = [f"s{j}" for j in range(rng.randint(10, 13))]
        if i % 2:
            states[:4] = ["a", "a0", "a_1", "b"]
        out.append(random_automaton(rng, allow_lambda=i % 4 < 2, single_start=i % 8 < 2,
                                    states=states))
    return out


@functools.cache
def even_automata() -> list:
    return ([even_grammar_to_nla(g) for g in even_grammars()[40:]]
            + [m for m in corpus("automaton") if not m.has_lambda_moves and is_even(m)])


def assert_same(got: LinearGrammar, want: LinearGrammar):
    assert serialize_grammar(got) == serialize_grammar(want)
    assert got == want


def test_lnf_and_slnf_agree_with_the_object_level_passes():
    for g in compile_grammars() + corpus("grammar") + [g_prime()]:
        lnf = reference_lnf(g)
        assert_same(to_lnf(g), lnf)
        assert_same(to_slnf(g), reference_slnf(lnf))


def test_unit_elimination_agrees_with_the_object_level_pass():
    for g in compile_grammars()[1::5] + corpus("grammar") + [g_prime()]:
        assert_same(eliminate_unit_productions(g), reference_eliminate_unit_productions(g))


def test_even_normal_form_agrees_with_the_object_level_pass():
    grammars = even_grammars()
    assert len(grammars) > SEEDED
    for g in grammars:
        assert_same(to_even_normal_form(g), reference_even_normal_form(g))


def test_nla_to_grammar_agrees_with_the_object_level_pass():
    ms = automata()
    assert sum(len(m.initial) > 1 for m in ms) > 50  # the merged-start path
    for m in ms + [grammar_to_nla(g_prime())]:
        assert_same(nla_to_grammar(m), reference_nla_to_grammar(m))


def test_nla_to_grammar_agrees_with_the_object_level_pass_on_wide_and_renamed_automata():
    ms = wide_automata()
    paths = {(m.has_lambda_moves, len(m.initial) > 1, not m.alphabet.isdisjoint(m.states))
             for m in ms}
    assert len(paths) == 8
    for m in ms:
        assert_same(nla_to_grammar(m), reference_nla_to_grammar(m))


def test_even_nla_to_grammar_agrees_with_the_object_level_pass():
    for m in even_automata():
        assert_same(even_nla_to_grammar(m), reference_even_nla_to_grammar(m))


def scrambled(g: LinearGrammar, rng: random.Random) -> str:
    """``g``'s text with its production lines shuffled and a quarter repeated."""
    lines = serialize_grammar(g).splitlines()
    header, rules = lines[:4], lines[4:]
    rules += rng.sample(rules, len(rules) // 4)
    rng.shuffle(rules)
    return "\n".join(header + rules) + "\n"


def grammar_family() -> list:
    return compile_grammars()[::2] + corpus("grammar") + [g_prime()]


#: Each grammar pass, and the grammars it builds from the seeded families,
#: G′ and the corpus.  ``validate_grammar`` builds every seeded grammar.
PASS_OUTPUTS = {
    "parse_grammar": lambda: [parse_grammar(scrambled(g, random.Random(i)))
                              for i, g in enumerate(grammar_family())]
    + [parse_grammar(path.read_text()) for path in sorted(DATA.glob("*.grm"))],
    "validate_grammar": grammar_family,
    "to_lnf": lambda: map(to_lnf, grammar_family()),
    "to_slnf": lambda: map(to_slnf, grammar_family()),
    "eliminate_unit_productions": lambda: map(
        eliminate_unit_productions, compile_grammars()[1::5] + corpus("grammar") + [g_prime()]),
    "to_even_normal_form": lambda: map(to_even_normal_form, even_grammars()),
    "nla_to_grammar": lambda: map(nla_to_grammar, automata() + wide_automata()
                                  + [grammar_to_nla(g_prime())]),
    "even_nla_to_grammar": lambda: map(even_nla_to_grammar, even_automata()),
}


@pytest.mark.parametrize("name", PASS_OUTPUTS)
def test_every_pass_hands_over_heads_in_order_and_rules_deduplicated_in_body_order(name):
    # the order that the grammar's equality, its views and its text rely on;
    # the reference serializer sorts the rules itself
    count = 0
    for g in PASS_OUTPUTS[name]():
        assert list(g._rules) == sorted(g._rules)
        for rules in g._rules.values():
            assert type(rules) is tuple and rules
            assert list(rules) == sorted(set(rules), key=_body)
        assert serialize_grammar(g) == reference_serialize_grammar(g)
        count += 1
    assert count > 10


def test_production_views_equal_the_checked_constructor():
    for g in compile_grammars()[::3] + [g_prime(), to_slnf(g_prime())]:
        views = g.sorted_productions()
        assert len(views) == sum(map(len, g._rules.values()))
        for p in views:
            checked = Production(p.head, p.body)
            assert p == checked and hash(p) == hash(checked)
            assert p.variable_index == checked.variable_index
        assert g.productions == frozenset(views)


def built_grammars():
    """One grammar out of each pass that builds through ``grammar._grammar``,
    on a slice of each input family."""
    for g in compile_grammars()[:20] + corpus("grammar"):
        yield to_lnf(g)
        yield to_slnf(g)
        yield eliminate_unit_productions(g)
    for g in even_grammars()[::20]:
        yield to_even_normal_form(g)
    for m in automata()[::20]:
        yield nla_to_grammar(m)
    for m in even_automata()[::10]:
        yield even_nla_to_grammar(m)


def test_built_grammars_equal_their_text_and_pickle_round_trips():
    count = 0
    for h in built_grammars():
        back = parse_grammar(serialize_grammar(h))
        assert h == back and hash(h) == hash(back)
        assert pickle.loads(pickle.dumps(h)) == h
        with pytest.raises(dataclasses.FrozenInstanceError):
            h._rules = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            h.productions = frozenset()
        count += 1
    assert count > 100


def raised(build) -> tuple:
    with pytest.raises(Exception) as err:
        build()
    return type(err.value), str(err.value), err.value.subject


@pytest.mark.parametrize("variables, terminals, start, rules, error", [
    ({"S", "1x"}, {"a"}, "S", {}, InvalidIdentifier),
    ({"S"}, {"a", "bc"}, "S", {}, InvalidIdentifier),
    ({"S", "a"}, {"a"}, "S", {}, DuplicateSymbol),
    ({"S"}, {"a"}, "T", {}, StartNotDeclared),
    ({"S"}, {"a"}, "a", {}, StartNotDeclared),
    ({"S"}, {"a"}, "S", {"T": [("a", None, "")]}, UnknownSymbol),
    ({"S"}, {"a"}, "S", {"S": [("a", "T", "")]}, UnknownSymbol),
    ({"S"}, {"a"}, "S", {"S": [("", "a", "")]}, UnknownSymbol),
    ({"S"}, {"a"}, "S", {"S": [("ab", "S", "c")]}, UnknownSymbol),
])
def test_private_build_rejects_what_the_constructor_rejects(variables, terminals, start,
                                                            rules, error):
    want = raised(lambda: LinearGrammar(
        map(variable, variables), map(terminal, terminals), variable(start),
        [Production(variable(v), (*map(terminal, x), *([variable(u)] if u else []),
                                  *map(terminal, y)))
         for v, rs in rules.items() for x, u, y in rs]))
    assert want[0] is error
    assert raised(lambda: _grammar(variables, terminals, start, rules)) == want


def test_no_pass_builds_a_symbol_or_a_production(monkeypatch):
    fixtures = {fx.id: fx.payload for fx in map(load_fixture, fixture_ids())}
    grammars = [g_prime(), fixtures["det_grammar_2_1"], fixtures["even_palindrome_grammar"]]
    automata = [grammar_to_nla(g) for g in grammars] + [fixtures["palindrome_even"]]
    texts = [path.read_text() for path in sorted(DATA.glob("*.grm"))]
    texts.append(serialize_grammar(grammars[0]))

    def built(self):
        raise AssertionError(f"built {type(self).__name__}")

    monkeypatch.setattr(Symbol, "__post_init__", built)
    monkeypatch.setattr(Production, "__post_init__", built)
    for text in texts:
        parse_grammar(text)
    for g in grammars:
        for check in (is_lnf, is_slnf, is_deterministic_linear, is_even_linear):
            check(g)
        serialize_grammar(eliminate_unit_productions(g))
        serialize_grammar(to_slnf(g))
        grammar_to_nla(g)
        enumerate_language(g, 4)
        if is_even_linear(g):
            even_grammar_to_nla(g)
        if is_deterministic_linear(g):
            det_grammar_to_dla(g)
    for m in automata:
        serialize_grammar(nla_to_grammar(m))
        if not m.has_lambda_moves and is_even(m):
            serialize_grammar(even_nla_to_grammar(m))
