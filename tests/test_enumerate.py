"""The length-slice enumeration walker against the breadth-first reference."""

import random
import time

import pytest

from linlang import (
    enumerate_accepted,
    enumerate_language,
    grammar_to_nla,
    parse_grammar,
    validate_automaton,
    validate_grammar,
)
from linlang.automaton import LAMBDA, _move_rules
from linlang.corpus import fixture_ids, load_fixture
from linlang.errors import EmptyInitialSetWarning
from linlang.grammar import _enumerate_words

from helpers import (g_prime, random_automaton, random_grammar, reference_enumerate_words,
                     reference_production_rules)


def grammar(text):
    return parse_grammar("grammar\n" + text)


def automaton(left, right, delta, initial, final, alphabet=("a", "b")):
    return validate_automaton(left=left, right=right, alphabet=alphabet,
                              delta=delta, initial=initial, final=final)


def language_pair(g, max_len):
    want = reference_enumerate_words(reference_production_rules(g), [g.start.name], max_len)
    return enumerate_language(g, max_len), want


def accepted_pair(m, max_len):
    want = reference_enumerate_words(_move_rules(m), m.initial, max_len)
    return enumerate_accepted(m, max_len), want


def test_walker_agrees_with_reference_on_seeded_grammars():
    rng = random.Random(0xE1)
    for _ in range(300):
        g = random_grammar(rng)
        got, want = language_pair(g, 8)
        assert got == want, g


@pytest.mark.parametrize("allow_lambda", [True, False])
def test_walker_agrees_with_reference_on_seeded_automata(allow_lambda):
    rng = random.Random(0xE2)
    for _ in range(300):
        m = random_automaton(rng, allow_lambda=allow_lambda)
        got, want = accepted_pair(m, 7)
        assert got == want, m


def test_walker_agrees_with_reference_on_corpus():
    checked = 0
    for fid in fixture_ids():
        fx = load_fixture(fid)
        if fx.kind == "grammar":
            got, want = language_pair(fx.payload, 12)
        elif fx.kind == "automaton":
            got, want = accepted_pair(fx.payload, 12)
        else:
            continue
        assert got == want, fid
        checked += 1
    assert checked >= 15


def test_g_prime_grammar_and_automaton_agree_within_bound():
    g = g_prime()
    m = grammar_to_nla(g)
    began = time.perf_counter()
    from_g = enumerate_language(g, 6)
    from_m = enumerate_accepted(m, 6)
    took = time.perf_counter() - began
    assert from_g == from_m
    assert len(from_g) == 4918
    # the sentential-form walker took about 15 s on the grammar alone
    assert took < 10, took


# a^n b^n: a left read of a, then a right read of b, back to q0
ANBN_MOVES = {("q0", "a"): {"r"}, ("r", "b"): {"q0"}}


class TestEdgeCases:
    def test_length_zero(self):
        g = grammar("start S\nterminals a\nvariables S\nS -> a S | eps\n")
        assert enumerate_language(g, 0) == [""]
        g = grammar("start S\nterminals a\nvariables S\nS -> a S | a\n")
        assert enumerate_language(g, 0) == []
        m = automaton(["q0"], ["r"], ANBN_MOVES, ["q0"], ["q0"])
        assert enumerate_accepted(m, 0) == [""]
        m = automaton(["q0"], ["r"], ANBN_MOVES, ["q0"], ["r"])
        assert enumerate_accepted(m, 0) == []

    def test_start_with_no_rules(self):
        g = grammar("start S\nterminals a\nvariables S A\nA -> a | eps\n")
        assert enumerate_language(g, 4) == []
        m = automaton(["q0", "q1"], [], {("q1", "a"): {"q1"}}, ["q0"], ["q1"])
        assert enumerate_accepted(m, 4) == []

    def test_erasing_word_through_unit_cycle(self):
        g = grammar("start S\nterminals a b\nvariables S A\nS -> A\nA -> S | a A b | eps\n")
        got, want = language_pair(g, 4)
        assert got == want == ["", "ab", "aabb"]

    def test_erasing_word_through_lambda_cycle(self):
        delta = {**ANBN_MOVES, ("q0", LAMBDA): {"q1"}, ("q1", LAMBDA): {"q0"}}
        m = automaton(["q0", "q1"], ["r"], delta, ["q0"], ["q1"])
        got, want = accepted_pair(m, 4)
        assert got == want == ["", "ab", "aabb"]

    def test_empty_start_set(self):
        rules = {"S": [("a", "S", ""), ("", None, "")]}
        assert _enumerate_words(rules, [], 3) == []
        with pytest.raises(ValueError):
            _enumerate_words(rules, [], -1)
        with pytest.warns(EmptyInitialSetWarning):
            m = automaton(["q0"], ["r"], ANBN_MOVES, [], ["q0"])
        assert enumerate_accepted(m, 3) == []

    def test_room_is_decided_by_the_fewest_flank_symbols(self):
        # A is one rule from S behind three terminals, and three unit rules
        # from S behind none; only the second leaves room for b^4
        g = grammar("start S\nterminals a b\nvariables S A B C\n"
                    "S -> a a a A | B\nB -> C\nC -> A\nA -> b A | eps\n")
        want = ["", "b", "bb", "aaa", "bbb", "aaab", "bbbb"]
        assert language_pair(g, 4) == (want, want)
        moves = {("s", "a"): {"t1"}, ("t1", "a"): {"t2"}, ("t2", "a"): {"A"},
                 ("s", LAMBDA): {"p1"}, ("p1", LAMBDA): {"p2"},
                 ("p2", LAMBDA): {"p3"}, ("p3", LAMBDA): {"A"}, ("A", "b"): {"A"}}
        m = automaton(["s", "t1", "t2", "p1", "p2", "p3", "A"], [], moves, ["s"], ["A"])
        assert accepted_pair(m, 4) == (want, want)

    def test_long_unit_cycle_is_fast(self):
        n = 2000
        names = [f"V{i}" for i in range(n)]
        prods = [("S", ["V0"]), (names[-1], ["S"]), ("V1000", ["a", "S", "b"]),
                 ("V500", [])]
        prods += [(names[i], [names[i + 1]]) for i in range(n - 1)]
        g = validate_grammar(variables=["S", *names], terminals=["a", "b"],
                             start="S", productions=prods)
        delta = {(f"q{i}", LAMBDA): {f"q{(i + 1) % n}"} for i in range(n)}
        delta[("q1000", "a")] = {"r"}
        delta[("r", "b")] = {"q0"}
        m = automaton([f"q{i}" for i in range(n)], ["r"], delta, ["q0"], ["q500"])
        want = ["", "ab", "aabb", "aaabbb", "aaaabbbb", "aaaaabbbbb"]
        began = time.perf_counter()
        assert enumerate_language(g, 10) == want
        assert enumerate_accepted(m, 10) == want
        took = time.perf_counter() - began
        assert took < 1, took
