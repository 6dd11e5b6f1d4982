import itertools
import random
import time

import pytest

from linlang import (
    Production,
    VariableClass,
    classify_variable,
    det_grammar_to_dla,
    eliminate_unit_productions,
    enumerate_accepted,
    enumerate_language,
    grammar_to_nla,
    is_deterministic_linear,
    is_even_linear,
    is_lnf,
    is_slnf,
    parse_grammar,
    serialize_grammar,
    to_even_normal_form,
    to_lnf,
    to_slnf,
    validate_grammar,
)
from linlang import grammar
from linlang.corpus import load_fixture
from linlang.errors import (
    DuplicateSymbol,
    NotEvenLinear,
    NotLinear,
    StartNotDeclared,
    UnknownSymbol,
)
from linlang.naming import NamePool, is_valid_name

from helpers import by_length


def g(text: str):
    return parse_grammar("grammar\n" + text)


EX_LG = load_fixture("ex_lg_grammar").payload
EX_LNF = load_fixture("ex_lnf_grammar").payload
EX_SLNF = load_fixture("ex_slnf_grammar").payload
DET = load_fixture("det_grammar_2_1").payload


class TestValidate:
    def test_example_grammar_is_valid(self):
        assert len(EX_LG.variables) == 1
        assert len(EX_LG.terminals) == 2
        assert len(EX_LG.productions) == 6

    def test_two_variables_in_body(self):
        with pytest.raises(NotLinear):
            validate_grammar(variables=["S"], terminals=[], start="S",
                             productions=[("S", ["S", "S"])])

    def test_erasing_grammar(self):
        gr = validate_grammar(variables=["S"], terminals=[], start="S",
                              productions=[("S", [])])
        assert enumerate_language(gr, 3) == [""]

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            validate_grammar(variables=["S"], terminals=["a"], start="S",
                             productions=[("S", ["a", "X"])])

    def test_start_not_declared(self):
        with pytest.raises(StartNotDeclared):
            validate_grammar(variables=["A"], terminals=[], start="S",
                             productions=[])

    def test_errors_carry_their_subject(self):
        with pytest.raises(UnknownSymbol) as err:
            validate_grammar(variables=["S"], terminals=["a"], start="S",
                             productions=[("S", ["a", "X"])])
        assert err.value.subject == "X"
        with pytest.raises(NotLinear) as err:
            validate_grammar(variables=["S"], terminals=[], start="S",
                             productions=[("S", ["S", "S"])])
        assert isinstance(err.value.subject, Production)
        assert str(err.value.subject) == "S -> S S"

    def test_production_checks_its_head_before_its_body(self):
        S, a = grammar.variable("S"), grammar.terminal("a")
        with pytest.raises(UnknownSymbol) as err:
            Production(a, (S, S))
        assert str(err.value.subject) == "a -> S S"

    def test_production_line_keeps_a_head_name_with_a_space_whole(self):
        S, B, a = grammar.variable("my head"), grammar.variable("B"), grammar.terminal("a")
        assert str(Production(S, [a, B])) == "my head -> a B"
        assert str(Production(S, [])) == "my head -> eps"
        with pytest.raises(NotLinear) as err:
            Production(S, (B, B))
        assert str(err.value) == "body of my head -> B B holds more than one variable"

    def test_duplicate_symbol(self):
        with pytest.raises(DuplicateSymbol):
            validate_grammar(variables=["S", "a"], terminals=["a"], start="S",
                             productions=[])


class TestClassify:
    def test_example_grammar_start_is_neither(self):
        assert classify_variable(EX_LG, "S") is VariableClass.NEITHER

    def test_right_linear(self):
        gr = g("start S\nterminals a\nvariables S\nS -> a S | a\n")
        assert classify_variable(gr, "S") is VariableClass.RIGHT_LINEAR

    def test_both_and_left(self):
        gr = g("start S\nterminals a b\nvariables S A\nS -> A | a b\nA -> S b\n")
        assert classify_variable(gr, "S") is VariableClass.BOTH
        assert classify_variable(gr, "A") is VariableClass.LEFT_LINEAR

    def test_unknown_variable(self):
        with pytest.raises(UnknownSymbol):
            classify_variable(EX_LG, "Z")

    def test_consistency_with_is_lnf(self):
        for gr in (EX_LG, EX_LNF, EX_SLNF, DET):
            expect = all(classify_variable(gr, v) is not VariableClass.NEITHER
                         for v in gr.variables)
            assert is_lnf(gr) == expect


class TestLnf:
    def test_example_grammar_is_not_lnf(self):
        assert not is_lnf(EX_LG)

    def test_hand_derived_form_is_lnf(self):
        assert is_lnf(EX_LNF)

    def test_erasing_grammar_is_lnf(self):
        assert is_lnf(g("start S\nterminals\nvariables S\nS -> eps\n"))

    def test_to_lnf_on_example_grammar(self):
        out = to_lnf(EX_LG)
        assert is_lnf(out)
        assert enumerate_language(out, 12) == enumerate_language(EX_LG, 12)

    def test_to_lnf_identity_on_lnf_input(self):
        assert to_lnf(EX_LNF) == EX_LNF

    def test_to_lnf_on_deterministic_grammar(self):
        out = to_lnf(DET)
        assert is_lnf(out)
        assert enumerate_language(out, 12) == enumerate_language(DET, 12)
        assert is_deterministic_linear(out)

    def test_to_lnf_funnels_mixed_variable(self):
        gr = g("start S\nterminals a b\nvariables S A\nS -> a A | S b | a\nA -> a\n")
        out = to_lnf(gr)
        assert is_lnf(out)
        assert enumerate_language(out, 8) == enumerate_language(gr, 8)

    def test_idempotent(self):
        for gr in (EX_LG, DET):
            once = to_lnf(gr)
            assert to_lnf(once) == once


class TestSlnf:
    def test_hand_derived_strong_form(self):
        assert is_slnf(EX_SLNF)

    def test_lnf_stage_is_not_strong(self):
        assert not is_slnf(EX_LNF)

    def test_erasing_grammar(self):
        assert is_slnf(g("start S\nterminals\nvariables S\nS -> eps\n"))

    def test_to_slnf_on_lnf_stage(self):
        out = to_slnf(EX_LNF)
        assert is_slnf(out)
        assert enumerate_language(out, 12) == enumerate_language(EX_LNF, 12)

    def test_to_slnf_identity_on_strong_input(self):
        assert to_slnf(EX_SLNF) == EX_SLNF

    def test_to_slnf_on_deterministic_example(self):
        out = to_slnf(DET)
        assert is_slnf(out)
        assert is_deterministic_linear(out)
        assert enumerate_language(out, 12) == enumerate_language(DET, 12)

    def test_idempotent(self):
        for gr in (EX_LG, DET):
            once = to_slnf(gr)
            assert to_slnf(once) == once

    def test_one_head_chain_of_4000_bodies(self):
        # S -> x1 .. x6 S for 4000 distinct bodies mints 20 000 names from the
        # one base S; scanning the indices from 1 for each name takes minutes.
        bodies = list(itertools.islice(itertools.product("abcd", repeat=6), 4000))
        gr = validate_grammar(variables=["S"], terminals="abcd", start="S",
                              productions=[("S", [*b, "S"]) for b in bodies])
        t0 = time.perf_counter()
        out = to_slnf(gr)
        assert time.perf_counter() - t0 < 10
        # each body, in sorted order, is chopped into a chain of five fresh
        # variables named with the smallest free indices
        want = set()
        for i, b in enumerate(bodies):
            chain = ["S", *(f"S_{5 * i + k}" for k in range(1, 6)), "S"]
            want |= {(chain[k], (b[k], chain[k + 1])) for k in range(6)}
        assert {(p.head.name, tuple(s.name for s in p.body))
                for p in out.productions} == want


class TestNormalFormCache:
    def test_each_form_is_built_once_per_grammar(self, monkeypatch):
        builds = {"lnf": 0, "slnf": 0}

        def counting(kind, build):
            def wrapped(gr):
                builds[kind] += 1
                return build(gr)
            return wrapped

        monkeypatch.setattr(grammar, "_build_lnf", counting("lnf", grammar._build_lnf))
        monkeypatch.setattr(grammar, "_build_slnf", counting("slnf", grammar._build_slnf))
        gr = parse_grammar(serialize_grammar(DET))
        lnf = to_lnf(gr)
        slnf = to_slnf(gr)
        grammar_to_nla(gr)
        det_grammar_to_dla(gr)
        assert builds == {"lnf": 1, "slnf": 1}
        assert to_lnf(gr) is lnf
        assert to_slnf(gr) is slnf
        assert to_slnf(gr) is to_slnf(gr)

    def test_cached_forms_match_fresh_builds(self):
        for gr in (EX_LG, EX_LNF, EX_SLNF, DET):
            twin = parse_grammar(serialize_grammar(gr))
            assert to_slnf(gr) == to_slnf(twin)
            assert serialize_grammar(to_slnf(gr)) == serialize_grammar(to_slnf(twin))


def test_name_pool_takes_the_smallest_free_index():
    def reference(base, used):
        name, k = base, 1
        if base in used or not is_valid_name(base):
            while f"{base}_{k}" in used:
                k += 1
            name = f"{base}_{k}"
        used.add(name)
        return name

    rng = random.Random(3)
    bases = ["A", "A_1", "A_2", "B", "eps", "1x", "A_1_1"]
    for _ in range(200):
        taken = {rng.choice(bases) for _ in range(rng.randint(0, 4))}
        taken |= {f"A_{k}" for k in rng.sample(range(1, 9), rng.randint(0, 4))}
        pool, used = NamePool(taken), set(taken)
        for _ in range(rng.randint(1, 30)):
            base = rng.choice(bases)
            assert pool.fresh(base) == reference(base, used)


class TestDeterministicLinear:
    def test_deterministic_example(self):
        assert is_deterministic_linear(DET)

    def test_shared_leading_terminal(self):
        gr = g("start S\nterminals a b\nvariables S\nS -> a S b | a S\n")
        assert not is_deterministic_linear(gr)

    def test_example_grammar_is_not_deterministic(self):
        assert not is_deterministic_linear(EX_LG)

    def test_hand_derived_stages_stay_deterministic(self):
        assert is_deterministic_linear(load_fixture("det_grammar_2_1_lnf").payload)
        assert is_deterministic_linear(load_fixture("det_grammar_2_1_slnf").payload)

    def test_unit_production_is_rejected(self):
        gr = g("start S\nterminals a\nvariables S A\nS -> A\nA -> a A\n")
        assert not is_deterministic_linear(gr)

    def test_mixed_read_ends_are_rejected(self):
        # C could consume either the leftmost or the rightmost symbol
        gr = g("start S\nterminals a\nvariables S A C\n"
               "A -> a a S a\nC -> A a a a | a a C\n")
        assert not is_deterministic_linear(gr)


class TestEvenLinear:
    def test_palindrome_grammar(self):
        assert is_even_linear(g("start S\nterminals a b\nvariables S\n"
                                "S -> a S a | b S b | eps\n"))

    def test_unequal_flanks(self):
        assert not is_even_linear(g("start S\nterminals a b\nvariables S\nS -> a S b b\n"))

    def test_two_symbol_flanks(self):
        assert is_even_linear(g("start S\nterminals a b c\nvariables S\nS -> a b S b a | c\n"))

    def test_even_normal_form_peels_flanks(self):
        gr = g("start S\nterminals a b c\nvariables S\nS -> a b S b a | c\n")
        out = to_even_normal_form(gr)
        for p in out.productions:
            assert len(p.body) in (0, 1, 3)
            if len(p.body) == 3:
                assert p.body[1].kind.value == "variable"
        assert enumerate_language(out, 10) == enumerate_language(gr, 10)

    def test_even_normal_form_identity(self):
        gr = g("start S\nterminals a\nvariables S\nS -> a S a | eps\n")
        assert to_even_normal_form(gr) == gr

    def test_terminal_body_splits_to_erasing_chain(self):
        gr = g("start S\nterminals a b\nvariables S\nS -> a b b a\n")
        out = to_even_normal_form(gr)
        assert any(not p.body for p in out.productions)
        assert enumerate_language(out, 6) == ["abba"]

    def test_rejects_uneven_grammar(self):
        with pytest.raises(NotEvenLinear):
            to_even_normal_form(g("start S\nterminals a b\nvariables S\nS -> a S b b\n"))


class TestUnitElimination:
    def test_simple_unit(self):
        gr = g("start S\nterminals a\nvariables S A\nS -> A\nA -> a\n")
        out = eliminate_unit_productions(gr)
        assert {str(p) for p in out.productions} == {"S -> a", "A -> a"}

    def test_unit_cycle(self):
        gr = g("start S\nterminals a\nvariables S A\nS -> A\nA -> S\nS -> a\n")
        out = eliminate_unit_productions(gr)
        assert {str(p) for p in out.productions} == {"S -> a", "A -> a"}

    def test_language_preserved(self):
        gr = g("start S\nterminals a b\nvariables S A\nS -> A | a S b\nA -> a b | eps\n")
        out = eliminate_unit_productions(gr)
        assert all(not (len(p.body) == 1 and p.body[0].kind.value == "variable")
                   for p in out.productions)
        assert enumerate_language(out, 8) == enumerate_language(gr, 8)


class TestEnumerate:
    def test_example_grammar_up_to_four(self):
        assert enumerate_language(EX_LG, 4) == by_length(["ab", "abb", "abbb", "aabb"])

    def test_empty_word_only(self):
        gr = g("start S\nterminals\nvariables S\nS -> eps\n")
        assert enumerate_language(gr, 0) == [""]

    def test_matched_pairs(self):
        gr = g("start S\nterminals a b\nvariables S\nS -> a S b | a b\n")
        assert enumerate_language(gr, 6) == ["ab", "aabb", "aaabbb"]

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            enumerate_language(EX_LG, -1)
        with pytest.raises(ValueError):
            enumerate_accepted(load_fixture("ex_nla").payload, -1)


def test_transformations_preserve_language_on_corpus():
    fixtures = ["ex_lg_grammar", "ex_lnf_grammar", "ex_slnf_grammar",
                "det_grammar_2_1", "det_grammar_2_1_lnf", "det_grammar_2_1_slnf",
                "even_palindrome_grammar"]
    for fid in fixtures:
        gr = load_fixture(fid).payload
        reference = enumerate_language(gr, 10)
        lnf, slnf = to_lnf(gr), to_slnf(gr)
        assert is_lnf(lnf)
        assert is_slnf(slnf)
        assert enumerate_language(lnf, 10) == reference
        assert enumerate_language(slnf, 10) == reference
        assert enumerate_language(eliminate_unit_productions(gr), 10) == reference
        if is_even_linear(gr):
            assert enumerate_language(to_even_normal_form(gr), 10) == reference
