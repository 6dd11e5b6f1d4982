import pytest

from linlang import (
    Production,
    VariableClass,
    classify_variable,
    eliminate_unit_productions,
    enumerate_accepted,
    enumerate_language,
    is_deterministic_linear,
    is_even_linear,
    is_lnf,
    is_slnf,
    parse_grammar,
    to_even_normal_form,
    to_lnf,
    to_slnf,
    validate_grammar,
)
from linlang.corpus import load_fixture
from linlang.errors import (
    DuplicateSymbol,
    NotEvenLinear,
    NotLinear,
    StartNotDeclared,
    UnknownSymbol,
)

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
