import pytest

from linlang import (
    accepts,
    build_lk_automaton,
    enumerate_accepted,
    hierarchy_witness,
    is_determinizable,
    is_deterministic,
    lin_k_upper_bound,
    lk_predicate,
    lk_predicate_strict,
    ndeg,
    pad_ndeg,
)
from linlang.corpus import eq1_predicate, load_fixture
from linlang.errors import HasLambdaMoves, SymbolNotInAlphabet

from helpers import all_words, by_length, reference_ndeg


class TestBuildLk:
    def test_k0_is_deterministic_and_matches_pairs(self):
        m = build_lk_automaton(0)
        assert ndeg(m) == 0 and is_deterministic(m)
        want = by_length("a" * n + "b" * n for n in range(6))
        assert enumerate_accepted(m, 10) == want

    def test_k2_examples(self):
        m = build_lk_automaton(2)
        assert ndeg(m) == 2
        from linlang import accepts
        assert accepts(m, "aabbb")      # 2 <= 3 <= 6
        assert not accepts(m, "abbbb")  # 4 > 3

    def test_k2_matches_eq1_language_except_empty_word(self):
        m = build_lk_automaton(2)
        got = set(enumerate_accepted(m, 12))
        want = {w for w in all_words("ab", 12) if eq1_predicate(w)}
        assert got - want == {""}
        assert want - got == set()

    def test_state_count(self):
        for k in range(5):
            m = build_lk_automaton(k)
            assert len(m.states) == k + 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            build_lk_automaton(-1)

    def test_simulation_matches_predicate(self):
        for k in range(7):
            m = build_lk_automaton(k)
            got = enumerate_accepted(m, 12)
            want = by_length(w for w in all_words("ab", 12) if lk_predicate(k, w))
            assert got == want, k

    def test_long_words_match_predicate(self):
        m = build_lk_automaton(20)
        for a, b in ((1000, 1000), (100, 2100), (150, 3150)):
            word = "a" * a + "b" * b
            assert accepts(m, word) == lk_predicate(20, word), (a, b)
            for i in (0, a - 1, a, len(word) - 1):
                flipped = word[:i] + ("b" if word[i] == "a" else "a") + word[i + 1:]
                assert accepts(m, flipped) == lk_predicate(20, flipped), (a, b, i)

    def test_determinizability_threshold(self):
        assert is_determinizable(build_lk_automaton(0))
        for k in range(1, 7):
            assert not is_determinizable(build_lk_automaton(k))


class TestPredicate:
    def test_matched_pair(self):
        assert lk_predicate(1, "ab")

    def test_wrong_shape(self):
        assert not lk_predicate(1, "ba")

    def test_upper_bound_scales_with_k(self):
        assert lk_predicate(3, "abbb")
        assert lk_predicate(2, "abbb")
        assert not lk_predicate(1, "abbb")

    def test_empty_word(self):
        assert lk_predicate(4, "")
        assert not lk_predicate_strict(4, "")

    def test_strict_variant_matches_elsewhere(self):
        for w in all_words("ab", 8):
            if w:
                assert lk_predicate(2, w) == lk_predicate_strict(2, w)

    def test_eq1_is_the_strict_level_two_language(self):
        for w in all_words("ab", 9):
            assert eq1_predicate(w) == lk_predicate_strict(2, w)


class TestLinKUpperBound:
    def test_on_witnesses(self):
        assert lin_k_upper_bound(build_lk_automaton(4)) == 4

    def test_any_dla_sits_at_level_zero(self):
        assert lin_k_upper_bound(load_fixture("dla_anbn_ancn").payload) == 0

    def test_padding_raises_the_bound(self):
        m = build_lk_automaton(1)
        assert lin_k_upper_bound(pad_ndeg(m, "a")) == 2

    def test_requires_lambda_free(self):
        with pytest.raises(HasLambdaMoves):
            lin_k_upper_bound(load_fixture("ex_nla").payload)


class TestPadNdeg:
    def test_pads_a_dla(self):
        m = load_fixture("dla_anbn_ancn").payload
        padded = pad_ndeg(m, "a")
        assert ndeg(padded) == 1
        assert enumerate_accepted(padded, 10) == enumerate_accepted(m, 10)

    def test_padding_twice(self):
        m = load_fixture("dla_anbn_ancn").payload
        assert ndeg(pad_ndeg(pad_ndeg(m, "a"), "b")) == 2

    def test_padding_the_level_one_witness(self):
        m = build_lk_automaton(1)
        padded = pad_ndeg(m, "a")
        assert ndeg(padded) == 2
        assert enumerate_accepted(padded, 10) == enumerate_accepted(m, 10)

    def test_symbol_must_be_in_alphabet(self):
        with pytest.raises(SymbolNotInAlphabet):
            pad_ndeg(build_lk_automaton(1), "z")

    def test_requires_lambda_free(self):
        with pytest.raises(HasLambdaMoves):
            pad_ndeg(load_fixture("ex_nla").payload, "a")


def test_every_witness_up_to_level_20_has_its_degree():
    for k in range(21):
        w = hierarchy_witness(k)
        assert w.k == k and ndeg(w.automaton) == reference_ndeg(w.automaton) == k


def test_witness_bundle():
    w = hierarchy_witness(3)
    assert w.k == 3 and ndeg(w.automaton) == 3
    assert w.automaton.alphabet == frozenset("ab")
    assert w.predicate("abbb") and not w.predicate("ba")
