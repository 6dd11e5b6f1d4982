import random

import pytest

from linlang import (
    Homogeneity,
    InstantaneousDescription,
    accepts,
    build_lk_automaton,
    class_swapped,
    determinize,
    eliminate_lambda,
    enumerate_accepted,
    is_determinizable,
    is_deterministic,
    is_even,
    lambda_closure,
    lk_predicate,
    ndeg,
    parse_automaton,
    serialize_automaton,
    step,
    subset_states,
    trace,
    validate_automaton,
)
from linlang import automaton
from linlang.automaton import LAMBDA
from linlang.corpus import load_fixture
from linlang.errors import (
    ClassOverlap,
    EmptyInitialSetWarning,
    HasLambdaMoves,
    NotDeterminizable,
    SymbolNotInAlphabet,
    UnknownState,
)

from helpers import all_words, by_length, reference_accepts, reference_trace

EX_NLA = load_fixture("ex_nla").payload
DLA = load_fixture("dla_anbn_ancn").payload
PAL_EVEN = load_fixture("palindrome_even").payload
PAL_ALL = load_fixture("palindrome_all").payload
HOMOG = load_fixture("nla_homogeneous").payload


def single_state(final=True):
    return validate_automaton(left=["q0"], right=[], alphabet=["a"], delta={},
                              initial=["q0"], final=["q0"] if final else [])


def assert_replays(m, word, run):
    """``run`` is an accepting run of ``m`` on ``word``, move by move through ``step``."""
    assert run[0][1] == word and run[0][0] in m.initial
    cur = InstantaneousDescription(run[0][0], 0, len(word))
    for state, rest in run[1:]:
        matching = [i for i in step(m, cur, word)
                    if i.state == state and word[i.lo:i.hi] == rest]
        assert matching, (cur, state, rest)
        cur = matching[0]
    assert cur.lo >= cur.hi and cur.state in m.final


class TestValidate:
    def test_example_automaton(self):
        assert EX_NLA.has_lambda_moves
        assert len(EX_NLA.states) == 8
        assert EX_NLA.targets("q0", "a") == frozenset({"q0", "p1"})
        assert EX_NLA.targets("q0", LAMBDA) == frozenset({"p3"})

    def test_class_overlap(self):
        with pytest.raises(ClassOverlap):
            validate_automaton(left=["q0"], right=["q0"], alphabet=["a"],
                               delta={}, initial=["q0"], final=[])

    def test_no_transitions_accepts_empty_word_only(self):
        m = single_state()
        assert enumerate_accepted(m, 3) == [""]

    def test_empty_initial_set_warns(self):
        with pytest.warns(EmptyInitialSetWarning):
            m = validate_automaton(left=["q0"], right=[], alphabet=["a"],
                                   delta={}, initial=[], final=["q0"])
        assert enumerate_accepted(m, 3) == []

    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            validate_automaton(left=["q0"], right=[], alphabet=["a"],
                               delta={("q0", "a"): {"zz"}},
                               initial=["q0"], final=[])


class TestStep:
    def test_example_initial_step(self):
        ident = InstantaneousDescription("q0", 0, 7)
        got = step(EX_NLA, ident, "abbaaaa")
        assert got == {InstantaneousDescription("q0", 1, 7),
                       InstantaneousDescription("p1", 1, 7),
                       InstantaneousDescription("p3", 0, 7)}

    def test_halt_when_no_transitions(self):
        ident = InstantaneousDescription("q3", 0, 3)
        assert step(EX_NLA, ident, "aaa") == set()

    def test_right_state_reads_rightmost(self):
        # remaining "baa" as a suffix of the example word
        ident = InstantaneousDescription("p1", 4, 7)
        got = step(EX_NLA, ident, "abbabaa")
        assert got == {InstantaneousDescription("p2", 4, 6)}


class TestImmutability:
    def test_hash_survives_roundtrip(self):
        for m in (EX_NLA, DLA, PAL_EVEN, build_lk_automaton(3)):
            assert hash(m) == hash(parse_automaton(serialize_automaton(m)))

    def test_equal_automata_collapse_in_a_set(self):
        assert len({DLA, parse_automaton(serialize_automaton(DLA))}) == 1

    def test_delta_is_read_only(self):
        with pytest.raises(TypeError):
            EX_NLA.delta[("q0", "a")] = frozenset({"zz"})
        assert EX_NLA.targets("q0", "a") == frozenset({"q0", "p1"})


class TestAccepts:
    def test_example_word(self):
        assert accepts(EX_NLA, "abbaaaa")

    def test_short_member_of_second_component(self):
        assert accepts(EX_NLA, "ab")

    def test_empty_word_rejected(self):
        assert not accepts(EX_NLA, "")

    def test_symbol_outside_alphabet(self):
        with pytest.raises(SymbolNotInAlphabet):
            accepts(EX_NLA, "abc")

    def test_first_foreign_symbol_is_named(self):
        word = "ab" * 3000 + "d" + "ab" + "c"
        for decide in (accepts, trace):
            with pytest.raises(SymbolNotInAlphabet, match="symbol 'd' "):
                decide(EX_NLA, word)

    def test_lambda_moves_are_folded_once_per_automaton(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m)
            return eliminate_lambda(m)

        monkeypatch.setattr(automaton, "eliminate_lambda", counting)
        m = load_fixture("ex_nla").payload
        for w in all_words("ab", 5)[:50]:
            accepts(m, w)
        assert len(calls) == 1


class TestTrace:
    def test_reproduces_known_run_prefix(self):
        run = trace(EX_NLA, "abbaaaa")
        assert run is not None
        assert run[:5] == [("q0", "abbaaaa"), ("p1", "bbaaaa"), ("p2", "bbaaa"),
                           ("q1", "bbaa"), ("p1", "baa")]
        assert run[-1][0] in EX_NLA.final and run[-1][1] == ""

    def test_reads_before_lambda_moves_then_name_order(self):
        m = validate_automaton(left=["q", "p", "f", "g"], right=[], alphabet=["a"],
                               delta={("q", "a"): {"g", "f"}, ("q", LAMBDA): {"p"},
                                      ("p", "a"): {"f"}},
                               initial=["q"], final=["f", "g"])
        assert trace(m, "a") == [("q", "a"), ("f", "")]

    def test_backs_out_of_a_live_lambda_cycle(self):
        # y1 is live (y1 -> x -> y2 -> f), but its only move returns to the
        # visited x, so the search must back out and take y2
        m = validate_automaton(left=["x", "y1", "y2", "f"], right=[], alphabet=["a"],
                               delta={("x", LAMBDA): {"y1", "y2"}, ("y1", LAMBDA): {"x"},
                                      ("y2", "a"): {"f"}},
                               initial=["x"], final=["f"])
        run = trace(m, "a")
        assert run == [("x", "a"), ("y2", "a"), ("f", "")]
        assert run == reference_trace(m, "a")

    def test_rejected_word_has_no_trace(self):
        assert trace(EX_NLA, "ba") is None

    def test_empty_word_on_accepting_start(self):
        assert trace(single_state(), "") == [("q0", "")]

    def test_every_trace_is_a_valid_run(self):
        fixtures = [EX_NLA, DLA, PAL_ALL, HOMOG, build_lk_automaton(2)]
        for m in fixtures:
            sigma = "".join(sorted(m.alphabet))
            for word in all_words(sigma, 7):
                run = trace(m, word)
                assert run == reference_trace(m, word), (m, word)
                assert (run is not None) == accepts(m, word)
                if run is not None:
                    assert_replays(m, word, run)

    def test_long_palindromes_agree_with_the_references(self):
        # deterministic automata: the whole run is the forced walk
        rng = random.Random(4096)
        half = "".join(rng.choice("ab") for _ in range(2048))
        member = half + half[::-1]
        flip = {"a": "b", "b": "a"}
        misses = [member[:i] + flip[member[i]] + member[i + 1:] for i in (0, 1000, 2047, 4095)]
        for m in (PAL_EVEN, PAL_ALL):
            assert accepts(m, member)
            for word in [member, *misses, member[:1000] + member[1001:]]:
                want = reference_accepts(m, word)
                assert accepts(m, word) == want, (m, len(word))
                run = trace(m, word)
                assert run == reference_trace(m, word), (m, len(word))
                assert (run is not None) == want

    def test_every_short_word_where_a_branch_follows_the_start(self):
        # each start here branches at once or after a forced prefix: f0 and
        # f1 are forced, g has a lambda move, and the lk chain forks
        lk = build_lk_automaton(2)
        prefixed = validate_automaton(
            left=["f0", *lk.left_states], right=["f1", "g", *lk.right_states],
            alphabet=["a", "b"], initial=["f0"], final=lk.final,
            delta={**lk.delta, ("f0", "a"): {"f1"}, ("f1", "b"): {"g"},
                   ("g", LAMBDA): {"q0"}, ("g", "b"): {"f0"}})
        for m in (build_lk_automaton(1), lk, build_lk_automaton(3), HOMOG, prefixed):
            for word in all_words("".join(sorted(m.alphabet)), 10):
                want = reference_accepts(m, word)
                assert accepts(m, word) == want, (m, word)
                assert trace(m, word) == reference_trace(m, word), (m, word)

    def test_word_longer_than_the_int_digit_limit(self):
        # 7200 symbols: the masks are read in base 2, exempt from the limit
        m = build_lk_automaton(3)
        member = "a" * 2400 + "b" * 4800
        flipped = member[:1000] + "b" + member[1001:]
        for word, want in ((member, True), (flipped, False)):
            assert lk_predicate(3, word) == want
            assert accepts(m, word) == want
            run = trace(m, word)
            assert (run is not None) == want
            if want:
                assert_replays(m, word, run)


class TestLambdaClosure:
    def test_example_closure(self):
        assert lambda_closure(EX_NLA, "q0") == frozenset({"q0", "p3"})

    def test_state_without_lambda_moves(self):
        assert lambda_closure(EX_NLA, "p1") == frozenset({"p1"})

    def test_lambda_cycle_terminates(self):
        m = validate_automaton(left=["q", "p"], right=[], alphabet=["a"],
                               delta={("q", LAMBDA): {"p"}, ("p", LAMBDA): {"q"}},
                               initial=["q"], final=[])
        assert lambda_closure(m, "q") == frozenset({"q", "p"})

    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            lambda_closure(EX_NLA, "zz")

    def test_unknown_state_is_the_subject(self):
        with pytest.raises(UnknownState) as err:
            lambda_closure(EX_NLA, "zz")
        assert err.value.subject == "zz"


class TestEliminateLambda:
    def test_example_automaton(self):
        out = eliminate_lambda(EX_NLA)
        assert not out.has_lambda_moves
        assert out.left_states == EX_NLA.left_states
        assert out.right_states == EX_NLA.right_states
        assert enumerate_accepted(out, 8) == enumerate_accepted(EX_NLA, 8)

    def test_identity_on_lambda_free_input(self):
        assert eliminate_lambda(DLA) == DLA

    def test_lambda_chain_to_final(self):
        m = validate_automaton(left=["q0", "f"], right=[], alphabet=["a"],
                               delta={("q0", LAMBDA): {"f"}},
                               initial=["q0"], final=["f"])
        out = eliminate_lambda(m)
        assert out.initial == frozenset({"q0", "f"})
        assert enumerate_accepted(out, 4) == [""]


class TestChecks:
    def test_dla_is_deterministic(self):
        assert is_deterministic(DLA)
        assert is_deterministic(PAL_EVEN)

    def test_example_is_not_deterministic(self):
        assert not is_deterministic(EX_NLA)

    def test_palindrome_automaton_is_even(self):
        assert is_even(PAL_EVEN)

    def test_union_dla_is_even(self):
        assert is_even(DLA)

    def test_example_after_elimination_is_not_even(self):
        assert not is_even(eliminate_lambda(EX_NLA))

    def test_is_even_requires_lambda_free(self):
        with pytest.raises(HasLambdaMoves):
            is_even(EX_NLA)


class TestNdeg:
    def test_dla_has_degree_zero(self):
        assert ndeg(DLA) == 0

    def test_lk_witness_degree(self):
        assert ndeg(build_lk_automaton(3)) == 3

    def test_example_after_elimination(self):
        out = eliminate_lambda(EX_NLA)
        expect = sum(len(ts) for ts in out.delta.values()) - len(out.delta)
        assert ndeg(out) == expect
        assert ndeg(out) >= 2

    def test_requires_lambda_free(self):
        with pytest.raises(HasLambdaMoves):
            ndeg(EX_NLA)

    def test_zero_iff_deterministic_on_fixtures(self):
        fixtures = [DLA, PAL_EVEN, PAL_ALL, HOMOG, eliminate_lambda(EX_NLA)]
        fixtures += [build_lk_automaton(k) for k in range(5)]
        for m in fixtures:
            assert (ndeg(m) == 0) == is_deterministic(m)


class TestSubsets:
    def test_dla_yields_reachable_singletons(self):
        got = subset_states(DLA)
        assert all(len(s.members) == 1 for s in got)
        assert all(s.homogeneity is not Homogeneity.MIXED for s in got)
        assert {next(iter(s.members)) for s in got} == set(DLA.states)

    def test_lk_mixed_subset(self):
        got = subset_states(build_lk_automaton(1))
        members = {s.members for s in got}
        assert frozenset({"q0"}) in members
        assert frozenset({"q1", "p1"}) in members
        mixed = {s.members for s in got if s.homogeneity is Homogeneity.MIXED}
        assert frozenset({"q1", "p1"}) in mixed

    def test_no_start_states(self):
        with pytest.warns(EmptyInitialSetWarning):
            m = validate_automaton(left=["q"], right=[], alphabet=["a"],
                                   delta={("q", "a"): {"q"}}, initial=[], final=[])
        assert subset_states(m) == set()

    def test_requires_lambda_free(self):
        with pytest.raises(HasLambdaMoves):
            subset_states(EX_NLA)
        with pytest.raises(HasLambdaMoves):
            is_determinizable(EX_NLA)
        with pytest.raises(HasLambdaMoves):
            determinize(EX_NLA)


class TestDeterminizable:
    def test_dla_fixtures(self):
        for m in (DLA, PAL_EVEN, PAL_ALL, build_lk_automaton(0)):
            assert is_determinizable(m)

    def test_lk_witnesses_are_not(self):
        for k in range(1, 5):
            assert not is_determinizable(build_lk_automaton(k))

    def test_same_class_duplication_stays_homogeneous(self):
        # fork one transition of the union DLA to a second left state
        delta = {k: set(v) for k, v in DLA.delta.items()}
        delta[("p1", "b")] = {"q1", "q1b"}
        delta[("q1b", "a")] = {"p2"}
        m = validate_automaton(left=set(DLA.left_states) | {"q1b"},
                               right=DLA.right_states, alphabet=DLA.alphabet,
                               delta=delta, initial=DLA.initial,
                               final=set(DLA.final) | {"q1b"})
        assert not is_deterministic(m)
        assert is_determinizable(m)
        assert enumerate_accepted(m, 8) == enumerate_accepted(DLA, 8)


class TestDeterminize:
    def test_dla_maps_to_singleton_copy(self):
        out = determinize(DLA)
        assert is_deterministic(out)
        assert len(out.states) == len(subset_states(DLA))
        assert enumerate_accepted(out, 10) == enumerate_accepted(DLA, 10)

    def test_homogeneous_fixture(self):
        out = determinize(HOMOG)
        assert is_deterministic(out)
        assert enumerate_accepted(out, 10) == enumerate_accepted(HOMOG, 10)

    def test_mixed_subset_is_rejected(self):
        with pytest.raises(NotDeterminizable):
            determinize(build_lk_automaton(2))


class TestEnumerate:
    def test_union_dla(self):
        assert enumerate_accepted(DLA, 4) == by_length(["ab", "ac", "aabb", "aacc"])

    def test_no_final_states(self):
        m = validate_automaton(left=["q"], right=[], alphabet=["a"],
                               delta={("q", "a"): {"q"}}, initial=["q"], final=[])
        assert enumerate_accepted(m, 5) == []

    def test_palindrome_as_drawn_is_even_length_only(self):
        assert enumerate_accepted(PAL_EVEN, 3) == ["", "aa", "bb"]

    def test_palindrome_all_variant(self):
        got = enumerate_accepted(PAL_ALL, 5)
        assert got == by_length(w for w in all_words("ab", 5) if w == w[::-1])


class TestDuality:
    def test_class_swap_reverses_language(self):
        for m in (EX_NLA, DLA, PAL_EVEN, HOMOG, build_lk_automaton(2)):
            swapped = class_swapped(m)
            want = by_length(w[::-1] for w in enumerate_accepted(m, 8))
            assert enumerate_accepted(swapped, 8) == want
