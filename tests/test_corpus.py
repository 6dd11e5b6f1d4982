import pytest

from linlang import (
    build_lk_automaton,
    enumerate_accepted,
    enumerate_language,
    lk_predicate_strict,
    serialize_automaton,
)
from linlang.corpus import (
    MAX_LK,
    ORACLES,
    Fixture,
    eq1_predicate,
    exnla_predicate,
    fixture_ids,
    load_fixture,
    oracle_for,
)
from linlang.errors import UnknownFixture

from helpers import all_words, by_length


def test_registry_is_complete():
    ids = fixture_ids()
    for expected in ("ex_lg_grammar", "ex_lnf_grammar", "ex_slnf_grammar",
                     "det_grammar_2_1", "det_grammar_2_1_lnf",
                     "det_grammar_2_1_slnf", "ex_nla", "dla_anbn_ancn",
                     "palindrome_even", "palindrome_all", "lk_automaton_0",
                     "lk_automaton_6", "eq1_predicate", "exnla_predicate",
                     "even_palindrome_grammar"):
        assert expected in ids


def test_load_returns_fixture_values():
    fx = load_fixture("ex_nla")
    assert isinstance(fx, Fixture)
    assert fx.kind == "automaton"
    assert fx.provenance


def test_unknown_fixture():
    # the last two name lk_3.lin only through a non-canonical number
    for fid in ("no_such_thing", "lk_automaton_03", "lk_automaton_\u0663"):
        with pytest.raises(UnknownFixture):
            load_fixture(fid)


def test_palindrome_fixtures_document_the_discrepancy():
    even = load_fixture("palindrome_even")
    both = load_fixture("palindrome_all")
    assert "even" in even.caveats
    assert "odd" in both.caveats


def test_every_fixture_matches_its_oracle_up_to_length_ten():
    for fid, oracle_id in ORACLES.items():
        fx = load_fixture(fid)
        predicate = oracle_for(fid)
        assert load_fixture(oracle_id).payload is predicate or callable(predicate)
        if fx.kind == "automaton":
            sigma = "".join(sorted(fx.payload.alphabet))
            got = enumerate_accepted(fx.payload, 10)
        else:
            sigma = "".join(sorted(t.name for t in fx.payload.terminals))
            got = enumerate_language(fx.payload, 10)
        want = by_length(w for w in all_words(sigma, 10) if predicate(w))
        assert got == want, fid


def test_exnla_predicate_spot_values():
    assert exnla_predicate("abbaaaa")
    assert exnla_predicate("ab")
    assert exnla_predicate("a")
    assert exnla_predicate("b")
    assert not exnla_predicate("")
    assert not exnla_predicate("ba")


def test_eq1_predicate_matches_the_strict_level_two_check():
    for w in all_words("ab", 10):
        assert eq1_predicate(w) == lk_predicate_strict(2, w)


def test_lk_fixture_files_match_the_builder():
    for k in range(MAX_LK + 1):
        fx = load_fixture(f"lk_automaton_{k}")
        assert serialize_automaton(fx.payload) == serialize_automaton(build_lk_automaton(k))


def test_predicate_fixtures_are_plain_callables():
    fx = load_fixture("eq1_predicate")
    assert fx.kind == "predicate"
    assert fx.payload("abb") and not fx.payload("")
