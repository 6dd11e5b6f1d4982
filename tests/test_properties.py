"""Property tests over generated grammars and automata."""

import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from linlang import (
    accepts,
    class_swapped,
    determinize,
    eliminate_lambda,
    eliminate_unit_productions,
    enumerate_accepted,
    enumerate_language,
    grammar_to_nla,
    is_determinizable,
    is_deterministic,
    is_deterministic_linear,
    is_lnf,
    is_slnf,
    ndeg,
    nla_to_grammar,
    parse_automaton,
    parse_grammar,
    serialize_automaton,
    serialize_grammar,
    to_lnf,
    to_slnf,
    trace,
    validate_grammar,
)
from linlang.grammar import (
    LinearGrammar,
    Production,
    Symbol,
    SymbolKind,
    VariableClass,
    classify_variable,
)

from helpers import (all_words, by_length, random_automaton, random_grammar,
                     reference_accepts, reference_trace)

VARS = ["S", "A", "B"]
TERMS = ["a", "b"]


@st.composite
def linear_grammars(draw):
    nvars = draw(st.integers(1, 3))
    variables = VARS[:nvars]
    bodies = st.lists(st.sampled_from(TERMS + variables), max_size=4).filter(
        lambda b: sum(s in VARS for s in b) <= 1)
    prods = draw(st.lists(st.tuples(st.sampled_from(variables), bodies),
                          min_size=1, max_size=6))
    return validate_grammar(variables=variables, terminals=TERMS,
                            start="S", productions=prods)


@st.composite
def deterministic_grammars(draw):
    nvars = draw(st.integers(1, 3))
    variables = VARS[:nvars]
    prods = []
    for head in variables:
        if draw(st.booleans()):
            prods.append((head, []))
        for a in TERMS:
            if draw(st.booleans()):
                mid = draw(st.lists(st.sampled_from(TERMS), max_size=2))
                tail = draw(st.lists(st.sampled_from(TERMS), max_size=2))
                body = [a, *mid, draw(st.sampled_from(variables)), *tail]
                prods.append((head, body))
    return validate_grammar(variables=variables, terminals=TERMS,
                            start="S", productions=prods)


@settings(max_examples=120, deadline=None)
@given(linear_grammars())
def test_normal_forms_hold_and_preserve_language(g):
    reference = enumerate_language(g, 6)
    lnf = to_lnf(g)
    slnf = to_slnf(g)
    assert is_lnf(lnf)
    assert is_slnf(slnf)
    assert enumerate_language(lnf, 6) == reference
    assert enumerate_language(slnf, 6) == reference
    assert enumerate_language(eliminate_unit_productions(g), 6) == reference
    assert to_lnf(lnf) == lnf
    assert to_slnf(slnf) == slnf


@settings(max_examples=120, deadline=None)
@given(linear_grammars())
def test_lnf_check_agrees_with_classification(g):
    assert is_lnf(g) == all(classify_variable(g, v) is not VariableClass.NEITHER
                            for v in g.variables)


@settings(max_examples=100, deadline=None)
@given(deterministic_grammars())
def test_determinism_is_preserved_by_normal_forms(g):
    assert is_deterministic_linear(g)
    assert is_deterministic_linear(to_lnf(g))
    assert is_deterministic_linear(to_slnf(g))


@settings(max_examples=100, deadline=None)
@given(linear_grammars())
def test_grammar_serialization_roundtrip(g):
    text = serialize_grammar(g)
    assert parse_grammar(text) == g
    assert serialize_grammar(parse_grammar(text)) == text


def test_automaton_properties_over_seeded_inputs():
    rng = random.Random(0x5EED)
    for _ in range(150):
        m = random_automaton(rng)
        text = serialize_automaton(m)
        assert parse_automaton(text) == m
        assert serialize_automaton(parse_automaton(text)) == text

        lam_free = eliminate_lambda(m)
        assert not lam_free.has_lambda_moves
        assert lam_free.left_states == m.left_states
        assert lam_free.right_states == m.right_states
        assert enumerate_accepted(lam_free, 6) == enumerate_accepted(m, 6)

        assert (ndeg(lam_free) == 0) == is_deterministic(lam_free)

        swapped = class_swapped(m)
        want = by_length(w[::-1] for w in enumerate_accepted(m, 6))
        assert enumerate_accepted(swapped, 6) == want

        if is_determinizable(lam_free):
            d = determinize(lam_free)
            assert is_deterministic(d)
            assert enumerate_accepted(d, 6) == enumerate_accepted(lam_free, 6)


def test_simulation_agrees_with_reference_search():
    rng = random.Random(0xACCE)
    for i in range(300):
        m = random_automaton(rng, allow_lambda=i % 2 == 0)
        accepted = []
        for word in all_words("".join(m.alphabet), 6):
            want = reference_accepts(m, word)
            assert accepts(m, word) == want, (m, word)
            run = trace(m, word)
            assert run == reference_trace(m, word), (m, word)
            assert (run is not None) == want, (m, word)
            if want:
                accepted.append(word)
        assert enumerate_accepted(m, 6) == by_length(accepted), m


def test_single_start_simulation_agrees_with_reference_search():
    # one start state sends accepts and trace through the forced walk first
    rng = random.Random(0x51A6)
    for i in range(300):
        m = random_automaton(rng, allow_lambda=i % 2 == 0, single_start=True)
        for word in all_words("".join(m.alphabet), 6):
            want = reference_accepts(m, word)
            assert accepts(m, word) == want, (m, word)
            run = trace(m, word)
            assert run == reference_trace(m, word), (m, word)
            assert (run is not None) == want, (m, word)


def test_grammar_roundtrip_conversions_over_seeded_inputs():
    rng = random.Random(0xABCD)
    for _ in range(60):
        g = random_grammar(rng)
        auto = grammar_to_nla(g)
        assert enumerate_accepted(auto, 6) == enumerate_language(g, 6)
        back = nla_to_grammar(auto)
        assert enumerate_language(back, 6) == enumerate_language(g, 6)


def test_equal_values_built_apart_hash_equal():
    for seed in range(200):
        g1, g2 = random_grammar(random.Random(seed)), random_grammar(random.Random(seed))
        assert g1 == g2 and hash(g1) == hash(g2)
        copy = LinearGrammar(set(g1.variables), list(g1.terminals), g1.start,
                             [Production(p.head, list(p.body)) for p in g1.productions])
        assert copy == g1 and hash(copy) == hash(g1)
        for p in g1.productions:
            twin = Production(Symbol(p.head.name, p.head.kind),
                              [Symbol(s.name, s.kind) for s in p.body])
            assert twin == p and hash(twin) == hash(p)
            assert all(hash(Symbol(s.name, s.kind)) == hash(s) for s in p.body)
            at = [i for i, s in enumerate(p.body) if s.kind is SymbolKind.VARIABLE]
            assert p.variable_index == (at[0] if at else None)
        for s in g1.terminals:
            assert Symbol(s.name, SymbolKind.VARIABLE) != s


def test_stored_sort_key_orders_as_sort_key():
    for seed in range(200):
        g = to_lnf(random_grammar(random.Random(seed)))
        assert g.sorted_productions() == tuple(sorted(g.productions,
                                                      key=Production.sort_key))


def test_pickled_values_rehash_in_a_process_with_another_hash_seed(tmp_path):
    # hashes are stored at construction, and str hashes differ between
    # processes, so an unpickled value must hash afresh
    g = random_grammar(random.Random(5))
    to_slnf(g)
    m = grammar_to_nla(g)
    accepts(m, "")  # fills the cached move table
    path = tmp_path / "values.pickle"
    path.write_bytes(pickle.dumps((g, m)))
    check = ("import pickle, sys\n"
             "from linlang import (accepts, enumerate_accepted, parse_automaton,\n"
             "                     parse_grammar, serialize_automaton, serialize_grammar,\n"
             "                     to_slnf)\n"
             "g, m = pickle.loads(open(sys.argv[1], 'rb').read())\n"
             "f = parse_grammar(serialize_grammar(g))\n"
             "assert g == f and hash(g) == hash(f) and g.start in f.variables\n"
             "assert all(p in f.productions for p in g.productions)\n"
             "assert to_slnf(g) == to_slnf(f)\n"
             "n = parse_automaton(serialize_automaton(m))\n"
             "assert m == n and hash(m) == hash(n) and m.initial <= n.states\n"
             "words = enumerate_accepted(n, 6)\n"
             "assert enumerate_accepted(m, 6) == words and all(accepts(m, w) for w in words)\n")
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    src = str(Path(to_slnf.__code__.co_filename).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", check, str(path)], env=env, check=True)


def test_automata_copy_and_pickle_as_values():
    rng = random.Random(0x15)
    ms = [random_automaton(rng) for _ in range(100)]
    ms += [grammar_to_nla(random_grammar(rng)) for _ in range(20)]
    for m in ms:
        accepts(m, "")  # fills the cached move table
        words = enumerate_accepted(m, 5)
        for c in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert c == m and hash(c) == hash(m) and dict(c.delta) == dict(m.delta)
            assert serialize_automaton(c) == serialize_automaton(m)
            assert enumerate_accepted(c, 5) == words and all(accepts(c, w) for w in words)
