"""The bitmask subset table against the frozenset reference."""

import random

from linlang import (
    Homogeneity,
    SubsetState,
    determinize,
    is_determinizable,
    serialize_automaton,
    subset_states,
    validate_automaton,
)
from linlang.automaton import mixed_subset_witness
from linlang.corpus import fixture_ids, load_fixture
from linlang.errors import NotDeterminizable

from helpers import (
    kth_from_last,
    random_automaton,
    reference_determinize,
    reference_homogeneity,
    reference_subset_table,
)


def corpus_automata():
    fixtures = (load_fixture(fid) for fid in fixture_ids())
    return [fx.payload for fx in fixtures
            if fx.kind == "automaton" and not fx.payload.has_lambda_moves]


def seeded_automata():
    rng = random.Random(0x5B)
    return [random_automaton(rng, allow_lambda=False) for _ in range(300)]


def late_mixing_automata():
    """Mostly one target per move, so subsets mix after several reads."""
    rng = random.Random(0x5C)
    out = []
    for _ in range(200):
        states = [f"s{i}" for i in range(rng.randint(3, 7))]
        left = {q for q in states if rng.random() < 0.5}
        delta = {(q, a): set(rng.sample(states, 1 if rng.random() < 0.85 else 2))
                 for q in states for a in "abc" if rng.random() < 0.7}
        out.append(validate_automaton(left=left, right=set(states) - left,
                                      alphabet="abc", delta=delta,
                                      initial=[states[0]], final=states[-1:]))
    return out


def determinized(det, m) -> str:
    """Serialized output, or the NotDeterminizable message."""
    try:
        return serialize_automaton(det(m))
    except NotDeterminizable as exc:
        return f"NotDeterminizable: {exc}"


def assert_agrees(m):
    table = reference_subset_table(m)
    kinds = {x: reference_homogeneity(m, x) for x in table}
    assert subset_states(m) == {SubsetState(x, h) for x, h in kinds.items()}, m
    assert is_determinizable(m) == (Homogeneity.MIXED not in kinds.values()), m
    assert determinized(determinize, m) == determinized(reference_determinize, m), m


def test_table_agrees_with_reference_on_seeded_automata():
    for m in seeded_automata():
        assert_agrees(m)


def test_table_agrees_with_reference_on_corpus():
    for m in corpus_automata():
        assert_agrees(m)


def test_table_agrees_with_reference_on_kth_from_last():
    for k in range(1, 9):
        assert_agrees(kth_from_last(k))


def test_corpus_has_both_verdicts():
    verdicts = {is_determinizable(m) for m in corpus_automata()}
    assert verdicts == {True, False}


def test_repeated_joined_name_is_renamed_as_before():
    # subset {a, b} joins to "a_b", the name of another state
    m = validate_automaton(left=["a", "b", "a_b"], right=[], alphabet=["x"],
                           delta={("a", "x"): {"a", "b"}, ("a_b", "x"): {"a"}},
                           initial=["a", "a_b"], final=["b"])
    got = serialize_automaton(determinize(m))
    assert got == serialize_automaton(reference_determinize(m))
    assert "a_b_1" in got


def test_kth_from_last_reaches_every_subset_with_the_first_state():
    for k in range(1, 9):
        assert len(subset_states(kth_from_last(k))) == 2 ** (k + 1)


def homogeneous_distances(m, table):
    """Breadth-first distances that never leave a mixed subset."""
    dist = {frozenset({q}): 0 for q in m.initial}
    queue = list(dist)
    for x in queue:
        if reference_homogeneity(m, x) is Homogeneity.MIXED:
            continue
        for y in table[x].values():
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def reached_by(m, table, word):
    """The subsets an input word leads to: an all-left subset reads the
    word's left end, an all-right one its right end."""
    ends = set()
    for q in m.initial:
        x, rest = frozenset({q}), word
        while rest and x is not None:
            h = reference_homogeneity(m, x)
            if h is Homogeneity.MIXED:
                x = None
            else:
                a, rest = (rest[0], rest[1:]) if h is Homogeneity.ALL_LEFT else (rest[-1], rest[:-1])
                x = table[x].get(a)
        if x is not None:
            ends.add(x)
    return ends


def test_witness_is_a_shortest_input_word_to_the_least_mixed_subset():
    cases = (seeded_automata() + late_mixing_automata() + corpus_automata()
             + [kth_from_last(k) for k in range(1, 9)])
    witnessed = unreachable = 0
    for m in cases:
        table = reference_subset_table(m)
        mixed = [x for x in table if reference_homogeneity(m, x) is Homogeneity.MIXED]
        got = mixed_subset_witness(m)
        if not mixed:
            assert got is None, m
            continue
        least = min(mixed, key=sorted)
        members, word = got
        assert members == tuple(sorted(least)), m
        dist = homogeneous_distances(m, table)
        if least not in dist:
            assert word is None, m
            unreachable += 1
            continue
        assert len(word) == dist[least], m
        assert least in reached_by(m, table, word), m
        witnessed += 1
    assert witnessed > 50 and unreachable > 0
