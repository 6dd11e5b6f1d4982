"""The automaton passes, which read and write numbered rows, against the
dict-level passes kept in ``helpers``: serialized outputs on seeded automata,
G′'s automaton and the corpus, and the rows each pass leaves behind."""

import functools
import random

import pytest

from linlang import (
    build_lk_automaton,
    class_swapped,
    determinize,
    eliminate_lambda,
    grammar_to_nla,
    is_determinizable,
    is_deterministic,
    is_even,
    ndeg,
    pad_ndeg,
    parse_automaton,
    serialize_automaton,
    to_dot,
    to_even_normal_form,
    to_slnf,
)
from linlang.automaton import _automaton, _move_rules
from linlang.convert import _slnf_to_nla
from linlang.corpus import fixture_ids, load_fixture
from linlang.errors import InvalidIdentifier, UnknownSymbol

from helpers import (
    assert_rows,
    g_prime,
    kth_from_last,
    random_automaton,
    random_compile_grammar,
    random_even_grammar,
    reference_build_lk_automaton,
    reference_class_swapped,
    reference_determinize,
    reference_eliminate_lambda,
    reference_is_deterministic,
    reference_is_even,
    reference_move_rules,
    reference_ndeg,
    reference_pad_ndeg,
    reference_parse_automaton,
    reference_serialize_automaton,
    reference_slnf_to_nla,
    reference_to_dot,
)

SEEDED = 300


def corpus(kind: str) -> list:
    return [fx.payload for fx in map(load_fixture, fixture_ids()) if fx.kind == kind]


@functools.cache
def automata() -> list:
    rng = random.Random(0x19)
    return ([random_automaton(rng) for _ in range(SEEDED)]
            + [grammar_to_nla(g_prime())] + corpus("automaton"))


@functools.cache
def lambda_free() -> list:
    return [eliminate_lambda(m) for m in automata()]


def same(got, want) -> None:
    assert_rows(got)
    assert got == want and hash(got) == hash(want)
    assert serialize_automaton(got) == reference_serialize_automaton(want)


def test_serialize_and_dot_write_the_rows_as_the_views_spell_them():
    for m in automata():
        assert_rows(m)
        assert serialize_automaton(m) == reference_serialize_automaton(m)
        assert to_dot(m) == reference_to_dot(m)


def test_parse_reads_lines_in_any_order_and_merges_repeated_cells():
    rng = random.Random(0x1A)
    for m in automata():
        text = serialize_automaton(m)
        same(parse_automaton(text), reference_parse_automaton(text))
        head, *lines = text.splitlines()
        split = []  # each target on a line of its own
        for line in lines:
            toks = line.split()
            if toks[2:3] == ["->"]:
                split += [f"{toks[0]} {toks[1]} -> {t}" for t in toks[3:]]
            else:
                split.append(line)
        rng.shuffle(split)
        scrambled = "\n".join([head, *split]) + "\n"
        same(parse_automaton(scrambled), reference_parse_automaton(scrambled))
        assert parse_automaton(scrambled) == m


def test_eliminate_lambda_folds_the_row_closures():
    for m in automata():
        same(eliminate_lambda(m), reference_eliminate_lambda(m))


def test_class_swapped():
    for m in automata():
        same(class_swapped(m), reference_class_swapped(m))


def test_pad_ndeg():
    for m in lambda_free():
        for a in sorted(m.alphabet):
            same(pad_ndeg(m, a), reference_pad_ndeg(m, a))


def test_determinize():
    for m in lambda_free()[:SEEDED] + [kth_from_last(k) for k in range(1, 8)]:
        if is_determinizable(m):
            same(determinize(m), reference_determinize(m))


def test_predicates_read_the_rows():
    for m in lambda_free():
        assert is_even(m) == reference_is_even(m)
        assert ndeg(m) == reference_ndeg(m)
        assert is_deterministic(m) == reference_is_deterministic(m)
    for m in automata():
        assert is_deterministic(m) == reference_is_deterministic(m)


def test_move_rules():
    def canonical(rules):
        return {q: sorted(rs, key=repr) for q, rs in rules.items()}

    for m in automata():
        assert canonical(_move_rules(m)) == canonical(reference_move_rules(m))


def test_build_lk_automaton():
    for k in range(25):
        same(build_lk_automaton(k), reference_build_lk_automaton(k))


@functools.cache
def strong_grammars() -> list:
    rng = random.Random(0x1B)
    grammars = [random_compile_grammar(rng) for _ in range(SEEDED // 3)] + [g_prime()]
    grammars += corpus("grammar")
    return ([(to_slnf(g), "left") for g in grammars]
            + [(to_slnf(to_even_normal_form(random_even_grammar(rng))), "right")
               for _ in range(SEEDED // 3)])


def test_slnf_to_nla():
    for g, side in strong_grammars():
        same(_slnf_to_nla(g, side), reference_slnf_to_nla(g, side))


def test_views_are_the_rows_spelled_by_name():
    for m in automata():
        names = m._names
        assert m.states == frozenset(names)
        assert m.left_states == {q for q, left in zip(names, m._left) if left}
        assert m.left_states | m.right_states == m.states
        assert dict(m.delta) == {(q, a): frozenset(names[t] for t in ts)
                                 for q, a, ts in reference_cells(m)}
        assert m.transitions() == [(q, a, m.delta[q, a]) for q, a, _ in reference_cells(m)]


def reference_cells(m):
    """(state, symbol, target numbers) in name order, lambda last."""
    return [(m._names[q], a, ts) for q, (reads, lam) in enumerate(zip(m._reads, m._lam))
            for a, ts in [*reads.items(), *([("", lam)] if lam else [])]]


def test_the_builder_reports_a_fault_by_the_ordered_scan():
    rows = [{"a": (1,)}, {"b": (0,)}]
    with pytest.raises(InvalidIdentifier) as err:
        _automaton(("1q", "eps", "p"), (True, False, True), rows + [{}], ((),) * 3, "ab",
                   (0,), ())
    assert err.value.subject == "1q"
    with pytest.raises(UnknownSymbol) as err:
        _automaton(("p", "q"), (True, False), rows, ((), ()), "a", (0,), ())
    assert err.value.subject == "b"
