"""The per-grammar variable-class cache against a per-variable recomputation."""

import random

import pytest

from linlang import (
    VariableClass,
    classify_variable,
    is_lnf,
    is_slnf,
    terminal,
    to_lnf,
    to_slnf,
    variable,
)
from linlang.corpus import fixture_ids, load_fixture
from linlang.errors import UnknownSymbol

from helpers import g_prime, random_grammar, reference_classify_variable


def reference_is_lnf(g):
    return all(reference_classify_variable(g, v) is not VariableClass.NEITHER
               for v in g.variables)


def reference_is_slnf(g):
    return reference_is_lnf(g) and all(
        len(p.body) < 2 or len(p.body) == 2 and p.body[0].kind is not p.body[1].kind
        for p in g.productions)


def assert_agrees(g):
    for v in g.variables:
        want = reference_classify_variable(g, v)
        assert classify_variable(g, v) is want, (g, v)
        assert classify_variable(g, v.name) is want, (g, v)
    assert is_lnf(g) == reference_is_lnf(g), g
    assert is_slnf(g) == reference_is_slnf(g), g


def grammars():
    rng = random.Random(0xC1)
    seeded = [random_grammar(rng) for _ in range(200)]
    corpus = [fx.payload for fx in map(load_fixture, fixture_ids()) if fx.kind == "grammar"]
    return seeded + corpus + [g_prime()]


def test_cache_agrees_with_recomputation():
    seen = set()
    for g in grammars():
        for h in (g, to_lnf(g), to_slnf(g)):
            assert_agrees(h)
            seen.update(classify_variable(h, v) for v in h.variables)
    assert seen == set(VariableClass)


def test_undeclared_variable_raises():
    g = random_grammar(random.Random(1))
    for v in ("Zed", variable("Zed"), terminal("S")):
        with pytest.raises(UnknownSymbol):
            classify_variable(g, v)
