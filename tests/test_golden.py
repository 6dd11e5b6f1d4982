"""Golden bytes for the grammar and automaton pipelines.

``golden/pipeline.txt`` pins the serialized output of the normal forms and
the grammar-to-automaton constructions on every corpus grammar, and of the
automaton-to-grammar constructions, lambda elimination, determinization and
enumeration on every corpus automaton, plus one SHA-256 over the same
outputs for 200 seeded random grammars and one for 200 random automata.  Other tests
check languages and shapes; this one fails on any change of names, order or
layout.  After an intended output change, regenerate the file with
``PYTHONPATH=src:tests python tests/test_golden.py > tests/golden/pipeline.txt``.
"""

from __future__ import annotations

import hashlib
import random

from linlang import (
    det_grammar_to_dla,
    determinize,
    eliminate_lambda,
    enumerate_accepted,
    even_grammar_to_nla,
    even_nla_to_grammar,
    grammar_to_nla,
    is_determinizable,
    is_deterministic_linear,
    is_even,
    is_even_linear,
    nla_to_grammar,
    serialize_automaton,
    serialize_grammar,
    to_even_normal_form,
    to_lnf,
    to_slnf,
)
from linlang.corpus import fixture_ids, load_fixture

from helpers import GOLDEN, random_automaton, random_grammar

RANDOM_SEEDS = 200
ENUM_LEN = 8


def pipeline_outputs(g) -> list[tuple[str, str]]:
    """(stage, serialized output) for every construction that applies to ``g``."""
    out = [("to_lnf", serialize_grammar(to_lnf(g))),
           ("to_slnf", serialize_grammar(to_slnf(g))),
           ("grammar_to_nla", serialize_automaton(grammar_to_nla(g)))]
    if is_even_linear(g):
        out.append(("to_even_normal_form", serialize_grammar(to_even_normal_form(g))))
        out.append(("even_grammar_to_nla", serialize_automaton(even_grammar_to_nla(g))))
    if is_deterministic_linear(g):
        out.append(("det_grammar_to_dla", serialize_automaton(det_grammar_to_dla(g))))
    return out


def automaton_outputs(m) -> list[tuple[str, str]]:
    """(stage, serialized output) for every construction that applies to ``m``."""
    out = [("nla_to_grammar", serialize_grammar(nla_to_grammar(m))),
           ("eliminate_lambda", serialize_automaton(eliminate_lambda(m)))]
    if not m.has_lambda_moves and is_even(m):
        out.append(("even_nla_to_grammar", serialize_grammar(even_nla_to_grammar(m))))
    if not m.has_lambda_moves and is_determinizable(m):
        out.append(("determinize", serialize_automaton(determinize(m))))
    words = enumerate_accepted(m, ENUM_LEN)
    out.append((f"enumerate_accepted {ENUM_LEN}", "".join(f"{w or 'eps'}\n" for w in words)))
    return out


def render() -> str:
    sections = []
    outputs = {"grammar": pipeline_outputs, "automaton": automaton_outputs}
    for fid in fixture_ids():
        fixture = load_fixture(fid)
        if fixture.kind in outputs:
            sections += [f"## {fid} {stage}\n{text}"
                         for stage, text in outputs[fixture.kind](fixture.payload)]
    for make, run in ((random_grammar, pipeline_outputs),
                      (random_automaton, automaton_outputs)):
        digest = hashlib.sha256()
        for seed in range(RANDOM_SEEDS):
            for stage, text in run(make(random.Random(seed))):
                digest.update(f"## {seed} {stage}\n{text}".encode())
        sections.append(f"## {make.__name__} seeds 0-{RANDOM_SEEDS - 1} sha256\n"
                        f"{digest.hexdigest()}\n")
    return "".join(sections)


def test_pipeline_golden():
    assert render() == (GOLDEN / "pipeline.txt").read_text()


if __name__ == "__main__":
    print(render(), end="")
