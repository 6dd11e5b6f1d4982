"""Golden bytes for the grammar pipeline.

``golden/pipeline.txt`` pins the serialized output of the normal forms and
the grammar-to-automaton constructions on every corpus grammar, plus one
SHA-256 over the same outputs for 200 seeded random grammars.  Other tests
check languages and shapes; this one fails on any change of names, order or
layout.  After an intended output change, regenerate the file with
``PYTHONPATH=src:tests python tests/test_golden.py > tests/golden/pipeline.txt``.
"""

from __future__ import annotations

import hashlib
import random

from linlang import (
    det_grammar_to_dla,
    even_grammar_to_nla,
    grammar_to_nla,
    is_deterministic_linear,
    is_even_linear,
    serialize_automaton,
    serialize_grammar,
    to_even_normal_form,
    to_lnf,
    to_slnf,
)
from linlang.corpus import fixture_ids, load_fixture

from helpers import GOLDEN, random_grammar

RANDOM_SEEDS = 200


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


def render() -> str:
    sections = []
    for fid in fixture_ids():
        fixture = load_fixture(fid)
        if fixture.kind == "grammar":
            sections += [f"## {fid} {stage}\n{text}"
                         for stage, text in pipeline_outputs(fixture.payload)]
    digest = hashlib.sha256()
    for seed in range(RANDOM_SEEDS):
        for stage, text in pipeline_outputs(random_grammar(random.Random(seed))):
            digest.update(f"## {seed} {stage}\n{text}".encode())
    sections.append(f"## random_grammar seeds 0-{RANDOM_SEEDS - 1} sha256\n"
                    f"{digest.hexdigest()}\n")
    return "".join(sections)


def test_pipeline_golden():
    assert render() == (GOLDEN / "pipeline.txt").read_text()


if __name__ == "__main__":
    print(render(), end="")
