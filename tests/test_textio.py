import pytest

from linlang import (
    parse_automaton,
    parse_grammar,
    serialize_automaton,
    serialize_grammar,
    to_dot,
    validate_automaton,
)
from linlang.corpus import fixture_ids, load_fixture
from linlang.errors import (
    ClassOverlap,
    DuplicateSymbol,
    InvalidIdentifier,
    NotLinear,
    ParseError,
    StartNotDeclared,
    UnknownState,
    UnknownSymbol,
)

from helpers import DATA, GOLDEN


class TestParseGrammar:
    def test_example_file(self):
        g = parse_grammar((DATA / "ex_lg.grm").read_text())
        assert len(g.variables) == 1
        assert len(g.terminals) == 2
        assert len(g.productions) == 6

    def test_minimal_grammar(self):
        g = parse_grammar("grammar\nstart S\nterminals a\nvariables S\nS -> eps\n")
        assert len(g.productions) == 1
        assert next(iter(g.productions)).body == ()

    def test_undeclared_symbol_has_span(self):
        text = "grammar\nstart S\nterminals a\nvariables S\nS -> a X\n"
        with pytest.raises(UnknownSymbol) as err:
            parse_grammar(text)
        assert (err.value.span.line, err.value.span.column) == (5, 8)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_grammar("start S\nvariables S\n")

    def test_two_variables_in_alternative(self):
        text = "grammar\nstart S\nterminals a\nvariables S A\nS -> A a A\n"
        with pytest.raises(NotLinear) as err:
            parse_grammar(text)
        assert err.value.span is not None

    def test_alternatives_and_comments(self):
        text = ("grammar\n# a comment line\nstart S\nterminals a b\n"
                "variables S\nS -> a S b | a b  # trailing comment\n")
        g = parse_grammar(text)
        assert len(g.productions) == 2

    def test_bad_eps_usage(self):
        text = "grammar\nstart S\nterminals a\nvariables S\nS -> a eps\n"
        with pytest.raises(ParseError):
            parse_grammar(text)

    def test_multi_character_terminal(self):
        # 'ab' and 'a b' would enumerate as the same word
        text = "grammar\nstart S\nterminals ab a b\nvariables S\nS -> ab | a b\n"
        with pytest.raises(InvalidIdentifier) as err:
            parse_grammar(text)
        assert (err.value.span.line, err.value.span.column) == (3, 11)
        assert err.value.subject == "ab"

    def test_directive_words_are_usable_as_symbol_names(self):
        text = ("grammar\nstart start\nterminals a\nvariables start terminals\n"
                "start -> a terminals\nterminals -> a\n")
        g = parse_grammar(text)
        assert g.start.name == "start"
        once = serialize_grammar(g)
        assert parse_grammar(once) == g
        assert serialize_grammar(parse_grammar(once)) == once


class TestSerializeGrammar:
    def test_fixpoint_is_canonical(self):
        for path in sorted(DATA.glob("*.grm")):
            text = path.read_text()
            once = serialize_grammar(parse_grammar(text))
            assert once == text, path.name
            assert serialize_grammar(parse_grammar(once)) == once

    def test_value_roundtrip(self):
        g = load_fixture("det_grammar_2_1").payload
        assert parse_grammar(serialize_grammar(g)) == g

    def test_variable_order_start_first(self):
        text = serialize_grammar(load_fixture("ex_slnf_grammar").payload)
        assert "variables S A B C D E F" in text.splitlines()

    def test_golden_erasing_grammar(self):
        g = parse_grammar("grammar\nvariables S\nterminals\nstart S\nS -> eps\n")
        assert serialize_grammar(g) == ("grammar\nstart S\nterminals\n"
                                        "variables S\nS -> eps\n")


class TestParseAutomaton:
    def test_example_file(self):
        m = parse_automaton((DATA / "ex_nla.lin").read_text())
        assert m.has_lambda_moves
        assert len(m.delta) == 9
        assert m.targets("q0", "") == frozenset({"p3"})

    def test_state_in_both_classes(self):
        text = "automaton\nalphabet a\nleft q0\nright q0\ninitial q0\nfinal\n"
        with pytest.raises(ClassOverlap):
            parse_automaton(text)

    def test_final_directive_may_be_absent(self):
        m = parse_automaton("automaton\nalphabet a\nleft q0\nright\ninitial q0\n"
                            "q0 a -> q0\n")
        assert m.final == frozenset()

    def test_transition_without_targets(self):
        with pytest.raises(ParseError):
            parse_automaton("automaton\nalphabet a\nleft q0\nright\ninitial q0\n"
                            "final q0\nq0 a ->\n")

    def test_duplicate_transition_lines_merge(self):
        m = parse_automaton("automaton\nalphabet a\nleft q0 q1\nright\n"
                            "initial q0\nfinal q1\nq0 a -> q0\nq0 a -> q1\n")
        assert m.targets("q0", "a") == frozenset({"q0", "q1"})


class TestSerializeAutomaton:
    def test_fixpoint_is_canonical(self):
        for path in sorted(DATA.glob("*.lin")):
            text = path.read_text()
            once = serialize_automaton(parse_automaton(text))
            assert once == text, path.name
            assert serialize_automaton(parse_automaton(once)) == once

    def test_value_roundtrip(self):
        m = load_fixture("ex_nla").payload
        assert parse_automaton(serialize_automaton(m)) == m

    def test_golden_union_dla(self):
        m = load_fixture("dla_anbn_ancn").payload
        assert serialize_automaton(m) == (DATA / "dla_anbn_ancn.lin").read_text()

    def test_golden_empty_transition_automaton(self):
        m = validate_automaton(left=["q0"], right=[], alphabet=["a"], delta={},
                               initial=["q0"], final=["q0"])
        assert serialize_automaton(m) == ("automaton\nalphabet a\nleft q0\n"
                                          "right\ninitial q0\nfinal q0\n")


class TestDot:
    def test_palindrome_fixture_shape(self):
        dot = to_dot(load_fixture("palindrome_even").payload)
        assert dot == (GOLDEN / "palindrome_even.dot").read_text()
        assert dot.count("shape=box") == 2
        assert dot.count("doublecircle") == 1
        assert dot.count("[label=") == 4

    def test_single_state(self):
        m = validate_automaton(left=["q0"], right=[], alphabet=["a"], delta={},
                               initial=["q0"], final=[])
        dot = to_dot(m)
        assert dot.count("[shape=circle]") == 1
        assert dot.count("[label=") == 0

    def test_example_automaton_counts(self):
        dot = to_dot(load_fixture("ex_nla").payload)
        assert dot == (GOLDEN / "ex_nla.dot").read_text()
        state_nodes = dot.count("[shape=") - dot.count("shape=point")
        assert state_nodes == 8
        assert dot.count("[label=") == 11
        assert dot.count('[label="eps"]') == 1


def test_every_fixture_file_roundtrips_by_value():
    for fid in fixture_ids():
        fx = load_fixture(fid)
        if fx.kind == "grammar":
            assert parse_grammar(serialize_grammar(fx.payload)) == fx.payload
        elif fx.kind == "automaton":
            assert parse_automaton(serialize_automaton(fx.payload)) == fx.payload


GRAMMAR = ("grammar\nstart S\nterminals a b\nvariables S A\n"
           "S -> a S b | A\nA -> a\n")
AUTOMATON = ("automaton\nalphabet a b\nleft q0\nright p1\ninitial q0\nfinal p1\n"
             "q0 a -> p1\np1 b -> q0 p1\n")

# One fault per input: (old, new) rewrites every ``old`` in the base text.
GRAMMAR_FAULTS = {
    "bad-terminal-name": ("terminals a b", "terminals a b 1c", InvalidIdentifier, (3, 15)),
    "eps-terminal": ("terminals a b", "terminals a b eps", InvalidIdentifier, (3, 15)),
    "bad-variable-name": ("variables S A", "variables S A X-1", InvalidIdentifier, (4, 15)),
    "eps-variable": ("variables S A", "variables S A eps", InvalidIdentifier, (4, 15)),
    "bad-name-in-use": ("A", "1A", InvalidIdentifier, (4, 13)),
    "duplicate-terminal": ("terminals a b", "terminals a b a", DuplicateSymbol, (3, 15)),
    "duplicate-variable": ("variables S A", "variables S A S", DuplicateSymbol, (4, 15)),
    "cross-role": ("variables S A", "variables S A b", DuplicateSymbol, (4, 15)),
    "missing-start": ("start S\n", "", StartNotDeclared, (1, 1)),
    "undeclared-start": ("start S", "start Z", StartNotDeclared, (2, 7)),
    "terminal-start": ("start S", "start a", StartNotDeclared, (2, 7)),
    "undeclared-head": ("A -> a", "A -> a\nZ -> a", UnknownSymbol, (7, 1)),
    "terminal-head": ("A -> a", "A -> a\nb -> a", UnknownSymbol, (7, 1)),
    "terminal-head-non-linear": ("A -> a", "A -> a\nb -> S a A", UnknownSymbol, (7, 1)),
    "undeclared-body-symbol": ("A -> a", "A -> a Z", UnknownSymbol, (6, 8)),
    "undeclared-in-alternative": ("A -> a", "A -> a | c", UnknownSymbol, (6, 10)),
    "undeclared-used-before-head": ("variables S A", "variables S", UnknownSymbol, (5, 14)),
    "non-linear": ("A -> a", "A -> A a S", NotLinear, (6, 10)),
    "non-linear-adjacent": ("A -> a", "A -> S A b", NotLinear, (6, 8)),
    # structural faults, found by the parser before any check
    "missing-header": ("grammar\n", "", ParseError, (1, 1)),
    "extra-header-token": ("grammar\n", "# note\n  grammar S\n", ParseError, (2, 3)),
    "empty-alternative": ("| A", "| | A", ParseError, (5, 1)),
    "empty-body": ("A -> a", "A ->", ParseError, (6, 1)),
    "eps-inside-body": ("| A", "| A  eps", ParseError, (5, 17)),
    "duplicate-start": ("start S\n", "start S\n start S\n", ParseError, (3, 2)),
    "start-two-names": ("start S", "start S A", ParseError, (2, 1)),
    "unknown-directive": ("A -> a", "A -> a\n\talphabet a", ParseError, (7, 2)),
}

AUTOMATON_FAULTS = {
    "bad-left-state": ("left q0", "left q0 1q", InvalidIdentifier, (3, 9)),
    "eps-right-state": ("right p1", "right p1 eps", InvalidIdentifier, (4, 10)),
    "bad-alphabet-symbol": ("alphabet a b", "alphabet a b 9", InvalidIdentifier, (2, 14)),
    "eps-initial": ("initial q0", "initial q0 eps", InvalidIdentifier, (5, 12)),
    "bad-final": ("final p1", "final p1 2x", InvalidIdentifier, (6, 10)),
    "class-overlap": ("right p1", "right p1 q0", ClassOverlap, (3, 6)),
    "multi-character-symbol": ("alphabet a b", "alphabet a b cd", InvalidIdentifier, (2, 14)),
    "undeclared-initial": ("initial q0", "initial q0 q9", UnknownState, (5, 12)),
    "undeclared-final": ("final p1", "final p1 q9", UnknownState, (6, 10)),
    "undeclared-source": ("q0 a -> p1", "q0 a -> p1\nq9 a -> p1", UnknownState, (8, 1)),
    "undeclared-symbol": ("q0 a -> p1", "q0 a -> p1\nq0 c -> p1", UnknownSymbol, (8, 4)),
    "undeclared-target": ("q0 a -> p1", "q0 a -> p1 q9", UnknownState, (7, 12)),
    "undeclared-lambda-target": ("q0 a -> p1", "q0 a -> p1\nq0 eps -> q9", UnknownState,
                                 (8, 11)),
    # structural faults, found by the parser before any check
    "missing-header": ("automaton\n", "", ParseError, (1, 1)),
    "extra-header-token": ("automaton\n", "automaton  x\n", ParseError, (1, 1)),
    "transition-without-target": ("q0 a -> p1", "q0 a ->", ParseError, (7, 1)),
    "unknown-directive": ("final p1", "final p1\n  variables p1  # comment", ParseError, (7, 3)),
}


@pytest.mark.parametrize("parse, base, fault", [
    *((parse_grammar, GRAMMAR, f) for f in GRAMMAR_FAULTS.values()),
    *((parse_automaton, AUTOMATON, f) for f in AUTOMATON_FAULTS.values()),
], ids=[*GRAMMAR_FAULTS, *AUTOMATON_FAULTS])
def test_single_fault_has_type_and_span(parse, base, fault):
    old, new, exc, where = fault
    assert old in base
    parse(base)
    with pytest.raises(exc) as err:
        parse(base.replace(old, new))
    assert type(err.value) is exc
    assert (err.value.span.line, err.value.span.column) == where
