"""Linear languages toolkit: grammars, two-head automata, and conversions."""

from .automaton import (
    LAMBDA,
    Homogeneity,
    InstantaneousDescription,
    LinearAutomaton,
    SubsetState,
    accepts,
    class_swapped,
    determinize,
    eliminate_lambda,
    enumerate_accepted,
    is_determinizable,
    is_deterministic,
    is_even,
    lambda_closure,
    ndeg,
    step,
    subset_states,
    trace,
    validate_automaton,
)
from .convert import (
    det_grammar_to_dla,
    even_grammar_to_nla,
    even_nla_to_grammar,
    grammar_to_nla,
    nla_to_grammar,
)
from .grammar import (
    LinearGrammar,
    Production,
    Symbol,
    SymbolKind,
    VariableClass,
    classify_variable,
    eliminate_unit_productions,
    enumerate_language,
    is_deterministic_linear,
    is_even_linear,
    is_lnf,
    is_slnf,
    terminal,
    to_even_normal_form,
    to_lnf,
    to_slnf,
    validate_grammar,
    variable,
)
from .hierarchy import (
    HierarchyWitness,
    build_lk_automaton,
    hierarchy_witness,
    lin_k_upper_bound,
    lk_predicate,
    lk_predicate_strict,
    pad_ndeg,
)
from .textio import (
    SourceSpan,
    parse_automaton,
    parse_grammar,
    serialize_automaton,
    serialize_grammar,
    to_dot,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
