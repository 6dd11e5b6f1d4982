"""Text formats for grammars and automata, plus DOT export.

Both formats are line-based, whitespace-tokenized, UTF-8 with LF newlines.
``eps`` denotes the empty string everywhere; ``#`` starts a comment.  The
serializers emit a canonical form: parsing then serializing any valid file
reproduces the serializer's bytes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import LAMBDA, LinearAutomaton, validate_automaton
from .errors import LinlangError, NotLinear, ParseError, StartNotDeclared
from .grammar import LinearGrammar, Production, SymbolKind, validate_grammar
from .naming import EPS


@dataclass(frozen=True)
class SourceSpan:
    """1-based line and column of the token a diagnostic points at."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def _token_lines(text: str) -> list[list[tuple[str, SourceSpan]]]:
    lines = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        toks = []
        col = 0
        for tok in body.split():
            col = body.index(tok, col)
            toks.append((tok, SourceSpan(lineno, col + 1)))
            col += len(tok)
        if toks:
            lines.append(toks)
    return lines


# --- grammar format ---

def parse_grammar(text: str) -> LinearGrammar:
    """Parse the grammar format; diagnostics carry a source span."""
    lines = _token_lines(text)
    if not lines or lines[0][0][0] != "grammar" or len(lines[0]) != 1:
        span = lines[0][0][1] if lines else SourceSpan(1, 1)
        raise ParseError("expected a lone 'grammar' header line", span=span)
    start: tuple[str, SourceSpan] | None = None
    order: dict[str, list[str]] = {"terminals": [], "variables": []}
    productions: list[tuple[str, list[str]]] = []
    # Each name's last declaration (a repeat is where the duplicate shows),
    # else its first use; each production's head and body token spans.
    spans: dict = {}
    for toks in lines[1:]:
        word, span = toks[0]
        if len(toks) >= 2 and toks[1][0] == "->":
            # production lines win over directives, so directive words stay
            # usable as symbol names
            alts: list[list[tuple[str, SourceSpan]]] = [[]]
            for tok, tspan in toks[2:]:
                if tok == "|":
                    alts.append([])
                else:
                    alts[-1].append((tok, tspan))
            for alt in alts:
                if not alt:
                    raise ParseError("empty production alternative", span=span)
                names = [tok for tok, _ in alt]
                if names == [EPS]:
                    names, alt = [], []
                elif EPS in names:
                    raise ParseError(f"{EPS!r} cannot appear inside a body",
                                     span=alt[names.index(EPS)][1])
                productions.append((word, names))
                spans.setdefault((word, tuple(names)), [span, *(s for _, s in alt)])
                for name, nspan in [(word, span), *alt]:
                    spans.setdefault(name, nspan)
        elif word == "start":
            if len(toks) != 2:
                raise ParseError("'start' takes exactly one variable", span=span)
            if start is not None:
                raise ParseError("duplicate 'start' directive", span=span)
            start = (toks[1][0], toks[1][1])
        elif word in ("terminals", "variables"):
            for name, nspan in toks[1:]:
                order[word].append(name)
                spans[name] = nspan
        else:
            raise ParseError(f"expected a directive or production, got {word!r}",
                             span=span)
    if start is None:
        raise StartNotDeclared("no 'start' directive", span=SourceSpan(1, 1))
    sname, sspan = start
    try:
        return validate_grammar(variables=order["variables"],
                                terminals=order["terminals"],
                                start=sname, productions=productions)
    except LinlangError as exc:
        exc.span = sspan if isinstance(exc, StartNotDeclared) else _grammar_span(exc, spans)
        raise


def _grammar_span(exc: LinlangError, spans: dict) -> SourceSpan | None:
    # A production subject points at its head, or at the second variable of
    # a non-linear body.
    p = exc.subject
    if not isinstance(p, Production):
        return spans.get(p)
    at = spans[p.sort_key()]
    if isinstance(exc, NotLinear):
        return at[[i for i, s in enumerate(p.body, 1) if s.kind is SymbolKind.VARIABLE][1]]
    return at[0]


def serialize_grammar(g: LinearGrammar) -> str:
    """Canonical text: fixed section order, sorted symbols and productions."""
    out = ["grammar", f"start {g.start.name}"]
    out.append(" ".join(["terminals"] + sorted(t.name for t in g.terminals)).rstrip())
    out.append(" ".join(["variables"] + [v.name for v in g.sorted_variables()]))
    for p in g.sorted_productions():
        rhs = " ".join(s.name for s in p.body) if p.body else EPS
        out.append(f"{p.head.name} -> {rhs}")
    return "\n".join(out) + "\n"


# --- automaton format ---

_AUTO_DIRECTIVES = ("alphabet", "left", "right", "initial", "final")


def parse_automaton(text: str) -> LinearAutomaton:
    """Parse the automaton format; diagnostics carry a source span."""
    lines = _token_lines(text)
    if not lines or lines[0][0][0] != "automaton" or len(lines[0]) != 1:
        span = lines[0][0][1] if lines else SourceSpan(1, 1)
        raise ParseError("expected a lone 'automaton' header line", span=span)
    pools: dict[str, list[str]] = {d: [] for d in _AUTO_DIRECTIVES}
    delta: dict[tuple[str, str], list[str]] = {}
    # Each name's first place in the directives, else in the transitions.
    spans: dict[str, SourceSpan] = {}
    used: list[tuple[str, SourceSpan]] = []
    for toks in lines[1:]:
        word, span = toks[0]
        if len(toks) >= 3 and toks[2][0] == "->":
            # transition lines win over directives (see parse_grammar)
            if len(toks) < 4:
                raise ParseError("transition needs at least one target state",
                                 span=span)
            sym = LAMBDA if toks[1][0] == EPS else toks[1][0]
            delta.setdefault((word, sym), []).extend(tgt for tgt, _ in toks[3:])
            used += toks[:2] + toks[3:]
        elif word in _AUTO_DIRECTIVES:
            for name, nspan in toks[1:]:
                pools[word].append(name)
                spans.setdefault(name, nspan)
        else:
            raise ParseError(f"expected a directive or transition, got {word!r}",
                             span=span)
    for name, nspan in used:
        spans.setdefault(name, nspan)
    try:
        return validate_automaton(left=pools["left"], right=pools["right"],
                                  alphabet=pools["alphabet"], delta=delta,
                                  initial=pools["initial"], final=pools["final"])
    except LinlangError as exc:
        exc.span = spans.get(exc.subject)
        raise


def serialize_automaton(m: LinearAutomaton) -> str:
    """Canonical text: sorted directives, one transition line per cell."""
    out = ["automaton"]
    out.append(" ".join(["alphabet"] + sorted(m.alphabet)).rstrip())
    out.append(" ".join(["left"] + sorted(m.left_states)).rstrip())
    out.append(" ".join(["right"] + sorted(m.right_states)).rstrip())
    out.append(" ".join(["initial"] + sorted(m.initial)).rstrip())
    out.append(" ".join(["final"] + sorted(m.final)).rstrip())
    for q, a, targets in m.transitions():
        sym = EPS if a == LAMBDA else a
        out.append(f"{q} {sym} -> " + " ".join(sorted(targets)))
    return "\n".join(out) + "\n"


# --- DOT export ---

def to_dot(m: LinearAutomaton) -> str:
    """Graphviz text: circles for left states, boxes for right states,
    double borders on accepting states, point-node arrows into start states.
    """
    lines = ["digraph {", "  rankdir=LR;"]
    for q in sorted(m.initial):
        lines.append(f"  __start_{q} [shape=point, style=invis];")
    for q in sorted(m.states):
        if q in m.left_states:
            shape = "doublecircle" if q in m.final else "circle"
            lines.append(f"  {q} [shape={shape}];")
        else:
            extra = ", peripheries=2" if q in m.final else ""
            lines.append(f"  {q} [shape=box{extra}];")
    for q in sorted(m.initial):
        lines.append(f"  __start_{q} -> {q};")
    for q, a, targets in m.transitions():
        label = EPS if a == LAMBDA else a
        for t in sorted(targets):
            lines.append(f'  {q} -> {t} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
