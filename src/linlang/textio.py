"""Text formats for grammars and automata, plus DOT export.

Both formats are line-based, whitespace-tokenized, UTF-8 with LF newlines.
``eps`` denotes the empty string everywhere; ``#`` starts a comment.  The
serializers emit a canonical form: parsing then serializing any valid file
reproduces the serializer's bytes exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress

from .automaton import LAMBDA, LinearAutomaton, _named, _started
from .errors import LinlangError, NotLinear, ParseError, StartNotDeclared
from .grammar import LinearGrammar, Production, SymbolKind, _body, validate_grammar
from .naming import EPS


@dataclass(frozen=True)
class SourceSpan:
    """1-based line and column of the token a diagnostic points at."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


def _lines(text: str, header: str) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of each line with a token, after the header line."""
    lines = [(n, toks) for n, raw in enumerate(text.split("\n"), start=1)
             if (toks := raw.split("#", 1)[0].split())]
    if not lines or lines[0][1] != [header]:
        span = _span(text, lines[0][0], 0) if lines else SourceSpan(1, 1)
        raise ParseError(f"expected a lone {header!r} header line", span=span)
    return lines[1:]


def _span(text: str, lineno: int, index: int) -> SourceSpan:
    # Spans are computed only when a parse fails, so a good file costs none.
    body = text.split("\n")[lineno - 1].split("#", 1)[0]
    # ``\S+`` splits on the same whitespace as ``str.split``
    return SourceSpan(lineno, [t.start() for t in re.finditer(r"\S+", body)][index] + 1)


def _locate(text: str, lines, name, arrow: int, skip: tuple[str, ...],
            last_declaration: bool) -> SourceSpan | None:
    """Span of ``name``'s first (or last) declaration, else of its first use.

    A rule line, with ``->`` at index ``arrow``, uses every other token but
    those in ``skip`` after the arrow; any other line but ``start`` declares
    the tokens after its first.
    """
    declared = used = None
    for lineno, toks in lines:
        if toks[arrow:arrow + 1] == ["->"]:
            used = used or next(((lineno, i) for i, tok in enumerate(toks) if tok == name
                                 and i != arrow and (i < arrow or tok not in skip)), None)
        elif toks[0] != "start" and name in toks[1:] and (last_declaration or not declared):
            hits = [i for i, tok in enumerate(toks) if tok == name and i]
            declared = (lineno, hits[-1] if last_declaration else hits[0])
    at = declared or used
    return at and _span(text, *at)


# --- grammar format ---

def _alternatives(toks: list[str]) -> list[tuple[int, list[str]]]:
    """(index of first token, tokens) of each alternative of a production line."""
    cuts = [i for i, tok in enumerate(toks) if tok == "|" and i > 1]
    return [(lo, toks[lo:hi])
            for lo, hi in zip([2] + [i + 1 for i in cuts], cuts + [len(toks)])]


def parse_grammar(text: str) -> LinearGrammar:
    """Parse the grammar format; diagnostics carry a source span."""
    lines = _lines(text, "grammar")
    start: tuple[str, int] | None = None
    order: dict[str, list[str]] = {"terminals": [], "variables": []}
    productions: list[tuple[str, list[str]]] = []
    for lineno, toks in lines:
        word = toks[0]
        if toks[1:2] == ["->"]:
            # production lines win over directives, so directive words stay
            # usable as symbol names
            for lo, names in _alternatives(toks):
                if not names:
                    raise ParseError("empty production alternative",
                                     span=_span(text, lineno, 0))
                if EPS in names and names != [EPS]:
                    raise ParseError(f"{EPS!r} cannot appear inside a body",
                                     span=_span(text, lineno, lo + names.index(EPS)))
                productions.append((word, [] if names == [EPS] else names))
        elif word == "start":
            if len(toks) != 2:
                raise ParseError("'start' takes exactly one variable",
                                 span=_span(text, lineno, 0))
            if start is not None:
                raise ParseError("duplicate 'start' directive", span=_span(text, lineno, 0))
            start = (toks[1], lineno)
        elif word in order:
            order[word] += toks[1:]
        else:
            raise ParseError(f"expected a directive or production, got {word!r}",
                             span=_span(text, lineno, 0))
    if start is None:
        raise StartNotDeclared("no 'start' directive", span=SourceSpan(1, 1))
    try:
        return validate_grammar(variables=order["variables"],
                                terminals=order["terminals"],
                                start=start[0], productions=productions)
    except LinlangError as exc:
        exc.span = (_span(text, start[1], 1) if isinstance(exc, StartNotDeclared)
                    else _grammar_span(text, lines, exc))
        raise


def _grammar_span(text: str, lines, exc: LinlangError) -> SourceSpan | None:
    p = exc.subject
    if not isinstance(p, Production):
        # a repeated declaration is where a duplicate shows
        return _locate(text, lines, p, 1, ("|", EPS), last_declaration=True)
    # the head, or a non-linear body's second variable, of its first spelling
    at = ([i for i, s in enumerate(p.body) if s.kind is SymbolKind.VARIABLE][1:]
          if isinstance(exc, NotLinear) else [])
    head, body = p.sort_key()
    for lineno, toks in lines:
        if toks[0] == head and toks[1:2] == ["->"]:
            for lo, names in _alternatives(toks):
                if tuple(names) == body or names == [EPS] and not body:
                    return _span(text, lineno, lo + at[0] if at else 0)
    return None


def serialize_grammar(g: LinearGrammar) -> str:
    """Canonical text: fixed section order, sorted symbols and productions."""
    out = ["grammar", f"start {g._start}"]
    out.append(" ".join(["terminals", *sorted(g._terminals)]).rstrip())
    out.append(" ".join(["variables", g._start, *sorted(g._variables - {g._start})]))
    text: dict = {}  # each distinct rule's body text, built once: many heads share a rule
    out += (f"{v} -> {text.get(r) or text.setdefault(r, ' '.join(_body(r)) or EPS)}"
            for v, rules in g._rules.items() for r in rules)
    return "\n".join(out) + "\n"


# --- automaton format ---

_AUTO_DIRECTIVES = ("left", "right", "alphabet", "initial", "final")


def parse_automaton(text: str) -> LinearAutomaton:
    """Parse the automaton format; diagnostics carry a source span."""
    lines = _lines(text, "automaton")
    pools: dict[str, list[str]] = {d: [] for d in _AUTO_DIRECTIVES}
    cells: list[list[str]] = []
    for lineno, toks in lines:
        word = toks[0]
        if len(toks) > 2 and toks[2] == "->":
            # transition lines win over directives (see parse_grammar)
            if len(toks) < 4:
                raise ParseError("transition needs at least one target state",
                                 span=_span(text, lineno, 0))
            cells.append(toks if toks[1] != EPS else [word, LAMBDA, *toks[2:]])
        elif word in pools:
            pools[word] += toks[1:]
        else:
            raise ParseError(f"expected a directive or transition, got {word!r}",
                             span=_span(text, lineno, 0))
    try:
        return _started(_named(*pools.values(), cells))
    except LinlangError as exc:
        exc.span = _locate(text, lines, exc.subject, 2, (), last_declaration=False)
        raise


def _cells(m: LinearAutomaton):
    """(state, symbol as written, target names) per cell, in canonical order."""
    names = m._names
    for q, reads, lam in zip(names, m._reads, m._lam):
        for a, ts in reads.items():
            yield q, a, map(names.__getitem__, ts)
        if lam:
            yield q, EPS, map(names.__getitem__, lam)


def serialize_automaton(m: LinearAutomaton) -> str:
    """Canonical text: sorted directives, one transition line per cell."""
    names, left = m._names, m._left
    out = ["automaton"]
    for word, pool in (("alphabet", sorted(m.alphabet)), ("left", compress(names, left)),
                       ("right", [q for q, lft in zip(names, left) if not lft]),
                       ("initial", map(names.__getitem__, m._initial)),
                       ("final", map(names.__getitem__, sorted(m._final)))):
        out.append(" ".join([word, *pool]))
    out += (f"{q} {a} -> {' '.join(ts)}" for q, a, ts in _cells(m))
    return "\n".join(out) + "\n"


# --- DOT export ---

def to_dot(m: LinearAutomaton) -> str:
    """Graphviz text: circles for left states, boxes for right states,
    double borders on accepting states, point-node arrows into start states.
    """
    names, start = m._names, [m._names[q] for q in m._initial]
    lines = ["digraph {", "  rankdir=LR;"]
    lines += (f"  __start_{q} [shape=point, style=invis];" for q in start)
    for q, (name, left) in enumerate(zip(names, m._left)):
        if left:
            lines.append(f"  {name} [shape={'doublecircle' if q in m._final else 'circle'}];")
        else:
            lines.append(f"  {name} [shape=box{', peripheries=2' if q in m._final else ''}];")
    lines += (f"  __start_{q} -> {q};" for q in start)
    lines += (f'  {q} -> {t} [label="{a}"];' for q, a, ts in _cells(m) for t in ts)
    lines.append("}")
    return "\n".join(lines) + "\n"
