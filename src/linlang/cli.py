"""Command-line front end over the text formats.

Exit codes: 0 success (or a true check), 1 a false check or a bounded-language
difference, 2 usage or parse errors, 3 precondition violations.  Diagnostics
go to stderr; machine-readable results to stdout.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import automaton as auto_ops
from . import convert, grammar as grammar_ops, hierarchy, textio
from .errors import (
    HasLambdaMoves,
    LinlangError,
    NotDeterminizable,
    NotDeterministicLinear,
    NotEven,
    NotEvenLinear,
    SymbolNotInAlphabet,
)
from .naming import EPS

_PRECONDITION_ERRORS = (HasLambdaMoves, NotDeterminizable, NotDeterministicLinear,
                        NotEven, NotEvenLinear, SymbolNotInAlphabet)


def _read(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _show(word: str) -> str:
    return word if word else EPS


def _words(kind: str, text: str, max_len: int) -> list[str]:
    if kind == "g":
        return grammar_ops.enumerate_language(textio.parse_grammar(text), max_len)
    return auto_ops.enumerate_accepted(textio.parse_automaton(text), max_len)


def _transform(parse, op, serialize):
    """Handler for a command that turns its one input file into one text."""
    def handler(args) -> int:
        _write(args.output_file, serialize(op(parse(_read(args.input_file)))))
        return 0
    return handler


def _reads(parse):
    """Turn ``report(obj, args) -> status`` into a handler that parses the input first."""
    def wrap(report):
        return lambda args: report(parse(_read(args.input_file)), args)
    return wrap


@_reads(textio.parse_grammar)
def _grammar_check(g, args) -> int:
    print(f"ok: {len(g.variables)} variables, {len(g.terminals)} terminals, "
          f"{sum(map(len, g._rules.values()))} productions")  # no Production is built
    return 0


@_reads(textio.parse_grammar)
def _classify(g, args) -> int:
    for v in g.sorted_variables():
        print(f"{v.name} {grammar_ops.classify_variable(g, v).value}")
    return 0


def _enum(kind: str, args) -> int:
    for w in _words(kind, _read(args.input_file), args.max_len):
        print(_show(w))
    return 0


@_reads(textio.parse_automaton)
def _auto_check(m, args) -> int:
    print(f"ok: {len(m.states)} states, {len(m.delta)} transition cells")
    return 0


@_reads(textio.parse_automaton)
def _simulate(m, args) -> int:
    word = "" if args.input == EPS else args.input
    if not args.trace:
        ok = auto_ops.accepts(m, word)
        print("accept" if ok else "reject")
        return 0 if ok else 1
    run = auto_ops._search(m, word)
    if run is None:
        print("reject")
        return 1
    # one line at a time: the run's substrings together hold about n^2/2 characters
    for state, lo, hi in run:
        print(f"({state},{_show(word[lo:hi])})")
    return 0


def _verdict(test):
    """Handler printing whether the input automaton passes ``test``; status 1 if not."""
    @_reads(textio.parse_automaton)
    def handler(m, args) -> int:
        ok = test(m)
        print("true" if ok else "false")
        return 0 if ok else 1
    return handler


def _determinizable(m: auto_ops.LinearAutomaton) -> bool:
    """``is_determinizable``, naming a mixed subset and a shortest word reaching it."""
    witness = auto_ops.mixed_subset_witness(m)
    if witness:
        members, word = witness
        print(f"mixed subset: {{{', '.join(members)}}}", file=sys.stderr)
        word = (_show(word) if word is not None
                else "none: every path to it passes another mixed subset")
        print(f"shortest word reaching it: {word}", file=sys.stderr)
    return witness is None


@_reads(textio.parse_automaton)
def _determinize(m, args) -> int:
    if args.strict and len(m.initial) > 1:
        print(f"strict: automaton has {len(m.initial)} start states", file=sys.stderr)
    _write(args.output_file, textio.serialize_automaton(auto_ops.determinize(m)))
    return 0


@_reads(textio.parse_automaton)
def _ndeg(m, args) -> int:
    print(auto_ops.ndeg(m))
    return 0


def _gen_lk(args) -> int:
    _write(args.output_file, textio.serialize_automaton(hierarchy.build_lk_automaton(args.k)))
    return 0


def _equiv(args) -> int:
    first = set(_words(args.kind1, _read(args.file1), args.max_len))
    second = set(_words(args.kind2, _read(args.file2), args.max_len))
    only_first = sorted(first - second, key=lambda w: (len(w), w))
    only_second = sorted(second - first, key=lambda w: (len(w), w))
    for w in only_first:
        print(f"< {_show(w)}")
    for w in only_second:
        print(f"> {_show(w)}")
    if only_first or only_second:
        print(f"languages differ on {len(only_first) + len(only_second)} "
              f"words up to length {args.max_len}", file=sys.stderr)
        return 1
    return 0


def _add_io(p: argparse.ArgumentParser, handler, output: bool = True) -> argparse.ArgumentParser:
    p.add_argument("-i", "--input-file", metavar="PATH", default=None,
                   help="input file (default: stdin)")
    if output:
        p.add_argument("-o", "--output-file", metavar="PATH", default=None,
                       help="output file (default: stdout)")
    p.set_defaults(handler=handler)
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every later ``run``."""
    grm, lin = textio.parse_grammar, textio.parse_automaton
    to_grm, to_lin = textio.serialize_grammar, textio.serialize_automaton
    top = argparse.ArgumentParser(prog="linlang")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grammar", help="operations on grammar files")
    gsub = g.add_subparsers(dest="action", required=True)
    _add_io(gsub.add_parser("check"), _grammar_check, output=False)
    _add_io(gsub.add_parser("classify"), _classify, output=False)
    for name, op in (("lnf", grammar_ops.to_lnf), ("slnf", grammar_ops.to_slnf),
                     ("even-nf", grammar_ops.to_even_normal_form)):
        _add_io(gsub.add_parser(name), _transform(grm, op, to_grm))
    ge = _add_io(gsub.add_parser("enum"), functools.partial(_enum, "g"), output=False)
    ge.add_argument("--max-len", type=int, required=True)

    a = sub.add_parser("auto", help="operations on automaton files")
    asub = a.add_subparsers(dest="action", required=True)
    _add_io(asub.add_parser("check"), _auto_check, output=False)
    asim = _add_io(asub.add_parser("simulate"), _simulate, output=False)
    asim.add_argument("--input", required=True, metavar="WORD",
                      help=f"word to run ({EPS} for the empty word)")
    asim.add_argument("--trace", action="store_true",
                      help="print one accepting run")
    aen = _add_io(asub.add_parser("enum"), functools.partial(_enum, "a"), output=False)
    aen.add_argument("--max-len", type=int, required=True)
    _add_io(asub.add_parser("elim-lambda"), _transform(lin, auto_ops.eliminate_lambda, to_lin))
    for name, test in (("is-det", auto_ops.is_deterministic), ("is-even", auto_ops.is_even),
                       ("is-determinizable", _determinizable)):
        _add_io(asub.add_parser(name), _verdict(test), output=False)
    adet = _add_io(asub.add_parser("determinize"), _determinize)
    adet.add_argument("--strict", action="store_true",
                      help="warn when the automaton has several start states")
    _add_io(asub.add_parser("ndeg"), _ndeg, output=False)

    c = sub.add_parser("convert", help="grammar/automaton constructions")
    csub = c.add_subparsers(dest="action", required=True)
    for name, parse, op, serialize in (
            ("g2a", grm, convert.grammar_to_nla, to_lin),
            ("a2g", lin, convert.nla_to_grammar, to_grm),
            ("det-g2dla", grm, convert.det_grammar_to_dla, to_lin),
            ("even-g2a", grm, convert.even_grammar_to_nla, to_lin),
            ("even-a2g", lin, convert.even_nla_to_grammar, to_grm)):
        _add_io(csub.add_parser(name), _transform(parse, op, serialize))

    gen = sub.add_parser("gen", help="generate built-in families")
    gensub = gen.add_subparsers(dest="action", required=True)
    lk = gensub.add_parser("lk")
    lk.add_argument("--k", type=int, required=True)
    lk.add_argument("-o", "--output-file", metavar="PATH", default=None)
    lk.set_defaults(handler=_gen_lk)

    eq = sub.add_parser("equiv", help="bounded language comparison")
    eq.add_argument("kind1", choices=("g", "a"))
    eq.add_argument("file1")
    eq.add_argument("kind2", choices=("g", "a"))
    eq.add_argument("file2")
    eq.add_argument("--max-len", type=int, required=True)
    eq.set_defaults(handler=_equiv)

    ex = sub.add_parser("export", help="diagram export")
    exsub = ex.add_subparsers(dest="action", required=True)
    _add_io(exsub.add_parser("dot"), _transform(lin, textio.to_dot, str))
    return top


def run(argv: list[str]) -> int:
    """Dispatch one command line; returns the exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LinlangError as exc:
        where = f" at {exc.span}" if exc.span else ""
        print(f"error{where}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:  # pragma: no cover
    sys.exit(run(sys.argv[1:]))
