"""Command-line front end over the text formats.

Exit codes: 0 success (or a true check), 1 a false check or a bounded-language
difference, 2 usage or parse errors, 3 precondition violations.  Diagnostics
go to stderr; machine-readable results to stdout.
"""

from __future__ import annotations

import argparse
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


def _add_io(p: argparse.ArgumentParser, output: bool = True) -> None:
    p.add_argument("-i", "--input-file", metavar="PATH", default=None,
                   help="input file (default: stdin)")
    if output:
        p.add_argument("-o", "--output-file", metavar="PATH", default=None,
                       help="output file (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="linlang")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grammar", help="operations on grammar files")
    gsub = g.add_subparsers(dest="action", required=True)
    for name in ("check", "classify"):
        _add_io(gsub.add_parser(name), output=False)
    for name in ("lnf", "slnf", "even-nf"):
        _add_io(gsub.add_parser(name))
    ge = gsub.add_parser("enum")
    _add_io(ge, output=False)
    ge.add_argument("--max-len", type=int, required=True)

    a = sub.add_parser("auto", help="operations on automaton files")
    asub = a.add_subparsers(dest="action", required=True)
    _add_io(asub.add_parser("check"), output=False)
    asim = asub.add_parser("simulate")
    _add_io(asim, output=False)
    asim.add_argument("--input", required=True, metavar="WORD",
                      help=f"word to run ({EPS} for the empty word)")
    asim.add_argument("--trace", action="store_true",
                      help="print one accepting run")
    aen = asub.add_parser("enum")
    _add_io(aen, output=False)
    aen.add_argument("--max-len", type=int, required=True)
    _add_io(asub.add_parser("elim-lambda"))
    for name in ("is-det", "is-even", "is-determinizable"):
        _add_io(asub.add_parser(name), output=False)
    adet = asub.add_parser("determinize")
    _add_io(adet)
    adet.add_argument("--strict", action="store_true",
                      help="warn when the automaton has several start states")
    _add_io(asub.add_parser("ndeg"), output=False)

    c = sub.add_parser("convert", help="grammar/automaton constructions")
    csub = c.add_subparsers(dest="action", required=True)
    for name in ("g2a", "a2g", "det-g2dla", "even-g2a", "even-a2g"):
        _add_io(csub.add_parser(name))

    gen = sub.add_parser("gen", help="generate built-in families")
    gensub = gen.add_subparsers(dest="action", required=True)
    lk = gensub.add_parser("lk")
    lk.add_argument("--k", type=int, required=True)
    lk.add_argument("-o", "--output-file", metavar="PATH", default=None)

    eq = sub.add_parser("equiv", help="bounded language comparison")
    eq.add_argument("kind1", choices=("g", "a"))
    eq.add_argument("file1")
    eq.add_argument("kind2", choices=("g", "a"))
    eq.add_argument("file2")
    eq.add_argument("--max-len", type=int, required=True)

    ex = sub.add_parser("export", help="diagram export")
    exsub = ex.add_subparsers(dest="action", required=True)
    _add_io(exsub.add_parser("dot"))
    return top


def _load_grammar(args) -> grammar_ops.LinearGrammar:
    return textio.parse_grammar(_read(args.input_file))


def _load_automaton(args) -> auto_ops.LinearAutomaton:
    return textio.parse_automaton(_read(args.input_file))


def _enumerate_path(kind: str, path: str, max_len: int) -> list[str]:
    text = _read(path)
    if kind == "g":
        return grammar_ops.enumerate_language(textio.parse_grammar(text), max_len)
    return auto_ops.enumerate_accepted(textio.parse_automaton(text), max_len)


def _run_grammar(args) -> int:
    if args.action == "check":
        g = _load_grammar(args)
        print(f"ok: {len(g.variables)} variables, {len(g.terminals)} terminals, "
              f"{len(g.productions)} productions")
        return 0
    if args.action == "classify":
        g = _load_grammar(args)
        for v in g.sorted_variables():
            print(f"{v.name} {grammar_ops.classify_variable(g, v).value}")
        return 0
    if args.action == "enum":
        g = _load_grammar(args)
        for w in grammar_ops.enumerate_language(g, args.max_len):
            print(_show(w))
        return 0
    g = _load_grammar(args)
    op = {"lnf": grammar_ops.to_lnf, "slnf": grammar_ops.to_slnf,
          "even-nf": grammar_ops.to_even_normal_form}[args.action]
    _write(args.output_file, textio.serialize_grammar(op(g)))
    return 0


def _run_auto(args) -> int:
    m = _load_automaton(args)
    if args.action == "check":
        print(f"ok: {len(m.states)} states, {len(m.delta)} transition cells")
        return 0
    if args.action == "simulate":
        word = "" if args.input == EPS else args.input
        if args.trace:
            run = auto_ops.trace(m, word)
            if run is None:
                print("reject")
                return 1
            for state, rest in run:
                print(f"({state},{_show(rest)})")
            return 0
        ok = auto_ops.accepts(m, word)
        print("accept" if ok else "reject")
        return 0 if ok else 1
    if args.action == "enum":
        for w in auto_ops.enumerate_accepted(m, args.max_len):
            print(_show(w))
        return 0
    if args.action == "elim-lambda":
        _write(args.output_file, textio.serialize_automaton(auto_ops.eliminate_lambda(m)))
        return 0
    if args.action == "is-det":
        ok = auto_ops.is_deterministic(m)
    elif args.action == "is-even":
        ok = auto_ops.is_even(m)
    elif args.action == "is-determinizable":
        witness = auto_ops.mixed_subset_witness(m)
        ok = witness is None
        if witness:
            members, word = witness
            print(f"mixed subset: {{{', '.join(members)}}}", file=sys.stderr)
            if word is None:
                word = "none: every path to it passes another mixed subset"
            else:
                word = _show(word)
            print(f"shortest word reaching it: {word}", file=sys.stderr)
    elif args.action == "determinize":
        if args.strict and len(m.initial) > 1:
            print(f"strict: automaton has {len(m.initial)} start states",
                  file=sys.stderr)
        _write(args.output_file, textio.serialize_automaton(auto_ops.determinize(m)))
        return 0
    elif args.action == "ndeg":
        print(auto_ops.ndeg(m))
        return 0
    else:  # pragma: no cover
        raise AssertionError(args.action)
    print("true" if ok else "false")
    return 0 if ok else 1


def _run_convert(args) -> int:
    if args.action == "a2g":
        out = textio.serialize_grammar(convert.nla_to_grammar(_load_automaton(args)))
    elif args.action == "even-a2g":
        out = textio.serialize_grammar(convert.even_nla_to_grammar(_load_automaton(args)))
    elif args.action == "g2a":
        out = textio.serialize_automaton(convert.grammar_to_nla(_load_grammar(args)))
    elif args.action == "det-g2dla":
        out = textio.serialize_automaton(convert.det_grammar_to_dla(_load_grammar(args)))
    else:  # even-g2a
        out = textio.serialize_automaton(convert.even_grammar_to_nla(_load_grammar(args)))
    _write(args.output_file, out)
    return 0


def _run_equiv(args) -> int:
    first = set(_enumerate_path(args.kind1, args.file1, args.max_len))
    second = set(_enumerate_path(args.kind2, args.file2, args.max_len))
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


def run(argv: list[str]) -> int:
    """Dispatch one command line; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "grammar":
            return _run_grammar(args)
        if args.command == "auto":
            return _run_auto(args)
        if args.command == "convert":
            return _run_convert(args)
        if args.command == "gen":
            _write(args.output_file,
                   textio.serialize_automaton(hierarchy.build_lk_automaton(args.k)))
            return 0
        if args.command == "equiv":
            return _run_equiv(args)
        if args.command == "export":
            _write(args.output_file, textio.to_dot(_load_automaton(args)))
            return 0
        raise AssertionError(args.command)  # pragma: no cover
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
