"""Golden transcript of the command-line front end.

``golden/cli.txt`` pins what ``linlang.cli.run`` does on every command family
and each corpus fixture the family applies to, and on each error path: one
record per command line with its argv, its stdin (if any), the exit code,
stdout and stderr, and the file an ``-o`` case writes.  The commands run in a
scratch directory holding a copy of the corpus files, so fixture paths are
written relative to the corpus directory and the file does not depend on the
working directory.  argparse words its usage errors differently from one
Python version to the next, so a usage error records only its exit code, its
stdout and whether stderr is empty.  After an intended output change,
regenerate the file with
``PYTHONPATH=src:tests python tests/test_cli_transcript.py > tests/golden/cli.txt``.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from typing import NamedTuple

from linlang.cli import run

from helpers import DATA, GOLDEN

ENUM_LEN = "6"

GRAMMAR_COMMANDS = (
    ["grammar", "check"], ["grammar", "classify"], ["grammar", "lnf"],
    ["grammar", "slnf"], ["grammar", "even-nf"], ["grammar", "enum", "--max-len", ENUM_LEN],
    ["convert", "g2a"], ["convert", "det-g2dla"], ["convert", "even-g2a"],
)

AUTOMATON_COMMANDS = (
    ["auto", "check"], ["auto", "enum", "--max-len", ENUM_LEN], ["auto", "elim-lambda"],
    ["auto", "is-det"], ["auto", "is-even"], ["auto", "is-determinizable"],
    ["auto", "determinize"], ["auto", "ndeg"],
    ["convert", "a2g"], ["convert", "even-a2g"], ["export", "dot"],
)

#: a member and a non-member of each corpus automaton's language
WORDS = {
    "dla_anbn_ancn": ("aaaccc", "aabc"),
    "ex_nla": ("abbaaaa", "ba"),
    "lk_0": ("aabb", "ba"),
    **{f"lk_{k}": ("aabbb", "ba") for k in range(1, 7)},
    "nla_homogeneous": ("ababcc", "abcc"),
    "palindrome_all": ("ababa", "ab"),
    "palindrome_even": ("abba", "aba"),
}

BAD_GRAMMAR = "grammar\nstart S\nvariables S\nS -> a\n"
UNDECLARED_STATE = ("automaton\nalphabet a\nleft q0\nright\ninitial q0\nfinal q0\n"
                    "q0 a -> q9\n")


class Case(NamedTuple):
    argv: list[str]
    stdin: str | None = None
    usage: bool = False  # record only whether stderr is empty
    writes: str | None = None  # the file an -o case writes


def cases() -> list[Case]:
    out = []
    for path in sorted(DATA.glob("*.grm")):
        out += [Case([*cmd[:2], "-i", path.name, *cmd[2:]]) for cmd in GRAMMAR_COMMANDS]
    for path in sorted(DATA.glob("*.lin")):
        member, other = WORDS[path.stem]
        simulate = ["auto", "simulate", "-i", path.name, "--input"]
        out += [Case(simulate + [member]), Case(simulate + [member, "--trace"]),
                Case(simulate + [other]), Case(simulate + [other, "--trace"])]
        out += [Case([*cmd[:2], "-i", path.name, *cmd[2:]]) for cmd in AUTOMATON_COMMANDS]
    out += [
        Case(["auto", "simulate", "-i", "palindrome_even.lin", "--input", "eps", "--trace"]),
        Case(["auto", "determinize", "--strict", "-i", "nla_homogeneous.lin"]),
        *(Case(["gen", "lk", "--k", str(k)]) for k in range(4)),
        Case(["gen", "lk", "--k", "2", "-o", "out.lin"], writes="out.lin"),
        Case(["convert", "g2a", "-i", "ex_lg.grm", "-o", "out.lin"], writes="out.lin"),
        Case(["equiv", "g", "ex_lg.grm", "g", "ex_lnf.grm", "--max-len", "10"]),
        Case(["equiv", "g", "ex_lg.grm", "a", "lk_2.lin", "--max-len", "8"]),
        Case(["grammar", "check"], stdin=(DATA / "ex_lg.grm").read_text()),
        # error paths
        Case(["grammar", "check"], stdin=BAD_GRAMMAR),
        Case(["auto", "check", "-i", "-"], stdin=UNDECLARED_STATE),
        Case(["auto", "simulate", "-i", "ex_nla.lin", "--input", "abc"]),
        Case(["grammar", "enum", "-i", "ex_lg.grm", "--max-len", "-1"]),
        Case(["gen", "lk", "--k", "-1"]),
        Case(["auto", "check", "-i", "no-such-file.lin"]),
        Case(["grammar", "no-such-action"], usage=True),
        Case(["auto", "enum", "-i", "ex_nla.lin"], usage=True),
        Case(["gen", "lk", "--k", "x"], usage=True),
    ]
    return out


def _block(label: str, text: str) -> str:
    lines = text.count("\n")
    return f"{label}: {lines} lines\n{text}"


def _record(case: Case) -> str:
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(case.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(case.argv)
    finally:
        sys.stdin = saved_stdin
    parts = [f"## $ linlang {' '.join(case.argv)}\n"]
    if case.stdin is not None:
        parts.append(_block("stdin", case.stdin))
    parts.append(f"exit: {code}\n")
    parts.append(_block("stdout", out.getvalue()))
    if case.usage:
        parts.append(f"stderr: {'empty' if not err.getvalue() else 'not empty'}\n")
    else:
        parts.append(_block("stderr", err.getvalue()))
    if case.writes is not None:
        with open(case.writes, encoding="utf-8") as fh:
            parts.append(_block(f"file {case.writes}", fh.read()))
        os.remove(case.writes)
    return "".join(parts)


def render() -> str:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for path in (*DATA.glob("*.grm"), *DATA.glob("*.lin")):
            shutil.copy(path, tmp)
        os.chdir(tmp)
        try:
            return "".join(_record(case) for case in cases())
        finally:
            os.chdir(cwd)


def test_cli_transcript_golden():
    assert render() == (GOLDEN / "cli.txt").read_text()


if __name__ == "__main__":
    print(render(), end="")
