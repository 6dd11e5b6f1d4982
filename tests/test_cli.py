import io
import os
import subprocess
import sys
from pathlib import Path

import linlang
from linlang import enumerate_accepted, ndeg, parse_automaton, parse_grammar, to_lnf
from linlang import serialize_grammar
from linlang.cli import _build_parser, run
from linlang.corpus import load_fixture

from helpers import DATA, GOLDEN



def fixture_path(name: str) -> str:
    return str(DATA / name)


class TestAutoCommands:
    def test_simulate_trace_transcript(self, capsys):
        code = run(["auto", "simulate", "-i", fixture_path("ex_nla.lin"),
                    "--input", "abbaaaa", "--trace"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == ("(q0,abbaaaa)\n(p1,bbaaaa)\n(p2,bbaaa)\n(q1,bbaa)\n"
                       "(p1,baa)\n(p2,ba)\n(q1,b)\n(p1,eps)\n")

    def test_simulate_trace_is_stable(self, capsys):
        first = run(["auto", "simulate", "-i", fixture_path("ex_nla.lin"),
                     "--input", "abbaaaa", "--trace"])
        out1 = capsys.readouterr().out
        second = run(["auto", "simulate", "-i", fixture_path("ex_nla.lin"),
                      "--input", "abbaaaa", "--trace"])
        out2 = capsys.readouterr().out
        assert first == second == 0 and out1 == out2

    def test_simulate_reject_exit_code(self, capsys):
        code = run(["auto", "simulate", "-i", fixture_path("ex_nla.lin"),
                    "--input", "ba"])
        assert code == 1
        assert capsys.readouterr().out == "reject\n"

    def test_ndeg_of_dla(self, capsys):
        code = run(["auto", "ndeg", "-i", fixture_path("dla_anbn_ancn.lin")])
        assert code == 0
        assert capsys.readouterr().out == "0\n"

    def test_ndeg_requires_lambda_free(self, capsys):
        code = run(["auto", "ndeg", "-i", fixture_path("ex_nla.lin")])
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_enum_matches_library(self, capsys):
        code = run(["auto", "enum", "-i", fixture_path("dla_anbn_ancn.lin"),
                    "--max-len", "4"])
        assert code == 0
        m = load_fixture("dla_anbn_ancn").payload
        want = "".join(f"{w}\n" for w in enumerate_accepted(m, 4))
        assert capsys.readouterr().out == want

    def test_enum_prints_eps_for_empty_word(self, capsys):
        code = run(["auto", "enum", "-i", fixture_path("palindrome_even.lin"),
                    "--max-len", "2"])
        assert code == 0
        assert capsys.readouterr().out == "eps\naa\nbb\n"

    def test_is_det_exit_codes(self, capsys):
        assert run(["auto", "is-det", "-i", fixture_path("dla_anbn_ancn.lin")]) == 0
        assert capsys.readouterr().out == "true\n"
        assert run(["auto", "is-det", "-i", fixture_path("ex_nla.lin")]) == 1
        assert capsys.readouterr().out == "false\n"

    def test_is_determinizable_reports_witness(self, capsys):
        code = run(["auto", "is-determinizable", "-i", fixture_path("lk_2.lin")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "false\n"
        assert "mixed subset: {p1, q1}" in captured.err

    def test_is_determinizable_names_a_shortest_word(self, capsys, tmp_path):
        assert run(["auto", "is-determinizable", "-i", fixture_path("lk_2.lin")]) == 1
        assert capsys.readouterr().err == ("mixed subset: {p1, q1}\n"
                                           "shortest word reaching it: b\n")
        # {q1, r} is reached by ab, aaab, ...; the shortest word is named
        path = tmp_path / "late_mix.lin"
        path.write_text("automaton\nalphabet a b\nleft q0 q1 q2\nright r\n"
                        "initial q0\nfinal r\nq0 a -> q1 q2\nq1 b -> q1 r\n"
                        "q2 a -> q0\n")
        assert run(["auto", "is-determinizable", "-i", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "false\n"
        assert captured.err == "mixed subset: {q1, r}\nshortest word reaching it: ab\n"
        assert run(["auto", "is-determinizable", "-i", fixture_path("dla_anbn_ancn.lin")]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("true\n", "")

    def test_is_determinizable_word_puts_right_reads_at_the_right_end(self, capsys, tmp_path):
        # the right state r0 reads a from the right end, then the left state l
        # reads b from the left end, so the word is ba, not the read order ab
        path = tmp_path / "right_first.lin"
        path.write_text("automaton\nalphabet a b\nleft l\nright r0 r1\n"
                        "initial r0\nfinal r1\nr0 a -> l\nl b -> l r1\n")
        assert run(["auto", "is-determinizable", "-i", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "false\n"
        assert captured.err == "mixed subset: {l, r1}\nshortest word reaching it: ba\n"

    def test_is_determinizable_says_when_no_word_reaches_the_subset(self, capsys, tmp_path):
        # {p, r} is only reached from the mixed subset {r, s}
        path = tmp_path / "mixed_only.lin"
        path.write_text("automaton\nalphabet a b\nleft p s\nright r\n"
                        "initial s\nfinal p\ns a -> r s\ns b -> r\nr b -> p\n")
        assert run(["auto", "is-determinizable", "-i", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "false\n"
        assert captured.err == ("mixed subset: {p, r}\nshortest word reaching it: "
                                "none: every path to it passes another mixed subset\n")

    def test_elim_lambda_output_parses(self, capsys):
        code = run(["auto", "elim-lambda", "-i", fixture_path("ex_nla.lin")])
        assert code == 0
        m = parse_automaton(capsys.readouterr().out)
        assert not m.has_lambda_moves

    def test_determinize_strict_diagnostic(self, capsys, tmp_path):
        text = ("automaton\nalphabet a\nleft q0 q1\nright\ninitial q0 q1\n"
                "final q0\nq0 a -> q0\n")
        path = tmp_path / "two_starts.lin"
        path.write_text(text)
        code = run(["auto", "determinize", "--strict", "-i", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "2 start states" in captured.err
        assert parse_automaton(captured.out)

    def test_determinize_mixed_is_precondition_error(self, capsys):
        code = run(["auto", "determinize", "-i", fixture_path("lk_1.lin")])
        assert code == 3


class TestGrammarCommands:
    def test_check_reports_counts(self, capsys):
        code = run(["grammar", "check", "-i", fixture_path("ex_lg.grm")])
        assert code == 0
        assert capsys.readouterr().out == "ok: 1 variables, 2 terminals, 6 productions\n"

    def test_classify_lists_all_variables(self, capsys):
        code = run(["grammar", "classify", "-i", fixture_path("ex_lnf.grm")])
        assert code == 0
        assert capsys.readouterr().out == "S right-linear\nA left-linear\n"

    def test_lnf_matches_library(self, capsys):
        code = run(["grammar", "lnf", "-i", fixture_path("ex_lg.grm")])
        assert code == 0
        g = parse_grammar((DATA / "ex_lg.grm").read_text())
        assert capsys.readouterr().out == serialize_grammar(to_lnf(g))

    def test_enum(self, capsys):
        code = run(["grammar", "enum", "-i", fixture_path("ex_lg.grm"),
                    "--max-len", "4"])
        assert code == 0
        assert capsys.readouterr().out == "ab\nabb\naabb\nabbb\n"

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "bad.grm"
        path.write_text("grammar\nstart S\nvariables S\nS -> a\n")
        code = run(["grammar", "check", "-i", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error at" in captured.err


class TestConvertAndGen:
    def test_det_g2dla(self, capsys):
        code = run(["convert", "det-g2dla", "-i", fixture_path("det_2_1.grm")])
        assert code == 0
        m = parse_automaton(capsys.readouterr().out)
        assert ndeg(m) == 0

    def test_det_g2dla_precondition(self, capsys):
        code = run(["convert", "det-g2dla", "-i", fixture_path("ex_lg.grm")])
        assert code == 3

    def test_gen_lk_matches_fixture(self, capsys):
        code = run(["gen", "lk", "--k", "3"])
        assert code == 0
        assert capsys.readouterr().out == (DATA / "lk_3.lin").read_text()

    def test_pipeline_g2a_a2g(self, capsys, tmp_path):
        mid = tmp_path / "mid.lin"
        assert run(["convert", "g2a", "-i", fixture_path("even_palindrome.grm"),
                    "-o", str(mid)]) == 0
        code = run(["convert", "a2g", "-i", str(mid)])
        assert code == 0
        assert parse_grammar(capsys.readouterr().out)


class TestEquiv:
    def test_equal_languages(self, capsys):
        code = run(["equiv", "g", fixture_path("ex_lg.grm"),
                    "g", fixture_path("ex_lnf.grm"), "--max-len", "10"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_lambda_is_the_sole_disagreement(self, capsys):
        code = run(["equiv", "g", fixture_path("ex_lg.grm"),
                    "a", fixture_path("lk_2.lin"), "--max-len", "12"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "> eps\n"
        assert "differ on 1 words" in captured.err


class TestExport:
    def test_dot_golden(self, capsys):
        code = run(["export", "dot", "-i", fixture_path("palindrome_even.lin")])
        assert code == 0
        assert capsys.readouterr().out == (GOLDEN / "palindrome_even.dot").read_text()


class TestStdin:
    def test_reads_from_stdin_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO((DATA / "ex_lg.grm").read_text()))
        code = run(["grammar", "check"])
        assert code == 0
        assert capsys.readouterr().out.startswith("ok:")

    def test_usage_error(self, capsys):
        assert run(["grammar", "no-such-action"]) == 2


class TestProcess:
    def test_parser_is_built_once_and_survives_a_usage_error(self, capsys):
        assert _build_parser() is _build_parser()
        assert run(["gen", "lk", "--k", "x"]) == 2
        capsys.readouterr()
        assert run(["grammar", "check", "-i", fixture_path("ex_lg.grm")]) == 0
        assert capsys.readouterr() == ("ok: 1 variables, 2 terminals, 6 productions\n", "")

    def test_simulate_trace_streams_a_long_run(self):
        # the run of a^8000 b^16000 on lk_3 prints about 288M characters; printed
        # line by line the command's peak stays near the interpreter's own size.
        # A process that execs keeps its parent's peak in ru_maxrss, so the
        # command runs under a small Python parent, not under the test runner.
        cli = "import sys; from linlang.cli import run; sys.exit(run(sys.argv[1:]))"
        command = [sys.executable, "-c", cli, "auto", "simulate", "-i", fixture_path("lk_3.lin"),
                   "--input", "a" * 8000 + "b" * 16000, "--trace"]
        probe = ("import resource, subprocess, sys\n"
                 "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode\n"
                 "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        src = str(Path(linlang.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        child = subprocess.run([sys.executable, "-c", probe, *command],
                               capture_output=True, text=True, env=env, check=True)
        code, peak = map(int, child.stdout.split())
        peak_mib = peak / (2**20 if sys.platform == "darwin" else 2**10)
        assert code == 0
        assert peak_mib < 50, f"peak RSS {peak_mib:.0f} MiB"
