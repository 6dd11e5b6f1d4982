"""Benchmark harness for linlang: one process, one thread, one closed-loop client.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload membership|compile|enumerate \\
        --seed N --seconds S --trace 0|1

Each op starts only after the previous one returns.  The harness imports
``linlang`` from ``src/`` next to this directory and drives it through its
public functions on inputs made from ``--seed`` (see ``workloads.py``).

``--trace 0`` times whole rounds of ops until ``--seconds`` of op time and
at least MIN_OPS ops have passed, after one untimed warm-up round, and
reports the end-to-end metrics, with times rescaled to a reference machine
speed (see ``probe``).  ``--trace 1`` runs a fixed block of rounds
twice, untraced and then with a span around every public call, and reports
per-layer times and exact work counts; it ignores ``--seconds`` so that the
counts repeat exactly for a given seed.  Both modes check every op's output
outside the timed region and replay a fixed sample of ops through the
in-process CLI.  Human-readable lines come first; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import PUBLIC, Tracer, make_api
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

#: Set-ups per run, ``setup_s`` being their median: at least SETUP_MIN,
#: then more until SETUP_BUDGET_S seconds are spent or SETUP_MAX are done.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 7, 25, 1.0
#: Fewest timed ops, so that ``op_p90_ms`` leaves at least ten ops beyond it.
MIN_OPS = 100

#: Machine-speed probe.  On a shared host the speed this process gets drifts
#: by a fifth or more over minutes, and all op times drift with it.  The
#: probe is a fixed loop of tuple lookups in a set that allocates no
#: container, so it cannot trigger a garbage collection of the program's
#: objects.  After each timed op it runs until it has taken PROBE_SHARE of
#: the op's time; end-to-end times are rescaled, round by round, to the
#: speed at which one probe takes PROBE_REF_S.
_PROBE_KEYS = [(i, j) for i in range(50) for j in range(50)]
_PROBE_SET = set(_PROBE_KEYS[::2])
PROBE_REF_S = 1.25e-4
PROBE_SHARE = 0.03
#: Probes run before and after each set-up.
PROBE_BURST = 10


def probe() -> float:
    """Time of one pass of the probe loop."""
    t0 = time.perf_counter()
    hits = 0
    for key in _PROBE_KEYS:
        if key in _PROBE_SET:
            hits += 1
    return time.perf_counter() - t0


def speed_factor(samples: list[float]) -> float:
    """Factor that rescales times measured alongside ``samples`` to the
    reference speed."""
    return PROBE_REF_S / statistics.fmean(samples)


class Tally:
    """Ops attempted and failed, and the time spent checking them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self._reported = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self._reported < 5:
                self._reported += 1
                print(f"perfbench: failed {what}", file=sys.stderr)


def load_modules() -> dict[str, object]:
    """Import ``linlang`` afresh and return its layer modules by name."""
    for name in [n for n in sys.modules if n == "linlang" or n.startswith("linlang.")]:
        del sys.modules[name]
    pkg = importlib.import_module("linlang")
    if Path(pkg.__file__).resolve().parent != SRC / "linlang":
        raise SystemExit(f"perfbench: imported linlang from {pkg.__file__}, not {SRC}")
    return {layer: importlib.import_module(f"linlang.{layer}") for layer in PUBLIC}


def set_up(wl, tracer=None):
    """Import plus the workload's preparatory library calls, timed."""
    t0 = time.perf_counter()
    mods = load_modules()
    api = make_api(mods, tracer)
    state = wl.setup(api)
    return time.perf_counter() - t0, mods, api, state


def run_ops(wl, api, mods, state, ops, tally: Tally, tracer=None,
            probes: list[float] | None = None) -> list[float]:
    """Run ops back to back; return each op's wall time.  Checks are untimed.

    With ``probes``, the speed probe runs after each op and its times are
    appended there.
    """
    times = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(api, state, op)
            else:
                out = tracer.run_op(tally.attempted, f"op.{wl.name}", wl.run,
                                    api, state, op)
        except Exception:
            traceback.print_exc()
            out, ok = None, False
        else:
            ok = True
        times.append(time.perf_counter() - t0)
        if probes is not None:
            spent = 0.0
            while spent < PROBE_SHARE * times[-1] or spent == 0.0:
                probes.append(probe())
                spent += probes[-1]
        c0 = time.perf_counter()
        try:
            ok = ok and bool(wl.check(mods, state, op, out))
        except Exception:
            traceback.print_exc()
            ok = False
        tally.check_s += time.perf_counter() - c0
        tally.record(ok, f"{wl.name} op {op!r:.200}")
        del out
    return times


def cli_slice(wl, state, ops, api, raw_api, tally: Tally) -> tuple[float, float]:
    """Replay a fixed sample of ops through ``linlang.cli.run`` in-process.

    Exit code and stdout must equal those built from direct library calls.
    Returns the time in ``cli.run`` and in the direct calls.
    """
    cases = [(op, case) for op in ops
             if (case := wl.cli_case(state, op)) is not None][:wl.cli_sample]
    t_cli = t_direct = 0.0
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for op, (argv, stdin, files) in cases:
            paths = {}
            for name, text in files.items():
                path = Path(tmp) / name
                path.write_text(text, encoding="utf-8")
                paths[name] = str(path)
            argv = [paths.get(a, a) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
            try:
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = api.cli_run(argv)
                t1 = time.perf_counter()
                want = wl.cli_direct(raw_api, state, op)
                t2 = time.perf_counter()
            except Exception:
                traceback.print_exc()
                tally.record(False, f"cli {argv!r:.200}")
                continue
            finally:
                sys.stdin = saved_stdin
            t_cli += t1 - t0
            t_direct += t2 - t1
            tally.record((code, out.getvalue()) == want, f"cli {argv!r:.200}")
    return t_cli, t_direct


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def emit(tally: Tally, metrics: dict[str, tuple[float, str]], notes: list[str]) -> None:
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


def measure(wl, seed: int, seconds: float) -> None:
    tally = Tally()
    setups: list[float] = []
    setups_ref: list[float] = []
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_BUDGET_S
                                      and len(setups) < SETUP_MAX):
        # each set-up starts clean: the previous one's modules and objects
        # are collected here rather than inside the next timed set-up
        mods = api = state = None
        gc.collect()
        before = [probe() for _ in range(PROBE_BURST)]
        t, mods, api, state = set_up(wl)
        after = [probe() for _ in range(PROBE_BURST)]
        setups.append(t)
        setups_ref.append(t * speed_factor(before + after))
    c0 = time.perf_counter()
    wl.prepare_checks(mods, state)
    tally.check_s += time.perf_counter() - c0

    warm = wl.round(random.Random(f"{wl.name}:warm-up:{seed}"))
    run_ops(wl, api, mods, state, warm, tally)

    rng = random.Random(f"{wl.name}:timed:{seed}")
    times: list[float] = []  # wall time
    scaled: list[float] = []  # at reference speed
    rounds = 0
    while sum(times) < seconds or len(times) < MIN_OPS:
        probes: list[float] = []
        ts = run_ops(wl, api, mods, state, wl.round(rng), tally, probes=probes)
        factor = speed_factor(probes)
        times += ts
        scaled += [t * factor for t in ts]
        rounds += 1
    peak = peak_rss_mib()

    t_cli, t_direct = cli_slice(wl, state, warm, api, api, tally)
    p90 = percentile(scaled, 0.9)
    beyond = sum(t > p90 for t in scaled)
    emit(tally, {
        "ops_per_s": (len(scaled) / sum(scaled), "ops/s"),
        "op_p50_ms": (statistics.median(scaled) * 1000, "ms"),
        "op_p90_ms": (p90 * 1000, "ms"),
        "setup_s": (statistics.median(setups_ref), "s"),
        "peak_rss_mb": (peak, "MiB"),
    }, [
        f"workload {wl.name} seed {seed}: {len(times)} timed ops in {rounds} rounds "
        f"({sum(times):.3f} s of op time), {len(warm)} warm-up ops",
        f"samples {len(times)} ops, {beyond} beyond op_p90_ms; "
        f"setup_s is the median of {len(setups)} set-ups",
        f"times below are at reference speed (probe {PROBE_REF_S * 1e6:.0f} us); "
        f"machine speed {sum(scaled) / sum(times):.4f} of the reference; wall time: "
        f"ops_per_s {len(times) / sum(times):.6g} ops/s, "
        f"op_p50_ms {statistics.median(times) * 1000:.6g} ms, "
        f"op_p90_ms {percentile(times, 0.9) * 1000:.6g} ms, "
        f"setup_s {statistics.median(setups):.6g} s",
        f"fail_ratio {tally.failed / tally.attempted:.6g} ratio "
        f"({tally.failed} of {tally.attempted} ops, cli replay included)",
        f"bench.check.s {tally.check_s:.6g} s; cli.run.s {t_cli:.6g} s; "
        f"cli.overhead.s {t_cli - t_direct:.6g} s",
    ])


def measure_traced(wl, seed: int) -> None:
    tally = Tally()
    tracer = Tracer()
    tracer.op = "setup"
    _, mods, api, state = set_up(wl, tracer)
    tracer.op = None
    raw = make_api(mods, None)
    c0 = time.perf_counter()
    wl.prepare_checks(mods, state)
    tally.check_s += time.perf_counter() - c0

    warm = wl.round(random.Random(f"{wl.name}:warm-up:{seed}"))
    run_ops(wl, raw, mods, state, warm, tally)
    rng = random.Random(f"{wl.name}:block:{seed}")
    block = [op for _ in range(wl.trace_rounds) for op in wl.round(rng)]
    # each op runs untraced and traced back to back, alternating which goes
    # first, so that drifts in machine speed cancel out of the difference
    untraced = traced = 0.0
    for i, op in enumerate(block):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                traced += run_ops(wl, api, mods, state, [op], tally, tracer)[0]
            else:
                untraced += run_ops(wl, raw, mods, state, [op], tally)[0]
    t_cli, t_direct = cli_slice(wl, state, warm, api, raw, tally)

    c = tracer.counts
    metrics: dict[str, tuple[float, str]] = {}
    for layer, names in PUBLIC.items():
        for fn in names:
            metrics[f"{layer}.{fn}.s"] = (tracer.total(f"{layer}.{fn}"), "s")
    metrics["grammar.to_slnf.self_s"] = (
        tracer.nested_self("grammar.to_slnf", "grammar.to_lnf"), "s")
    metrics["convert.grammar_to_nla.self_s"] = (
        tracer.nested_self("convert.grammar_to_nla", "grammar.to_slnf"), "s")
    metrics["cli.overhead.s"] = (t_cli - t_direct, "s")
    decisions = c["automaton.decisions"]
    metrics["automaton.accept_ratio"] = (
        c["automaton.accepted"] / decisions if decisions else 0.0, "ratio")
    for name in ("automaton.symbols", "automaton.dfa_states", "automaton.words",
                 "grammar.lnf_productions", "grammar.slnf_productions",
                 "grammar.slnf_variables", "grammar.words", "convert.nla_states",
                 "convert.nla_cells", "convert.a2g_productions", "textio.bytes"):
        metrics[name] = (c[name], "count")
    for layer in PUBLIC:
        metrics[f"{layer}.errors"] = (c[f"{layer}.errors"], "count")
    metrics["bench.check.s"] = (tally.check_s, "s")
    metrics["bench.trace_overhead"] = (traced - untraced, "s")
    metrics["bench.ops"] = (len(block), "count")

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{wl.name}-{seed}.jsonl"
    tracer.dump(spans)
    per_layer = {name: metrics[name] for name in PER_LAYER}
    notes = [f"workload {wl.name} seed {seed}: traced block of {len(block)} ops "
             f"({wl.trace_rounds} rounds), {untraced:.6g} s untraced, "
             f"{traced:.6g} s traced; {len(tracer.spans)} spans in "
             f"{spans.relative_to(BENCH.parent)}; per-layer times are wall time"]
    notes += [f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}"
              for name, (value, unit) in metrics.items() if name not in per_layer]
    emit(tally, per_layer, notes)


#: Per-layer metrics in the JSON line of a traced run, as listed in
#: BENCHMARK.json: exact counts, which repeat for a given seed, and the times
#: every workload exercises.  Per-function times are printed above the line.
PER_LAYER = (
    "automaton.symbols", "automaton.accept_ratio", "automaton.dfa_states",
    "automaton.words", "grammar.lnf_productions", "grammar.slnf_productions",
    "grammar.slnf_variables", "grammar.words", "convert.nla_states",
    "convert.nla_cells", "convert.a2g_productions", "textio.bytes",
    "automaton.errors", "grammar.errors", "convert.errors", "textio.errors",
    "hierarchy.errors", "corpus.errors", "cli.errors",
    "cli.run.s", "cli.overhead.s", "bench.check.s", "bench.trace_overhead",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "linlang" / "__init__.py").is_file():
        print(f"perfbench: no linlang package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](random.Random(f"{args.workload}:inputs:{args.seed}"))
    if args.trace:
        measure_traced(wl, args.seed)
    else:
        measure(wl, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
