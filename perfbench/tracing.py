"""Spans and counts recorded around the benchmark's calls into ``linlang``.

The benchmark calls the library only through an ``Api`` namespace.  With
tracing off its attributes are the library functions themselves; with
tracing on each is wrapped to record a span (name, start, end, parent span,
op id) and the exact work counts derived from its arguments and result.
Spans stay in memory until the run ends.  Spans inside the package are not
recorded: a public function that calls another shows as one span.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from types import SimpleNamespace
from typing import Callable

#: Public functions the workloads call, by layer (the package's modules).
#: The api attribute is the function name, except ``cli.run`` -> ``cli_run``.
PUBLIC = {
    "automaton": ("accepts", "trace", "enumerate_accepted", "eliminate_lambda",
                  "determinize"),
    "grammar": ("to_lnf", "to_slnf", "enumerate_language"),
    "convert": ("grammar_to_nla", "nla_to_grammar"),
    "textio": ("parse_grammar", "parse_automaton", "serialize_grammar",
               "serialize_automaton"),
    "hierarchy": ("build_lk_automaton",),
    "corpus": ("load_fixture",),
    "cli": ("run",),
}


def _attr(layer: str, fn: str) -> str:
    return "cli_run" if layer == "cli" else fn


def _decided(c: Counter, args, accepted: bool) -> None:
    c["automaton.symbols"] += len(args[1])
    c["automaton.decisions"] += 1
    c["automaton.accepted"] += accepted


def _text_bytes(c: Counter, text: str) -> None:
    c["textio.bytes"] += len(text.encode())


#: Exact work counts per call, from arguments and result only.
COUNTERS: dict[str, Callable[[Counter, tuple, object], None]] = {
    "automaton.accepts": lambda c, a, r: _decided(c, a, bool(r)),
    "automaton.trace": lambda c, a, r: _decided(c, a, r is not None),
    "automaton.determinize": lambda c, a, r: c.update(
        {"automaton.dfa_states": len(r.states)}),
    "automaton.enumerate_accepted": lambda c, a, r: c.update(
        {"automaton.words": len(r)}),
    "grammar.to_lnf": lambda c, a, r: c.update(
        {"grammar.lnf_productions": len(r.productions)}),
    "grammar.to_slnf": lambda c, a, r: c.update(
        {"grammar.slnf_productions": len(r.productions),
         "grammar.slnf_variables": len(r.variables)}),
    "grammar.enumerate_language": lambda c, a, r: c.update(
        {"grammar.words": len(r)}),
    "convert.grammar_to_nla": lambda c, a, r: c.update(
        {"convert.nla_states": len(r.states), "convert.nla_cells": len(r.delta)}),
    "convert.nla_to_grammar": lambda c, a, r: c.update(
        {"convert.a2g_productions": len(r.productions)}),
    "textio.parse_grammar": lambda c, a, r: _text_bytes(c, a[0]),
    "textio.parse_automaton": lambda c, a, r: _text_bytes(c, a[0]),
    "textio.serialize_grammar": lambda c, a, r: _text_bytes(c, r),
    "textio.serialize_automaton": lambda c, a, r: _text_bytes(c, r),
}


def make_api(modules: dict[str, object], tracer: "Tracer | None") -> SimpleNamespace:
    """Namespace of the public functions, wrapped in spans when tracing."""
    api = SimpleNamespace()
    for layer, names in PUBLIC.items():
        for fn in names:
            raw = getattr(modules[layer], fn)
            wrapped = raw if tracer is None else tracer.wrap(f"{layer}.{fn}", raw)
            setattr(api, _attr(layer, fn), wrapped)
    return api


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, op)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, object] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op: object = None

    def _open(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, t0: float, parent: int | None) -> None:
        self.spans[idx] = (name, t0, time.perf_counter(), parent, self.op)
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        count = COUNTERS.get(name)

        def traced(*args):
            idx, parent = self._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args)
            except Exception:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                self._close(idx, name, t0, parent)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def run_op(self, op_id: object, name: str, fn: Callable, *args):
        """Run ``fn`` as the root span of one op."""
        self.op = op_id
        idx, parent = self._open()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, name, t0, parent)
            self.op = None

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def nested_self(self, outer: str, inner: str) -> float:
        """Self time of ``outer`` by subtraction: over every op that called
        both, the time of ``outer`` minus that of ``inner``, which ``outer``
        calls internally on the same argument."""
        per_op: dict[object, dict[str, float]] = {}
        for name, t0, t1, _, op in self.spans:
            if name in (outer, inner):
                d = per_op.setdefault(op, {})
                d[name] = d.get(name, 0.0) + (t1 - t0)
        return sum(d[outer] - d[inner] for d in per_op.values()
                   if outer in d and inner in d)

    def dump(self, path) -> None:
        t_base = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0 - t_base,
                                     "end": t1 - t_base, "parent": parent,
                                     "op": op}) + "\n")
