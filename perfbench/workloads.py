"""The three workloads: inputs, the op each input drives, and its check.

Each workload object has

* a constructor taking a seeded ``random.Random`` for inputs fixed for the
  whole run;
* ``setup(api)``: the library calls that prepare it (timed as ``setup_s``);
* ``prepare_checks(mods, state)``: untimed oracle preparation;
* ``round(rng)``: one round of ops, sizes stratified over their ranges;
* ``run(api, state, op)``: one op, the only timed code;
* ``check(mods, state, op, out)``: independent verdict on the op's output;
* ``cli_case(state, op)`` / ``cli_direct(api, state, op)``: the same op as a
  ``linlang`` command line (argv, stdin text, files to create, named in argv
  by their keys) and as the library calls that command makes, for ops in
  the CLI replay slice.  ``cli_case`` returns None for ops the slice does
  not replay.

Ops are small tuples of plain values; the program only ever sees the words
and texts inside them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import NamedTuple

import gen

EPS = "eps"


def _show(word: str) -> str:
    return word if word else EPS


class Workload:
    """Defaults for workloads with no fixed inputs, set-up calls or oracles."""

    def __init__(self, rng: random.Random):
        self.sizes = gen.LogStrata(rng)

    def setup(self, api):
        return None

    def prepare_checks(self, mods, state):
        pass


# --- membership ---

class MemOp(NamedTuple):
    target: tuple[str, object]  # ("lk", k) or ("fix", fixture id)
    word: str
    trace: bool


class Membership(Workload):
    """Decide one word per op with ``accepts`` (or ``trace``, one op in 8).

    Per round: for each k in LK_KS, LK_STRATA lengths from LK_LEN, each
    giving one member a^m b^n and one near-miss with a symbol flipped; for
    each fixture, FIX_STRATA lengths from FIX_LEN, each giving one member and
    one member with a symbol deleted.  That is 40 lk ops and 16 fixture ops.
    The cost of an lk op depends on the split m : n as much as on the
    length, and its memory most of all.  The split is stratified in step
    with the length, from the most lopsided allowed at the shortest slice to
    balanced at the longest, and each near-miss flips one symbol of the
    member of its slot.  The costliest op of a round is then of the same
    kind every round, so ``peak_rss_mb`` does not hinge on whether a rare
    pairing came up.  Flipped and deleted positions are stratified in
    random order.
    """

    name = "membership"
    LK_KS = (1, 3, 8, 20)
    LK_LEN = (32, 320)
    LK_STRATA = 5
    FIXTURES = ("palindrome_all", "palindrome_even", "dla_anbn_ancn",
                "nla_homogeneous")
    FIX_LEN = (256, 4096)
    FIX_STRATA = 2
    TRACE_EVERY = 8
    cli_sample = 8
    trace_rounds = 2

    def setup(self, api):
        autos = {("lk", k): api.build_lk_automaton(k) for k in self.LK_KS}
        for fid in self.FIXTURES:
            autos[("fix", fid)] = api.load_fixture(fid).payload
        return autos

    def prepare_checks(self, mods, state):
        self.oracles = {("lk", k): functools.partial(mods["hierarchy"].lk_predicate, k)
                        for k in self.LK_KS}
        for fid in self.FIXTURES:
            self.oracles[("fix", fid)] = mods["corpus"].oracle_for(fid)
        self.lam = mods["automaton"].LAMBDA
        self.texts = {key: mods["textio"].serialize_automaton(m)
                      for key, m in state.items()}

    def round(self, rng: random.Random) -> list[MemOp]:
        pairs: list[tuple[tuple[str, object], str]] = []
        for k in self.LK_KS:
            lengths = self.sizes.draw(("lk", k), *self.LK_LEN, self.LK_STRATA)
            spots = gen.unit_strata(rng, self.LK_STRATA)
            for i, (length, spot) in enumerate(zip(lengths, spots)):
                shape = (i + rng.random()) / self.LK_STRATA
                member = gen.lk_member(k, round(length), shape)
                pairs.append((("lk", k), member))
                pairs.append((("lk", k), gen.flip_one(member, spot)))
        for fid in self.FIXTURES:
            lengths = self.sizes.draw(("fix", fid), *self.FIX_LEN, self.FIX_STRATA)
            spots = gen.unit_strata(rng, self.FIX_STRATA)
            for length, spot in zip(lengths, spots):
                n = round(length)
                pairs.append((("fix", fid), gen.fixture_member(rng, fid, n)))
                miss = gen.delete_one(gen.fixture_member(rng, fid, n), spot)
                pairs.append((("fix", fid), miss))
        # one traced op in each block of TRACE_EVERY consecutive inputs
        picks = {i + rng.randrange(self.TRACE_EVERY)
                 for i in range(0, len(pairs), self.TRACE_EVERY)}
        ops = [MemOp(t, w, i in picks) for i, (t, w) in enumerate(pairs)]
        rng.shuffle(ops)
        return ops

    def run(self, api, state, op: MemOp):
        m = state[op.target]
        return api.trace(m, op.word) if op.trace else api.accepts(m, op.word)

    def check(self, mods, state, op: MemOp, out) -> bool:
        want = self.oracles[op.target](op.word)
        if not op.trace:
            return isinstance(out, bool) and out == want
        if out is None:
            return not want
        return want and self._valid_run(state[op.target], op.word, out)

    def _valid_run(self, m, word: str, path) -> bool:
        """Replay a ``trace`` result: a start state with the whole word left,
        each step a lambda move or a read by the state's own head along a
        transition in ``delta``, ending in a final state with nothing left."""
        if not path or path[0][1] != word or path[0][0] not in m.initial:
            return False
        for (q, rest), (t, nxt) in zip(path, path[1:]):
            if nxt == rest:
                sym = self.lam
            elif rest and q in m.left_states and nxt == rest[1:]:
                sym = rest[0]
            elif rest and q in m.right_states and nxt == rest[:-1]:
                sym = rest[-1]
            else:
                return False
            if t not in m.delta.get((q, sym), ()):
                return False
        q, rest = path[-1]
        return rest == "" and q in m.final

    def cli_case(self, state, op: MemOp):
        argv = ["auto", "simulate", "--input", _show(op.word)]
        return (argv + ["--trace"] if op.trace else argv), self.texts[op.target], {}

    def cli_direct(self, api, state, op: MemOp):
        m = api.parse_automaton(self.texts[op.target])
        if op.trace:
            run = api.trace(m, op.word)
            if run is None:
                return 1, "reject\n"
            return 0, "".join(f"({q},{_show(rest)})\n" for q, rest in run)
        ok = api.accepts(m, op.word)
        return (0, "accept\n") if ok else (1, "reject\n")


# --- compile ---

def _productions(g) -> set[tuple[str, tuple[str, ...]]]:
    return {(p.head.name, tuple(s.name for s in p.body)) for p in g.productions}


def _text_productions(text: str) -> set[tuple[str, tuple[str, ...]]]:
    """Production lines of grammar text, read without the package's parser."""
    prods = set()
    for line in text.splitlines():
        head, arrow, rhs = line.partition(" -> ")
        if arrow:
            prods.update((head, () if alt.strip() == EPS else tuple(alt.split()))
                         for alt in rhs.split("|"))
    return prods


def _one_sided(g, strong: bool) -> bool:
    """The normal-form conditions, checked in one pass over the productions.

    One-sided: no variable has both a body whose variable is not last and a
    body whose variable is not first.  Strong: also every body is one of
    ``aB``, ``Ba``, ``a``, ``B`` or empty.
    """
    names = {v.name for v in g.variables}
    not_right: set[str] = set()
    not_left: set[str] = set()
    for p in g.productions:
        body = [s.name for s in p.body]
        at = [i for i, s in enumerate(body) if s in names]
        if at:
            if at[0] != len(body) - 1:
                not_right.add(p.head.name)
            if at[0] != 0:
                not_left.add(p.head.name)
        if strong and (len(body) > 2 or (len(body) == 2 and len(at) != 1)):
            return False
    return not (not_right & not_left)


def _accepts_lambda_free(m, word: str) -> bool:
    """Membership for an automaton without lambda moves, one level per
    symbol read: the states reachable with each remaining span ``[lo, hi)``
    of equal length.  Memory stays at one level, not every configuration."""
    level = {(0, len(word)): set(m.initial)}
    for _ in word:
        nxt: dict[tuple[int, int], set[str]] = {}
        for (lo, hi), states in level.items():
            for q in states:
                if q in m.left_states:
                    span, a = (lo + 1, hi), word[lo]
                else:
                    span, a = (lo, hi - 1), word[hi - 1]
                targets = m.delta.get((q, a))
                if targets:
                    nxt.setdefault(span, set()).update(targets)
        level = nxt
    return any(states & m.final for states in level.values())


class GrammarOp(NamedTuple):
    text: str
    words: tuple[str, ...]  # derived by the benchmark from the same productions


class DetOp(NamedTuple):
    k: int
    text: str


class Compile(Workload):
    """Normal forms and model conversions, one input per op.

    Per round: GRAMMAR_STRATA grammars of the random family with V from
    GRAMMAR_V, P = 10 V productions, 4 terminals and bodies of up to 6
    symbols; and DET_STRATA k-th-from-last automata with k the integer part
    of a draw from DET_K (so k in 6..11).
    """

    name = "compile"
    GRAMMAR_V = (5, 60)
    GRAMMAR_STRATA = 17
    TERMINALS = 4
    MAX_BODY = 6
    DERIVATIONS = 2
    DERIVE_STEPS = 6
    DET_K = (6, 12)
    DET_STRATA = 3
    DFA_CHECK_LEN = 12
    cli_sample = 4
    trace_rounds = 2

    def prepare_checks(self, mods, state):
        self.lam = mods["automaton"].LAMBDA

    def round(self, rng: random.Random) -> list:
        ops: list = []
        for v in self.sizes.draw("V", *self.GRAMMAR_V, self.GRAMMAR_STRATA):
            n = round(v)
            variables, terminals, prods = gen.random_grammar(
                rng, n, 10 * n, self.TERMINALS, self.MAX_BODY)
            words = (gen.derive(rng, variables, prods, self.DERIVE_STEPS)
                     for _ in range(self.DERIVATIONS))
            ops.append(GrammarOp(gen.grammar_text(variables, terminals, prods),
                                 tuple(w for w in words if w is not None)))
        for x in self.sizes.draw("k", *self.DET_K, self.DET_STRATA):
            k = int(x)
            ops.append(DetOp(k, gen.kth_from_last_text(k)))
        rng.shuffle(ops)
        return ops

    def run(self, api, state, op):
        if isinstance(op, DetOp):
            d = api.determinize(api.parse_automaton(op.text))
            return d, api.serialize_automaton(d)
        g = api.parse_grammar(op.text)
        lnf = api.to_lnf(g)
        slnf = api.to_slnf(g)
        elim = api.eliminate_lambda(api.grammar_to_nla(g))
        back = api.parse_automaton(api.serialize_automaton(elim))
        g2 = api.nla_to_grammar(back)
        return g, lnf, slnf, elim, back, g2, api.serialize_grammar(g2)

    def check(self, mods, state, op, out) -> bool:
        if isinstance(op, DetOp):
            d, text = out
            return (mods["textio"].parse_automaton(text) == d
                    and not d.right_states and len(d.initial) == 1
                    and all(len(ts) == 1 for ts in d.delta.values())
                    and self._dfa_matches(d, op.k))
        g, lnf, slnf, elim, back, g2, gtext = out
        return (_productions(g) == _text_productions(op.text)
                and _one_sided(lnf, strong=False) and _one_sided(slnf, strong=True)
                and all(a != self.lam for (_, a) in elim.delta)
                and back == elim
                and _productions(g2) == _text_productions(gtext)
                and all(_accepts_lambda_free(elim, w) for w in op.words))

    def _dfa_matches(self, d, k: int) -> bool:
        """Walk the one-sided DFA over every word up to DFA_CHECK_LEN and
        compare acceptance with the k-th-from-last predicate."""
        (start,) = d.initial
        stack: list[tuple[str | None, str]] = [(start, "")]
        while stack:
            q, w = stack.pop()
            if (q is not None and q in d.final) != gen.kth_from_last(k, w):
                return False
            if len(w) < self.DFA_CHECK_LEN:
                for a in "ab":
                    nxt = d.delta.get((q, a)) if q is not None else None
                    stack.append((next(iter(nxt)) if nxt else None, w + a))
        return True

    def cli_case(self, state, op):
        if isinstance(op, DetOp):
            return ["auto", "determinize"], op.text, {}
        return ["convert", "g2a"], op.text, {}

    def cli_direct(self, api, state, op):
        if isinstance(op, DetOp):
            m = api.determinize(api.parse_automaton(op.text))
        else:
            m = api.grammar_to_nla(api.parse_grammar(op.text))
        return 0, api.serialize_automaton(m)


# --- enumerate ---

class PoolOp(NamedTuple):
    index: int  # into the grammar pool built by setup


class FixtureOp(NamedTuple):
    fixture: str


class Enumerate(Workload):
    """Bounded equivalence checks, one per op, as ``equiv g G a M --max-len 7``.

    The pool holds POOL_SIZE grammars of the random family with V from
    POOL_V, P from [3V, 6V], 3 terminals and bodies of up to 6 symbols.  An
    op's size is the number of sentential forms within the length bound,
    which is the work enumeration does; pool sizes are stratified draws from
    POOL_FORMS, each filled by the first candidate grammar of that size, so
    the rare huge languages of the family appear at a fixed rate.  Every
    round runs the whole pool plus one op per fixture in FIXTURES.
    """

    name = "enumerate"
    POOL_SIZE = 96
    POOL_V = (4, 12)
    POOL_FORMS = (20, 1000)
    TERMINALS = 3
    MAX_BODY = 6
    MAX_LEN = 7
    FIXTURES = ("ex_lg_grammar", "ex_lnf_grammar", "ex_slnf_grammar",
                "det_grammar_2_1", "det_grammar_2_1_lnf", "det_grammar_2_1_slnf",
                "even_palindrome_grammar", "ex_nla", "palindrome_even",
                "palindrome_all", "lk_automaton_6")
    FIXTURE_ALPHABET = "ab"
    FIXTURE_LEN = 16
    cli_sample = 8
    trace_rounds = 3

    def __init__(self, rng: random.Random):
        self.texts, self.words = self._pool(rng)

    def _pool(self, rng: random.Random) -> tuple[list[str], list[set[str]]]:
        lo, hi = self.POOL_FORMS
        slots: list[tuple[str, set[str]] | None] = [None] * self.POOL_SIZE
        scale = self.POOL_SIZE / math.log(hi / lo)
        while None in slots:
            n_vars = round(math.exp(rng.uniform(*map(math.log, self.POOL_V))))
            n_prods = round(rng.uniform(3 * n_vars, 6 * n_vars))
            variables, terminals, prods = gen.random_grammar(
                rng, n_vars, n_prods, self.TERMINALS, self.MAX_BODY)
            forms, words = gen.language(variables, prods, self.MAX_LEN, hi - 1)
            if lo <= forms < hi:
                slot = int(math.log(forms / lo) * scale)
                if slots[slot] is None:
                    slots[slot] = (gen.grammar_text(variables, terminals, prods), words)
        return [s[0] for s in slots], [s[1] for s in slots]

    def setup(self, api):
        autos = [api.serialize_automaton(api.grammar_to_nla(api.parse_grammar(t)))
                 for t in self.texts]
        fixtures = {fid: api.load_fixture(fid) for fid in self.FIXTURES}
        return autos, fixtures

    def prepare_checks(self, mods, state):
        """Oracle word lists: every word up to FIXTURE_LEN, filtered by each
        fixture's independent predicate."""
        corpus = mods["corpus"]
        by_name = {corpus.ORACLES[fid] for fid in self.FIXTURES}
        predicates = {name: corpus.load_fixture(name).payload for name in by_name}
        members: dict[str, set[str]] = {name: set() for name in by_name}
        for n in range(self.FIXTURE_LEN + 1):
            for t in itertools.product(self.FIXTURE_ALPHABET, repeat=n):
                w = "".join(t)
                for name, pred in predicates.items():
                    if pred(w):
                        members[name].add(w)
        self.oracle_words = {fid: members[corpus.ORACLES[fid]] for fid in self.FIXTURES}

    def round(self, rng: random.Random) -> list:
        ops = [PoolOp(i) for i in range(self.POOL_SIZE)]
        ops += [FixtureOp(fid) for fid in self.FIXTURES]
        rng.shuffle(ops)
        return ops

    def run(self, api, state, op):
        autos, fixtures = state
        if isinstance(op, FixtureOp):
            fx = fixtures[op.fixture]
            if fx.kind == "grammar":
                return api.enumerate_language(fx.payload, self.FIXTURE_LEN)
            return api.enumerate_accepted(fx.payload, self.FIXTURE_LEN)
        g = api.parse_grammar(self.texts[op.index])
        m = api.parse_automaton(autos[op.index])
        from_g = api.enumerate_language(g, self.MAX_LEN)
        from_m = api.enumerate_accepted(m, self.MAX_LEN)
        return set(from_g) == set(from_m), from_g, from_m

    def check(self, mods, state, op, out) -> bool:
        if isinstance(op, FixtureOp):
            return set(out) == self.oracle_words[op.fixture]
        same, from_g, from_m = out
        want = self.words[op.index]
        return same and set(from_g) == want and set(from_m) == want

    def cli_case(self, state, op):
        if isinstance(op, FixtureOp):
            return None
        autos, _ = state
        files = {"g.grm": self.texts[op.index], "m.lin": autos[op.index]}
        argv = ["equiv", "g", "g.grm", "a", "m.lin", "--max-len", str(self.MAX_LEN)]
        return argv, "", files

    def cli_direct(self, api, state, op):
        autos, _ = state
        first = set(api.enumerate_language(api.parse_grammar(self.texts[op.index]),
                                           self.MAX_LEN))
        second = set(api.enumerate_accepted(api.parse_automaton(autos[op.index]),
                                            self.MAX_LEN))
        key = lambda w: (len(w), w)  # noqa: E731
        lines = [f"< {_show(w)}\n" for w in sorted(first - second, key=key)]
        lines += [f"> {_show(w)}\n" for w in sorted(second - first, key=key)]
        return (1 if lines else 0), "".join(lines)


WORKLOADS = {"membership": Membership, "compile": Compile, "enumerate": Enumerate}
