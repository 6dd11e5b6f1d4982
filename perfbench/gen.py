"""Seeded input generators for the benchmark.

Everything here is pure benchmark code: it never imports ``linlang``, takes
its randomness from a ``random.Random`` passed in by the caller, and hands
the program only text or plain values (words, grammar texts, automaton
texts).

Sizes are drawn by stratified sampling of a log-uniform range: a round of
``n`` draws splits ``[lo, hi]`` into ``n`` equal slices in log space and
takes one value inside each slice.  The marginal distribution stays
continuous and log-uniform, but every round covers the whole range once,
so the mix of cheap and costly ops is the same from seed to seed.
"""

from __future__ import annotations

import math
import random


GOLDEN = (math.sqrt(5) - 1) / 2


class LogStrata:
    """Stratified log-uniform sizes that stay evenly spread across rounds.

    ``draw(key, lo, hi, n)`` returns one value in each of ``n`` equal log
    slices of ``[lo, hi]``.  Within slice i, the k-th draw for ``key`` sits
    at offset ``(start_i + k * GOLDEN) mod 1``, an additive golden-ratio
    sequence from a seeded start, so successive rounds fill every slice
    evenly instead of clumping by chance.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._state: dict[object, tuple[list[float], int]] = {}

    def draw(self, key: object, lo: float, hi: float, n: int) -> list[float]:
        starts, k = self._state.get(key) or ([self._rng.random() for _ in range(n)], 0)
        self._state[key] = (starts, k + 1)
        a, b = math.log(lo), math.log(hi)
        step = (b - a) / n
        return [math.exp(a + step * (i + (s + k * GOLDEN) % 1.0))
                for i, s in enumerate(starts)]


def unit_strata(rng: random.Random, n: int) -> list[float]:
    """``n`` draws from [0, 1), one per equal slice, in random order."""
    draws = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


# --- words ---

def lk_member(k: int, length: int, shape: float) -> str:
    """The word a^m b^n of the given length with m <= n <= (k+1)m, where
    ``shape`` in [0, 1) picks m from the smallest to the largest allowed."""
    lo = -(-length // (k + 2))  # ceil(length / (k + 2))
    m = lo + int(shape * (length // 2 - lo + 1))
    return "a" * m + "b" * (length - m)


def flip_one(word: str, spot: float) -> str:
    """``word`` over {a, b} with the symbol at relative position ``spot``
    in [0, 1) flipped."""
    i = int(spot * len(word))
    return word[:i] + ("b" if word[i] == "a" else "a") + word[i + 1:]


def delete_one(word: str, spot: float) -> str:
    """``word`` without the symbol at relative position ``spot`` in [0, 1)."""
    i = int(spot * len(word))
    return word[:i] + word[i + 1:]


def palindrome(rng: random.Random, length: int) -> str:
    half = "".join(rng.choice("ab") for _ in range(length // 2))
    middle = rng.choice("ab") if length % 2 else ""
    return half + middle + half[::-1]


def fixture_member(rng: random.Random, fixture_id: str, length: int) -> str:
    """A member of a fixture language of about ``length`` symbols."""
    if fixture_id == "palindrome_all":
        return palindrome(rng, length)
    if fixture_id == "palindrome_even":
        return palindrome(rng, length - length % 2)
    if fixture_id == "dla_anbn_ancn":
        n = length // 2
        return "a" * n + rng.choice("bc") * n
    if fixture_id == "nla_homogeneous":
        n = length // 3
        return "ab" * n + "c" * n
    raise ValueError(f"no word generator for fixture {fixture_id!r}")


# --- grammars ---

def grammar_text(variables: list[str], terminals: list[str],
                 productions: list[tuple[str, list[str]]]) -> str:
    """Grammar-format text with the first variable as start symbol."""
    lines = ["grammar", f"start {variables[0]}",
             "terminals " + " ".join(terminals),
             "variables " + " ".join(variables)]
    for head, body in productions:
        lines.append(f"{head} -> {' '.join(body) if body else 'eps'}")
    return "\n".join(lines) + "\n"


def random_grammar(rng: random.Random, n_vars: int, n_prods: int,
                   n_terms: int, max_body: int) -> tuple[list[str], list[str],
                                                         list[tuple[str, list[str]]]]:
    """The random linear-grammar family: uniform heads, bodies of 0 to
    ``max_body`` terminals, and with probability 0.8 one body position
    replaced by a variable.  Duplicate productions are dropped.
    """
    variables = ["S"] + [f"V{i}" for i in range(1, n_vars)]
    terminals = "abcdefgh"[:n_terms]
    prods: list[tuple[str, list[str]]] = []
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for _ in range(n_prods):
        head = rng.choice(variables)
        body = [rng.choice(terminals) for _ in range(rng.randint(0, max_body))]
        if body and rng.random() < 0.8:
            body[rng.randrange(len(body))] = rng.choice(variables)
        key = (head, tuple(body))
        if key not in seen:
            seen.add(key)
            prods.append((head, body))
    return variables, list(terminals), prods


def derive(rng: random.Random, variables: list[str],
           prods: list[tuple[str, list[str]]], max_steps: int) -> str | None:
    """One random leftmost derivation from the start symbol, or None.

    After ``max_steps`` free choices the derivation steers towards the
    nearest terminal-only body, so it always ends when one is reachable.
    Terminal names are single characters, so the word is their concatenation.
    """
    vset = set(variables)
    by_head: dict[str, list[list[str]]] = {v: [] for v in variables}
    for head, body in prods:
        by_head[head].append(body)
    # distance (in steps) from each variable to a terminal-only body
    dist = {v: math.inf for v in variables}
    changed = True
    while changed:
        changed = False
        for head, body in prods:
            inner = [s for s in body if s in vset]
            d = 1 + (dist[inner[0]] if inner else 0)
            if d < dist[head]:
                dist[head] = d
                changed = True
    start = variables[0]
    if dist[start] == math.inf:
        return None
    prefix: list[str] = []
    suffix: list[str] = []
    v = start
    for step in range(max_steps + len(variables) + 1):
        options = [b for b in by_head[v]
                   if all(dist[s] < math.inf for s in b if s in vset)]
        if step >= max_steps:
            best = min(1 + sum(dist[s] for s in b if s in vset) for b in options)
            options = [b for b in options
                       if 1 + sum(dist[s] for s in b if s in vset) == best]
        body = rng.choice(options)
        inner = [i for i, s in enumerate(body) if s in vset]
        if not inner:
            return "".join(prefix + body + suffix)
        i = inner[0]
        prefix += body[:i]
        suffix = body[i + 1:] + suffix
        v = body[i]
    raise AssertionError("derivation did not terminate")


def language(variables: list[str], prods: list[tuple[str, list[str]]],
             max_len: int, cap: int) -> tuple[int, set[str]]:
    """Sentential forms and words of at most ``max_len`` terminals.

    A sentential form of a linear grammar is a (prefix, variable, suffix)
    triple; their number is the work a bounded enumeration does, so it serves
    as the size of an enumeration op.  Stops early, returning ``cap + 1``
    forms and no words, once more than ``cap`` forms are found.
    """
    vset = set(variables)
    steps: dict[str, list[tuple[tuple[str, ...], str, tuple[str, ...]]]] = {
        v: [] for v in variables}
    ends: dict[str, list[str]] = {v: [] for v in variables}
    for head, body in prods:
        inner = [i for i, s in enumerate(body) if s in vset]
        if inner:
            i = inner[0]
            steps[head].append((tuple(body[:i]), body[i], tuple(body[i + 1:])))
        else:
            ends[head].append("".join(body))
    start = ((), variables[0], ())
    seen = {start}
    frontier = [start]
    words: set[str] = set()
    while frontier:
        prefix, v, suffix = frontier.pop()
        room = max_len - len(prefix) - len(suffix)
        for end in ends[v]:
            if len(end) <= room:
                words.add("".join(prefix) + end + "".join(suffix))
        for left, nv, right in steps[v]:
            if len(left) + len(right) <= room:
                node = (prefix + left, nv, right + suffix)
                if node not in seen:
                    seen.add(node)
                    frontier.append(node)
                    if len(seen) > cap:
                        return cap + 1, set()
    return len(seen), words


# --- automata ---

def kth_from_last_text(k: int) -> str:
    """One-sided automaton for (a|b)* a (a|b)^k: all states read from the left."""
    states = [f"s{i}" for i in range(k + 2)]
    lines = ["automaton", "alphabet a b", "left " + " ".join(states),
             "right", "initial s0", f"final s{k + 1}",
             "s0 a -> s0 s1", "s0 b -> s0"]
    for i in range(1, k + 1):
        lines += [f"s{i} a -> s{i + 1}", f"s{i} b -> s{i + 1}"]
    return "\n".join(lines) + "\n"


def kth_from_last(k: int, word: str) -> bool:
    return len(word) > k and word[-(k + 1)] == "a"
