"""The benchmark's three workloads.

Each workload lists the distinct sentences of one *pass*, names the one
call that is timed per sentence, and checks each distinct output
against a reference that does not share the code under test.  A run
repeats whole passes, each in an order drawn from the seed, so that
every run times the same mix of sentences and a percentile depends
neither on the draw nor on where the clock happened to stop.

Why each workload exists, and the layer shares that were measured to
choose it, are written next to its definition below; README.md has the
measurements in full.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

# -- the toy grammar's inputs ----------------------------------------------

NPS = (("Nm",), ("Det", "Nm"), ("Det", "Adj", "Nm"))

# grammars/toy.clg accepts exactly NP Vb NP Prep NP: 27 sequences, 5-11 tokens.
GRAMMATICAL = tuple(a + ("Vb",) + b + ("Prep",) + c
                    for a, b, c in itertools.product(NPS, repeat=3))

# The 11-token dead end (the A1 sentence plus two PPs).  When the
# benchmark was defined it took about 4.2 s under gentest, and every other
# cfg sentence at most 0.1 s.  A 1 s limit sits well away from both.
CAPPED = tuple("Det Nm Vb Det Nm Prep Nm Prep Nm Prep Nm".split())


def _near_misses() -> dict[str, list[tuple[str, ...]]]:
    """Every near miss of 6-9 tokens, by kind, in a fixed order.

    None of them is grammatical: the language has no repeated token, no
    PP after the last NP, and a rigid category order, and a dropped token
    is only ever Nm, Vb or Prep (dropping Det or Adj leaves an NP)."""
    kinds: dict[str, set] = {"extra": set(), "dup": set(), "drop": set(), "swap": set()}
    for s in GRAMMATICAL:
        for np in NPS:
            kinds["extra"].add(s + ("Prep",) + np)
        for i, tok in enumerate(s):
            kinds["dup"].add(s[:i + 1] + s[i:])
            if tok in ("Nm", "Vb", "Prep"):
                kinds["drop"].add(s[:i] + s[i + 1:])
        for i in range(len(s) - 1):
            kinds["swap"].add(s[:i] + (s[i + 1], s[i]) + s[i + 2:])
    return {k: sorted(s for s in v if 6 <= len(s) <= 9) for k, v in kinds.items()}


# -- the lexical grammar's inputs --------------------------------------------

# Accepted-sign counts for bench/lex.clg, worked out by hand from the
# grammar: a sentence is accepted once per tagging and tree whose root
# sign is licensed and saturated (A6: empty subj and comps at the root).
SIGN_TABLE: dict[str, int] = {
    "the cat sleeps": 1,
    "a dog sleeps": 1,
    "a fish sleeps": 1,
    "the fish sleeps": 1,          # fish as noun; as verb, Det Vb Vb has no tree
    "the cat fish": 1,             # fish as verb; as noun, Det Nm Nm has no tree
    "the fish fish": 1,            # noun then verb is the only tagging with a tree
    "the dog sees the cat": 1,
    "a cat sees a dog": 1,
    "a dog sees the fish": 1,
    "the fish sees the fish": 1,
    "the cat sees": 0,             # the object is missing, so the root keeps subj [NP]
    "the cat sleeps the dog": 0,   # tree built; the intransitive head takes no NP sister
    "the dog sleeps a cat": 0,     # the same, with the other determiner
    "the cat fish the dog": 0,     # the same, with the noun/verb word as verb
    "the fish fish a fish": 0,     # the same, in the only tagging with a tree
    "the cat sees the": 0,         # no tree
    "cat the sleeps": 0,           # no tree
    "sleeps the cat": 0,           # no tree
    "the cat the dog sleeps": 0,   # no tree
    "the cat sees fish": 0,        # a bare noun is not an NP; no tree
}


# -- workloads ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    grammar: str                     # relative to the checkout root
    limit_s: float                   # per-sentence time limit, in the run's own process
    inputs: tuple                    # the distinct sentences of one pass
    run: Callable                    # (clparse, grammar, sentence) -> (output, stats)
    check: Callable                  # (clparse, grammar, sentence, output, stats) -> str | None
    # Inputs that failed when the benchmark was defined: sentence ->
    # (how, message), exactly as the run reports the failure.  They are
    # timed and counted in `failed` like any other; any other failure
    # makes the run incorrect.
    expected_failures: dict = field(default_factory=dict)


def _run_cfg(strategy: str):
    def run(c, g, sentence):
        return c.cfg.parse(sentence, g, strategy=strategy)
    return run


def _check_cfg(strategy: str):
    """The derivations must equal oracle_parse's as a multiset, and A7's
    rule must hold: active windows <= gentest windows."""
    other = "gentest" if strategy == "active" else "active"

    def check(c, g, sentence, derivs, stats):
        oracle = c.cfg.oracle_parse(sentence, g)
        if Counter(derivs) != Counter(oracle):
            return f"{len(derivs)} derivations, oracle_parse gives {len(oracle)}"
        theirs, their_stats = c.cfg.parse(sentence, g, strategy=other)
        if Counter(theirs) != Counter(oracle):
            return f"{other} derivations differ from oracle_parse"
        windows = {strategy: stats.windows_tried, other: their_stats.windows_tried}
        if windows["active"] > windows["gentest"]:
            return f"A7: active tried {windows['active']} windows, gentest {windows['gentest']}"
        return None
    return check


def _evenly(items: list, k: int) -> list:
    return [items[i * len(items) // k] for i in range(k)]


def _dead_ends() -> tuple:
    """39 sentences: all five extra-PP near misses of 7-8 tokens; 8 each of
    duplicated, dropped and swapped token, taken evenly through their
    sorted lists; 9 grammatical sentences of 6-9 tokens, taken the same
    way (about a quarter of the pass); and the capped sentence.

    The set is fixed, not drawn from the seed: with 39 sentences a
    percentile falls on one or two of them, so a drawn set would move
    p50 and p90 with the seed more than the program does (8% and 17%
    spread over five seeds when the near misses were sampled).  The
    9-token extra-PP sentences are left out because A7's check must also
    run them under `active`, which took 1.5-5 s each when the benchmark
    was defined."""
    kinds = _near_misses()
    pool = [s for s in kinds["extra"] if len(s) <= 8]
    for kind in ("dup", "drop", "swap"):
        pool += _evenly(kinds[kind], 8)
    pool += _evenly([s for s in GRAMMATICAL if 6 <= len(s) <= 9], 9)
    return tuple(pool) + (CAPPED,)


def _run_signs(c, g, words):
    signs, stats = c.hpsg.parse_hpsg(words, g, strategy="gentest")
    return tuple(c.hpsg.sign_dump(s) for s in signs), stats


def _check_signs(c, g, words, dumps, stats):
    """Active must give the same dumps as gentest, and the sign count
    must match SIGN_TABLE."""
    signs, _ = c.hpsg.parse_hpsg(words, g, strategy="active")
    if tuple(c.hpsg.sign_dump(s) for s in signs) != dumps:
        return "active and gentest sign dumps differ"
    want = SIGN_TABLE[" ".join(words)]
    if len(dumps) != want:
        return f"{len(dumps)} signs accepted, the table says {want}"
    return None


WORKLOADS = {w.name: w for w in (
    # The store does almost all the work: a fresh Store, Concat3, and a
    # snapshot, tell and restore per window.  When the benchmark was
    # defined, 86% of the traced time was self time of store spans.
    # ROADMAP item 3 (a cheaper active scan) must show here.
    Workload("cfg-active", "grammars/toy.clg", 5.0,
             GRAMMATICAL, _run_cfg("active"), _check_cfg("active")),
    # The store is never called, so the search alone sets the time, and
    # duplicate (sequence, unary_seen) states dominate: the 9-token
    # `Det Nm Vb Det Nm Prep Nm Prep Nm` makes 3 733 reductions over 96
    # distinct sequences.  ROADMAP item 2 (the packed forest) must show
    # here, and a store change must not.
    Workload("cfg-dead-ends", "grammars/toy.clg", 1.0,
             _dead_ends(), _run_cfg("gentest"), _check_cfg("gentest"),
             # About 4.2 s under gentest when the benchmark was defined.
             {CAPPED: ("timeout", "over the 1 s limit")}),
    # Feature structures, sign licensing and the store's boolean path do
    # about 90% of the traced work, cfg.parse about 10%.  The store sees
    # monotone boolean tells, suspended asks and status forcing instead of
    # search, so a store change that trades that path for a cheaper
    # Concat3 or restore shows here.
    Workload("hpsg-signs", "bench/lex.clg", 1.0,
             tuple(tuple(s.split()) for s in SIGN_TABLE), _run_signs, _check_signs,
             # Accepted with root subj [NP] unsaturated, against A6's
             # saturation rule: the subject NP is taken as the VP's missing
             # complement, and nothing checks the root.
             {("the", "cat", "sees"): ("check", "1 signs accepted, the table says 0")}),
)}
