"""Benchmark for clparse: one workload, one seed, one run.

    python3 bench/run.py --workload cfg-active --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout; the program is imported from its src/.
The load is a closed loop with one client: one process, no threads, one
sentence after the other.  Every end-to-end or per-layer metric named in
BENCHMARK.json is printed by name with its unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 gives the end-to-end metrics, --trace 1
the per-layer ones, from a separate run with timing wrappers installed.
--smoke checks exact counters recorded when the benchmark was defined,
and compares no times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import HPSG_STEPS, Tracer, in_tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
CHECK_LIMIT_S = 60.0
# Counters kept by ParseStats and HpsgStats, reported per sentence.
STAT_FIELDS = {
    "windows_tried": "cfg.windows_tried",
    "reductions_applied": "cfg.reductions_applied",
    "backtracks": "cfg.backtracks",
    "propagation_steps": "store.propagation_steps",
    "completeness_tests": "store.completeness_tests",
    "ask_evaluations": "store.ask_evaluations",
    "trees_considered": "hpsg.trees_considered",
    "expansions": "hpsg.expansions",
    "signs_accepted": "hpsg.signs_accepted",
}
TELL_KINDS = ("Concat3", "Eq", "Element", "BoolConstraint", "AllDistinct")
LAYERS = ("store", "cfg", "fstruct", "hpsg")

SETUP_CODE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import clparse
clparse.load_grammar_file(sys.argv[2])
print(time.perf_counter() - t)
"""


class OutOfTime(Exception):
    pass


class Limit:
    """Per-call wall-clock limit enforced in this process by SIGALRM.
    An alarm that lands in the tracer's own bookkeeping is put off by a
    millisecond, so an abandoned call never leaves a span half written."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if not self.armed:
            return
        if in_tracer(frame):
            signal.setitimer(signal.ITIMER_REAL, 1e-3)
            return
        self.armed = False
        raise OutOfTime

    def call(self, seconds: float, fn, *args):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn(*args)
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)


def load_program():
    src = ROOT / "src"
    if not (src / "clparse" / "__init__.py").is_file():
        sys.exit(f"bench: no clparse source under {src}")
    sys.path.insert(0, str(src))
    import clparse
    import clparse.cfg
    import clparse.fstruct
    import clparse.hpsg
    import clparse.store
    if Path(clparse.__file__).resolve().parent != src / "clparse":
        sys.exit(f"bench: imported clparse from {clparse.__file__}, not from {src}")
    return clparse


def setup_time(grammar: Path) -> float:
    """Seconds a fresh interpreter takes to import clparse and load the
    workload's grammar."""
    out = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(ROOT / "src"),
                          str(grammar)], capture_output=True, text=True, timeout=120,
                         check=True, cwd=ROOT)
    return float(out.stdout)


class Tally:
    """What a series of timed sentences gave: each one's time in order,
    the first output of each distinct sentence (and whether every repeat
    matched it), and the totals of the returned counters."""

    def __init__(self, first=None):
        self.order: list = []
        self.times: list[float] = []
        self.stats: Counter = Counter()
        self.first = {} if first is None else first   # sentence -> [status, out, stats, stable]


def timed(c, g, w, limit: Limit, sentences, tally: Tally, tracer=None) -> None:
    """Run each sentence once, timing it alone; status is ok, timeout
    or raised.  Only the first output of a sentence is kept, so the
    process does not grow while it is measured."""
    for s in sentences:
        if tracer is not None:
            tracer.sentence_id = len(tally.times)
            sid = tracer.open("sentence")
        t0 = time.perf_counter()
        try:
            (out, stats), status = limit.call(w.limit_s, w.run, c, g, s), "ok"
        except OutOfTime:
            out, stats, status = None, None, "timeout"
        except Exception as e:          # the program's failure is a measured outcome
            out, stats, status = None, None, f"raised {type(e).__name__}: {e}"
        took = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(sid, "sentence")
        tally.order.append(s)
        tally.times.append(took)
        if status == "ok":
            for name in STAT_FIELDS:
                tally.stats[name] += getattr(stats, name, 0)
        seen = tally.first.setdefault(s, [status, out, stats, True])
        if seen[3] and (seen[0], seen[1]) != (status, out):
            seen[3] = False


def run_passes(c, g, w, limit, pool, rng, seconds, min_sentences,
               between=lambda: None) -> Tally:
    """Whole passes over the pool, each in a fresh seeded order, until
    `seconds` have gone and at least `min_sentences` were timed;
    `between` runs after each pass, outside the timed sentences."""
    tally = Tally()
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(tally.times) < min_sentences:
        timed(c, g, w, limit, rng.sample(pool, len(pool)), tally)
        between()
    return tally


def verify(c, g, w, limit, tally: Tally):
    """Check every distinct sentence once against its reference, outside
    the timed region.  Returns (failed occurrences, unexpected, notes)."""
    failing, notes, unexpected = {}, [], []
    for s, (status, out, stats, stable) in tally.first.items():
        if not stable:
            failing[s] = ("check", "output differs between repeats")
        elif status == "timeout":
            failing[s] = ("timeout", f"over the {w.limit_s:g} s limit")
        elif status != "ok":
            failing[s] = ("raised", status)
        else:
            try:
                why = limit.call(CHECK_LIMIT_S, w.check, c, g, s, out, stats)
            except OutOfTime:
                notes.append(f"unchecked: {' '.join(s)}: reference over {CHECK_LIMIT_S:g} s")
                why = None
            if why is not None:
                failing[s] = ("check", why)
    for s, (how, why) in failing.items():
        tag = "expected" if w.expected_failures.get(s) == (how, why) else "UNEXPECTED"
        (notes if tag == "expected" else unexpected).append(
            f"{tag} {how}: {' '.join(s)}: {why}")
    failed = sum(1 for s in tally.order if s in failing)
    return failed, unexpected, notes


def end_to_end(tally: Tally) -> dict:
    times = tally.times
    return {
        "sentences_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p90_ms": statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, tally: Tally, untraced_s: float, load_ms: float) -> dict:
    """Per-sentence means over the traced sentences; self times from the
    spans, counters from the returned ParseStats and HpsgStats."""
    n = len(tally.times)
    wall_ns = sum(tracer.self_ns.values())      # self times partition the sentence spans
    calls, self_ns, counts = tracer.calls, tracer.self_ns, tracer.counts

    def total(prefix, table):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    stats = tally.stats
    m = {STAT_FIELDS[f]: stats[f] / n for f in STAT_FIELDS}
    tells = total("store.tell", calls)
    m.update({
        "store.new.calls": calls["store.new"] / n,
        "store.tell.calls": tells / n,
        "store.tell.self_ms": total("store.tell", self_ns) / n / 1e6,
        "store.tell.fail_frac": counts["store.tell.failed"] / tells if tells else 0.0,
        "store.snapshot.calls": calls["store.snapshot"] / n,
        "store.restore.calls": calls["store.restore"] / n,
        "store.restore.self_ms": self_ns["store.restore"] / n / 1e6,
        "store.propagate.self_ms": self_ns["store.propagate"] / n / 1e6,
        "store.ask.calls": calls["store.ask"] / n,
        "cfg.parse.calls": calls["cfg.parse"] / n,
        "cfg.parse.self_ms": self_ns["cfg.parse"] / n / 1e6,
        "cfg.derivations": counts["cfg.derivations"] / n,
        "cfg.window_hit_frac": (stats["reductions_applied"] / stats["windows_tried"]
                                if stats["windows_tried"] else 0.0),
        "cfg.tree_replay.calls": calls["cfg.tree_replay"] / n,
        "cfg.tree_replay.self_ms": self_ns["cfg.tree_replay"] / n / 1e6,
        "grammar.load_ms": load_ms,
        "fstruct.dump.self_ms": self_ns["fstruct.dump"] / n / 1e6,
        "hpsg.parse_hpsg.self_ms": self_ns["hpsg.parse_hpsg"] / n / 1e6,
        "hpsg.sign_accept_frac": (stats["signs_accepted"] / stats["trees_considered"]
                                  if stats["trees_considered"] else 0.0),
        "trace.overhead_frac": sum(tally.times) / untraced_s - 1,
    })
    for kind in TELL_KINDS:
        m[f"store.tell.{kind}.calls"] = calls[f"store.tell.{kind}"] / n
        m[f"store.tell.{kind}.self_ms"] = self_ns[f"store.tell.{kind}"] / n / 1e6
    for attr in ("encode_node", "add", "delta", "resolve"):
        m[f"fstruct.{attr}.calls"] = calls[f"fstruct.{attr}"] / n
        m[f"fstruct.{attr}.self_ms"] = self_ns[f"fstruct.{attr}"] / n / 1e6
    for step in HPSG_STEPS:
        m[f"hpsg.{step}.self_ms"] = self_ns[f"hpsg.{step}"] / n / 1e6
    for layer in LAYERS:
        m[f"{layer}.self_share"] = total(layer, self_ns) / wall_ns
    return m


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    c = load_program()
    w = WORKLOADS[args.workload]
    grammar = ROOT / w.grammar
    g = c.load_grammar_file(str(grammar))
    rng = random.Random(args.seed)
    pool = list(w.inputs)
    limit = Limit()
    print(f"# workload {w.name} seed {args.seed} seconds {args.seconds} trace {args.trace}"
          f" python {platform.python_version()} nproc {os.cpu_count()}"
          f" sentences/pass {len(pool)}", flush=True)
    timed(c, g, w, limit, pool[:1], Tally())        # warm-up, untimed

    if args.trace:
        loads = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            c.load_grammar_file(str(grammar))
            loads.append(time.perf_counter() - t0)
        # Half the time untraced, then the same sentences in the same
        # order traced; the ratio of the two is the tracing overhead.
        plain = run_passes(c, g, w, limit, pool, rng, args.seconds / 2, 1)
        tally = Tally(plain.first)
        tracer = Tracer()
        uninstall = install(tracer, c)
        try:
            timed(c, g, w, limit, plain.order, tally, tracer)
        finally:
            uninstall()
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{w.name}.tsv.gz")
        metrics = per_layer(tracer, tally, sum(plain.times),
                            statistics.median(loads) * 1e3)
        wanted = spec["per_layer"]
        tally.order += plain.order
        tally.times += plain.times
    else:
        # Set-up samples are spread over the run, between passes, so that
        # their median sees the same spells of a fast or slow machine as
        # the sentences do.
        setups = [setup_time(grammar)]
        gap = args.seconds / (SETUP_REPEATS - 1)
        due = time.perf_counter() + gap

        def sample_setup():
            nonlocal due
            if time.perf_counter() >= due:
                setups.append(setup_time(grammar))
                due = time.perf_counter() + gap

        tally = run_passes(c, g, w, limit, pool, rng, args.seconds, 100, sample_setup)
        metrics = end_to_end(tally)
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_time(grammar))
        metrics["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]

    failed, unexpected, notes = verify(c, g, w, limit, tally)
    metrics["completed_frac"] = 1 - failed / len(tally.times)
    report = {}
    for item in wanted:
        value = metrics[item["name"]]
        report[item["name"]] = {"value": value, "unit": item["unit"]}
        print(f"{item['name']} {value:.6g} {item['unit']}")
    for note in notes + unexpected:
        print(f"# {note}")
    print(json.dumps({"correct": not unexpected, "attempted": len(tally.times),
                      "failed": failed, "metrics": report}))
    return 0


def smoke() -> int:
    """Exact counters recorded when the benchmark was defined; no times."""
    c = load_program()
    toy = c.load_grammar_file(str(ROOT / "grammars" / "toy.clg"))
    lex = c.load_grammar_file(str(ROOT / "grammars" / "toy_lex.clg"))
    a1 = "Det Nm Vb Det Nm Prep Nm".split()
    dead = "Det Nm Vb Det Nm Prep Nm Prep Nm".split()
    want = [
        ("A1 active", c.parse(a1, toy, strategy="active")[1],
         {"windows_tried": 1680, "reductions_applied": 169, "propagation_steps": 11424}),
        ("A1 gentest", c.parse(a1, toy, strategy="gentest")[1], {"windows_tried": 2212}),
        ("dead end active", c.parse(dead, toy, strategy="active")[1],
         {"windows_tried": 43197, "reductions_applied": 3733}),
        ("dead end gentest", c.parse(dead, toy, strategy="gentest")[1],
         {"windows_tried": 60410, "reductions_applied": 3733}),
        ("the cat sleeps active", c.parse_hpsg("the cat sleeps".split(), lex)[1],
         {"windows_tried": 21, "expansions": 6, "signs_accepted": 1}),
        ("the cat sleeps gentest",
         c.parse_hpsg("the cat sleeps".split(), lex, strategy="gentest")[1],
         {"windows_tried": 23, "expansions": 6, "signs_accepted": 1}),
    ]
    bad = 0
    for label, stats, expect in want:
        for field, value in expect.items():
            got = getattr(stats, field)
            ok = got == value
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {label}: {field} {got} (want {value})")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="check exact baseline counters instead of timing")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
