"""Command line front end.

One sentence per input line.  A token is looked up in the lexicon
first; failing that it must be a raw category name.  cfg mode prints
reduction sequences, hpsg mode prints the dumps of the accepted signs.
Store events go to stderr with --trace, counter totals with --stats.
Exit status: 0 when every line got at least one analysis, 1 when some
line got none, 2 on usage or grammar errors.
"""

from __future__ import annotations

import argparse
import io
import itertools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

from .cfg import Search, format_derivation
from .errors import GrammarError, UsageError
from .grammar import Grammar, load_grammar_file
from .hpsg import parse_hpsg, sign_dump
from .store import Stats


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="clparse",
        description="parse sentences against a constraint grammar")
    p.add_argument("--grammar", required=True, metavar="PATH",
                   help="grammar file to load")
    p.add_argument("--mode", choices=("cfg", "hpsg"), default="cfg",
                   help="reduction sequences or full signs (default: cfg)")
    p.add_argument("--strategy", choices=("active", "gentest"), default="active",
                   help="check while building, or build then check")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="STR", help="one sentence")
    src.add_argument("--file", metavar="PATH", help="sentences, one per line")
    p.add_argument("--limit", type=int, default=None, metavar="N",
                   help="cap the analyses reported per sentence")
    p.add_argument("--dedupe-trees", action="store_true",
                   help="keep one derivation per distinct tree")
    p.add_argument("--trace", action="store_true",
                   help="store events to stderr")
    p.add_argument("--stats", action="store_true",
                   help="counter totals to stderr")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="parse input lines in parallel")
    return p


def _taggings(tokens, g: Grammar):
    """Category sequences a token line can stand for, lexicon first."""
    names = {c.name for c in g.categories()}
    per = []
    for tok in tokens:
        entries = g.entries(tok)
        if entries:
            cats = []
            for e in entries:
                if e.category not in cats:
                    cats.append(e.category)
            per.append(cats)
        elif tok in names:
            per.append([tok])
        else:
            raise UsageError(f"unknown token {tok!r}")
    return [tuple(t) for t in itertools.product(*per)]


def analyze_line(line: str, g: Grammar, *, mode: str, strategy: str,
                 limit: int | None, dedupe: bool, traced: bool):
    """Parse one sentence.  Returns (text, n_analyses, stats, trace)."""
    tokens = line.split()
    if not tokens:
        raise UsageError("empty sentence")
    buf = io.StringIO() if traced else None
    trace = (lambda s: buf.write(s + "\n")) if traced else None

    if mode not in ("cfg", "hpsg"):
        raise UsageError(f"unknown mode {mode!r}")
    if mode == "hpsg":
        signs, stats = parse_hpsg(tokens, g, strategy=strategy, limit=limit,
                                  trace=trace)
        text = "\n\n".join(sign_dump(s) for s in signs)
        return text, len(signs), stats, buf.getvalue() if buf else ""

    # A tree's first derivation can come after `limit` others, so a dedupe
    # searches each tagging whole; a tree's leaves are its tagging.
    search = Search(g, strategy, limit=None if dedupe else limit, trace=trace)
    per_tagging = ((d for _, d in search.trees(cats)) if dedupe else search.derivations(cats)
                   for cats in _taggings(tokens, g))
    found = list(itertools.islice(itertools.chain.from_iterable(per_tagging), limit))
    text = "\n".join(format_derivation(d) for d in found)
    return text, len(found), search.stats, buf.getvalue() if buf else ""


# The grammar of a pool worker, set once as the worker starts
# (`_adopt`); under fork it is inherited, never pickled.
_pool_grammar: Grammar | None = None


def _adopt(g: Grammar) -> None:
    global _pool_grammar
    _pool_grammar = g


def _pooled(task):
    return _worker(_pool_grammar, task)


def _worker(g: Grammar, task):
    line, mode, strategy, limit, dedupe, traced = task
    try:
        return "ok", analyze_line(line, g, mode=mode, strategy=strategy,
                                  limit=limit, dedupe=dedupe, traced=traced)
    except UsageError as e:
        return "usage", str(e)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    for flag, value in (("--jobs", args.jobs), ("--limit", args.limit)):
        if value is not None and value < 1:
            print(f"clparse: {flag} must be at least 1", file=sys.stderr)
            return 2

    try:
        g = load_grammar_file(args.grammar)
    except (GrammarError, UsageError, OSError) as e:
        print(f"clparse: {e}", file=sys.stderr)
        return 2

    if args.input is not None:
        raw = [args.input]
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                raw = fh.readlines()
        except OSError as e:
            print(f"clparse: {e}", file=sys.stderr)
            return 2
        except UnicodeDecodeError as e:
            print(f"clparse: {args.file}: not UTF-8 text ({e.reason})", file=sys.stderr)
            return 2
    lines = [s for s in (s.strip() for s in raw) if s]
    if not lines:
        print("clparse: no input", file=sys.stderr)
        return 2

    tasks = [(line, args.mode, args.strategy, args.limit, args.dedupe_trees, args.trace)
             for line in lines]
    if args.jobs > 1:
        # fork starts every worker up front: no more than there are lines,
        # nor than the machine has processors
        workers = min(args.jobs, len(lines), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers, initializer=_adopt,
                                 initargs=(g,)) as ex:
            results = list(ex.map(_pooled, tasks))   # input order kept
    else:
        results = [_worker(g, t) for t in tasks]

    headers = len(lines) > 1
    any_empty = False
    totals = Stats()
    for line, (status, payload) in zip(lines, results):
        if status == "usage":
            print(f"clparse: {payload}", file=sys.stderr)
            return 2
        text, n, stats, trace_text = payload
        if trace_text:
            sys.stderr.write(trace_text)
        if headers:
            print(f"# {line}")
        if text:
            print(text)
        if headers:
            print()
        if n == 0:
            any_empty = True
        totals.merge(stats)

    if args.stats:
        for key, value in asdict(totals).items():
            print(f"{key} {value}", file=sys.stderr)
    return 1 if any_empty else 0


if __name__ == "__main__":
    sys.exit(main())
