import os
import pickle
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import clparse
from clparse import cli
from clparse.cfg import parse
from clparse.cli import main
from clparse.grammar import Grammar, load_grammar, load_grammar_file
from clparse.hpsg import parse_hpsg, sign_dump
from clparse.store import Store

TOY = "grammars/toy.clg"
TOY_LEX = "grammars/toy_lex.clg"
SENT7 = "Det Nm Vb Det Nm Prep Nm"

T1_TEXT = ("<<NP>, <Det,Nm>, <NP>, <Det,Nm>, <NP>, <Nm>, <PP>, <Prep,NP>, "
           "<VP>, <Vb,NP,PP>, <S>, <NP,VP>>")

AMBIG = """\
start S.
rule S -> A B.
rule S -> C B.
lex "x" A [m: a].
lex "x" C [m: c].
lex "y" B [m: b].
"""


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_module(*argv):
    """`python -m clparse.cli` in a child process that imports the same
    clparse as this one, whether or not PYTHONPATH is set."""
    src = str(Path(clparse.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "clparse.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_single_sentence(capsys):
    rc, out, err = run(capsys, "--grammar", TOY, "--input", SENT7)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == T1_TEXT
    assert len(lines) > 3
    assert not any(line.startswith("#") for line in lines)
    assert err == ""


def test_limit(capsys):
    rc, out, _ = run(capsys, "--grammar", TOY, "--input", SENT7, "--limit", "2")
    assert rc == 0
    assert len(out.splitlines()) == 2


def test_dedupe_trees_collapses_to_one(capsys):
    rc, out, _ = run(capsys, "--grammar", TOY, "--input", SENT7, "--dedupe-trees")
    assert rc == 0
    assert out.splitlines() == [T1_TEXT]


def test_dedupe_trees_keeps_every_tree(capsys, tmp_path):
    # S -> S S over n tokens has Catalan(n - 1) trees, whose derivation
    # texts carry no positions and all replay to the same first tree
    f = tmp_path / "binary.clg"
    f.write_text("start S. rule S -> S S. rule S -> x.")
    for n, trees in ((3, 2), (4, 5), (5, 14)):
        rc, out, _ = run(capsys, "--grammar", str(f), "--input", " ".join(["x"] * n),
                         "--dedupe-trees")
        assert rc == 0
        assert len(set(out.splitlines())) == len(out.splitlines()) == trees


def test_unknown_strategy_is_a_usage_error():
    g = load_grammar_file(TOY_LEX)
    for mode in ("cfg", "hpsg"):
        with pytest.raises(cli.UsageError, match="unknown strategy"):
            cli.analyze_line("the cat sleeps", g, mode=mode, strategy="eager", limit=None,
                             dedupe=False, traced=False)
    with pytest.raises(cli.UsageError, match="unknown mode"):
        cli.analyze_line("the cat sleeps", g, mode="hpgs", strategy="active", limit=None,
                         dedupe=False, traced=False)


def test_no_analysis_exits_one(capsys):
    rc, out, _ = run(capsys, "--grammar", TOY, "--input", "Prep")
    assert rc == 1
    assert out == ""


def test_unknown_token_exits_two(capsys):
    rc, _, err = run(capsys, "--grammar", TOY, "--input", "Zz Nm")
    assert rc == 2
    assert "unknown token" in err


def test_missing_grammar_exits_two(capsys):
    rc, _, err = run(capsys, "--grammar", "grammars/none.clg", "--input", "Nm")
    assert rc == 2
    assert err


def test_broken_grammar_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.clg"
    bad.write_text("rule S ->.\n")
    rc, _, err = run(capsys, "--grammar", str(bad), "--input", "Nm")
    assert rc == 2
    assert "right-hand side" in err
    # an fcr over a feature no sign can carry, in either mode
    text = Path(TOY_LEX).read_text() + "fcr CASE -> NOSUCH.\n"
    bad.write_text(text)
    for mode in ("cfg", "hpsg"):
        rc, out, err = run(capsys, "--grammar", str(bad), "--mode", mode,
                           "--input", "the cat sleeps")
        assert (rc, out) == (2, "")
        assert f"line {text.count(chr(10))}: fcr names unknown features" in err


def test_a_rule_star_exits_two_on_its_line(capsys, tmp_path):
    bad = tmp_path / "star.clg"
    bad.write_text("start X.\nrule* X -> A A.\n")
    rc, out, err = run(capsys, "--grammar", str(bad), "--input", "A A")
    assert (rc, out) == (2, "")
    assert "line 2: unknown declaration 'rule*'" in err


def test_empty_input_exits_two(capsys):
    rc, _, err = run(capsys, "--grammar", TOY, "--input", "   ")
    assert rc == 2
    assert "empty" in err or "no input" in err


def test_source_flags_are_exclusive(capsys):
    assert main(["--grammar", TOY, "--input", "Nm", "--file", "x"]) == 2
    assert main(["--grammar", TOY]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "--strategy" in out


def test_file_input_with_headers(capsys, tmp_path):
    f = tmp_path / "sents.txt"
    f.write_text(f"{SENT7}\n\nPrep\n")
    rc, out, _ = run(capsys, "--grammar", TOY, "--file", str(f))
    assert rc == 1   # the second sentence has no analysis
    lines = out.splitlines()
    assert lines[0] == f"# {SENT7}"
    assert "# Prep" in lines
    assert T1_TEXT in lines


def test_jobs_keep_input_order(capsys, tmp_path):
    f = tmp_path / "sents.txt"
    f.write_text("Det Nm Vb Det Nm Prep Nm\nNm Vb Nm\nDet Nm Vb Nm\n")
    rc1, out1, err1 = run(capsys, "--grammar", TOY, "--file", str(f), "--stats")
    rc2, out2, err2 = run(capsys, "--grammar", TOY, "--file", str(f), "--jobs", "3",
                          "--stats")
    assert (rc1, out1) == (rc2, out2)
    # --stats sums every field over the lines, in field order, however
    # many workers parsed them
    assert err1 == err2
    g = load_grammar_file(TOY)
    per_line = [asdict(parse(line.split(), g)[1]) for line in f.read_text().splitlines()]
    assert err1.splitlines() == [f"{key} {sum(s[key] for s in per_line)}"
                                 for key in per_line[0]]


@pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--jobs", "-3"),
                                        ("--limit", "0"), ("--limit", "-1")])
def test_jobs_below_one_exit_two(capsys, flag, value):
    rc, out, err = run(capsys, "--grammar", TOY, "--input", SENT7, flag, value)
    assert rc == 2
    assert f"clparse: {flag} must be at least 1" in err
    assert out == ""


def test_jobs_capped_at_the_number_of_lines(capsys, tmp_path, monkeypatch):
    # A fake pool: records the worker count and runs the tasks inline,
    # so the test starts no process.
    seen = []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            seen.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    f = tmp_path / "sents.txt"
    f.write_text("Nm Vb Nm\nDet Nm Vb Nm\n")
    rc, out, _ = run(capsys, "--grammar", TOY, "--file", str(f), "--jobs", "5000")
    assert seen == [min(2, os.cpu_count() or 1)]
    assert (rc, out) == run(capsys, "--grammar", TOY, "--file", str(f))[:2]
    # more lines than processors: the processors bound the pool, and a
    # machine that cannot count its processors gets one worker
    f.write_text("Nm Vb Nm\n" * 5)
    for cpus, workers in ((3, 3), (None, 1)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        seen.clear()
        rc, out, _ = run(capsys, "--grammar", TOY, "--file", str(f), "--jobs", "5000")
        assert seen == [workers]
        assert (rc, out) == run(capsys, "--grammar", TOY, "--file", str(f))[:2]


def test_stats_go_to_stderr(capsys):
    rc, out, err = run(capsys, "--grammar", TOY, "--input", SENT7, "--stats")
    assert rc == 0
    for key in ("windows_tried", "reductions", "backtracks",
                "completeness_tests", "ask_evaluations"):
        assert key in err
        assert key not in out


def test_trace_goes_to_stderr(capsys):
    rc, out, err = run(capsys, "--grammar", TOY, "--input", "Nm Vb Nm Prep Nm",
                       "--trace")
    assert rc == 0
    assert "EVENT" in err
    assert "EVENT" not in out


def test_trace_does_not_depend_on_the_hash_seed(tmp_path, monkeypatch):
    # a frame with several unrealized members is decided off the traced
    # store, so none of them, nor any well-formedness, makes a variable
    grammar = tmp_path / "frame.clg"
    grammar.write_text(
        "start S. rule S -> NP VP. rule NP -> Nm. rule VP -> Vb.\n"
        "frame NP { M = {Nm,Det,Adj,PP}; C = {Nm}; head = Nm; }\n"
        "proj Nm = NP. proj Vb = VP. proj VP = S.\n"
        'lex "dogs" Nm [synsem: [loc: [cat: [head: [maj: n]]]]] subcat [].\n'
        'lex "bark" Vb [synsem: [loc: [cat: [head: [maj: v]]]]] subj [NP] subcat [].\n')
    traces = []
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = run_module("--grammar", str(grammar), "--mode", "hpsg",
                          "--input", "dogs bark", "--trace")
        assert proc.returncode == 0
        traces.append(proc.stderr)
    assert traces[0] == traces[1]
    assert "Spells" in traces[0] and "wf:" not in traces[0]


def test_hpsg_mode_dumps_signs(capsys):
    rc, out, err = run(capsys, "--grammar", TOY_LEX, "--mode", "hpsg",
                       "--input", "the cat sleeps", "--stats")
    assert rc == 0
    assert "head_dtr" in out
    assert out.rstrip().splitlines()[-1].startswith("WF ")
    assert "expansions" in err
    assert "signs_accepted" in err


def test_hpsg_jobs_pickle_the_compiled_templates(capsys, tmp_path, monkeypatch):
    # The grammar's lexical entries hold their compiled templates, the
    # restrictions folded in at load, and "sleeps", whose vform status is
    # open, its restriction site for every tree to post; the grammar
    # pickled parses the same, and the workers parse as one process does.
    with open(TOY_LEX) as fh:
        g = load_grammar(fh.read().replace("maj: v, vform: fin", "maj: v, ?vform: fin"))
    entries = [e for es in g.lexicon.values() for e in es]
    assert all(e.template for e in entries)
    assert {e.form for e in entries if e.sites} == {"sleeps"}
    monkeypatch.setattr(cli, "load_grammar_file", lambda path: g)
    f = tmp_path / "sents.txt"
    f.write_text("the cat sleeps\ncat the sleeps\nthe cat sleeps\n")
    argv = ("--grammar", TOY_LEX, "--mode", "hpsg", "--file", str(f), "--stats")
    one = run(capsys, *argv)
    copy = pickle.loads(pickle.dumps(g))
    for words in ("the cat sleeps".split(), "cat the sleeps".split()):
        signs, stats = parse_hpsg(words, g)
        copied, copied_stats = parse_hpsg(words, copy)
        assert [sign_dump(s) for s in copied] == [sign_dump(s) for s in signs]
        assert copied_stats == stats
    two = run(capsys, *argv, "--jobs", "2")
    assert one == two
    assert one[0] == 1 and one[1].count("WF ") == 2


def test_jobs_hand_each_worker_the_grammar_once(capsys, tmp_path, monkeypatch):
    # at most once per worker, however many lines: none under fork, one
    # per worker where the pool pickles what starts a worker
    pickled = []

    def getstate(self):
        pickled.append(self)
        return self.__dict__

    monkeypatch.setattr(Grammar, "__getstate__", getstate, raising=False)
    f = tmp_path / "sents.txt"
    f.write_text("the cat sleeps\ncat the sleeps\n" * 6)
    argv = ("--grammar", TOY_LEX, "--mode", "hpsg", "--file", str(f))
    one = run(capsys, *argv)
    assert pickled == []
    two = run(capsys, *argv, "--jobs", "2")
    assert one == two and one[0] == 1 and one[1].count("WF ") == 6
    assert len(pickled) <= min(2, os.cpu_count() or 1)


@pytest.mark.parametrize("line", [
    "fcr " + "~" * 3000 + "PFORM -> INDEX.",
    'lex "deep" Nm ' + "[a: " * 3000 + "b" + "]" * 3000 + " subcat [].",
])
def test_deeply_nested_grammar_text_exits_two(tmp_path, line):
    bad = tmp_path / "deep.clg"
    bad.write_text(open(TOY_LEX).read() + "\n" + line + "\n")
    proc = run_module("--grammar", str(bad), "--mode", "hpsg", "--input", "the cat sleeps")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "nested deeper than" in proc.stderr
    assert f"line {len(open(TOY_LEX).read().splitlines()) + 2}" in proc.stderr


@pytest.mark.parametrize("which", ["grammar", "file"])
def test_text_that_is_not_utf8_exits_two(tmp_path, which):
    grammar, sentences = tmp_path / "g.clg", tmp_path / "sents.txt"
    grammar.write_bytes(open(TOY_LEX, "rb").read())
    sentences.write_bytes(b"the cat sleeps\n")
    bad = grammar if which == "grammar" else sentences
    bad.write_bytes(bad.read_bytes() + "% caf\u00e9\n".encode("latin-1"))
    proc = run_module("--grammar", str(grammar), "--mode", "hpsg", "--file", str(sentences))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"clparse: {bad}: ")
    assert "not UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("strategy", ["active", "gentest"])
@pytest.mark.parametrize("schema, code", [("Vb", 1), ("Zzz", 2)])
def test_a_bad_lexical_schema_exits_without_a_traceback(tmp_path, strategy, schema, code):
    # Vb is no member of the NP frame, so no sign; Zzz is undeclared, so
    # the grammar does not load
    text = open(TOY_LEX).read()
    grammar = tmp_path / "g.clg"
    grammar.write_text(text.replace("schema {Det}.", f"schema {{{schema}}}."))
    proc = run_module("--grammar", str(grammar), "--mode", "hpsg", "--strategy", strategy,
                      "--input", "the cat sleeps")
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 2:
        line = 1 + next(i for i, row in enumerate(text.splitlines()) if row.startswith('lex "cat"'))
        assert f"line {line}: unknown category 'Zzz'" in proc.stderr


def test_hpsg_unknown_word_exits_two(capsys):
    rc, _, err = run(capsys, "--grammar", TOY_LEX, "--mode", "hpsg",
                     "--input", "the dog sleeps")
    assert rc == 2
    assert "unknown word" in err


def test_words_stand_for_their_categories_in_cfg_mode(capsys):
    rc, out, _ = run(capsys, "--grammar", TOY_LEX, "--input", "the cat sleeps")
    assert rc == 0
    assert "<S>, <NP,VP>" in out


def test_ambiguous_words_try_every_tagging(capsys, tmp_path):
    f = tmp_path / "ambig.clg"
    f.write_text(AMBIG)
    rc, out, _ = run(capsys, "--grammar", str(f), "--input", "x y")
    assert rc == 0
    assert out.splitlines() == ["<<S>, <A,B>>", "<<S>, <C,B>>"]
    # a limit met in the first tagging searches no later one
    rc, out, err = run(capsys, "--grammar", str(f), "--input", "x y", "--limit", "1", "--stats")
    assert out.splitlines() == ["<<S>, <A,B>>"]
    first = parse(("A", "B"), load_grammar_file(str(f)), limit=1)[1]
    assert {key: int(value) for key, value in map(str.split, err.splitlines())} == asdict(first)


def test_module_entry_point():
    proc = run_module("--grammar", TOY, "--input", "Nm Vb Nm Prep Nm")
    assert proc.returncode == 0
    assert "<S>, <NP,VP>" in proc.stdout


def test_stats_equal_library_counters(capsys):
    cases = (
        (("--grammar", TOY, "--input", SENT7),
         parse(SENT7.split(), load_grammar_file(TOY))[1]),
        # --limit bounds the work, not only the output
        (("--grammar", TOY, "--input", SENT7, "--limit", "1"),
         parse(SENT7.split(), load_grammar_file(TOY), limit=1)[1]),
        (("--grammar", TOY_LEX, "--mode", "hpsg", "--input", "the cat sleeps"),
         parse_hpsg("the cat sleeps".split(), load_grammar_file(TOY_LEX))[1]),
    )
    for argv, lib_stats in cases:
        assert type(lib_stats) is clparse.Stats
        rc, _, err = run(capsys, *argv, "--stats")
        assert rc == 0
        want = asdict(lib_stats)
        assert want["propagation_steps"] > 0
        assert {key: int(value) for key, value in map(str.split, err.splitlines())} == want
    # one stats type: the store, both parsers and the CLI share it
    assert type(Store().counters) is clparse.Stats
    src = Path(clparse.__file__).parent
    assert [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"ParseStats|HpsgStats|Counters\b|STAT_KEYS", line)] == []
