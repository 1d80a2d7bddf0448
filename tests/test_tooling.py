"""The benchmark's span tracer against the package: every name
`bench/tracing.py` wraps must exist, so a rename fails here rather than
in a traced benchmark run.  The test reads `bench/` and edits nothing."""

import importlib.util
from pathlib import Path

import clparse
from clparse.grammar import load_grammar_file

ROOT = Path(__file__).resolve().parent.parent
TOY_LEX = str(ROOT / "grammars" / "toy_lex.clg")


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_wraps_the_package_and_takes_the_wrappers_off():
    tracing = _tracing()
    originals = {name: getattr(clparse.hpsg, name)
                 for name in ("parse_hpsg",) + tracing.HPSG_STEPS}
    encode_node = clparse.fstruct.FeatureStructure.encode_node
    g = load_grammar_file(TOY_LEX)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, clparse)
    try:
        signs, _ = clparse.hpsg.parse_hpsg("the cat sleeps".split(), g)
        # the sign pipeline searches without cfg.parse, so call it here
        # to see its wrapper installed and counted
        clparse.cfg.parse(("NP", "VP"), g)
    finally:
        uninstall()
    assert len(signs) == 1
    assert tracer.calls["hpsg.parse_hpsg"] == 1
    assert tracer.calls["hpsg.lexical_sign"] == 3
    assert tracer.calls["cfg.parse"] == 1
    assert tracer.calls["store.new"] > 0
    assert {name: getattr(clparse.hpsg, name) for name in originals} == originals
    assert clparse.fstruct.FeatureStructure.encode_node is encode_node
    assert clparse.parse_hpsg is originals["parse_hpsg"]
