"""The benchmark against the package: every name `bench/tracing.py`
wraps must exist, every committed grammar must load, and every
workload's own run and check must pass on its sentences (the capped
11-token one aside), so that a change to the package fails here rather
than in a benchmark run; the active search must scan no dead state on
the `cfg-active` sentences, and the README's A1 counters must be those
of the counter table in `counters.py`.  The tests read `bench/` and
edit nothing.  Last, the counter table imports the standard library
alone, no module of the package or of its tests may import a name it
never uses, no module of the package may read another's underscore
name, and every class, and every class attribute, the README names
exists, as does every feature-structure name of its "Feature
structures" bullet, and its "Grammar files" example loads."""

import ast
import builtins
import dataclasses
import importlib.util
import inspect
import pkgutil
import re
import sys
import textwrap
from pathlib import Path

import pytest

import clparse
import counters
from clparse import fstruct
from clparse.grammar import load_grammar, load_grammar_file

ROOT = Path(__file__).resolve().parent.parent
TOY_LEX = str(ROOT / "grammars" / "toy_lex.clg")
GRAMMARS = sorted((ROOT / "grammars").glob("*.clg")) + sorted((ROOT / "bench").glob("*.clg"))


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", GRAMMARS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_committed_grammar_loads(path):
    assert load_grammar_file(str(path)).rules


def test_hpsg_signs_workload_runs_and_checks():
    w = _bench_module("workloads").WORKLOADS["hpsg-signs"]
    g = load_grammar_file(str(ROOT / w.grammar))
    assert len(w.inputs) == 20
    for words in w.inputs:
        output, stats = w.run(clparse, g, words)
        assert w.check(clparse, g, words, output, stats) is None, words


@pytest.mark.parametrize("name", ["cfg-active", "cfg-dead-ends"])
def test_cfg_workload_runs_and_checks(name):
    # every sentence but the capped one, whose oracle alone takes
    # seconds; the counter table in counters.py pins its counters
    workloads = _bench_module("workloads")
    w = workloads.WORKLOADS[name]
    g = load_grammar_file(str(ROOT / w.grammar))
    inputs = [s for s in w.inputs if s != workloads.CAPPED]
    for cats in inputs:
        output, stats = w.run(clparse, g, cats)
        assert w.check(clparse, g, cats, output, stats) is None, cats


def test_active_scans_no_dead_state_on_the_cfg_active_sentences():
    # the grammar's neighbour table leaves active no state without a
    # derivation on a grammatical toy sentence, and fewer windows than
    # gentest on each, so losing the pruning fails here and not only in
    # the benchmark's times
    w = _bench_module("workloads").WORKLOADS["cfg-active"]
    g = load_grammar_file(str(ROOT / w.grammar))
    assert len(w.inputs) == 27
    for cats in w.inputs:
        _, active = clparse.cfg.parse(cats, g, strategy="active")
        _, gentest = clparse.cfg.parse(cats, g, strategy="gentest")
        assert active.backtracks == 0, cats
        assert active.windows_tried < gentest.windows_tried, cats


def test_the_readme_quotes_the_a1_counters_of_a_fresh_parse():
    # the window parser's paragraph quotes what each strategy does on the
    # 7-token A1 sentence, as the counter table pins it; each solve is one
    # Spells run, and the states are those a fresh search memoizes
    text = " ".join((ROOT / "README.md").read_text().split())
    quoted = re.search(r"On the 7-token A1 sentence that is (\d+) windows, each one a reduction, "
                       r"found by (\d+) solves for its (\d+) states, none of them dead\. "
                       r"Trying every position takes (\d+) windows and (\d+) reductions over "
                       r"(\d+) states, (\d+) of them dead\.", text)
    assert quoted
    g = load_grammar_file(str(ROOT / "grammars" / "toy.clg"))
    a1 = tuple(counters.A1.split())
    active, gentest = clparse.cfg.Search(g, "active"), clparse.cfg.Search(g, "gentest")
    assert tuple(active.derivations(a1)) == tuple(gentest.derivations(a1))
    sa, sg = (counters.pinned("toy", "cfg", a1, s) for s in ("active", "gentest"))
    assert sa["windows_tried"] == sa["reductions_applied"] and sa["backtracks"] == 0
    assert tuple(map(int, quoted.groups())) == (
        sa["windows_tried"], sa["propagation_steps"], len(active.memo),
        sg["windows_tried"], sg["reductions_applied"], len(gentest.memo), sg["backtracks"])


def test_the_readme_quotes_the_phrase_table_sizes():
    # the sign-licensing paragraph quotes the entries the loader decides
    text = " ".join((ROOT / "README.md").read_text().split())
    quoted = re.search(r"on `bench/lex\.clg` it has (\d+) entries .*? "
                       r"on `grammars/toy_lex\.clg` (\d+) entries", text)
    assert quoted
    sizes = [len(load_grammar_file(str(ROOT / path)).phrase_table)
             for path in ("bench/lex.clg", "grammars/toy_lex.clg")]
    assert list(map(int, quoted.groups())) == sizes


def test_tracing_wraps_the_package_and_takes_the_wrappers_off():
    tracing = _bench_module("tracing")
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


@pytest.mark.parametrize("strategy", ["active", "gentest"])
def test_every_phrase_passes_each_traced_step_once(strategy):
    # the per-layer lines time these steps, so the pipeline must call
    # each of them once per phrase: three phrases in "the cat sleeps".
    # The install writes every mother's lists and, with every head
    # realized here, shares each head, so the pipeline calls neither
    # apply_valency nor apply_hfp; their spans read 0.  The loader
    # decides each phrase's local-tree checks, and the daughters of an
    # install are distinct signs, so check_local_tree's and
    # post_unicity's spans read 0 as well.
    tracing = _bench_module("tracing")
    g = load_grammar_file(TOY_LEX)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer, clparse)
    try:
        signs, _ = clparse.hpsg.parse_hpsg("the cat sleeps".split(), g, strategy=strategy)
    finally:
        uninstall()
    assert len(signs) == 1
    steps = ("check_local_tree", "attach_daughters", "post_unicity", "apply_hfp", "apply_valency")
    assert {s: tracer.calls[f"hpsg.{s}"] for s in steps} == dict(
        check_local_tree=0, attach_daughters=3, post_unicity=0, apply_hfp=0, apply_valency=0)


def test_the_counter_table_imports_the_standard_library_alone():
    # so that a script outside the tests can load it by path: no pytest,
    # no hypothesis, no clparse, nothing relative
    tree = ast.parse((ROOT / "tests" / "counters.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [("." * node.level) + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported
            if name.split(".")[0] not in sys.stdlib_module_names] == []


def test_every_exported_name_resolves_once():
    missing = [name for name in clparse.__all__ if not hasattr(clparse, name)]
    assert not missing
    assert len(clparse.__all__) == len(set(clparse.__all__))


# __init__ imports to re-export; every other module, tests included,
# imports to use
MODULES = sorted(p for p in (ROOT / "src" / "clparse").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


PACKAGE = sorted((ROOT / "src" / "clparse").glob("*.py"))


def _bound_names(tree) -> set:
    """Every name the module defines, assigns, takes as an argument or
    sets as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
    return out


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_reads_another_modules_underscore_name(path):
    # `x._name` is another module's private name when x is not self or
    # cls and the module itself binds _name nowhere; a relative import
    # of an underscore name is one too
    tree = ast.parse(path.read_text())
    own = _bound_names(tree)
    foreign = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__") and node.attr not in own
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            foreign.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and node.level:
            foreign += [(node.lineno, alias.name) for alias in node.names
                        if alias.name.startswith("_")]
    assert not foreign, f"{path.name}: reads another module's private name: {foreign}"


def _attributes(cls) -> set:
    """What a class and its instances carry: the class's attributes, its
    dataclass fields, and what an `__init__` of it or a base sets on
    self."""
    names = set(dir(cls))
    if dataclasses.is_dataclass(cls):
        names.update(f.name for f in dataclasses.fields(cls))
    for klass in cls.__mro__:
        init = vars(klass).get("__init__")
        if inspect.isfunction(init) and not dataclasses.is_dataclass(klass):
            tree = ast.parse(textwrap.dedent(inspect.getsource(init)))
            names.update(node.attr for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                         and isinstance(node.value, ast.Name) and node.value.id == "self")
    return names


def test_every_class_the_readme_names_exists():
    # a backticked CamelCase name, alone or opening a call or an
    # attribute, is a builtin or a name in the package or one of its
    # modules, and a backticked `Class.attribute` one the class or its
    # instances carry, so the README cannot go on naming a deleted class
    # or attribute
    modules = [builtins, clparse] + [importlib.import_module(f"clparse.{m.name}")
                                     for m in pkgutil.iter_modules(clparse.__path__)]
    readme = (ROOT / "README.md").read_text()
    name = r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)"
    found = {n: next((getattr(m, n) for m in modules if hasattr(m, n)), None)
             for n in re.findall(name + "[`(.]", readme)}
    assert not sorted(n for n, obj in found.items() if obj is None)
    attributes = set(re.findall(name + r"\.([A-Za-z_]\w*)", readme))
    assert attributes
    assert not sorted(f"{n}.{a}" for n, a in attributes if a not in _attributes(found[n]))


def test_every_name_the_feature_structures_bullet_gives_exists():
    # a backticked lower-case name in the README's "Feature structures"
    # bullet, alone or opening a call, is a `FeatureStructure` attribute
    # or a name in `clparse.fstruct`, so the README cannot go on naming
    # a deleted method
    readme = (ROOT / "README.md").read_text()
    bullet = re.search(r"^- \*\*Feature structures\*\*.*?\n\n", readme, re.S | re.M).group()
    names = set(re.findall(r"`([a-z_]\w*)[`(]", bullet))
    assert {"add", "instantiate", "compile_avm", "parse_avm"} <= names
    assert not sorted(n for n in names
                      if not hasattr(fstruct.FeatureStructure, n) and not hasattr(fstruct, n))


def test_the_readme_grammar_example_loads():
    # the "Grammar files" code block is the language's example, so it
    # cannot go on using a declaration the loader refuses
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Grammar files\n\n```\n(.*?)^```", readme, re.S | re.M).group(1)
    g = load_grammar(block)
    assert (len(g.rules), len(g.fcrs), sum(map(len, g.lexicon.values()))) == (3, 1, 1)
