import collections
import copy
import gc
import importlib.util
import itertools
import math
import pickle
import sys
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies

import counters
from checks import CAT, valency_pairs
from clparse import hpsg
from clparse.cfg import Search
from clparse.constraints import bool_post, eq
from clparse.errors import GrammarError, InconsistencyError, UsageError
from clparse.fstruct import Bool3, FeatureStructure, Ref, parse_avm
from clparse.grammar import load_grammar, load_grammar_file, parse_fcr, template_sites
from clparse.hpsg import (
    LocalTree,
    Sign,
    _HeadWait,
    _cancel,
    _head_index,
    _split_realized,
    apply_hfp,
    apply_valency,
    attach_daughters,
    check_local_tree,
    compile_fcr,
    frame_holds,
    lexical_sign,
    parse_hpsg,
    post_fcrs,
    post_subcat,
    post_unicity,
    sign_dump,
    valency_of,
)
from clparse.logic import Not, Var
from clparse.store import Store

TOY_LEX = "grammars/toy_lex.clg"


@pytest.fixture(scope="module")
def toy():
    return load_grammar_file(TOY_LEX)


def fresh():
    st = Store()
    return st, FeatureStructure(st)


def entry_sign(g, form, fs):
    return lexical_sign(fs, g.entries(form)[0])


def saturated(cat):
    """The signature of a phrase of `cat` with empty lists."""
    return (cat, (), (), None)


# -- local tree gate ------------------------------------------------------


def test_np_det_nm_is_well_formed(toy):
    st, fs = fresh()
    det = entry_sign(toy, "the", fs)
    nm = entry_sign(toy, "cat", fs)
    assert check_local_tree(LocalTree("NP", (("Det", det), ("Nm", nm))), toy) == ()


def test_precedence_violation(toy):
    st, fs = fresh()
    det = entry_sign(toy, "the", fs)
    nm = entry_sign(toy, "cat", fs)
    violations = check_local_tree(LocalTree("NP", (("Nm", nm), ("Det", det))), toy)
    assert [v.kind for v in violations] == ["precedence"]


def test_distinctness_same_sign_twice(toy):
    st, fs = fresh()
    det = entry_sign(toy, "the", fs)
    kinds = {v.kind for v in check_local_tree(LocalTree("NP", (("Det", det), ("Det", det))), toy)}
    assert "distinctness" in kinds
    # nothing projects NP here either
    assert "projection" in kinds


def test_distinctness_needs_same_reference():
    g = load_grammar("rule X -> A A. proj A = X. start X.")
    _, fs = fresh()
    a1 = Sign(fs, fs.encode_node({"synsem": {"loc": {"cat": {}}}}), saturated("A"))
    a2 = Sign(fs, fs.encode_node({"synsem": {"loc": {"cat": {}}}}), saturated("A"))
    tree = LocalTree("X", (("A", a1), ("A", a2)))
    kinds = {v.kind for v in check_local_tree(tree, g)}
    assert "distinctness" not in kinds
    same = LocalTree("X", (("A", a1), ("A", a1)))
    kinds = {v.kind for v in check_local_tree(same, g)}
    assert "distinctness" in kinds


def test_rule_star_opts_out_of_distinctness():
    g = load_grammar("rule* X -> A A. proj A = X. start X.")
    _, fs = fresh()
    a = Sign(fs, fs.encode_node({"synsem": {"loc": {"cat": {}}}}), saturated("A"))
    tree = LocalTree("X", (("A", a), ("A", a)))
    kinds = {v.kind for v in check_local_tree(tree, g)}
    assert "distinctness" not in kinds
    # one rule* among the rules over the tree waives the check
    mixed = load_grammar("rule* X -> A A. rule X -> A A. proj A = X. start X.")
    assert "distinctness" not in {v.kind for v in check_local_tree(tree, mixed)}


def test_dominance_violation(toy):
    violations = check_local_tree(LocalTree("S", (("NP", None), ("PP", None))), toy)
    assert "dominance" in {v.kind for v in violations}


def test_valency_violation(toy):
    # valency is decided by the split, not by the gate
    st, fs = fresh()
    vb = entry_sign(toy, "sleeps", fs)
    det = entry_sign(toy, "the", fs)
    with pytest.raises(InconsistencyError, match="not subcategorized"):
        _split_realized(*valency_of(vb), (det.category,))


def test_projection_violation(toy):
    violations = check_local_tree(LocalTree("VP", (("NP", None),)), toy)
    assert "projection" in {v.kind for v in violations}


def test_local_tree_needs_daughters(toy):
    with pytest.raises(UsageError):
        check_local_tree(LocalTree("NP", ()), toy)


# -- valency bookkeeping ---------------------------------------------------


def test_cancellation_is_suffixwise():
    assert _cancel(("Det", "PP"), (), "comps") == ("Det", "PP")
    assert _cancel(("Det", "PP"), ("PP",), "comps") == ("Det",)
    assert _cancel(("Det", "PP"), ("Det", "PP"), "comps") == ()
    with pytest.raises(InconsistencyError):
        _cancel(("Det", "PP"), ("Det",), "comps")
    with pytest.raises(InconsistencyError):
        _cancel(("NP",), ("NP", "NP"), "subj")


def test_split_realized_prefers_complements():
    # positions into the sisters: the subject NP second, the PP first
    split = _split_realized(("NP",), ("Det", "PP"), ("PP", "NP"))
    assert split == ((1,), (0,), (), ("Det",))


def test_split_realized_rejects_strangers():
    with pytest.raises(InconsistencyError):
        _split_realized((), (), ("PP",))
    with pytest.raises(InconsistencyError, match="one subject"):
        _split_realized(("NP", "NP"), (), ("NP", "NP"))


def test_split_realized_takes_only_saturated_sisters():
    # "do" selects a Vb complement: saturated "rains" fills it, but
    # "sleeps", whose subj [NP] is still open, has no entry as its
    # sister, though the split, which reads only categories, would take it
    g = _categorial()
    do, rains, sleeps = (g.entries(w)[0].signature for w in ("do", "rains", "sleeps"))
    assert sleeps[1] and ("VP", (sleeps,)) in g.phrase_table
    assert ("VP", (do, rains)) in g.phrase_table
    assert ("VP", (do, sleeps)) not in g.phrase_table
    assert _split_realized(do[1], do[2], ("Vb",)) == ((), (0,), ("NP",), ())
    for (label, sigs), d in g.phrase_table.items():
        assert all(sig[1:3] == ((), ()) for i, sig in enumerate(sigs) if i != d.head), label


def test_valency_of_defaults_to_empty(toy):
    _, fs = fresh()
    sign = Sign(fs, fs.encode_node({"synsem": {"loc": {"cat": {}}}}), saturated("X"))
    assert valency_of(sign) == ((), ())
    vb = entry_sign(toy, "sleeps", fs)
    assert valency_of(vb) == (("NP",), ())


def test_apply_valency_writes_mother_lists():
    st, fs = fresh()
    m = fs.encode_node({"synsem": {"loc": {"cat": {}}}}, default_status=Bool3.TRUE)
    apply_valency(fs, m, ("NP",), ("Det",))
    assert fs.resolve(CAT + ("subj",), m) == ("NP",)
    assert fs.resolve(CAT + ("comps",), m) == ("Det",)


# -- the mother install ------------------------------------------------------


def test_attach_daughters_links_the_daughters(toy):
    st, fs = fresh()
    vb = entry_sign(toy, "sleeps", fs)
    np, obj = (Sign(fs, fs.encode_node({"synsem": {"loc": {"cat": {}}}}), saturated("NP"))
               for _ in range(2))
    before = fs.dump(statuses=True), st.fingerprint()
    with pytest.raises(UsageError):
        attach_daughters(fs, vb, subj=[np, obj])
    assert (fs.dump(statuses=True), st.fingerprint()) == before
    root = attach_daughters(fs, vb, subj=[np], comps=[obj], mother_comps=("Det",))
    assert fs.resolve(("dtrs", "head_dtr"), root) == vb.root
    assert fs.resolve(("dtrs", "subj_dtr"), root) == np.root
    assert fs.resolve(("dtrs", "comp_dtrs"), root) == (Ref(obj.root),)
    assert fs.resolve(CAT + ("subj",), root) == ()
    assert fs.resolve(CAT + ("comps",), root) == ("Det",)
    # the head of "sleeps" is realized, so the install shares it
    assert vb.head == Ref(fs.resolve(CAT + ("head",), vb.root))
    assert fs.resolve(CAT + ("head",), root) == fs.resolve(CAT + ("head",), vb.root)
    assert fs.status_value(CAT + ("head",), root) is Bool3.TRUE
    assert st.counters.ask_evaluations == 0
    # and makes no store variable
    assert st.fingerprint() == before[1]


def test_attach_daughters_leaves_an_open_head_share_suspended():
    _, fs = fresh()
    head = Sign(fs, fs.encode_node(parse_avm("[synsem: [loc: [cat: [?head: [maj: v]]]]]"),
                                   Bool3.TRUE), saturated("Vb"))
    assert head.head is None
    root = attach_daughters(fs, head)
    cat = fs.resolve(CAT, root)
    assert fs.find(cat, "head") is None
    fs.set_status(CAT + ("head",), Bool3.TRUE, head.root)
    assert fs.resolve(CAT + ("head",), root) == fs.resolve(CAT + ("head",), head.root)


def test_unicity_detected_at_latest_on_assignment():
    st = Store()
    a, b, c = (st.new_var([1, 2], name=n, closed=True) for n in "abc")
    assert post_unicity((a, b, c), st)   # a priori
    ok = st.tell(eq(a, 1))
    ok = ok and st.tell(eq(b, 2))
    ok = ok and st.tell(eq(c, 2))
    assert not ok


def test_unicity_prunes_two_slots():
    st = Store()
    a = st.new_var([1, 2], name="a", closed=True)
    b = st.new_var([1, 2], name="b", closed=True)
    assert post_unicity((a, b), st)
    assert st.tell(eq(a, 1))
    assert list(st.domain(b)) == [2]


# -- boolean subcategorization ----------------------------------------------


def test_subcat_phrase_entails_compulsory_members(toy):
    st = Store()
    wf = {"NP": st.new_bool("NP"), "Det": st.new_bool("Det"), "Nm": st.new_bool("Nm")}
    assert post_subcat(toy.frames["NP"], st, wf)
    assert st.tell(bool_post(Not(Var(wf["Nm"]))))
    assert not st.tell(bool_post(Var(wf["NP"])))


def test_subcat_schema_requires_optional_members(toy):
    st = Store()
    wf = {"NP": st.new_bool("NP"), "Det": st.new_bool("Det"), "Nm": st.new_bool("Nm")}
    assert post_subcat(toy.frames["NP"], st, wf, schema=frozenset({"Det"}))
    assert st.tell(bool_post(Not(Var(wf["Det"]))))
    assert st.tell(bool_post(Var(wf["Nm"])))
    assert not st.tell(bool_post(Var(wf["NP"])))


def test_subcat_restricts_complement_categories(toy):
    st = Store()
    wf = {"NP": st.new_bool("NP"), "Det": st.new_bool("Det"), "Nm": st.new_bool("Nm")}
    v = st.new_var(["Det", "Nm", "Vb", "PP"], name="cat", closed=True)
    assert post_subcat(toy.frames["NP"], st, wf, complement_vars=[v])
    assert set(st.domain(v)) == {"Det", "Nm"}


# -- cooccurrence restrictions ------------------------------------------------


def test_fcr_realized_antecedent_forbids_consequent():
    st, fs = fresh()
    node = fs.encode_node({"pform": "with"}, default_status=Bool3.TRUE)
    f = parse_fcr("PFORM -> ~INDEX")
    assert st.tell(bool_post(compile_fcr(f, fs, node)))
    # the missing feature was materialized as a placeholder and pushed false
    assert fs.status_value("index", node) is Bool3.FALSE
    with pytest.raises(InconsistencyError):
        fs.set_status("index", Bool3.TRUE, node)


def test_fcr_value_literal_checks_the_atom():
    st, fs = fresh()
    node = fs.encode_node({"vform": "fin", "maj": "v"}, default_status=Bool3.TRUE)
    f = parse_fcr("VFORM -> MAJ[V]")
    assert st.tell(bool_post(compile_fcr(f, fs, node)))

    st2, fs2 = fresh()
    bad = fs2.encode_node({"vform": "fin", "maj": "n"}, default_status=Bool3.TRUE)
    assert not st2.tell(bool_post(compile_fcr(f, fs2, bad)))


def test_fcr_value_guard_waits_for_the_value():
    st, fs = fresh()
    node = fs.encode_node({"vform": "fin", "maj": None}, default_status=Bool3.TRUE)
    f = parse_fcr("VFORM -> MAJ[V]")
    assert st.tell(bool_post(compile_fcr(f, fs, node)))
    with pytest.raises(InconsistencyError):
        fs.add((("maj", node, "n", Bool3.TRUE),))

    st2, fs2 = fresh()
    late = fs2.encode_node({"vform": "fin", "maj": None}, default_status=Bool3.TRUE)
    assert st2.tell(bool_post(compile_fcr(f, fs2, late)))
    fs2.add((("maj", late, "v", Bool3.TRUE),))   # the sanctioned atom is fine


@pytest.mark.parametrize("value_first", [False, True])
def test_fcr_value_guard_reads_or_hears_the_value(value_first):
    # the guarded value is there when the restriction is posted, or a
    # placeholder `add` fills later; either way the guard fires once
    st, fs = fresh()
    node = fs.encode_node(parse_avm("[+case: nom, ?index]" if value_first else "[+case: -, ?index]"))
    assert st.tell(bool_post(compile_fcr(parse_fcr("CASE[NOM] -> ~INDEX"), fs, node)))
    if not value_first:
        assert fs.status_value("index", node) is Bool3.UNKNOWN
        fs.add([("case", node, "nom", Bool3.UNKNOWN)])
    assert fs.status_value("index", node) is Bool3.FALSE
    with pytest.raises(InconsistencyError):
        fs.set_status("index", Bool3.TRUE, node)


def test_fcr_unknown_feature_is_a_compile_error():
    # no sign of this grammar can carry INDEX: the grammar does not load
    head = 'rule S -> A. start S.\nlex "x" A [synsem: [pform: p]] subcat [].\n'
    with pytest.raises(GrammarError, match=r"line 3: fcr names unknown features: \['index'\]"):
        load_grammar(head + "fcr PFORM -> ~INDEX.")
    g = load_grammar(head.replace("pform: p", "pform: p, cont: [index: i]")
                     + "fcr PFORM -> ~INDEX.")
    st, fs = fresh()
    sign = lexical_sign(fs, g.entries("x")[0])
    assert st.tell(bool_post(compile_fcr(g.fcrs[0], fs, sign.root + 1)))
    assert fs.status_value("index", sign.root + 1) is Bool3.FALSE


@pytest.mark.parametrize("text", [
    "PFORM -> ~INDEX",
    "VFORM -> MAJ[V]",
    "PRD | VFORM -> VFORM[PAS] | VFORM[PRP]",
])
def test_canonical_restrictions_compile_and_post(text):
    st, fs = fresh()
    node = fs.encode_node({"maj": None}, default_status=Bool3.UNKNOWN)
    assert st.tell(bool_post(compile_fcr(parse_fcr(text), fs, node)))


def test_post_fcrs_instantiates_only_where_features_occur(toy):
    st, fs = fresh()
    sign = entry_sign(toy, "with", fs)
    post_fcrs(fs, sign.root, toy.fcrs)
    head = fs.resolve(CAT + ("head",), sign.root)
    assert fs.status_value("index", head) is Bool3.FALSE


def test_fcr_may_name_any_lexicon_or_skeleton_feature():
    text = open(TOY_LEX).read()
    for name in ("pform", "index", "maj", "vform", "case", "num", "cont",
                 "dtrs", "head_dtr", "subj_dtr", "comp_dtrs", "subj", "comps"):
        load_grammar(text + f"\nfcr {name.upper()} -> MAJ.\n")
    # the features a phrase's skeleton adds count without any lexicon
    load_grammar("rule S -> A. start S.\nfcr HEAD_DTR -> SUBJ_DTR | COMP_DTRS.")


# -- head feature sharing ------------------------------------------------------


def _headed_skeleton(fs, status):
    return fs.encode_node({
        "synsem": {"loc": {"cat": {}}},
        "dtrs": {"head_dtr": {"synsem": {"loc": {"cat": {"head": {"maj": "v"}}}}}},
    }, default_status=status)


def test_hfp_shares_the_head_node():
    st, fs = fresh()
    root = _headed_skeleton(fs, Bool3.TRUE)
    apply_hfp(fs, root)
    mother_head = fs.resolve(CAT + ("head",), root)
    daughter_head = fs.resolve(("dtrs", "head_dtr") + CAT + ("head",), root)
    assert mother_head == daughter_head
    # one node: a mutation through the daughter path shows through the mother
    fs.add((("vform", daughter_head, "fin", Bool3.TRUE),))
    assert fs.resolve(CAT + ("head", "vform"), root) == "fin"


def test_hfp_with_an_entailed_guard_installs_at_once():
    # no implication, no suspended ask: the head goes in realized
    st, fs = fresh()
    root = _headed_skeleton(fs, Bool3.TRUE)
    posted = len(st.posted)
    apply_hfp(fs, root)
    assert len(st.posted) == posted
    assert st.counters.ask_evaluations == 0
    assert fs.status_value(CAT + ("head",), root) is Bool3.TRUE
    assert fs.resolve(CAT + ("head",), root) == fs.resolve(
        ("dtrs", "head_dtr") + CAT + ("head",), root)


def test_hfp_waits_for_all_nine_statuses():
    st, fs = fresh()
    root = _headed_skeleton(fs, Bool3.UNKNOWN)
    apply_hfp(fs, root)
    cat = fs.resolve(CAT, root)
    paths = ("synsem", "synsem.loc", "synsem.loc.cat",
             "dtrs", "dtrs.head_dtr", "dtrs.head_dtr.synsem",
             "dtrs.head_dtr.synsem.loc", "dtrs.head_dtr.synsem.loc.cat",
             "dtrs.head_dtr.synsem.loc.cat.head")
    for path in paths[:-1]:
        fs.set_status(path, Bool3.TRUE, root)
        assert fs.find(cat, "head") is None
    fs.set_status(paths[-1], Bool3.TRUE, root)
    cell = fs.find(cat, "head")
    assert cell is not None
    assert st.bool_value(cell.status) is Bool3.TRUE
    assert cell.value.index == fs.resolve(
        ("dtrs", "head_dtr") + CAT + ("head",), root)


def test_a_clash_in_a_woken_share_fails_the_tell():
    # The mother's cat already has head x, so the share woken by the
    # ninth guard status clashes inside the ask's callback.  The tell
    # that woke it returns False and takes everything back, its own
    # status included.
    st, fs = fresh()
    root = fs.encode_node({
        "synsem": {"loc": {"cat": {"head": "x"}}},
        "dtrs": {"head_dtr": {"synsem": {"loc": {"cat": {"head": {"maj": "v"}}}}}},
    }, default_status=Bool3.UNKNOWN)
    apply_hfp(fs, root)
    paths = ("synsem", "synsem.loc", "synsem.loc.cat",
             "dtrs", "dtrs.head_dtr", "dtrs.head_dtr.synsem",
             "dtrs.head_dtr.synsem.loc", "dtrs.head_dtr.synsem.loc.cat",
             "dtrs.head_dtr.synsem.loc.cat.head")
    statuses = [fs.lookup(tuple(path.split(".")), root).status for path in paths]
    for status in statuses[:-1]:
        assert st.tell(bool_post(Var(status)))
    before = st.fingerprint(), fs.dump(statuses=True)
    assert st.tell(bool_post(Var(statuses[-1]))) is False
    assert (st.fingerprint(), fs.dump(statuses=True)) == before
    assert st.bool_value(statuses[-1]) is Bool3.UNKNOWN


def test_hfp_does_not_fire_on_a_false_guard():
    st, fs = fresh()
    root = _headed_skeleton(fs, Bool3.UNKNOWN)
    apply_hfp(fs, root)
    fs.set_status("dtrs", Bool3.FALSE, root)
    for path in ("synsem", "synsem.loc", "synsem.loc.cat",
                 "dtrs.head_dtr", "dtrs.head_dtr.synsem",
                 "dtrs.head_dtr.synsem.loc", "dtrs.head_dtr.synsem.loc.cat",
                 "dtrs.head_dtr.synsem.loc.cat.head"):
        fs.set_status(path, Bool3.TRUE, root)
    assert fs.find(fs.resolve(CAT, root), "head") is None


def test_hfp_without_a_match_changes_nothing():
    st, fs = fresh()
    root = fs.encode_node({"synsem": {"loc": {"cat": {"head": {"maj": "n"}}}}},
                          default_status=Bool3.TRUE)
    before = fs.dump(statuses=True)
    apply_hfp(fs, root)
    assert fs.dump(statuses=True) == before


# -- the sentence pipeline ------------------------------------------------------


def _pinned(strategy) -> dict:
    """The counter table's row for "the cat sleeps" on the toy lexicon."""
    return counters.pinned("toy_lex", "hpsg", "the cat sleeps", strategy)


def test_parse_the_cat_sleeps(toy):
    signs, stats = parse_hpsg(["the", "cat", "sleeps"], toy)
    assert len(signs) == 1
    sign = signs[0]
    assert sign.category == "S"
    assert valency_of(sign) == ((), ())
    assert asdict(stats) == _pinned("active")


def test_head_is_shared_down_the_spine(toy):
    signs, _ = parse_hpsg(["the", "cat", "sleeps"], toy)
    fs, root = signs[0].fs, signs[0].root
    s_head = fs.resolve(CAT + ("head",), root)
    vp = fs.resolve(("dtrs", "head_dtr"), root)
    vp_head = fs.resolve(CAT + ("head",), vp)
    vb = fs.resolve(("dtrs", "head_dtr"), vp)
    vb_head = fs.resolve(CAT + ("head",), vb)
    assert s_head == vp_head == vb_head
    assert fs.resolve(("vform",), s_head) == "fin"
    # one shared node, not copies: write through the top, read at the bottom
    fs.add((("tense", s_head, "present", Bool3.TRUE),))
    assert fs.resolve(CAT + ("head", "tense"), vb) == "present"


def test_valency_is_conserved_at_every_reduction(toy):
    # S, NP and VP
    signs, _ = parse_hpsg(["the", "cat", "sleeps"], toy)
    pairs = valency_pairs(signs[0])
    assert len(pairs) == 3 and all(got == want for got, want in pairs)
    assert valency_of(signs[0]) == ((), ())


def test_unknown_word_is_a_usage_error(toy):
    with pytest.raises(UsageError):
        parse_hpsg(["the", "dog", "sleeps"], toy)
    with pytest.raises(UsageError):
        parse_hpsg([], toy)
    with pytest.raises(UsageError):
        parse_hpsg(["the"], toy, strategy="eager")


def test_limit_caps_accepted_signs(toy):
    signs, _ = parse_hpsg(["the", "cat", "sleeps"], toy, limit=0)
    assert signs == ()
    signs, _ = parse_hpsg(["the", "cat", "sleeps"], toy, limit=5)
    assert len(signs) == 1


def test_limit_zero_still_checks_the_words(toy):
    # as cfg.parse checks its categories before honouring limit=0
    with pytest.raises(UsageError, match="unknown word 'zzz'"):
        parse_hpsg(["zzz"], toy, limit=0)
    with pytest.raises(UsageError):
        parse_hpsg(["the", "dog"], toy, limit=0)


def test_strategies_accept_the_same_signs(toy):
    sa, ta = parse_hpsg(["the", "cat", "sleeps"], toy, strategy="active")
    sg, tg = parse_hpsg(["the", "cat", "sleeps"], toy, strategy="gentest")
    assert [sign_dump(s) for s in sa] == [sign_dump(s) for s in sg]
    assert ta.expansions <= tg.expansions
    assert asdict(ta) == _pinned("active")
    assert asdict(tg) == _pinned("gentest")


# S -> S S over n words: Catalan(n - 1) trees, every one an X leaf per word
BINARY_LEX = """start S. rule S -> S S. rule S -> x. rule S -> X. proj X = S.
lex "x" X [synsem: [loc: [cat: [head: [maj: x]]]]] subcat []."""


def test_every_distinct_tree_is_considered():
    g = load_grammar(BINARY_LEX)
    for n, trees in ((3, 2), (4, 5), (5, 14)):
        for strategy in ("active", "gentest"):
            _, stats = parse_hpsg(["x"] * n, g, strategy=strategy)
            assert stats.trees_considered == trees, (n, strategy)


def test_taggings_share_one_search():
    # two entries of one category: the sequence is searched once, its
    # trees are built for each tagging, and a limit met in the first
    # tagging reads no later one
    one = load_grammar(BINARY_LEX)
    two = load_grammar(BINARY_LEX + ' lex "x" X [synsem: [loc: [cat: [head: [maj: y]]]]] subcat [].')
    signs, single = parse_hpsg(["x"], one)
    assert len(signs) == single.trees_considered == 1
    signs, double = parse_hpsg(["x"], two)
    assert len(signs) == double.trees_considered == 2
    assert (double.windows_tried, double.reductions_applied) == (
        single.windows_tried, single.reductions_applied)
    signs, limited = parse_hpsg(["x"], two, limit=1)
    assert len(signs) == limited.trees_considered == 1


def test_parse_hpsg_pins_every_counter():
    # A fresh grammar: the first call gives the same counts as every
    # later call, as parsing writes nothing to it.
    g = load_grammar_file(TOY_LEX)
    for _ in range(2):
        for strategy in ("active", "gentest"):
            _, stats = parse_hpsg("the cat sleeps".split(), g, strategy=strategy)
            assert asdict(stats) == _pinned(strategy), strategy


def test_a_fully_known_lexicon_costs_the_tree_stores_nothing(toy):
    # every toy_lex entry is folded at load and every phrase is decided
    # there, so no tree store makes a variable or posts a constraint:
    # gentest's search uses no store, so it traces no event, and every
    # event active traces is its search's, a Spells post or a prune of w
    lines = []
    signs, _ = parse_hpsg("the cat sleeps".split(), toy, strategy="gentest", trace=lines.append)
    assert len(signs) == 1
    assert [line for line in lines if line.startswith("EVENT")] == []
    lines = []
    signs, _ = parse_hpsg("the cat sleeps".split(), toy, strategy="active", trace=lines.append)
    assert len(signs) == 1
    assert not any("AllDistinct" in line or "dtr:" in line for line in lines)
    assert all(" Spells(" in line or line.startswith("EVENT prune w ") for line in lines)


def test_a_tagging_whose_root_fails_follows_costs_the_store_nothing():
    # "fish" is a noun and a verb.  Of "the fish sleeps", the tagging
    # Det Vb Vb puts a verb after a determiner, as no sentential form
    # does: its root is checked once, posts no Spells and is one dead
    # state, while Det Nm Vb does all that "the cat sleeps" does.
    g = load_grammar_file("bench/lex.clg")
    assert [e.category for e in g.entries("fish")] == ["Nm", "Vb"]
    assert not g.could_be_sentential(("Det", "Vb", "Vb"))
    posts, stats = {}, {}
    for words in ("the fish sleeps", "the cat sleeps"):
        lines = []
        _, stats[words] = parse_hpsg(words.split(), g, trace=lines.append)
        posts[words] = [ln for ln in lines if ln.startswith("EVENT post Spells(")]
    assert posts["the fish sleeps"] == posts["the cat sleeps"]
    assert "whole=('Det', 'Nm', 'Vb')" in posts["the fish sleeps"][0]
    assert asdict(stats["the fish sleeps"]) == dict(asdict(stats["the cat sleeps"]),
                                                    backtracks=1)
    # searched first, the failing root does not even make the store
    search = Search(g, "active")
    assert list(search.trees(("Det", "Vb", "Vb"))) == [] and search.store is None
    assert asdict(search.stats) == counters.pinned("lex", "cfg", "Det Vb Vb", "active")
    assert len(list(search.trees(("Det", "Nm", "Vb")))) == 1
    alone = Search(g, "active")
    assert len(list(alone.trees(("Det", "Nm", "Vb")))) == 1
    assert asdict(search.stats) == dict(asdict(alone.stats), backtracks=1)


def test_parse_hpsg_leaves_no_garbage():
    # No reference cycles: a tree's store and structure go when the last
    # reference does, accepted or rejected, on the first call (which
    # compiles the templates) as on later ones.
    text = open(TOY_LEX).read()
    cases = (
        (load_grammar(text), "the cat sleeps", 1),
        # rejected by a cooccurrence restriction on "cat", which the
        # loader leaves for each tree to post
        (load_grammar(text + "\nfcr MAJ -> ~CASE.\n"), "the cat sleeps", 0),
        # an open vform status keeps the restriction on "sleeps" runtime:
        # each tree posts it, with a value guard the structure holds
        (load_grammar(text.replace("maj: v, vform: fin", "maj: v, ?vform: fin")),
         "the cat sleeps", 1),
        # an unknown head status leaves head sharing suspended in the store
        (load_grammar(text.replace('"sleeps" Vb [synsem: [loc: [cat: [head:',
                                   '"sleeps" Vb [synsem: [loc: [cat: [?head:')),
         "the cat sleeps", 1),
    )
    assert cases[1][0].entries("cat")[0].sites and cases[2][0].entries("sleeps")[0].sites
    gc.collect()
    gc.disable()
    try:
        for g, words, accepted in cases:
            for strategy in ("active", "gentest", "active"):
                signs, _ = parse_hpsg(words.split(), g, strategy=strategy)
                assert len(signs) == accepted
                del signs
                assert gc.collect() == 0, (words, strategy)
    finally:
        gc.enable()


def test_lexical_templates_survive_pickling():
    # Every entry of the toy lexicon has its restrictions folded into its
    # template at load, and no site left; with an open vform status,
    # "sleeps" keeps its site for every tree to post.  Both kinds pickle
    # and parse the same.
    import pickle

    def compiled(g):
        return [(e.template, e.sites) for es in g.lexicon.values() for e in es]

    text = open(TOY_LEX).read()
    residual = text.replace("maj: v, vform: fin", "maj: v, ?vform: fin")
    for g, residual_sites in ((load_grammar(text), {False}),
                              (load_grammar(residual), {False, True})):
        before, _ = parse_hpsg("the cat sleeps".split(), g)
        assert all(t for t, _ in compiled(g))
        assert {bool(s) for _, s in compiled(g)} == residual_sites
        clone = pickle.loads(pickle.dumps(g))
        assert compiled(clone) == compiled(g)
        after, _ = parse_hpsg("the cat sleeps".split(), clone)
        assert len(before) == 1 and [sign_dump(s, statuses=True) for s in after] == \
            [sign_dump(s, statuses=True) for s in before]


def test_fcr_feature_names_are_normalized_as_avm_names_are():
    text = open(TOY_LEX).read()
    dumps = []
    for spelling in ("HEAD-DTR", "HEAD_DTR", "head_dtr"):
        g = load_grammar(text + f"\nfcr VFORM -> ~{spelling}.\n")
        signs, _ = parse_hpsg("the cat sleeps".split(), g)
        dumps.append([sign_dump(s, statuses=True) for s in signs])
    assert len(dumps[0]) == 1 and dumps[0] == dumps[1] == dumps[2]


def test_unknown_fcr_feature_is_a_grammar_error_on_its_line():
    text = open(TOY_LEX).read()
    line = text.count("\n") + 2
    with pytest.raises(GrammarError, match="unknown features") as err:
        load_grammar(text + "\nfcr CASE -> NOSUCH.\n")
    assert err.value.line == line
    # an fcr may come before the lexical entries that name its features
    g = load_grammar("fcr NOSUCH -> MAJ.\n" + text + '\nlex "x" Nm [nosuch: y].\n')
    assert len(g.fcrs) == 3


def test_root_must_be_saturated():
    # A transitive verb: in "the cat sees" the subject NP can only be
    # taken as the VP's complement, so the tree's root keeps subj [NP].
    with open(TOY_LEX) as fh:
        text = fh.read()
    text = text.replace("M = {Vb};", "M = {Vb,NP};") + (
        '\nrule VP -> Vb NP.\n'
        'lex "sees" Vb [synsem: [loc: [cat: [head: [maj: v, vform: fin]]]]]\n'
        '    subj [NP] subcat [NP].\n')
    g = load_grammar(text)
    for strategy in ("active", "gentest"):
        signs, stats = parse_hpsg("the cat sees".split(), g, strategy=strategy)
        assert (stats.trees_considered, stats.signs_accepted, signs) == (1, 0, ())
        signs, _ = parse_hpsg("the cat sees the cat".split(), g, strategy=strategy)
        assert [valency_of(s) for s in signs] == [((), ())]


def test_an_unsaturated_sister_fills_no_slot():
    # with "cat" wanting a Vb after its Det, "the cat" is an NP whose
    # comps is still <Vb>, so it cannot be the subject of "sleeps"
    text = open(TOY_LEX).read().replace("subcat [Det] schema", "subcat [Vb,Det] schema")
    assert "subcat [Vb,Det]" in text
    g = load_grammar(text)
    for strategy in ("active", "gentest"):
        signs, stats = parse_hpsg("the cat sleeps".split(), g, strategy=strategy)
        assert (stats.trees_considered, stats.signs_accepted, signs) == (1, 0, ())


def test_two_subject_sisters_reject_the_tree():
    with open(TOY_LEX) as fh:
        text = fh.read()
    text = text.replace("M = {Vb};", "M = {Vb,NP};") + (
        '\nrule VP -> NP NP Vb.\n'
        'lex "x" Vb [synsem: [loc: [cat: [head: [maj: v]]]]] subj [NP, NP, NP] subcat [].\n')
    g = load_grammar(text)
    for strategy in ("active", "gentest"):
        signs, stats = parse_hpsg("the cat the cat the cat x".split(), g, strategy=strategy)
        assert (signs, stats.trees_considered) == ((), 1)


def test_active_stops_earlier_on_a_lexical_clash(toy):
    text = open(TOY_LEX).read() + "\nfcr MAJ -> ~CASE.\n"
    g = load_grammar(text)
    sa, ta = parse_hpsg(["the", "cat", "sleeps"], g, strategy="active")
    sg, tg = parse_hpsg(["the", "cat", "sleeps"], g, strategy="gentest")
    assert sa == sg == ()
    assert ta.expansions < tg.expansions


def test_schema_rejection_through_the_boolean_layer(toy):
    text = open(TOY_LEX).read() + (
        '\nrule NP -> Nm.'
        '\nlex "dog" Nm [synsem: [loc: [cat: [head: [maj: n]]]]] subcat [].\n')
    g = load_grammar(text)
    # "cat" selects the Det schema, so a determinerless NP is out
    signs, _ = parse_hpsg(["cat", "sleeps"], g)
    assert signs == ()
    # "dog" has no schema and is happy alone
    signs, _ = parse_hpsg(["dog", "sleeps"], g)
    assert len(signs) == 1
    assert valency_of(signs[0]) == ((), ())


@pytest.mark.parametrize("strategy", ["active", "gentest"])
def test_a_schema_naming_no_frame_member_rejects_the_tree(strategy):
    # "cat" selects a Vb schema the NP frame has no member for: the
    # member counts as unrealized, so the NP cannot be well formed
    text = open(TOY_LEX).read().replace("subcat [Det] schema {Det}", "subcat [Det] schema {Vb}")
    assert "schema {Vb}" in text
    signs, _ = parse_hpsg("the cat sleeps".split(), load_grammar(text), strategy=strategy)
    assert signs == ()


def _sign_table():
    spec = importlib.util.spec_from_file_location("bench_workloads", "bench/workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.SIGN_TABLE


def _whole_lexicon_cases():
    """(grammar, word lists): the SIGN_TABLE strings, and every string
    of 1-4 words over bench/lex.clg and over the toy lexicon."""
    cases = [(load_grammar_file("bench/lex.clg"), [s.split() for s in _sign_table()])]
    for path in ("bench/lex.clg", TOY_LEX):
        g = load_grammar_file(path)
        cases.append((g, [ws for n in range(1, 5)
                          for ws in itertools.product(sorted(g.lexicon), repeat=n)]))
    return cases


@pytest.mark.parametrize("strategy", ["active", "gentest"])
def test_valency_is_conserved_in_order_over_whole_lexicons(strategy):
    walked = [valency_pairs(sign) for g, inputs in _whole_lexicon_cases()
              for words in inputs for sign in parse_hpsg(words, g, strategy=strategy)[0]]
    assert all(got == want for pairs in walked for got, want in pairs)
    assert (len(walked), sum(map(len, walked))) == (23, 73)    # signs, phrases


def _local_trees(sign, words, g, strategy):
    """The sign's phrases as (root, daughter roots in surface order,
    daughter categories), read off the one cfg tree of some tagging of
    `words` whose labels in post-order are the sign's parts."""
    labels = tuple(cat for cat, _ in sign.parts)

    def post_order(tree):
        for child in tree[1]:
            yield from post_order(child)
        yield tree

    search = Search(g, strategy)
    matches = [tree for tagging in itertools.product(*(g.entries(w) for w in words))
               for tree, _ in search.trees(tuple(e.category for e in tagging))
               if tuple(label for label, _ in post_order(tree)) == labels]
    assert len(matches) == 1
    root_of = {id(node): root
               for node, (_, root) in zip(post_order(matches[0]), sign.parts)}
    return [(root_of[id(node)], [root_of[id(d)] for d in node[1]], [d[0] for d in node[1]])
            for node in post_order(matches[0]) if node[1]]


@pytest.mark.parametrize("strategy", ["active", "gentest"])
def test_every_phrase_links_its_daughters_and_shares_their_head(strategy):
    # (a) the dtrs features hold the daughters' roots: the head daughter
    # (the frame's head), then the sisters in surface order, the subject
    # first, as every sister in these grammars stands in the order of
    # its slots; (b) the phrase's head is the head daughter's head node
    phrases = 0
    for g, inputs in _whole_lexicon_cases():
        for words in inputs:
            for sign in parse_hpsg(words, g, strategy=strategy)[0]:
                fs = sign.fs
                cats = {r: c for c, r in sign.parts}
                for node, dtrs, dcats in _local_trees(sign, words, g, strategy):
                    head = dtrs[dcats.index(g.frames[cats[node]].head)]
                    subj = fs.resolve(("dtrs", "subj_dtr"), node)
                    comps = fs.resolve(("dtrs", "comp_dtrs"), node) or ()
                    assert fs.resolve(("dtrs", "head_dtr"), node) == head
                    assert ([subj] if subj else []) + [r.index for r in comps] == \
                        [d for d in dtrs if d != head]
                    shared = fs.resolve(CAT + ("head",), node)
                    assert isinstance(shared, int)
                    assert shared == fs.resolve(CAT + ("head",), head)
                    phrases += 1
    assert phrases == 73


def test_a_suspended_head_share_waits_for_its_status():
    # "sleeps" leaves its head's status open: the VP is installed with no
    # head cell, and gets the shared node once that status is told true
    text = open(TOY_LEX).read().replace('"sleeps" Vb [synsem: [loc: [cat: [head:',
                                        '"sleeps" Vb [synsem: [loc: [cat: [?head:')
    g = load_grammar(text)
    for strategy in ("active", "gentest"):
        signs, stats = parse_hpsg("the cat sleeps".split(), g, strategy=strategy)
        assert len(signs) == 1 and stats.ask_evaluations == 1
        fs = signs[0].fs
        roots = dict(signs[0].parts)
        vp_cat = fs.resolve(CAT, roots["VP"])
        assert fs.find(vp_cat, "head") is None
        status = fs.lookup(CAT + ("head",), roots["Vb"]).status
        assert fs.store.tell(bool_post(Var(status)))
        assert fs.resolve(CAT + ("head",), roots["VP"]) == fs.resolve(CAT + ("head",), roots["Vb"])
        assert fs.status_value(CAT + ("head",), roots["VP"]) is Bool3.TRUE


@pytest.mark.parametrize("strategy", ["active", "gentest"])
def test_a_waiting_head_share_retires_once_it_shares(strategy):
    # "sleeps" leaves its head's status open, so S's share waits in a
    # value watcher for the VP's head cell.  Told true, the status brings
    # that cell, S gets the head daughter's head node (A5), and the
    # watcher retires: no head-sharing watcher is left on the structure.
    text = open(TOY_LEX).read().replace('"sleeps" Vb [synsem: [loc: [cat: [head:',
                                        '"sleeps" Vb [synsem: [loc: [cat: [?head:')
    signs, _ = parse_hpsg("the cat sleeps".split(), load_grammar(text), strategy=strategy)
    fs = signs[0].fs
    roots = dict(signs[0].parts)

    def waiting():
        return [w for w in fs.value_watchers if isinstance(w, _HeadWait)]

    assert len(waiting()) == 1
    assert fs.store.tell(bool_post(Var(fs.lookup(CAT + ("head",), roots["Vb"]).status)))
    assert fs.resolve(CAT + ("head",), roots["S"]) == fs.resolve(CAT + ("head",), roots["Vb"])
    assert waiting() == []


@pytest.mark.parametrize("strategy", ["active", "gentest"])
def test_delayed_head_sharing_chains_up_the_tree(strategy):
    # "sees", "cat" and "dog" leave their head statuses open.  The VP and
    # both NPs wait on a status; S waits on the VP's head cell, which
    # arrives only once the VP's own share is installed.  Told true in
    # any order, the open statuses leave every phrase's head its head
    # daughter's head node (A5), down to the object NP two levels below S.
    text = open("bench/lex.clg").read()
    for form, cat in (("sees", "Vb"), ("cat", "Nm"), ("dog", "Nm")):
        text = text.replace(f'"{form}" {cat} [synsem: [loc: [cat: [head:',
                            f'"{form}" {cat} [synsem: [loc: [cat: [?head:')
    g = load_grammar(text)
    words = "the cat sees the dog".split()
    for order in itertools.permutations(range(3)):
        signs, _ = parse_hpsg(words, g, strategy=strategy)
        assert len(signs) == 1
        fs = signs[0].fs
        open_heads = [fs.lookup(CAT + ("head",), root).status
                      for cat, root in signs[0].parts if cat in ("Nm", "Vb")]
        assert len(open_heads) == 3
        assert fs.find(fs.resolve(CAT, signs[0].root), "head") is None
        for k in order:
            assert fs.store.tell(bool_post(Var(open_heads[k])))
        phrases, todo = 0, [signs[0].root]
        while todo:
            node = todo.pop()
            head_dtr = fs.resolve(("dtrs", "head_dtr"), node)
            if head_dtr is None:
                continue
            shared = fs.resolve(CAT + ("head",), node)
            assert isinstance(shared, int) and shared == fs.resolve(CAT + ("head",), head_dtr)
            assert fs.status_value(CAT + ("head",), node) is Bool3.TRUE
            for cell in fs.cells_of(fs.resolve("dtrs", node)):
                refs = cell.value if isinstance(cell.value, tuple) else (cell.value,)
                todo += [ref.index for ref in refs]
            phrases += 1
        assert phrases == 4, order


def test_sign_table_under_gentest_evaluates_no_ask():
    g = load_grammar_file("bench/lex.clg")
    counts = [parse_hpsg(s.split(), g, strategy="gentest")[1].ask_evaluations
              for s in _sign_table()]
    assert len(counts) == 20 and sum(counts) == 0


@pytest.mark.parametrize("strategy", ["active", "gentest"])
def test_every_phrase_must_be_well_formed(strategy):
    # nothing above the VP lists it, and its head's schema names an NP
    # the VP does not realize: the VP is not well formed, so no sign
    text = (open(TOY_LEX).read().replace("M = {Vb};", "M = {Vb,NP};")
            .replace("frame S  { M = {NP,VP}; C = {NP,VP}; head = VP; }", "")
            .replace("subj [NP] subcat [].", "subj [NP] subcat [] schema {NP}."))
    assert "frame S" not in text and "schema {NP}" in text
    signs, stats = parse_hpsg("the cat sleeps".split(), load_grammar(text), strategy=strategy)
    assert (signs, stats.trees_considered) == ((), 1)


def test_sign_dump_carries_a_wf_line(toy):
    signs, _ = parse_hpsg(["the", "cat", "sleeps"], toy)
    dump = sign_dump(signs[0])
    wf = dump.splitlines()[-1]
    assert wf.startswith("WF ")
    for cat in ("Det", "Nm", "NP", "Vb", "VP", "S"):
        assert f"{cat}@" in wf
    assert wf.count("=T") == 6


# -- frames decided once per phrase shape ----------------------------------------

_HEAD = "[synsem: [loc: [cat: [head: [maj: {}]]]]]"
# Three frames that reject: the NP's compulsory Det is missing from a
# bare NP, "cat" selects an Adj schema no NP realizes, and an NP object
# is outside the VP's M.
_REJECTING = (
    "start S.\n"
    "rule S -> NP VP. rule NP -> Det Nm. rule NP -> Nm. rule VP -> Vb. rule VP -> Vb NP.\n"
    "lp Det < Nm.\n"
    "frame NP { M = {Det,Nm,Adj}; C = {Det,Nm}; head = Nm; }\n"
    "frame VP { M = {Vb}; C = {Vb}; head = Vb; }\n"
    "frame S  { M = {NP,VP}; C = {NP,VP}; head = VP; }\n"
    "proj Nm = NP. proj Vb = VP. proj VP = S.\n"
    f'lex "the" Det {_HEAD.format("det")} subcat [].\n'
    f'lex "dog" Nm {_HEAD.format("n")} subcat [Det] schema {{Det}}.\n'
    f'lex "cat" Nm {_HEAD.format("n")} subcat [Det] schema {{Adj}}.\n'
    f'lex "dogs" Nm {_HEAD.format("n")} subcat [].\n'
    f'lex "sleeps" Vb {_HEAD.format("v")} subj [NP] subcat [].\n'
    f'lex "sees" Vb {_HEAD.format("v")} subj [NP] subcat [NP].\n')
_REJECTING_CASES = {
    # words: (signs, expansions under active, under gentest); active
    # stops a tree at the phrase whose frame rejects, gentest builds it
    "the dog sleeps": (1, 6, 6),
    "dogs sleeps": (0, 2, 5),               # NP -> Nm, no Det
    "the cat sleeps": (0, 3, 6),            # NP -> Det Nm, no Adj
    "the dog sees the dog": (0, 8, 9),      # VP -> Vb NP, NP not in M
}


def _told_verdict(g, key) -> bool:
    """A phrase shape's frame verdict as each phrase once decided it: an
    open boolean for the phrase and each daughter, told true, one for
    each unrealized member, told false, a closed category variable told
    equal to each complement, then `post_subcat`, on a fresh store."""
    label, daughters, schema, comps = key
    frame, st = g.frames[label], Store()
    wf = {label: st.new_bool(label)}
    realized = {cat: st.new_bool(cat) for cat in daughters}
    for v in (wf[label], *realized.values()):
        assert st.tell(bool_post(Var(v)))
    for member in sorted(frame.m):
        wf[member] = realized.get(member) or st.new_bool(f"{member}?")
        if member not in realized:
            assert st.tell(bool_post(Not(Var(wf[member]))))
    comp_vars = [st.new_var(sorted(c.name for c in g.categories()), closed=True)
                 for _ in comps]
    for v, cat in zip(comp_vars, comps):
        assert st.tell(eq(v, cat))
    return post_subcat(frame, st, wf, schema, comp_vars)


def test_each_frame_verdict_is_the_one_told_well_formedness_gives():
    # every phrase shape the loader's table holds and its verdict: on
    # bench/lex.clg the 6 the SIGN_TABLE strings meet, on _REJECTING the 6
    # its cases meet (3 rejected) and 4 more that no case builds
    cases = ((load_grammar_file("bench/lex.clg"), 6, 0),
             (load_grammar(_REJECTING), 10, 5))
    for g, shapes, rejected in cases:
        met = {}
        for (label, sigs), d in g.phrase_table.items():
            if label not in g.frames:
                continue
            cats = tuple(sig[0] for sig in sigs)
            key = (label, cats, sigs[d.head][3], tuple(cats[i] for i in d.comps))
            verdict = not d.reason.endswith(f"subcategorization of {label} rejected")
            assert met.setdefault(key, verdict) is verdict, key
        assert len(met) == shapes
        assert list(met.values()).count(False) == rejected
        for key, verdict in met.items():
            assert verdict is _told_verdict(g, key), key


def _self_listing():
    """The toy grammar with NP listed in its own frame as optional, VP
    in its own as compulsory, and "sleeps" selecting a schema that
    names no member of the VP."""
    with open(TOY_LEX) as fh:
        text = fh.read()
    return load_grammar(
        text.replace("frame NP { M = {Det,Nm};", "frame NP { M = {Det,Nm,NP};")
        .replace("frame VP { M = {Vb}; C = {Vb};", "frame VP { M = {Vb,VP}; C = {Vb,VP};")
        .replace("subj [NP] subcat [].", "subj [NP] subcat [] schema {Prep}."))


def _frame_shapes(g):
    """Every (label, daughters, schema, complements) over each frame's
    members, its phrase and one category outside both: one or two
    daughters in every order, every subset of them as complements, and
    no schema, the empty one or any one or two of those categories."""
    names = sorted(c.name for c in g.categories())
    for label, frame in g.frames.items():
        outsider = next(c for c in names if c not in frame.m and c != label)
        universe = sorted(frame.m | {label, outsider})
        schemata = [None, frozenset()] + [frozenset(s) for k in (1, 2)
                                          for s in itertools.combinations(universe, k)]
        for n in (1, 2):
            for daughters in itertools.product(universe, repeat=n):
                for mask in itertools.product((False, True), repeat=n):
                    comps = tuple(itertools.compress(daughters, mask))
                    for schema in schemata:
                        yield label, daughters, schema, comps


def test_frame_holds_is_what_post_subcat_tells():
    self_listing = _self_listing()
    assert "NP" in self_listing.frames["NP"].o and "VP" in self_listing.frames["VP"].c
    assert self_listing.entries("sleeps")[0].schema == {"Prep"}
    verdicts = []
    for g in (load_grammar_file("bench/lex.clg"), load_grammar(_REJECTING), self_listing):
        for key in _frame_shapes(g):
            label, *shape = key
            verdict = frame_holds(g.frames[label], *shape)
            assert verdict is _told_verdict(g, key), key
            verdicts.append(verdict)
    assert verdicts.count(True) and verdicts.count(False)


# -- phrases decided at load -----------------------------------------------------

def _categorial():
    """The toy grammar with local trees its checks reject or watch
    (`counters.CATEGORIAL`): 13 phrases in all, of the 91 products of
    known signatures."""
    return load_grammar(counters.grammar_text("categorial"))


_TABLE_GRAMMARS = {
    # name: (grammar, entries, products of known signatures with none)
    "bench/lex.clg": (lambda: load_grammar_file("bench/lex.clg"), 7, 1),
    TOY_LEX: (lambda: load_grammar_file(TOY_LEX), 3, 0),
    "_REJECTING": (lambda: load_grammar(_REJECTING), 11, 7),
    "_self_listing": (_self_listing, 3, 0),
    "_categorial": (_categorial, 13, 78),
}


def _sign_with(g, sig, fs):
    """A sign with signature `sig` on fs: the first lexical entry's that
    has it, else a phrase whose cat node carries the lists."""
    for e in (e for es in g.lexicon.values() for e in es):
        if e.signature == sig:
            return lexical_sign(fs, e)
    cat = {"subj": sig[1], "comps": sig[2]}
    return Sign(fs, fs.encode_node({"synsem": {"loc": {"cat": cat}}}, Bool3.TRUE), sig)


@pytest.mark.parametrize("name", list(_TABLE_GRAMMARS))
def test_each_table_entry_is_what_building_its_phrase_decides(name):
    # Every product of known signatures over each rule, unsaturated
    # sisters included, against the decision code run over signs with
    # those signatures on a fresh store: a product has an entry exactly
    # when its sisters are saturated and its split holds, and the entry
    # is what building its phrase decides
    load, entries, absent = _TABLE_GRAMMARS[name]
    g = load()
    known = {}
    for sig in [e.signature for es in g.lexicon.values() for e in es] + \
            [d.mother for d in g.phrase_table.values()]:
        known.setdefault(sig[0], {})[sig] = None
    keys = dict.fromkeys((rule.lhs, sigs) for rule in g.rules
                         for sigs in itertools.product(*(known.get(c, ()) for c in rule.rhs)))
    assert set(g.phrase_table) <= set(keys)
    assert (len(g.phrase_table), len(keys) - len(g.phrase_table)) == (entries, absent)
    for label, sigs in keys:
        d = g.phrase_table.get((label, sigs))
        _, fs = fresh()
        signs = [_sign_with(g, sig, fs) for sig in sigs]
        cats = tuple(s.category for s in signs)
        read = [(s.category, *valency_of(s), sig[3]) for s, sig in zip(signs, sigs)]
        assert read == list(sigs), label
        hi = _head_index(label, cats, g)
        hi = 0 if hi is None else hi
        sisters = [i for i in range(len(signs)) if i != hi]
        if any(read[i][1] or read[i][2] for i in sisters):
            assert d is None, (label, sigs)
            continue
        try:
            subj, comps, mother_subj, mother_comps = _split_realized(
                *valency_of(signs[hi]), [cats[i] for i in sisters])
        except InconsistencyError:
            assert d is None, (label, sigs)
            continue
        assert (d.head, d.subj, d.comps) == (
            hi, tuple(sisters[k] for k in subj), tuple(sisters[k] for k in comps))
        # the realized daughters cancel from the end of the head's lists
        assert d.mother[1] + tuple(cats[i] for i in d.subj) == sigs[hi][1]
        assert d.mother[2] + tuple(cats[i] for i in d.comps) == sigs[hi][2]
        root = attach_daughters(fs, signs[hi], subj=[signs[i] for i in d.subj],
                                comps=[signs[i] for i in d.comps],
                                mother_subj=mother_subj, mother_comps=mother_comps)
        assert d.mother == (label, *valency_of(Sign(fs, root, d.mother)), None)
        reasons = [v.detail for v in check_local_tree(LocalTree(label, tuple(zip(cats, signs))), g)]
        if label in g.frames and not _told_verdict(
                g, (label, cats, sigs[hi][3], tuple(cats[i] for i in d.comps))):
            reasons.append(f"subcategorization of {label} rejected")
        assert d.reason == "; ".join(reasons)


@pytest.mark.parametrize("strategy", ["active", "gentest"])
def test_the_categorial_gate_stays_where_it_was(strategy):
    # the counter table's rows hold the counts of a build that ran
    # check_local_tree on every phrase
    g = _categorial()
    for sentence in ("cat the sleeps", "the sleeps", "the cat do rains",
                     "the cat dodo rains rains"):
        signs, stats = parse_hpsg(sentence.split(), g, strategy=strategy)
        assert len(signs) == stats.signs_accepted
        assert asdict(stats) == counters.pinned("categorial", "hpsg", sentence, strategy), sentence


def test_a_parse_runs_none_of_the_decision_code(monkeypatch):
    # the loader decided every phrase: parsing reads the table and calls
    # nothing that filled it
    g = load_grammar_file("bench/lex.clg")
    calls = []
    for name in ("valency_of", "_split_realized", "_head_index", "check_local_tree",
                 "frame_holds"):
        monkeypatch.setattr(hpsg, name, lambda *args, _name=name: calls.append(_name))
    for strategy in ("active", "gentest"):
        for sentence, signs in _sign_table().items():
            assert len(parse_hpsg(sentence.split(), g, strategy=strategy)[0]) == signs
    assert calls == []


@pytest.mark.parametrize("path", ["bench/lex.clg", TOY_LEX])
def test_parsing_leaves_the_grammar_as_loaded(path):
    # the SIGN_TABLE strings whose words the grammar knows, both ways
    g = load_grammar_file(path)
    loaded = pickle.dumps(g)
    known = [s.split() for s in _sign_table() if all(g.entries(w) for w in s.split())]
    assert len(known) >= 3
    for strategy in ("active", "gentest"):
        for words in known:
            parse_hpsg(words, g, strategy=strategy)
    assert pickle.dumps(g) == loaded


@pytest.mark.parametrize("strategy", ["active", "gentest"])
def test_a_first_parse_makes_one_store_per_tree(strategy, monkeypatch):
    # one per tree built, and the active search's own; the frames need
    # none, the first time a grammar meets them or later
    made = [0]
    init = Store.__init__

    def counted(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Store, "__init__", counted)
    for sentence, signs in _sign_table().items():
        if signs:
            g = load_grammar_file("bench/lex.clg")
            made[0] = 0
            stats = parse_hpsg(sentence.split(), g, strategy=strategy)[1]
            assert made[0] == stats.trees_considered + (strategy == "active"), sentence


@pytest.mark.parametrize("strategy", ["active", "gentest"])
@pytest.mark.parametrize("sentence", list(_REJECTING_CASES))
def test_a_rejecting_frame_stops_its_tree_where_its_post_did(strategy, sentence):
    signs, *expansions = _REJECTING_CASES[sentence]
    got, stats = parse_hpsg(sentence.split(), load_grammar(_REJECTING), strategy=strategy)
    assert (len(got), stats.trees_considered, stats.expansions) == \
        (signs, 1, expansions[strategy == "gentest"])


@pytest.mark.parametrize("strategy", ["active", "gentest"])
def test_counts_do_not_depend_on_the_sentences_parsed_before(strategy):
    # a frame decided for an earlier sentence is not charged to a later
    # one, nor the first time to the sentence that meets it
    table = list(_sign_table())
    for i, sentence in enumerate(table):
        fresh_stats = parse_hpsg(sentence.split(), load_grammar_file("bench/lex.clg"),
                                 strategy=strategy)[1]
        g = load_grammar_file("bench/lex.clg")
        for other in table[:i] + table[i + 1:]:
            parse_hpsg(other.split(), g, strategy=strategy)
        assert parse_hpsg(sentence.split(), g, strategy=strategy)[1] == fresh_stats, sentence


# -- restrictions folded at load ------------------------------------------------


def _unfolded(g):
    """A copy of g whose entries install their raw templates and post
    their restrictions on every tree, as a grammar did before the loader
    folded them."""
    twin = copy.copy(g)
    twin.lexicon = {form: [_raw(e, g.fcrs) for e in es] for form, es in g.lexicon.items()}
    return twin


def _raw(e, fcrs):
    """The entry as compiled from its text, with every site it has."""
    e = replace(e, template=None)
    return replace(e, sites=template_sites(e.template, fcrs))


def _same_parses(g, inputs):
    """Parse every input with g and with its unfolded twin under both
    strategies: the sign dumps and every count but propagation_steps are
    equal, and the fold never adds a propagation step.  Returns the
    number of signs."""
    twin, signs = _unfolded(g), 0
    for words in inputs:
        for strategy in ("active", "gentest"):
            got, stats = parse_hpsg(words, g, strategy=strategy)
            want, base = parse_hpsg(words, twin, strategy=strategy)
            assert [sign_dump(s, statuses=True) for s in got] == \
                [sign_dump(s, statuses=True) for s in want], (words, strategy)
            steps, base_steps = stats.propagation_steps, base.propagation_steps
            stats.propagation_steps = base.propagation_steps = 0
            assert stats == base and steps <= base_steps, (words, strategy)
            signs += len(got)
    return signs


@pytest.mark.parametrize("path", ["bench/lex.clg", TOY_LEX])
def test_every_entry_folds_to_its_template_plus_a_runtime_post(path):
    g = load_grammar_file(path)
    for e in (e for es in g.lexicon.values() for e in es):
        assert _raw(e, g.fcrs).sites and not e.sites, e.form
        _, fs = fresh()
        raw = fs.instantiate(_raw(e, g.fcrs).template)
        post_fcrs(fs, raw, g.fcrs)
        _, folded = fresh()
        lexical_sign(folded, e)
        assert folded.dump(statuses=True) == fs.dump(statuses=True), e.form
        # the restrictions are decided: nothing of the folded sign is open
        assert ",U>" not in folded.dump(statuses=True), e.form


def test_folding_changes_no_sign_over_whole_lexicons():
    # every 1-4 word string over both lexicons and the SIGN_TABLE strings,
    # 23 signs under each strategy
    assert sum(_same_parses(g, inputs) for g, inputs in _whole_lexicon_cases()) == 46


def test_a_sign_table_pass_posts_no_restriction(monkeypatch):
    # The loader decides every restriction of bench/lex.clg, so a pass
    # compiles no restriction and makes no value guard; the unfolded
    # twin, which posts them per tree, shows the counts are live.
    calls = {"compile_fcr": 0, "_value_guard": 0}
    for name in calls:
        def counted(*args, _fn=getattr(hpsg, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(hpsg, name, counted)
    g = load_grammar_file("bench/lex.clg")
    calls.update(compile_fcr=0, _value_guard=0)     # the loader's own folds
    for grammar, posted in ((g, False), (_unfolded(g), True)):
        for strategy in ("active", "gentest"):
            for sentence in _sign_table():
                parse_hpsg(sentence.split(), grammar, strategy=strategy)
            assert (calls["compile_fcr"] > 0, calls["_value_guard"] > 0) == (posted, posted)


@pytest.mark.parametrize("strategy", ["active", "gentest"])
def test_an_entry_that_violates_a_restriction_is_rejected_where_its_post_failed(strategy):
    # "cat" realizes both MAJ and CASE: the loader leaves it as compiled,
    # and every tree posts its sites and is rejected where the post fails,
    # at once under active, at the end under gentest
    g = load_grammar(open(TOY_LEX).read() + "\nfcr MAJ -> ~CASE.\n")
    e = g.entries("cat")[0]
    raw = _raw(e, g.fcrs)
    assert raw.sites and (e.template, e.sites) == (raw.template, raw.sites)
    assert _same_parses(g, ["the cat sleeps".split()]) == 0
    signs, stats = parse_hpsg("the cat sleeps".split(), g, strategy=strategy)
    assert (signs, stats.trees_considered, stats.expansions) == \
        ((), 1, {"active": 2, "gentest": 6}[strategy])


_HEAD_FEATURES = {"maj": ("v", "n", "p"), "vform": ("fin", "pas", "prp"),
                  "pform": ("with",), "prd": ("yes",)}
_CANONICAL_FCRS = ("PFORM -> ~INDEX", "VFORM -> MAJ[V]", "PRD | VFORM -> VFORM[PAS] | VFORM[PRP]")


@strategies.composite
def _one_entry_grammars(draw):
    """A grammar whose entry "x" has drawn head features, each with a
    drawn status and perhaps a value, maybe an index, and a drawn set of
    the canonical restrictions; "z" carries every feature they name, so
    the grammar loads."""
    status = strategies.sampled_from(["+", "-", "?"])
    cells = []
    for feature, values in _HEAD_FEATURES.items():
        if draw(strategies.booleans()):
            value = draw(strategies.sampled_from((None,) + values))
            cells.append(f"{draw(status)}{feature}" + (f": {value}" if value else ""))
    index = f", {draw(status)}cont: [{draw(status)}index: i]" if draw(strategies.booleans()) else ""
    fcrs = draw(strategies.lists(strategies.sampled_from(_CANONICAL_FCRS), min_size=1, max_size=3, unique=True))
    return ("start S. rule S -> X. proj X = S.\n"
            + "".join(f"fcr {f}.\n" for f in fcrs)
            + f'lex "x" X [synsem: [loc: [cat: [{draw(status)}head: [{", ".join(cells)}]]]{index}]]'
            + ' subcat [].\nlex "z" X [maj: v, vform: fin, pform: with, prd: yes, index: i].')


@settings(max_examples=150, deadline=None)
@given(_one_entry_grammars())
def test_a_folded_entry_acts_as_its_runtime_post(text):
    g = load_grammar(text)
    e = g.entries("x")[0]
    _, fs = fresh()
    raw = _raw(e, g.fcrs)
    root = fs.instantiate(raw.template)
    try:
        post_fcrs(fs, root, g.fcrs)
        runtime = fs.dump(statuses=True)
    except InconsistencyError:
        runtime = None
    # an entry the loader did not fold is left as compiled; one that
    # violates a restriction is never folded
    assert e.sites == () or (e.template, e.sites) == (raw.template, raw.sites)
    assert runtime is not None or e.sites
    if not e.sites:
        _, folded = fresh()
        lexical_sign(folded, e)
        assert folded.dump(statuses=True) == runtime
    # a tree over "x" holds the entry as posted, on its first nodes
    signs, _ = parse_hpsg(["x"], g)
    assert [sign_dump(s, statuses=True).splitlines()[:len(runtime.splitlines())]
            for s in signs] == ([] if runtime is None else [runtime.splitlines()])
    _same_parses(g, [["x"], ["z"]])


# -- a differential property over drawn lexicons ------------------------------

# the toy_lex.clg rules with three more for verbs and their complements
_DRAWN_RULES = ("start S.\n"
                "rule S -> NP VP. rule NP -> Det Nm. rule NP -> Nm.\n"
                "rule VP -> Vb. rule VP -> Vb NP. rule VP -> Vb Det. rule VP -> Vb NP Det.\n"
                "lp Det < Nm.\nproj Nm = NP. proj Vb = VP. proj VP = S.\n")
_DRAWN_FRAMES = ("frame NP { M = {Det,Nm}; C = {Nm}; head = Nm; schema {Det}; }\n"
                 "frame VP { M = {Vb,NP}; C = {Vb}; head = Vb; }\n"
                 "frame S  { M = {NP,VP}; C = {NP,VP}; head = VP; }\n")
# each branching rule's right-hand side: its left-hand side and its head
# daughter; and each unary rule's daughter and its left-hand side
_BRANCHING = {("NP", "VP"): ("S", 1), ("Det", "Nm"): ("NP", 1), ("Vb", "NP"): ("VP", 0),
              ("Vb", "Det"): ("VP", 0), ("Vb", "NP", "Det"): ("VP", 0)}
_UNARY = {"Nm": "NP", "Vb": "VP"}


# the entries of a toy_lex.clg-like lexicon, category and lists, and
# verbs whose complements the subject NP and a Det sister cancel, in
# either order, or whose Det complement no sister cancels, and one whose
# NP and Det complements two sisters cancel
_BASE = (("Det", (), ()), ("Nm", (), ("Det",)), ("Nm", (), ()),
         ("Vb", ("NP",), ()), ("Vb", ("NP",), ("NP",)), ("Vb", (), ("NP", "Det")),
         ("Vb", (), ("Det", "NP")), ("Vb", ("NP",), ("Det",)), ("Vb", ("NP",), ("NP", "Det")))
_MAJ = {"Det": "det", "Nm": "n", "Vb": "v"}
# strings of _BASE entries, by index, that the base lists accept, but
# for a Det complement that is not last, one that no sister cancels and
# a subject NP realized inside the VP
_SENTENCES = ((0, 1, 3), (2, 3), (2, 4, 2), (0, 1, 4, 2), (2, 5, 0), (0, 1, 7, 0),
              (2, 6, 0), (2, 7), (2, 8, 2, 0), (2, 7, 2, 0))


@strategies.composite
def _drawn_lexicons(draw):
    """(grammar text, has frames or an fcr, lexicon, word strings): the
    _DRAWN_RULES, maybe toy_lex.clg's frames, maybe an fcr, the _BASE
    entries and up to two more.  A base entry keeps its lists three
    times in four, else it has drawn ones, as the extra entries have.
    An entry may have a schema and an open head; a verb has a vform,
    and another entry may have one, which the fcr rejects.  The lexicon
    maps each form to its (category, subj, comps) readings.  A string
    is one of _SENTENCES or any 1-4 forms."""
    names = strategies.lists(strategies.sampled_from(("Det", "NP", "VP")), max_size=2)

    def one_in(n):
        return draw(strategies.integers(1, n)) == n

    frames, fcr = one_in(3), one_in(3)
    extra = draw(strategies.lists(strategies.sampled_from(tuple(_MAJ)), max_size=2))
    lines, lexicon, forms = [], {}, []
    for k, (cat, subj, comps) in enumerate(_BASE + tuple((cat, None, None) for cat in extra)):
        # a form may have several readings
        form = f"w{draw(strategies.integers(0, k)) if one_in(3) else k}"
        if subj is None or one_in(4):
            subj, comps = tuple(draw(names)), tuple(draw(names))
        schema = draw(strategies.sampled_from(("", " schema {}", " schema {Det}", " schema {NP}")))
        status = "?" if one_in(2) else ""
        vform = ", vform: fin" if cat == "Vb" or one_in(4) else ""
        lines.append(f'lex "{form}" {cat} [synsem: [loc: [cat: [{status}head: '
                     f'[maj: {_MAJ[cat]}{vform}]]]]] subj [{", ".join(subj)}] '
                     f'subcat [{", ".join(comps)}]{schema}.\n')
        lexicon.setdefault(form, []).append((cat, subj, comps))
        forms.append(form)
    words = strategies.sampled_from(_SENTENCES).map(lambda ks: [forms[k] for k in ks]) | \
        strategies.lists(strategies.sampled_from(sorted(lexicon)), min_size=1, max_size=4)
    text = (_DRAWN_RULES + (_DRAWN_FRAMES if frames else "")
            + ("fcr VFORM -> MAJ[V].\n" if fcr else "") + "".join(lines))
    return text, frames or fcr, lexicon, draw(strategies.lists(words, min_size=1, max_size=3))


def _cancelled(subj, comps, sisters):
    """The head's lists once its saturated sisters, by category in
    surface order, are realized, or None: a sister takes a complement
    while its category has one left, else the subject, and the realized
    items of each list must be its last ones, in order, with at most one
    subject."""
    realized_comps, realized_subj = [], []
    for cat in sisters:
        more = realized_comps.count(cat) < comps.count(cat)
        (realized_comps if more else realized_subj).append(cat)
    n, m = len(comps) - len(realized_comps), len(subj) - len(realized_subj)
    if n < 0 or m < 0 or len(realized_subj) > 1 or comps[n:] != tuple(realized_comps) \
            or subj[m:] != tuple(realized_subj):
        return None
    return subj[:m], comps[:n]


def _valency_count(words, lexicon) -> int:
    """Trees over some reading of `words` with a saturated S at the root,
    where the sisters are saturated and cancel the head's lists as
    `_cancelled` says.  A chart of (category, subj, comps) counts per
    span, with no store."""
    n, chart = len(words), {}
    for width in range(1, n + 1):
        for i in range(n - width + 1):
            cell = chart[i, i + width] = collections.Counter(
                lexicon[words[i]] if width == 1 else ())
            for rhs, (lhs, head) in _BRANCHING.items():
                for cuts in itertools.combinations(range(i + 1, i + width), len(rhs) - 1):
                    spans = zip((i, *cuts), (*cuts, i + width))
                    for picks in itertools.product(*(chart[span].items() for span in spans)):
                        sigs = [sig for sig, _ in picks]
                        if tuple(sig[0] for sig in sigs) != rhs:
                            continue
                        sisters = sigs[:head] + sigs[head + 1:]
                        if any(sig[1] or sig[2] for sig in sisters):
                            continue
                        lists = _cancelled(*sigs[head][1:], [sig[0] for sig in sisters])
                        if lists is not None:
                            cell[(lhs, *lists)] += math.prod(x for _, x in picks)
            for (cat, subj, comps), x in list(cell.items()):
                if cat in _UNARY:
                    cell[_UNARY[cat], subj, comps] += x
    return chart[0, n][("S", (), ())]


def _check_distinct_daughters(sign) -> None:
    """What lets the pipeline post no distinctness: every constituent is
    its own install, so the roots in `parts` are pairwise distinct, and
    so are the nodes each phrase's dtrs name."""
    fs = sign.fs
    roots = [root for _, root in sign.parts]
    assert len(set(roots)) == len(roots)
    for root in roots:
        head = fs.resolve(("dtrs", "head_dtr"), root)
        if head is None:
            continue
        subj = fs.resolve(("dtrs", "subj_dtr"), root)
        comps = fs.resolve(("dtrs", "comp_dtrs"), root) or ()
        dtrs = [head, *([subj] if subj is not None else []), *(r.index for r in comps)]
        assert len(set(dtrs)) == len(dtrs)


def _check_heads_once_told(sign) -> None:
    """Tell every open head status of the sign true, constituents in
    post-order; unless a tell is inconsistent, every phrase's head is
    then its head daughter's head node (A5) and no head share waits."""
    fs = sign.fs
    try:
        for _, root in sign.parts:
            cat = fs.resolve(CAT, root)
            cell = fs.find(cat, "head")
            if cell is not None and fs.store.bool_value(cell.status) is Bool3.UNKNOWN:
                fs.set_status("head", Bool3.TRUE, cat)
    except InconsistencyError:
        return
    for _, root in sign.parts:
        head_dtr = fs.resolve(("dtrs", "head_dtr"), root)
        if head_dtr is not None:
            head = fs.resolve(CAT + ("head",), root)
            assert isinstance(head, int) and head == fs.resolve(CAT + ("head",), head_dtr)
    assert not any(isinstance(w, _HeadWait) for w in fs.value_watchers)


@settings(max_examples=100, deadline=None)
@given(_drawn_lexicons())
def test_both_strategies_build_the_same_signs_over_drawn_lexicons(case):
    text, gated, lexicon, strings = case
    g = load_grammar(text)
    for words in strings:
        got = {}
        for strategy in ("active", "gentest"):
            signs, stats = parse_hpsg(words, g, strategy=strategy)
            assert [valency_of(s) for s in signs] == [((), ())] * len(signs)    # A6
            got[strategy] = [sign_dump(s, statuses=True) for s in signs], stats.signs_accepted
            for sign in signs:
                _check_distinct_daughters(sign)
                _check_heads_once_told(sign)
        assert got["active"] == got["gentest"], words
        dumps, accepted = got["active"]
        assert len(dumps) == accepted
        if not gated:
            assert accepted == _valency_count(words, lexicon), words
