"""Indexed feature structures: encoding, sharing, `add` on existing
cells, pattern extraction, statuses, text syntax."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clparse import Bool3, InconsistencyError, Store, UsageError
from clparse.constraints import bool_post
from clparse.fstruct import (
    Ann,
    FeatureStructure,
    Ref,
    avm_equal,
    compile_avm,
    encode,
    parse_avm,
)
from clparse.grammar import parse_fcr
from clparse.hpsg import compile_fcr
from clparse.logic import NAME, Not, Var

CASE_MATRIX = "[cat: [head: [maj: n, case: nom]], content: [index: [gen: masc, num: sing]]]"

CASE_DUMP = """\
[<cat,1,2>, <content,1,4>]
[<head,2,3>]
[<maj,3,n>, <case,3,nom>]
[<index,4,5>]
[<gen,5,masc>, <num,5,sing>]"""


def test_encode_reference_matrix():
    fs = encode(parse_avm(CASE_MATRIX))
    assert fs.dump() == CASE_DUMP


def test_encode_empty():
    fs = encode({})
    assert fs.dump() == "[]"


def test_indices_depth_first_declaration_order():
    fs = encode(parse_avm("[a: [x: u], b: [y: v]]"))
    assert fs.resolve("a") == 2
    assert fs.resolve("b") == 3


def test_lookup():
    fs = encode(parse_avm(CASE_MATRIX))
    assert fs.lookup("cat.head.maj").value == "n"
    assert fs.lookup("cat.head").value == Ref(3)
    assert fs.lookup("cat.head.nosuch") is None
    assert fs.lookup("cat.head.maj.deeper") is None   # atom mid-path


def test_lookup_through_share_reaches_same_cell():
    shared = {"maj": "n"}
    fs = encode({"a": {"h": shared}, "b": {"h": shared}})
    assert fs.lookup("a.h.maj") is fs.lookup("b.h.maj")


def test_encode_rejects_cycles():
    d = {}
    d["self"] = d
    with pytest.raises(UsageError):
        encode(d)


def test_list_values_only_on_designated_features():
    fs = encode({"comps": ("np", "pp")})
    assert fs.lookup("comps").value == ("np", "pp")
    with pytest.raises(UsageError):
        encode({"maj": ("n", "v")})
    # `add` checks a sequence value once: flat, naming nodes, on a list
    # feature; a refused one changes nothing
    before = fs.dump(statuses=True)
    for value, feature in (((Ref(99),), "subj"), ((("np",),), "subj"),
                           (("n", "v"), "maj"), (("np",), "maj")):
        with pytest.raises(UsageError):
            fs.add([(feature, 1, value, Bool3.TRUE)])
        with pytest.raises(UsageError):
            fs.add([("comp_dtrs", 1, (), Bool3.TRUE), (feature, 1, value, Bool3.TRUE)])
        assert fs.dump(statuses=True) == before


def test_sequence_values_agree_or_clash():
    fs = encode(parse_avm("[comps: <#1 [maj: n], #2 [case: nom]>, subj: <np, pp>, "
                          "x: [maj: n], z: [num: sg]]"))
    comps, x, z = (fs.lookup(f).value for f in ("comps", "x", "z"))
    before = fs.dump(statuses=True)
    for feature, value in (("comps", comps[:1]),            # length clash
                           ("subj", ("np", "vp")),          # atom clash
                           ("comps", (comps[0], "pp")),     # an atom against a node
                           ("comps", (x, comps[1])),        # another node, though alike
                           ("comps", (comps[0], z))):       # another node, though compatible
        with pytest.raises(InconsistencyError):
            fs.add([(feature, 1, value, Bool3.UNKNOWN)])
        assert fs.dump(statuses=True) == before
    fs.add([("comps", 1, comps, Bool3.UNKNOWN), ("subj", 1, ("np", "pp"), Bool3.UNKNOWN)])
    assert fs.dump(statuses=True) == before


def test_decode_round_trip_random_corpus():
    rng = random.Random(11)
    atoms = ["n", "v", "nom", "acc", "sg", "pl"]
    feats = ["f0", "f1", "f2", "f3", "f4", "f5"]

    def build(depth):
        out = {}
        pool = []     # nodes eligible for sharing
        def grow(d, depth):
            for feat in rng.sample(feats, rng.randrange(1, 4)):
                roll = rng.random()
                if depth > 0 and roll < 0.45:
                    child = {}
                    pool.append(child)
                    d[feat] = child
                    grow(child, depth - 1)
                elif roll < 0.6 and pool:
                    d[feat] = rng.choice(pool)
                else:
                    d[feat] = rng.choice(atoms)
        grow(out, depth)
        return out

    for _ in range(200):
        avm = build(rng.randrange(1, 4))
        try:
            fs = encode(avm)
        except UsageError:
            continue    # sharing roll can close a cycle; not round-trippable
        assert avm_equal(avm, fs.decode())


def test_avm_equal_is_sharing_sensitive():
    shared = {"maj": "n"}
    a = {"x": shared, "y": shared}
    b = {"x": {"maj": "n"}, "y": {"maj": "n"}}
    assert avm_equal(a, {"x": a["x"], "y": a["y"]})
    assert not avm_equal(a, b)
    assert avm_equal(b, {"x": {"maj": "n"}, "y": {"maj": "n"}})


def test_add_fresh_and_duplicate():
    fs = encode(parse_avm("[cat: [maj: n]]"))
    node = fs.resolve("cat")
    fs.add([("case", node, "nom", Bool3.UNKNOWN)])
    assert fs.lookup("cat.case").value == "nom"
    before = fs.dump()
    fs.add([("case", node, "nom", Bool3.UNKNOWN)])     # identical: no change
    assert fs.dump() == before
    with pytest.raises(InconsistencyError):
        fs.add([("case", node, "acc", Bool3.UNKNOWN)])


def test_add_on_an_existing_cell_agrees_or_clashes():
    fs = encode(parse_avm("[a: #1 [maj: n], b: #1, c: [maj: n], +case: nom, +gen: -, ?index]"))
    assert fs.store.tell(bool_post(compile_fcr(parse_fcr("GEN[FEM] -> ~INDEX"), fs, 1)))
    shared = fs.lookup("b").value
    before = fs.dump(statuses=True), fs.store.fingerprint()
    # another node, though its cells are alike, another atom, or the same
    # atom with a status it cannot be tied to: a clash that leaves the
    # structure and the store as they were
    for cell in (("b", 1, Ref(fs.resolve("c")), Bool3.UNKNOWN),
                 ("case", 1, "acc", Bool3.UNKNOWN),
                 ("case", 1, "nom", fs.store.false)):
        with pytest.raises(InconsistencyError, match="clash"):
            fs.add([("gen", 1, "masc", Bool3.UNKNOWN), cell])
        assert (fs.dump(statuses=True), fs.store.fingerprint()) == before
    # the value it has already: nothing changes
    fs.add([("b", 1, shared, Bool3.UNKNOWN), ("a", 1, shared, fs.lookup("a").status),
            ("case", 1, "nom", Bool3.UNKNOWN)])
    assert (fs.dump(statuses=True), fs.store.fingerprint()) == before
    # a placeholder takes the value, and the restriction's value guard hears it
    assert fs.status_value("index") is Bool3.UNKNOWN
    fs.add([("gen", 1, "fem", Bool3.UNKNOWN)])
    assert fs.lookup("gen").value == "fem"
    assert fs.status_value("index") is Bool3.FALSE


def test_add_with_status_variable_token_identity():
    fs = encode(parse_avm("[d: [head: [maj: v]]]"))
    head_cell = fs.lookup("d.head")
    target = head_cell.value
    fs.add([("head", 1, target, head_cell.status)])
    assert fs.lookup("head").status == head_cell.status
    assert fs.resolve("head") == fs.resolve("d.head")


def test_add_fills_placeholder():
    fs = encode(parse_avm("[x: [maj: -]]"))
    assert fs.lookup("x.maj").value is None
    fs.add([("maj", fs.resolve("x"), "n", Bool3.UNKNOWN)])
    assert fs.lookup("x.maj").value == "n"


def test_a_ref_on_a_fresh_path_is_a_second_path_to_the_node():
    fs = encode(parse_avm("[x: [maj: n]]"))
    fs.add([("y", 1, Ref(fs.resolve("x")), Bool3.UNKNOWN)])
    assert fs.resolve("y") == fs.resolve("x")
    assert fs.lookup("y.maj") is fs.lookup("x.maj")


def test_a_ref_onto_another_node_clashes_and_merges_nothing():
    # two nodes with disjoint features stay two nodes: a path that holds
    # one cannot be given the other
    fs = encode(parse_avm("[x: [maj: n], y: [case: nom]]"))
    x, y = fs.resolve("x"), fs.resolve("y")
    before = fs.dump(statuses=True), fs.store.fingerprint()
    for feature, other in (("y", x), ("x", y)):
        with pytest.raises(InconsistencyError, match="value clash"):
            fs.add([(feature, 1, Ref(other), Bool3.UNKNOWN)])
        assert (fs.dump(statuses=True), fs.store.fingerprint()) == before
    assert fs.lookup("x.case") is None and fs.lookup("y.maj") is None


def test_a_ref_against_an_atom_clashes_both_ways():
    fs = encode(parse_avm("[x: [maj: n], y: v]"))
    before = fs.dump(statuses=True)
    for cell in (("y", 1, Ref(fs.resolve("x")), Bool3.UNKNOWN),   # a node onto an atom
                 ("x", 1, "v", Bool3.UNKNOWN)):                    # an atom onto a node
        with pytest.raises(InconsistencyError, match="value clash"):
            fs.add([cell])
        assert fs.dump(statuses=True) == before


def test_a_ref_against_a_sequence_clashes_both_ways():
    fs = encode(parse_avm("[comps: <np>, subj: [w: v], y: [w: v]]"))
    before = fs.dump(statuses=True)
    for cell in (("comps", 1, Ref(fs.resolve("y")), Bool3.UNKNOWN),   # a node onto a sequence
                 ("subj", 1, ("np",), Bool3.UNKNOWN)):                 # a sequence onto a node
        with pytest.raises(InconsistencyError, match="value clash"):
            fs.add([cell])
        assert fs.dump(statuses=True) == before


def test_token_identity_persists_through_a_second_path():
    # a cell added, or a placeholder filled, on the node one path reaches
    # is there through every other path to it
    fs = encode(parse_avm("[x: [head: [maj: n, case: -]]]"))
    fs.add([("y", 1, Ref(fs.resolve("x.head")), Bool3.UNKNOWN)])
    fs.add([("case", fs.resolve("y"), "nom", Bool3.UNKNOWN),
            ("num", fs.resolve("x.head"), "sg", Bool3.UNKNOWN)])
    assert fs.lookup("x.head.case").value == "nom"
    assert fs.lookup("y.num") is fs.lookup("x.head.num")
    assert fs.lookup("y.maj").value == "n"


def test_a_ref_to_the_node_itself_or_to_no_node_changes_nothing():
    fs = encode(parse_avm("[x: [y: [z: a]]]"))
    before = fs.dump(statuses=True), fs.store.fingerprint()
    x = fs.resolve("x")
    with pytest.raises(UsageError, match="cycle through node references"):
        fs.add([("w", 1, "b", Bool3.UNKNOWN), ("self", x, Ref(x), Bool3.UNKNOWN)])
    assert (fs.dump(statuses=True), fs.store.fingerprint()) == before
    for cell in (("w", 1, Ref(99), Bool3.UNKNOWN), ("w", 99, "b", Bool3.UNKNOWN)):
        with pytest.raises(UsageError, match="no node 99"):
            fs.add([("v", 1, "b", Bool3.UNKNOWN), cell])
        assert (fs.dump(statuses=True), fs.store.fingerprint()) == before


def test_adding_the_cells_a_node_has_is_a_no_op():
    fs = encode(parse_avm("[x: #1 [+maj: n, ?case: -], y: #1, comps: <#1, np>, -gen: masc]"))
    before = fs.dump(statuses=True), fs.store.fingerprint()
    for i in fs.node_indices():
        fs.add([(c.feature, i, c.value, c.status) for c in fs.cells_of(i)])
    assert (fs.dump(statuses=True), fs.store.fingerprint()) == before


def test_the_order_of_a_batch_does_not_matter():
    batch = [("case", 2, "nom", Bool3.TRUE),        # a placeholder filled
             ("num", 2, "sg", Bool3.UNKNOWN),       # a fresh cell
             ("maj", 2, "n", Bool3.TRUE),           # a status forced
             ("y", 1, Ref(2), Bool3.UNKNOWN)]       # a second path
    dumps = set()
    for cells in (batch, batch[::-1]):
        fs = encode(parse_avm("[x: [?maj: n, case: -]]"))
        fs.add(cells)
        dumps.add(fs.dump(statuses=True))
        before = fs.dump(statuses=True), fs.store.fingerprint()
        clash = [("gen", 2, "masc", Bool3.UNKNOWN), ("maj", 2, "v", Bool3.UNKNOWN)]
        for bad in (clash, clash[::-1]):
            with pytest.raises(InconsistencyError):
                fs.add(bad)
            assert (fs.dump(statuses=True), fs.store.fingerprint()) == before
    assert len(dumps) == 1


def test_a_late_clash_takes_back_the_whole_batch():
    fs = encode(parse_avm("[x: [?maj: n, case: -], y: [num: sg]]"))
    watched = []
    fs.value_watchers.append(watched.append)
    tie = fs.store.new_bool("tie")
    before = fs.dump(statuses=True), fs.store.fingerprint()
    with pytest.raises(InconsistencyError, match="value clash on num"):
        fs.add([("case", 2, "nom", Bool3.UNKNOWN),           # a placeholder filled
                ("maj", 2, "n", tie),                        # a status tied
                ("z", 1, Ref(3), Bool3.TRUE),                # a second path
                ("gen", 3, "fem", Bool3.UNKNOWN),            # a fresh cell
                ("num", 3, "pl", Bool3.UNKNOWN)])            # and then a clash
    assert (fs.dump(statuses=True), fs.store.fingerprint()) == before
    assert fs.lookup("x.case").value is None and fs.lookup("z") is None
    assert fs.store.bool_value(tie) is Bool3.UNKNOWN
    # the watchers heard each value before the clash took it back
    assert [c.feature for c in watched] == ["case", "z", "gen"]


def test_a_status_given_to_an_existing_cell_is_forced_or_tied():
    fs = encode(parse_avm("[?maj: n, ?case: nom]"))
    fs.add([("maj", 1, "n", Bool3.TRUE)])
    assert fs.status_value("maj") is Bool3.TRUE                 # U given T -> T
    var = fs.store.new_bool("v")
    fs.add([("case", 1, "nom", var)])
    assert fs.status_value("case") is Bool3.UNKNOWN
    assert fs.store.tell(bool_post(Not(Var(var))))
    assert fs.status_value("case") is Bool3.FALSE                 # tied to the variable


def test_a_status_that_contradicts_the_cell_clashes():
    fs = encode(parse_avm("[+maj: n, -case: nom, ?gen: masc]"))
    before = fs.dump(statuses=True), fs.store.fingerprint()
    for cell in (("maj", 1, "n", Bool3.FALSE),
                 ("case", 1, "nom", Bool3.TRUE),
                 ("case", 1, "nom", fs.lookup("maj").status)):
        with pytest.raises(InconsistencyError):
            fs.add([("gen", 1, "masc", Bool3.TRUE), cell])
        assert (fs.dump(statuses=True), fs.store.fingerprint()) == before


def test_reachable_and_substructure_follow_every_path():
    fs = encode(parse_avm("[x: [h: [maj: n]], y: [h: [case: nom]], z: [k: [l: a]]]"))
    assert not fs.has_substructure(4, 3)
    fs.add([("g", 4, Ref(3), Bool3.UNKNOWN),                  # y to x.h by a cell
            ("comps", 6, ("np", Ref(5)), Bool3.UNKNOWN)])      # z to y.h inside a sequence
    assert fs.reachable(1) == [1, 2, 3, 4, 5, 6, 7]
    assert fs.reachable(4) == [3, 4, 5]
    assert fs.reachable(6) == [5, 6, 7]
    assert fs.has_substructure(4, 3) and fs.has_substructure(6, 5)
    assert not fs.has_substructure(3, 4) and not fs.has_substructure(5, 6)


def test_set_status_and_fcr_style_clash():
    fs = encode(parse_avm("[pform: by]"))
    fs.set_status("pform", Bool3.TRUE)
    assert fs.status_value("pform") is Bool3.TRUE
    with pytest.raises(InconsistencyError):
        fs.set_status("pform", Bool3.FALSE)


def test_set_status_creates_placeholder():
    fs = encode(parse_avm("[cat: [maj: n]]"))
    cell = fs.set_status("cat.agr", Bool3.FALSE)
    assert cell.value is None
    assert fs.status_value("cat.agr") is Bool3.FALSE


def test_status_annotations_from_text():
    fs = encode(parse_avm("[+vform: pas, -index, ?gen: masc]"))
    assert fs.status_value("vform") is Bool3.TRUE
    assert fs.lookup("vform").value == "pas"
    assert fs.status_value("index") is Bool3.FALSE
    assert fs.lookup("index").value is None
    assert fs.status_value("gen") is Bool3.UNKNOWN


def test_dump_with_statuses():
    fs = encode(parse_avm("[+vform: pas]"))
    assert fs.dump(statuses=True) == "[<vform,1,pas,T>]"


def test_delta_binds_indices_and_statuses():
    fs = encode(parse_avm("[synsem: [loc: [cat: [head: [maj: v]]]]]"))
    pattern = [
        ("synsem", "a", "a1", "f1"),
        ("loc", "a1", "a2", "f2"),
        ("cat", "a2", "a3", "f3"),
        ("head", "a3", "a4", "f4"),
    ]
    env = fs.delta(pattern, {"a": 1})
    assert env["a4"] == fs.resolve("synsem.loc.cat.head")
    assert env["f4"] == fs.lookup("synsem.loc.cat.head").status
    assert fs.delta(pattern, {"a": 1, "a1": 99}) is None


def test_delta_no_match_on_missing_cell():
    fs = encode(parse_avm("[synsem: [loc: x]]"))
    assert fs.delta([("dtrs", "a", "a8", "f8")], {"a": 1}) is None
    assert encode({}).delta([("synsem", "a", "a1", "f1")], {"a": 1}) is None


def test_delta_repeated_variable_forces_identity():
    shared = {"maj": "n"}
    fs = encode({"x": {"head": shared}, "y": {"head": shared}})
    pattern = [("head", "i", "t", None), ("head", "j", "t", None)]
    env = fs.delta(pattern, {"i": fs.resolve("x"), "j": fs.resolve("y")})
    assert env is not None and env["t"] == fs.resolve("x.head")
    fs2 = encode(parse_avm("[x: [head: [maj: n]], y: [head: [maj: n]]]"))
    assert fs2.delta(pattern, {"i": fs2.resolve("x"), "j": fs2.resolve("y")}) is None


def test_delta_repeated_status_variable_matches_shared_known_statuses():
    # statuses made known share the store's constants, so a repeated
    # status variable matches them as it matches a tied status
    fs = encode(parse_avm("[x: [+maj: n, ?case: nom], y: [+maj: v, ?case: nom]]"))
    bindings = {"i": fs.resolve("x"), "j": fs.resolve("y")}
    pattern = [("maj", "i", "a", "s"), ("maj", "j", "b", "s")]
    assert fs.delta(pattern, bindings)["s"] == fs.store.true
    pattern = [("case", "i", "a", "s"), ("case", "j", "b", "s")]
    assert fs.delta(pattern, bindings) is None


def test_delta_first_match_by_node_order():
    fs = encode(parse_avm("[a: [head: [maj: n]], b: [head: [maj: v]]]"))
    env = fs.delta([("head", "o", "t", None)])
    assert env["o"] == fs.resolve("a")


def test_delta_owner_must_name_a_node():
    fs = encode(parse_avm("[a: [x: v]]"))
    assert fs.delta([("x", 2, "t", None)]) == {"t": "v"}
    for owner, bindings in ((-1, None), (0, None), (7, None), ("o", {"o": 7})):
        with pytest.raises(UsageError, match="no node"):
            fs.delta([("x", owner, "t", None)], bindings)


def test_flatness_and_referential_integrity():
    fs = encode(parse_avm(CASE_MATRIX))
    for i in fs.node_indices():
        for cell in fs.cells_of(i):
            assert not isinstance(cell.value, dict)
            for r in fs._refs(cell.value):
                assert 1 <= r.index <= fs._n_nodes


def test_has_substructure_passive():
    fs = encode(parse_avm(CASE_MATRIX))
    assert fs.has_substructure(1, 3)
    assert fs.has_substructure(2, 3)
    assert not fs.has_substructure(3, 2)
    assert not fs.has_substructure(1, 1)   # path must be non-empty


@pytest.mark.parametrize("avm, mutate", [
    ("[f: [g: [h: a]]]", lambda fs: fs.add([("back", 3, Ref(1), Bool3.UNKNOWN)])),
    ("[f: [g: [h: [k: a]]]]", lambda fs: fs.add([("comps", 4, ("np", Ref(2)), Bool3.UNKNOWN)])),
    ("[f: [g: [h: -]]]", lambda fs: fs.add([("h", 3, Ref(1), Bool3.UNKNOWN)])),
], ids=["leaf-to-root", "parent-grandchild", "root-grandchild"])
def test_cycles_are_rejected_and_taken_back(avm, mutate):
    fs = encode(parse_avm(avm))
    before = fs.dump(statuses=True)
    with pytest.raises(UsageError, match="cycle through node references"):
        mutate(fs)
    assert fs.dump(statuses=True) == before


def test_structure_rolls_back_with_store():
    s = Store()
    fs = FeatureStructure(s)
    fs.encode_node(parse_avm("[x: [maj: n], y: [case: -]]"))
    before = fs.dump(statuses=True)
    snap = s.snapshot()
    fs.add([("w", 1, Ref(fs.resolve("x")), Bool3.UNKNOWN),      # a second path to x
            ("case", fs.resolve("y"), "nom", Bool3.UNKNOWN)])    # a placeholder filled
    fs.set_status("x.maj", Bool3.TRUE)
    fs.add([("z", 1, "atom", Bool3.UNKNOWN)])
    assert fs.resolve("w") == fs.resolve("x")
    s.restore(snap)
    assert fs.dump(statuses=True) == before
    assert fs.lookup("w") is None and fs.lookup("y.case").value is None


def test_parse_avm_errors():
    for bad in ["[a: b", "[a b]", "a: b", "[a: ]", "[#1: x]", "[a: [x: 1] extra]",
                # text the avm syntax has no token for
                "[a: b$]", "[a: @b]", "[a: 1b]", "[a: b ! , c: d]", "[a: b] ;"]:
        with pytest.raises(UsageError):
            parse_avm(bad)


def test_a_hyphen_in_a_name_sits_between_word_characters():
    assert parse_avm("[a-b: c-d-2, e: <np, vp-x>]") == {"a_b": "c-d-2", "e": ("np", "vp-x")}
    # a trailing or doubled hyphen is not part of the name before it
    for bad in ("[comps: <np->]", "[a: np-]", "[a-: b]", "[a: b--c]"):
        with pytest.raises(UsageError, match="avm syntax"):
            parse_avm(bad)


VALID_AVMS = [CASE_MATRIX, "[x: #1, y: #1 [maj: n]]", "[comps: <#1 [maj: n], #2 [maj: p]>, subj: <>]",
              "[+vform: pas, -index, ?gen: masc, x: -]", "[a-b: [c_d: e], f: <g, #3>]"]
AVM_TOKEN = re.compile(rf"#\d+|[\[\]<>,:+?-]|{NAME}")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VALID_AVMS), st.data(),
       st.characters(exclude_categories=("Cs",)).filter(
           lambda c: not re.fullmatch(r"[\w\s\[\]<>,:+?#-]", c)))
def test_a_character_outside_the_avm_syntax_is_a_usage_error(text, data, stray):
    parse_avm(text)
    cuts = sorted({k for m in AVM_TOKEN.finditer(text) for k in m.span()} | {0, len(text)})
    k = data.draw(st.sampled_from(cuts))
    with pytest.raises(UsageError, match="avm syntax"):
        parse_avm(text[:k] + stray + text[k:])


def test_deep_avm_text_is_a_usage_error():
    for text in ["[a: " * 3000 + "b" + "]" * 3000, "[a: <" * 3000 + "b" + ">]" * 3000]:
        with pytest.raises(UsageError, match="nested deeper"):
            parse_avm(text)
    assert parse_avm("[a: " * 100 + "b" + "]" * 100)
    with pytest.raises(UsageError):
        parse_avm("[a: " * 101 + "b" + "]" * 101)
    # a description built in code compiles and decodes at any depth,
    # innermost cell first
    deep = "b"
    for _ in range(2000):
        deep = {"a": deep}
    n, cells = compile_avm(deep)
    assert n == len(cells) == 2000 and cells[0][1:3] == (2000, "b")
    assert avm_equal(deep, deep) and not avm_equal(deep, {"a": deep})
    deeper = {"a": deep, "b": deep}
    for _ in range(1000):
        deeper = {"a": deeper}
    back = encode(deeper).decode()
    assert avm_equal(back, deeper)
    # what the text syntax accepts compiles, deep references to a shared
    # node written before or after them included
    for text in ["[a: " * 100 + "b" + "]" * 100, "[comps: <" * 50 + "b" + ">]" * 50,
                 "[t: #1 [m: n], a: " + "[a: " * 99 + "#1" + "]" * 100,
                 "[a: " + "[a: " * 98 + "#1" + "]" * 98 + ", t: #1 [m: [k: n]]]"]:
        assert compile_avm(parse_avm(text))[0] >= 50


def test_parse_avm_sharing_forward_reference():
    avm = parse_avm("[x: #1, y: #1 [maj: n]]")
    assert avm["x"] is avm["y"]
    fs = encode(avm)
    assert fs.resolve("x") == fs.resolve("y")
    assert fs.lookup("x.maj").value == "n"


def test_parse_avm_sequences():
    avm = parse_avm("[comps: <#1 [maj: n], #2 [maj: p]>, subj: <>]")
    fs = encode(avm)
    v = fs.lookup("comps").value
    assert len(v) == 2 and all(isinstance(e, Ref) for e in v)
    assert fs.lookup("subj").value == ()


# -- compiled templates ---------------------------------------------------------


@st.composite
def avms(draw):
    """A random avm: dicts made one after another, each free to refer to
    earlier ones (shared nodes), with status annotations and list values;
    the last one is the root."""
    made: list[dict] = []
    for _ in range(draw(st.integers(1, 6))):
        item = st.sampled_from(("x", "y", None))
        if made:
            item = item | st.sampled_from(made)
        d = {}
        for feat in draw(st.lists(st.sampled_from(("a", "b", "head", "subj", "comps")),
                                  unique=True, max_size=4)):
            if feat in ("subj", "comps"):
                value = tuple(draw(st.lists(item, max_size=3)))
            else:
                value = draw(item)
            if draw(st.booleans()):
                value = Ann(value, draw(st.sampled_from(list(Bool3))))
            d[feat] = value
        made.append(d)
    return made[-1]


def encode_cell_by_cell(fs: FeatureStructure, avm: dict, default: Bool3) -> int:
    """The encoder `encode_node` replaced, on the public API: a node is
    made at first entry, depth-first in declaration order, and each cell
    is added on its own after the nodes its value reaches first."""
    index_of: dict[int, int] = {}

    def visit(d: dict) -> int:
        if id(d) not in index_of:
            index_of[id(d)] = idx = fs.new_node()
            for feat, raw in d.items():
                status = default
                if isinstance(raw, Ann):
                    status, raw = raw.status, raw.value
                fs.add([(feat, idx, convert(raw), status)])
        return index_of[id(d)]

    def convert(raw):
        if isinstance(raw, dict):
            return Ref(visit(raw))
        if isinstance(raw, tuple):
            return tuple(convert(e) for e in raw)
        return raw

    return visit(avm)


@settings(max_examples=150, deadline=None)
@given(avms(), avms(), st.sampled_from(list(Bool3)))
def test_instantiated_template_matches_encode_node(avm, prefix, default):
    # encode_node installs the compiled template in one batch; the
    # reference adds the same cells one at a time
    direct, via = FeatureStructure(Store()), FeatureStructure(Store())
    for fs in (direct, via):
        fs.encode_node(prefix, default)     # so the template lands at an offset
    before = via.dump(statuses=True), via.store.fingerprint()
    snap = via.store.snapshot()
    root = encode_cell_by_cell(direct, avm, default)
    assert via.encode_node(avm, default) == root > 1
    assert via.dump(statuses=True) == direct.dump(statuses=True)
    assert avm_equal(via.decode(root), direct.decode(root))
    # the same variables, made in the same order, with the same statuses
    assert via.store.fingerprint() == direct.store.fingerprint()
    via.store.restore(snap)
    assert (via.dump(statuses=True), via.store.fingerprint()) == before


def _rejected_descriptions():
    cyclic = {"a": "x"}
    cyclic["b"] = {"c": cyclic}
    shared = {"maj": "n"}
    store = Store()
    return [
        cyclic,
        {"a": {"b": "x"}, "c": 7},                   # bad value, after a node
        {"a": {"maj": ["n", "v"]}},                  # a list on a non-list feature
        {"head-dtr": shared, "head_dtr": shared},    # two keys, one feature
        {"a": {"b": Ann("x", "T")}},                 # a status that is not a Bool3
        {"a": Ann("x", store.new_bool())},           # ... nor is a variable
        parse_avm("[comps: <<[a: b]>>]"),            # a list inside a list
    ]


@pytest.mark.parametrize("avm", _rejected_descriptions(), ids=[
    "cyclic", "bad-value", "list-value", "normalised-duplicate", "text-status",
    "variable-status", "nested-list"])
def test_rejected_descriptions_change_nothing(avm):
    fs = encode(parse_avm("[x: [maj: n], -comps: <>]"))
    before = fs.dump(statuses=True), fs.store.fingerprint()
    with pytest.raises(UsageError):
        compile_avm(avm)
    with pytest.raises(UsageError):
        fs.encode_node(avm)
    assert (fs.dump(statuses=True), fs.store.fingerprint()) == before


def test_default_status_must_be_a_bool3():
    with pytest.raises(UsageError):
        compile_avm({"a": "x"}, None)
    with pytest.raises(UsageError):
        compile_avm("[a: x]")


def test_add_walks_for_cycles_only_on_a_reference():
    fs = encode(parse_avm("[x: [maj: n]]"))
    walks = []
    below = fs._below
    fs._below = lambda i: walks.append(i) or below(i)
    fs.add([("case", 2, "nom", Bool3.TRUE), ("gap", 2, None, Bool3.UNKNOWN)])
    assert walks == []
    fs.add([("z", 1, Ref(2), Bool3.TRUE)])
    assert walks == [1]
    with pytest.raises(UsageError):
        fs.add([("up", 2, Ref(1), Bool3.TRUE)])


def test_a_template_refers_to_existing_nodes_with_absolute_refs():
    # node numbers are the template's own; a Ref names a node built
    # before it, in a cell or inside a list
    fs = encode(parse_avm("[x: [maj: n]]"))
    walks = []
    below = fs._below
    fs._below = lambda i: walks.append(i) or below(i)
    root = fs.instantiate((2, (("a", 1, 2, True), ("b", 1, Ref(2), True),
                               ("comps", 2, (Ref(1), "NP"), None))))
    assert walks == []          # no acyclicity walk
    assert root == 3
    assert fs.resolve("a", root) == 4
    assert fs.resolve("b", root) == 2 == fs.resolve("x")
    assert fs.resolve("a.comps", root) == (Ref(1), "NP")
    assert fs.has_substructure(root, 1) and not fs.has_substructure(1, root)


@pytest.mark.parametrize("value", [Ref(3), Ref(0), (Ref(2), Ref(9))])
def test_a_template_ref_to_no_existing_node_changes_nothing(value):
    fs = encode(parse_avm("[x: [maj: n]]"))
    before = fs.dump(statuses=True), fs.store.fingerprint()
    with pytest.raises(UsageError, match="no node"):
        fs.instantiate((1, (("a", 1, "x", True), ("comps", 1, value, True))))
    assert (fs.dump(statuses=True), fs.store.fingerprint()) == before
