"""Indexed feature structures: encoding, sharing, unification, pattern
extraction, statuses, text syntax."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clparse import Bool3, InconsistencyError, Store, UsageError
from clparse.fstruct import (
    Ann,
    FeatureStructure,
    Ref,
    avm_equal,
    compile_avm,
    encode,
    parse_avm,
)
from clparse.logic import NAME

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


def test_sequence_values_unify_element_by_element():
    fs = encode(parse_avm("[comps: <#1 [maj: n], #2 [case: nom]>, subj: <np, pp>, "
                          "x: [maj: n], y: [case: acc], z: [num: sg]]"))
    x, y, z = (fs.resolve(f) for f in "xyz")
    before = fs.dump(statuses=True)
    for feature, value in (("comps", (Ref(x),)),          # length clash
                           ("subj", ("np", "vp")),         # atom clash
                           ("comps", (Ref(x), "pp")),      # an atom against a node
                           ("comps", (Ref(x), Ref(y)))):   # nom against acc inside the nodes
        with pytest.raises(InconsistencyError):
            fs.add([(feature, 1, value, Bool3.UNKNOWN)])
        assert fs.dump(statuses=True) == before
    fs.add([("comps", 1, (Ref(x), Ref(z)), Bool3.UNKNOWN), ("subj", 1, ("np", "pp"), Bool3.UNKNOWN)])
    first, second = fs.lookup("comps").value
    assert (fs.canon(first.index), fs.canon(second.index)) == (fs.canon(x), fs.canon(z))
    assert fs.lookup("z.case").value == "nom" and fs.lookup("x.maj").value == "n"
    assert fs.lookup("subj").value == ("np", "pp")


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


def test_share_fresh_path():
    fs = encode(parse_avm("[x: [maj: n]]"))
    fs.share("x", "y")
    assert fs.resolve("y") == fs.resolve("x")
    assert fs.lookup("y.maj").value == "n"


def test_share_merges_disjoint_nodes():
    fs = encode(parse_avm("[x: [maj: n], y: [case: nom]]"))
    fs.share("x", "y")
    assert fs.resolve("x") == fs.resolve("y")
    assert fs.lookup("x.case").value == "nom"
    assert fs.lookup("y.maj").value == "n"


def test_share_atom_clash():
    fs = encode(parse_avm("[x: [maj: n], y: [maj: v]]"))
    with pytest.raises(InconsistencyError):
        fs.share("x", "y")


def test_share_refuses_a_sequence_value():
    # a sequence value is no node, as an atom is not: refused before
    # anything changes, against a fresh path or a node alike
    fs = encode(parse_avm("[comps: <np>, y: [w: v]]"))
    before = fs.dump()
    for other in ("x", "y"):
        with pytest.raises(UsageError, match="node-valued"):
            fs.share("comps", other)
        with pytest.raises(UsageError, match="node-valued"):
            fs.share(other, "comps")
        assert fs.dump() == before


def test_share_persistence_token_identity():
    fs = encode(parse_avm("[x: [head: [maj: n]], y: [head: [maj: n]]]"))
    fs.share("x.head", "y.head")
    fs.add([("case", fs.resolve("x.head"), "nom", Bool3.UNKNOWN)])
    assert fs.lookup("y.head.case").value == "nom"


def test_share_rejects_cycle():
    fs = encode(parse_avm("[x: [y: [z: a]]]"))
    with pytest.raises(UsageError):
        fs.share("x.y", "")       # empty path is a usage error too
    with pytest.raises(UsageError):
        fs.share("x", "x.y")      # would make node 2 contain itself


def test_unify_nodes_identity_and_merge():
    fs = encode(parse_avm("[x: [maj: n], y: [case: nom]]"))
    i = fs.resolve("x")
    assert fs.unify_nodes(i, i) == i
    j = fs.resolve("y")
    k = fs.unify_nodes(i, j)
    assert k == min(i, j)
    assert {c.feature for c in fs.cells_of(k)} == {"maj", "case"}


def test_unify_nodes_commutative():
    for order in ((2, 3), (3, 2)):
        fs = encode(parse_avm("[x: [maj: n], y: [case: nom]]"))
        fs.unify_nodes(*order)
        assert fs.lookup("x.case").value == "nom"
        assert fs.resolve("x") == fs.resolve("y") == 2


def test_unify_nodes_recursive():
    fs = encode(parse_avm("[x: [h: [maj: n]], y: [h: [case: nom]]]"))
    fs.unify_nodes(fs.resolve("x"), fs.resolve("y"))
    assert fs.lookup("x.h.case").value == "nom"
    assert fs.resolve("x.h") == fs.resolve("y.h")


def test_unify_statuses_merge():
    s = Store()
    fs = FeatureStructure(s)
    fs.encode_node(parse_avm("[x: [+maj: n], y: [?maj: n]]"))
    fs.unify_nodes(fs.resolve("x"), fs.resolve("y"))
    assert fs.status_value("x.maj") is Bool3.TRUE      # U + T -> T


def test_unify_statuses_clash():
    s = Store()
    fs = FeatureStructure(s)
    fs.encode_node(parse_avm("[x: [+maj: n], y: [-maj: n]]"))
    with pytest.raises(InconsistencyError):
        fs.unify_nodes(fs.resolve("x"), fs.resolve("y"))
    # all or nothing: y clashes after x has been merged and its statuses
    # tied, and the failed unification takes both steps back
    fs = encode(parse_avm("[a: [x: p, y: q], b: [x: p, y: r]]"))
    before = fs.dump(statuses=True), fs.store.fingerprint()
    with pytest.raises(InconsistencyError):
        fs.unify_nodes(fs.resolve("a"), fs.resolve("b"))
    assert (fs.dump(statuses=True), fs.store.fingerprint()) == before


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


def test_reachable_and_substructure_see_through_a_merge():
    fs = encode(parse_avm("[x: [h: [maj: n]], y: [h: [case: nom]], z: [k: [l: a]]]"))
    assert not fs.has_substructure(4, 3)
    assert fs.unify_nodes(2, 4) == 2         # y.h (5) folds into x.h (3)
    assert fs.reachable(1) == [1, 2, 3, 6, 7]
    assert fs.reachable(4) == fs.reachable(2) == [2, 3]
    assert fs.reachable(5) == [3]
    assert fs.has_substructure(4, 3) and fs.has_substructure(1, 5)
    assert not fs.has_substructure(5, 4)


@pytest.mark.parametrize("avm, mutate", [
    ("[f: [g: [h: a]]]", lambda fs: fs.add([("back", 3, Ref(1), Bool3.UNKNOWN)])),
    ("[f: [g: [h: [k: a]]]]", lambda fs: fs.unify_nodes(2, 4)),
    ("[f: [g: [h: a]]]", lambda fs: fs.unify_nodes(1, 3)),
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
    fs.encode_node(parse_avm("[x: [maj: n], y: [case: nom]]"))
    before = fs.dump(statuses=True)
    snap = s.snapshot()
    fs.share("x", "y")
    fs.set_status("x.maj", Bool3.TRUE)
    fs.add([("z", 1, "atom", Bool3.UNKNOWN)])
    s.restore(snap)
    assert fs.dump(statuses=True) == before
    assert fs.resolve("x") != fs.resolve("y")


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
