"""All-or-nothing mutation, as a property: any public mutation of a
feature structure or of its store that fails -- by raising or by
returning False -- leaves `dump(statuses=True)` and `fingerprint()`
exactly as they were before the call."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clparse import Bool3, InconsistencyError, Store, UsageError
from clparse.constraints import all_distinct, bool_post, element, eq, neq
from clparse.fstruct import FeatureStructure, Ref, parse_avm
from clparse.grammar import parse_fcr
from clparse.hpsg import compile_fcr
from clparse.logic import Implies, Not, Var

FEATS = ("f", "g", "h")
ATOMS = ("p", "q")
STATUSES = (Bool3.TRUE, Bool3.FALSE, Bool3.UNKNOWN)
N_FD = 3

# The root's h is a placeholder, so the value guard of H[Q] below waits
# for a later add to give it an atom.
SEED = "[f: [g: p, h: [f: q]], g: [g: q, +h: p], +h: -]"
RESTRICTION = "G -> H[Q]"

nodes = st.integers(1, 5)         # one more than the seed has
values = st.one_of(st.none(), st.sampled_from(ATOMS), nodes.map(Ref))
paths = st.lists(st.sampled_from(FEATS), min_size=1, max_size=3).map(".".join)
cells = st.tuples(st.sampled_from(FEATS), nodes, values, st.sampled_from(STATUSES))
fd = st.integers(0, N_FD - 1)


def _cyclic() -> dict:
    d = {"f": "p"}
    d["g"] = {"h": d}
    return d


# The last two fail half way, after some of their nodes exist.
AVMS = ({"f": {"g": "p"}, "h": "q"}, {"f": {"g": "q"}, "h": 7}, _cyclic())

ops = st.one_of(
    st.tuples(st.just("encode_node"), st.sampled_from(AVMS)),
    st.tuples(st.just("add"), st.lists(cells, min_size=1, max_size=3)),
    st.tuples(st.just("set_status"), paths, st.sampled_from(STATUSES)),
    st.tuples(st.just("exclude"), paths, paths),
    st.tuples(st.just("eq"), fd, st.integers(0, 3)),
    st.tuples(st.just("element"), fd, st.lists(st.integers(0, 3), max_size=3)),
    st.tuples(st.just("neq"), fd, fd),
    st.tuples(st.just("all_distinct"), st.lists(fd, min_size=2, max_size=3)),
    st.tuples(st.just("close_domain"), fd),
)


def build():
    store = Store()
    fs = FeatureStructure(store)
    fs.encode_node(parse_avm(SEED))
    assert store.tell(bool_post(compile_fcr(parse_fcr(RESTRICTION), fs, 1)))
    xs = [store.new_var([1, 2, 3], name=f"x{k}") for k in range(N_FD)]
    return fs, xs


def apply(fs: FeatureStructure, xs, op):
    """Run one mutation; returns what it returned."""
    kind, *args = op
    store = fs.store
    if kind == "encode_node":
        return fs.encode_node(args[0])
    if kind == "add":
        return fs.add(args[0])
    if kind == "set_status":
        return fs.set_status(*args)
    if kind == "exclude":
        # a status implication between two cells, told to the store
        a, b = (fs.lookup(p) for p in args)
        if a is None or b is None:
            return None
        return store.tell(bool_post(Implies(Var(a.status), Not(Var(b.status)))))
    if kind == "eq":
        return store.tell(eq(xs[args[0]], args[1]))
    if kind == "element":
        return store.tell(element(xs[args[0]], args[1]))
    if kind == "neq":
        return store.tell(neq(xs[args[0]], xs[args[1]]))
    if kind == "all_distinct":
        return store.tell(all_distinct(*(xs[k] for k in args[0])))
    return store.close_domain(xs[args[0]])


def state(fs: FeatureStructure):
    return fs.dump(statuses=True), fs.store.fingerprint()


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, min_size=1, max_size=12))
def test_failed_mutations_change_nothing(sequence):
    fs, xs = build()
    for op in sequence:
        before = state(fs)
        try:
            result = apply(fs, xs, op)
        except (InconsistencyError, UsageError):
            assert state(fs) == before, op
        else:
            if result is False:
                assert state(fs) == before, op


def test_a_clash_inside_a_value_guard_is_taken_back():
    # The restriction's value guard settles inside `add`, after the
    # first cell has been installed: the rejection takes that cell back.
    fs, _ = build()
    fs.set_status("g", Bool3.TRUE)
    before = state(fs)
    with pytest.raises(InconsistencyError, match=r"h\[q\]"):
        fs.add((("f", 2, "q", Bool3.TRUE), ("h", 1, "p", Bool3.UNKNOWN)))
    assert state(fs) == before
