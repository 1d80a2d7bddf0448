"""Store mechanics: domains, completeness, relations, resolvability
counting, snapshots, suspended asks.

The worst-case completeness-test counts are checked against closed
forms that were derived by hand from the event schedule (images close
one by one, the domain closes last, the checker re-scans on every
closure) and then confirmed by independent simulation before being
frozen here.
"""

import functools
import gc
import re
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clparse
from clparse import (
    And,
    AskResult,
    Bool3,
    Constraint,
    InconsistencyError,
    Stats,
    Store,
    UsageError,
    Var,
    VarId,
    all_distinct,
    bool_post,
    daughter,
    element,
    eq,
    in_relation,
    load_grammar,
    load_grammar_file,
    neq,
    parse,
)
from clparse.constraints import spells


def binary_worst_case(m: int) -> int:
    return m * (m + 5) // 2


# -- variables and domains ---------------------------------------------------

def test_domain_order_preserved():
    s = Store()
    x = s.new_var(["c", "a", "b"])
    assert s.domain(x) == ("c", "a", "b")
    s.tell(neq(x, "a"))
    assert s.domain(x) == ("c", "b")


def test_value_only_when_singleton():
    s = Store()
    x = s.new_var([1, 2])
    assert s.value(x) is None
    s.tell(eq(x, 2))
    assert s.value(x) == 2


def test_foreign_and_dead_vars_rejected():
    s1, s2 = Store(), Store()
    x = s1.new_var([1])
    with pytest.raises(UsageError):
        s2.domain(x)
    snap = s1.snapshot()
    y = s1.new_var([1])
    s1.restore(snap)
    with pytest.raises(UsageError):
        s1.domain(y)


def test_bool_and_seq_vars():
    s = Store()
    b = s.new_bool("b")
    assert s.bool_value(b) is Bool3.UNKNOWN
    assert s.set_bool(b, True)
    assert s.bool_value(b) is Bool3.TRUE
    assert s.set_bool(b, True)      # idempotent
    assert not s.set_bool(b, False)  # clash


def test_close_domain_only_fd():
    s = Store()
    b = s.new_bool()
    with pytest.raises(UsageError):
        s.close_domain(b)


def test_a_variable_of_the_wrong_kind_is_a_usage_error():
    # each constraint names the kind of its variables, and the store
    # checks it at tell and ask, as it checks each read and write, before
    # anything changes
    s = Store()
    x, b = s.new_var([1, 2], name="x"), s.new_bool("b")
    r = s.new_relation("r", 2)
    calls = [functools.partial(s.set_bool, x, True), functools.partial(s.bool_value, x),
             functools.partial(s.domain, b), functools.partial(s.value, b),
             functools.partial(s.prune, b, {1}), functools.partial(s.is_complete, b)]
    for c in (eq(b, 1), eq(x, b), neq(b, x), element(b, [1]), all_distinct(x, b),
              spells(b, ("a",), {}, {}), in_relation(b, (x,), r), in_relation(x, (b,), r),
              bool_post(Var(x)), bool_post(And((Var(b), Var(x))))):
        calls += [functools.partial(s.tell, c), functools.partial(s.ask, c),
                  functools.partial(s.post_ask, c, print)]
    before = s.fingerprint()
    for call in calls:
        with pytest.raises(UsageError):
            call()
        assert s.fingerprint() == before, call
    assert s.counters == Stats()


# -- tell --------------------------------------------------------------------

def test_tell_failure_restores_store():
    s = Store()
    x = s.new_var([1, 2])
    s.tell(neq(x, 1))
    fp = s.fingerprint()
    assert not s.tell(eq(x, 1))
    assert s.fingerprint() == fp
    assert s.domain(x) == (2,)


def test_tell_is_idempotent():
    s = Store()
    x = s.new_var([1, 2, 3])
    c = neq(x, 1)
    assert s.tell(c)
    n = len(s.posted)
    assert s.tell(neq(x, 1))    # equal constraint, separate object
    assert len(s.posted) == n


def test_propagation_reaches_fixpoint():
    s = Store()
    x = s.new_var([1, 2])
    y = s.new_var([1, 2])
    z = s.new_var([1, 2])
    s.tell(all_distinct(x, y, z))
    # three variables over two values: determining one cascades through
    # two elimination rounds to a wipe-out inside a single tell
    assert not s.tell(eq(x, 1))
    assert s.domain(x) == (1, 2) and s.domain(y) == (1, 2) and s.domain(z) == (1, 2)


WHOLE = ("a", "b", "a", "c")
WORDS = load_grammar("start S. rule S -> a. rule S -> a b. rule S -> b a c.").rhs_trie
# anything may follow anything but S, which may not stand before c
FOLLOWS = {x: frozenset(("", "a", "b", "c", "S")) for x in ("", "a", "b", "c")}
FOLLOWS["S"] = frozenset(("", "a", "b"))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_propagation_stops_where_no_posted_filter_prunes(data):
    # Idempotent constraints are not woken by their own events.  Run
    # every posted filter once more after each tell: none may change
    # the store, so the store stopped at the fixpoint that re-running
    # every propagator would reach.
    n = data.draw(st.integers(1, len(WHOLE)), label="n")
    whole = WHOLE[:n]
    s = Store()
    fd = [s.new_var(range(n + 1), name=f"x{i}") for i in range(4)]
    win = s.new_var([(va, vb) for va in range(n) for vb in range(1, n - va + 1)], name="w")
    var, val = st.sampled_from(fd), st.integers(0, n)
    post = st.one_of(
        st.builds(eq, var, st.one_of(var, val)),
        st.builds(neq, var, st.one_of(var, val)),
        st.builds(element, var, st.lists(val, max_size=n + 1)),
        st.lists(st.one_of(var, val), min_size=2, max_size=4).map(lambda xs: all_distinct(*xs)),
        # the windows of a suffix of `whole` that spell a word, in a
        # domain disequalities may have thinned
        st.builds(neq, st.just(win), st.sampled_from(s.domain(win))),
        st.integers(0, n).map(lambda i: spells(win, whole[i:], WORDS, FOLLOWS)),
    )
    for c in data.draw(st.lists(post, min_size=1, max_size=8), label="posts"):
        if not s.tell(c):
            continue
        before = s.fingerprint()
        for posted in s.posted:
            snap = s.snapshot()
            assert posted.filter(s), posted
            assert s.fingerprint() == before, posted
            s.restore(snap)


@dataclass(frozen=True)
class _Tripwire(Constraint):
    """Eq's filter, idempotent as Eq is, that raises once when armed."""

    x: VarId
    y: VarId
    armed: list = field(compare=False)

    idempotent = True

    def vars(self):
        return (self.x, self.y)

    def filter(self, store):
        if self.armed:
            self.armed.pop()
            raise InconsistencyError("tripped")
        allowed = set(store.domain(self.x)) & set(store.domain(self.y))
        return store.prune(self.x, allowed) and store.prune(self.y, allowed)


def test_a_raising_filter_leaves_later_events_waking_it():
    s = Store()
    x, y, z = (s.new_var(range(4)) for _ in range(3))
    armed = []
    assert s.tell(eq(x, z)) and s.tell(_Tripwire(x, y, armed))
    # raised by tell's propagation: the tell fails and is rolled back
    armed.append(True)
    assert not s.tell(element(x, [0, 1, 2]))
    assert s.domain(x) == s.domain(y) == s.domain(z) == (0, 1, 2, 3)
    # `element` prunes x as it is posted: both idempotent constraints wake
    assert s.tell(element(x, [0, 1, 2]))
    assert s.domain(y) == s.domain(z) == (0, 1, 2)
    # raised by a bare propagate, which restores nothing
    armed.append(True)
    assert s.prune(x, {1, 2})
    with pytest.raises(InconsistencyError):
        s.propagate()
    assert s.domain(y) == (0, 1, 2)
    assert s.tell(element(x, [2]))
    assert s.domain(y) == s.domain(z) == (2,)


def test_one_run_is_set_exactly_on_the_unary_prunes_to_a_fixed_set():
    # Spells, Element and Eq/Neq against a constant are entailed by one
    # run of their filter; no other constraint is, and each of them has
    # one variable
    kinds = {cls: cls.__dict__.get("one_run") for cls in Constraint.__subclasses__()
             if "one_run" in cls.__dict__}
    assert {cls.__name__ for cls, flag in kinds.items() if flag is True} == {"Element", "Spells"}
    assert {cls.__name__ for cls, flag in kinds.items() if isinstance(flag, property)} == {
        "Eq", "Neq"}
    assert len(kinds) == 4
    s = Store()
    x, y, w, b = s.new_var([1, 2]), s.new_var([1, 2]), s.new_var([(0, 1)]), s.new_bool()
    r = s.new_relation("r", 2)
    flagged = (eq(x, 1), neq(x, 1), element(x, [1]), spells(w, ("a",), WORDS, FOLLOWS))
    assert all(c.one_run and len(c.vars()) == 1 for c in flagged)
    assert not any(c.one_run for c in (eq(x, y), neq(x, y), all_distinct(x, 1),
                                       bool_post(Var(b)), daughter(x, 0, r),
                                       in_relation(x, (y,), r)))


WINDOWS = tuple((va, vb) for va in range(len(WHOLE)) for vb in range(1, len(WHOLE) - va + 1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_one_run_tell_is_entailed_and_never_runs_again(data):
    # After a one-run tell succeeds, every value left satisfies it, and
    # still does after another constraint prunes the same variable; that
    # prune runs the other constraint alone.  A wipe-out fails and leaves
    # the store as it was.
    kind = data.draw(st.sampled_from(("eq", "neq", "element", "spells")), label="kind")
    universe = WINDOWS if kind == "spells" else tuple(range(5))
    value, subset = st.sampled_from(universe), st.sets(st.sampled_from(universe), min_size=1)
    s = Store()
    x = s.new_var(sorted(data.draw(subset, label="x")), name="x")
    c = {"eq": lambda: eq(x, data.draw(value)),
         "neq": lambda: neq(x, data.draw(value)),
         "element": lambda: element(x, data.draw(st.lists(value))),
         "spells": lambda: spells(x, WHOLE[data.draw(st.integers(0, 3)):], WORDS, FOLLOWS),
         }[kind]()
    assert c.one_run

    def entailed():
        return all(c.holds({x: v}, s) for v in s.domain(x))

    before, steps = s.fingerprint(), s.counters.propagation_steps
    if not s.tell(c):
        assert s.fingerprint() == before
        assert not any(c.holds({x: v}, s) for v in s.domain(x))
        return
    assert s.counters.propagation_steps == steps + 1 and entailed()
    # an Eq between two variables runs once: it is idempotent, and one
    # run of c entails c, so its prune of x wakes nothing
    y = s.new_var(sorted(data.draw(subset, label="y")), name="y")
    z = s.new_var([v for v in universe if v not in s.domain(x)] or [None], name="z")
    for other, ok in ((eq(x, y), None), (eq(x, z), False)):
        before, steps = s.fingerprint(), s.counters.propagation_steps
        told = s.tell(other)
        assert s.counters.propagation_steps == steps + 1
        assert ok is None or told is ok
        if told:
            assert entailed()
        else:
            assert s.fingerprint() == before


def test_a_one_run_tell_keeps_the_fifo_turn_of_pending_work():
    # A prune inside a transaction queues eq(x, y) without propagating;
    # the element told next runs after it, not ahead of it, and is
    # watched as any other constraint
    lines = []
    s = Store(trace=lines.append)
    x, y = s.new_var([1, 2, 3], name="x"), s.new_var([1, 2, 3], name="y")
    assert s.tell(eq(x, y))
    with s.transaction():
        assert s.prune(x, {1, 2})
        del lines[:]
        steps = s.counters.propagation_steps
        assert s.tell(element(y, [2, 3]))
    assert lines == ["EVENT post Element(x=y, allowed=(2, 3)) - -",
                     "EVENT prune y {1,2,3} {1,2}",
                     "EVENT prune y {1,2} {2}",
                     "EVENT prune x {1,2} {2}"]
    assert s.counters.propagation_steps == steps + 3    # eq, element, eq


def test_all_distinct_pigeonhole_two_values():
    s = Store()
    x = s.new_var([1, 2])
    y = s.new_var([1, 2])
    s.tell(all_distinct(x, y))
    assert s.tell(eq(x, 1))
    assert s.value(y) == 2


# -- ask ---------------------------------------------------------------------

def test_ask_unknown_until_complete():
    s = Store()
    x = s.new_var(["a"])
    c = element(x, ["a", "b"])
    assert s.ask(c) is AskResult.UNKNOWN
    s.close_domain(x)
    assert s.ask(c) is AskResult.ENTAILED


def test_ask_disentailed():
    s = Store()
    x = s.new_var(["a", "b"], closed=True)
    assert s.ask(element(x, ["c"])) is AskResult.DISENTAILED
    assert s.ask(element(x, ["a"])) is AskResult.UNKNOWN


def test_ask_counts_evaluations():
    s = Store()
    x = s.new_var(["a"], closed=True)
    before = s.counters.ask_evaluations
    s.ask(element(x, ["a"]))
    assert s.counters.ask_evaluations == before + 1


def test_post_ask_fires_once_on_closure():
    s = Store()
    x = s.new_var(["a", "b"])
    got = []
    s.post_ask(eq(x, "a"), got.append)
    s.tell(eq(x, "a"))
    assert got == []
    s.close_domain(x)
    assert got == [AskResult.ENTAILED]
    s.tell(neq(x, "zzz"))   # later events do not re-fire
    assert got == [AskResult.ENTAILED]


def test_failed_tell_leaves_no_wake_ups():
    s = Store()
    x = s.new_var([1, 2])
    z = s.new_var([1, 2], closed=True)
    s.post_ask(eq(x, 1), lambda res: None)
    assert s.counters.ask_evaluations == 1
    assert not s.tell(element(x, [9]))
    assert s.tell(eq(z, 1))          # unrelated: the ask on x is not re-asked
    assert s.counters.ask_evaluations == 1


def test_failed_nested_tell_keeps_the_outer_wake_ups():
    # b's callback makes a tell that fails; rolling it back must keep the
    # wake-up for a that the outer drain has not reached yet.
    s = Store()
    a, b = s.new_bool("a"), s.new_bool("b")
    z = s.new_var([1], closed=True)
    fired = []
    s.post_ask(bool_post(Var(a)), lambda res: fired.append("a"))

    def on_b(res):
        fired.append("b")
        s.tell(eq(z, 2))             # fails; the False is swallowed

    s.post_ask(bool_post(Var(b)), on_b)
    assert s.tell(bool_post(And((Var(a), Var(b)))))
    assert sorted(fired) == ["a", "b"]


def test_new_var_needs_a_value():
    with pytest.raises(UsageError):
        Store().new_var([])


def test_post_ask_immediate_when_decidable():
    s = Store()
    x = s.new_var(["a"], closed=True)
    got = []
    pa = s.post_ask(eq(x, "a"), got.append)
    assert got == [AskResult.ENTAILED]
    assert not pa.alive


# -- relations and resolvability ----------------------------------------------

def test_relation_basics():
    s = Store()
    r = s.new_relation("dtr", 2)
    assert r.add("n1", "x")
    assert r.add("n2", "x")
    assert r.add("n1", "x")      # duplicate fact: no-op
    assert r.group(("x",)) == ("n1", "n2")
    assert ("n1", "x") in r and ("n9", "x") not in r
    r.close_group("x")
    with pytest.raises(UsageError):
        r.add("n3", "x")
    assert r.group_closed(("x",))


def test_relation_arity_checked():
    s = Store()
    r = s.new_relation("r", 3)
    with pytest.raises(UsageError):
        r.add("a", "b")
    with pytest.raises(UsageError):
        r.close_group("b")
    with pytest.raises(UsageError):
        s.new_relation("r", 1)


def test_daughter_resolves_on_group_closure():
    s = Store()
    y = s.new_var(["n1", "n2", "n3"], name="y")
    r = s.new_relation("dtr", 2)
    r.add("n1", "x")
    r.add("n2", "x")
    c = daughter(y, "x", r)
    s.tell(c)
    assert s.domain(y) == ("n1", "n2", "n3")
    assert s.ask(c) is AskResult.UNKNOWN
    r.close_group("x")
    assert s.domain(y) == ("n1", "n2")
    assert s.is_complete(y)
    assert s.ask(c) is AskResult.ENTAILED


def test_a_relation_of_another_store_is_refused_before_any_change():
    owner, s = Store(), Store()
    r = owner.new_relation("r", 2)
    u = s.new_var(range(5), name="u")
    v = s.new_var([0], name="v", closed=True)
    r.add(1, 0)
    r.add(2, 0)
    before = s.fingerprint()
    fired = []
    for c in (in_relation(u, (v,), r), daughter(u, 0, r)):
        with pytest.raises(UsageError, match="relation r does not belong"):
            s.tell(c)
        with pytest.raises(UsageError, match="relation r does not belong"):
            s.post_ask(c, fired.append)
    assert s.fingerprint() == before and not s.posted
    assert r.close_group(0)
    assert s.domain(u) == tuple(range(5)) and not s.is_complete(u) and not fired


def test_fact_additions_do_not_wake_resolvability():
    s = Store()
    u = s.new_var(range(10), name="u")
    v = s.new_var([0, 1], name="v", closed=True)
    r = s.new_relation("r", 2)
    c = in_relation(u, (v,), r)
    s.tell(c)
    base = s.counters.completeness_tests
    r.add(1, 0)
    r.add(2, 0)
    r.add(3, 1)
    assert s.counters.completeness_tests == base  # adds are silent


def test_binary_worst_case_counts():
    # groups close first (in domain order), the domain closes last
    for m in (1, 2, 3, 4, 8, 16):
        s = Store()
        u = s.new_var(range(10 * m), name="u")
        v = s.new_var(range(m), name="v")
        r = s.new_relation("r", 2)
        for k in range(m):
            r.add(k, k)
        c = in_relation(u, (v,), r)
        s.tell(c)
        base = s.counters.completeness_tests
        for k in range(m):
            r.close_group(k)
        s.close_domain(v)
        assert s.counters.completeness_tests - base == binary_worst_case(m)
        assert s.is_resolved(c)
        assert s.domain(u) == tuple(range(m))
        assert s.is_complete(u)


def test_binary_count_small_cases_explicit():
    # m=1: closure scan (1 group + 1 domain flag) + final domain pass (1)
    s = Store()
    u = s.new_var(range(5))
    v = s.new_var([0])
    r = s.new_relation("r", 2)
    r.add(0, 0)
    s.tell(in_relation(u, (v,), r))
    base = s.counters.completeness_tests
    r.close_group(0)
    assert s.counters.completeness_tests - base == 2
    s.close_domain(v)
    assert s.counters.completeness_tests - base == 3


def test_ternary_worst_case_counts():
    # the induced joint domain behaves like one binary domain of size
    # mv * mw; closing the first key variable alone stays silent
    for mv, mw in ((1, 1), (2, 2), (2, 3), (3, 3)):
        s = Store()
        M = mv * mw
        u = s.new_var(range(10 * M + 10), name="u")
        v = s.new_var(range(mv), name="v")
        w = s.new_var(range(mw), name="w")
        r = s.new_relation("r", 3)
        for a in range(mv):
            for b in range(mw):
                r.add(a * 100 + b, a, b)
        c = in_relation(u, (v, w), r)
        s.tell(c)
        base = s.counters.completeness_tests
        for a in range(mv):
            for b in range(mw):
                r.close_group(a, b)
        after_groups = s.counters.completeness_tests - base
        s.close_domain(v)
        assert s.counters.completeness_tests - base == after_groups
        s.close_domain(w)
        assert s.counters.completeness_tests - base == M * (M + 5) // 2
        assert s.is_resolved(c)


def test_late_post_resolves_immediately():
    s = Store()
    u = s.new_var(range(10))
    v = s.new_var([0, 1], closed=True)
    r = s.new_relation("r", 2)
    r.add(3, 0)
    r.add(4, 1)
    r.close_group(0)
    r.close_group(1)
    c = in_relation(u, (v,), r)
    s.tell(c)
    assert s.is_resolved(c)
    assert s.domain(u) == (3, 4)
    assert s.is_complete(u)


def test_resolvability_check_one_shot():
    # each event runs the completeness recursion once; count its tests
    s = Store()
    u = s.new_var(range(10))
    v = s.new_var([0, 1], closed=True)
    r = s.new_relation("r", 2)
    r.add(3, 0)
    r.add(4, 1)
    r.close_group(0)
    c = in_relation(u, (v,), r)

    def tests_run(action):
        before = s.counters.completeness_tests
        action()
        return s.counters.completeness_tests - before

    assert tests_run(lambda: s.tell(c)) == 2        # group 0 closed, group 1 open
    assert not s.is_resolved(c)
    assert tests_run(lambda: r.close_group(1)) == 3  # both groups + domain flag
    assert s.is_resolved(c)
    assert s.domain(u) == (3, 4)
    assert tests_run(lambda: s.tell(eq(u, 3))) == 0  # not model-gated


# -- snapshots ----------------------------------------------------------------

def test_restore_is_exact():
    s = Store()
    x = s.new_var([1, 2, 3])
    r = s.new_relation("r", 2)
    r.add(1, "k")
    snap = s.snapshot()
    fp = s.fingerprint()
    s.tell(neq(x, 2))
    r.add(2, "k")
    r.add(3, "m")
    r.close_group("k")
    s.close_domain(x)
    s.restore(snap)
    assert s.fingerprint() == fp
    assert s.domain(x) == (1, 2, 3)
    assert not s.is_complete(x)
    assert r.group(("k",)) == (1,) and r.group(("m",)) == ()
    assert not r.group_closed(("k",))


def test_restore_keeps_snapshot_live():
    s = Store()
    x = s.new_var([1, 2, 3])
    snap = s.snapshot()
    s.tell(neq(x, 1))
    s.restore(snap)
    assert snap.live
    s.tell(neq(x, 2))
    s.restore(snap)
    assert s.domain(x) == (1, 2, 3)


def test_restore_kills_younger_snapshots():
    s = Store()
    x = s.new_var([1, 2, 3])
    outer = s.snapshot()
    s.tell(neq(x, 1))
    inner = s.snapshot()
    s.restore(outer)
    assert not inner.live
    with pytest.raises(UsageError):
        s.restore(inner)


def test_snapshot_restore_loop_keeps_one_snapshot():
    s = Store()
    x = s.new_var([1, 2, 3])
    first = s.snapshot()
    for _ in range(20000):
        snap = s.snapshot()
        assert s.tell(neq(x, 1))
        s.restore(snap)
        assert snap is first
    assert first.live and s.domain(x) == (1, 2, 3)


def test_a_rollback_past_a_snapshot_kills_it():
    s = Store()
    with pytest.raises(RuntimeError):
        with s.transaction():
            s.new_var([7, 8])
            snap = s.snapshot()
            raise RuntimeError
    assert not snap.live
    z = s.new_var([1, 2])
    with pytest.raises(UsageError, match="snapshot is dead"):
        s.restore(snap)   # it would give a state with z, without the [7, 8] variable
    assert s.domain(z) == (1, 2)
    # a failed tell that unwinds past a snapshot kills it as well
    b = s.new_bool()
    taken = []

    def fire(res):
        taken.append(s.snapshot())
        raise InconsistencyError("late clash")

    s.post_ask(bool_post(Var(b)), fire)
    assert not s.tell(bool_post(Var(b)))
    assert len(taken) == 1 and not taken[0].live


def test_restore_foreign_snapshot_rejected():
    s1, s2 = Store(), Store()
    snap = s1.snapshot()
    with pytest.raises(UsageError):
        s2.restore(snap)


def test_a_store_leaves_no_garbage():
    # neither the trail nor a snapshot refers back to the store, so a
    # store goes as soon as its last reference does
    gc.collect()
    gc.disable()
    try:
        s = Store()
        x = s.new_var([1, 2, 3])
        assert s.tell(neq(x, 2))
        snap = s.snapshot()
        assert s.tell(eq(x, 1))
        s.restore(snap)
        del s, x
        assert not snap.live
        del snap
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_store_with_a_relation_leaves_no_garbage():
    # a relation refers to the store weakly
    gc.collect()
    gc.disable()
    try:
        s = Store()
        r = s.new_relation("dtr", 2)
        assert r.add("n1", "x")
        y = s.new_var(["n1", "n2"], name="y")
        snap = s.snapshot()
        assert s.tell(daughter(y, "x", r))
        assert r.close_group("x")
        assert s.domain(y) == ("n1",) and s.is_complete(y)
        s.restore(snap)
        assert r.add("n2", "x") and r.close_group("x")
        assert s.tell(daughter(y, "x", r))
        assert s.domain(y) == ("n1", "n2")
        del s, r, y, snap
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_relation_outliving_its_store_is_a_usage_error():
    r = Store().new_relation("dtr", 2)
    with pytest.raises(UsageError):
        r.add("n1", "x")
    with pytest.raises(UsageError):
        r.close_group("x")


def test_counters_survive_restore():
    s = Store()
    u = s.new_var(range(10))
    v = s.new_var([0], name="v")
    r = s.new_relation("r", 2)
    r.add(1, 0)
    s.tell(in_relation(u, (v,), r))
    snap = s.snapshot()
    r.close_group(0)
    s.close_domain(v)
    spent = s.counters.completeness_tests
    assert spent == 3
    s.restore(snap)
    assert s.counters.completeness_tests == spent   # cumulative
    # the same work after restore is counted again
    r.close_group(0)
    s.close_domain(v)
    assert s.counters.completeness_tests == 2 * spent


def test_trace_events():
    lines = []
    s = Store(trace=lines.append)
    x = s.new_var([1, 2], name="x")
    s.tell(neq(x, 1))
    s.close_domain(x)
    kinds = [ln.split()[1] for ln in lines]
    assert "post" in kinds and "prune" in kinds and "close" in kinds
    assert all(ln.startswith("EVENT ") for ln in lines)


def test_untraced_store_formats_no_events(monkeypatch):
    def boom(dom):
        raise AssertionError("event text built without a trace sink")

    monkeypatch.setattr(Store, "_fmt_dom", staticmethod(boom))
    toy = load_grammar_file("grammars/toy.clg")
    a1 = ("Det", "Nm", "Vb", "Det", "Nm", "Prep", "Nm")
    derivs, _ = parse(a1, toy, strategy="active")
    assert len(derivs) == 15
    with pytest.raises(AssertionError):
        parse(a1, toy, strategy="active", trace=lambda line: None)


def test_var_handles_hash_by_identity_not_name():
    s = Store()
    x = s.new_var([1, 2], name="x")
    twin = VarId(x.index, x.store_id, x.kind, "other")
    assert twin == x and hash(twin) == hash(x)
    assert repr(x) == "x" and repr(twin) == "other"
    assert VarId(x.index, x.store_id + 1, x.kind) != x


def test_transaction_takes_back_everything_on_a_raise():
    s = Store()
    x = s.new_var([1, 2, 3], closed=True)
    b = s.new_bool()
    undone = []
    before = s.fingerprint()
    with pytest.raises(InconsistencyError):
        with s.transaction():
            assert s.tell(eq(x, 2))
            s.new_var([7])
            with s.transaction():      # an inner block commits into the outer one
                assert s.set_bool(b, True)
            s.on_undo(lambda: undone.append("trailed"))
            raise InconsistencyError("late clash")
    assert s.fingerprint() == before
    assert undone == ["trailed"]
    with s.transaction():              # a clean exit keeps everything
        assert s.tell(eq(x, 3))
    assert s.value(x) == 3


def test_transaction_wakes_suspended_asks_on_exit():
    s = Store()
    b = s.new_bool()
    fired = []
    s.post_ask(bool_post(Var(b)), fired.append)
    with s.transaction():
        assert s.set_bool(b, True)
        assert fired == []             # set_bool does not propagate or wake
    assert fired == [AskResult.ENTAILED]


def test_only_the_store_touches_its_internals():
    # Constraints, feature structures and signs go through the public
    # propagator API and `transaction()`, never through store._x; signs
    # go through the public FeatureStructure methods, never through fs._x.
    src = Path(clparse.__file__).parent
    for owner, pattern in (("store.py", r"store\._[a-z]"), ("fstruct.py", r"\bfs\._[a-z]")):
        offenders = [f"{path.name}:{n}: {line.strip()}"
                     for path in sorted(src.glob("*.py")) if path.name != owner
                     for n, line in enumerate(path.read_text().splitlines(), 1)
                     if re.search(pattern, line)]
        assert offenders == []
