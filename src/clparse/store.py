"""Finite-domain ask/tell constraint store with three-valued statuses.

The store holds two kinds of variables, finite-domain and boolean
status, incrementally described relations that model the structure
under analysis, a FIFO propagation queue, suspended asks woken by store
events, and one trail behind snapshot/restore and transactions.  Each
constraint names the kind of its variables; a tell, an ask or a read
that meets a variable of the other kind is a `UsageError`.

Domains only shrink; what grows is the model description.  Each domain
carries a completeness flag: until `close_domain` is called the current
value set is a partial description and entailment questions stay
unanswerable.  A constraint over such variables becomes *resolvable*
once every participating domain is complete; the recursive completeness
check is instrumented so the documented worst-case re-check schedule can
be measured exactly.

An event on a variable queues every constraint watching it, once.  The
one exception is the constraint whose filter made the event: an
idempotent one (`Eq`, `Neq`, `Element`, `Spells`), whose single run
already reaches its own fixpoint, is not woken by its own prunes
(Schulte & Stuckey, "Efficient constraint propagation engines", 2008).
`AllDistinct`, `BoolConstraint` and `InRelation` are woken by every
event on their variables, their own included.

A `one_run` constraint (`Spells`, `Element`, and `Eq`/`Neq` against a
constant) prunes its one variable to a fixed set, so one run of its
filter entails it and every later prune keeps it true.  Its tell runs
the filter once, as one propagation step, propagates what that run
woke, and registers no watch: a subsumed propagator is never scheduled
again (ibid.).  With propagation pending at the tell, it is queued and
watched as any other, so the queue's FIFO order holds.  Deduplication,
the `post` event, the trace and the all-or-nothing rollback are those
of every tell.

Every store has two boolean constants, `Store.false` and `Store.true`,
entailed from the start and kept by every restore; a status known when
it is created shares one of them instead of taking a variable of its
own (Schulte & Stuckey's constant views).

Work counts (completeness tests, propagation steps, ask evaluations) go
to `Store.counters`, a `Stats` record, and are cumulative: restore never
rolls them back.
"""

from __future__ import annotations

import enum
import functools
import itertools
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable

from .errors import InconsistencyError, UsageError
from .logic import Bool3


def _drop_keys(table: dict, keys) -> None:
    for k in keys:
        table.pop(k, None)


class VarKind(enum.Enum):
    FD = "fd"
    BOOL = "bool"


# module names for the kinds: a lookup on an enum class is slow
_FD, _BOOL = VarKind.FD, VarKind.BOOL


@dataclass(frozen=True)
class VarId:
    """Handle to a store variable.  Identity is (index, store)."""

    index: int
    store_id: int
    kind: VarKind
    name: str = field(compare=False, default="")

    def __post_init__(self) -> None:
        # Every hash of a constraint hashes its handles; compute each
        # handle's hash once instead of per lookup.
        object.__setattr__(self, "_hash", hash((self.index, self.store_id, self.kind)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.name or f"_{self.kind.value}{self.index}"


@dataclass
class Stats:
    """Work counts of a store, a parse or a sentence; `merge` sums two."""

    windows_tried: int = 0
    reductions_applied: int = 0
    backtracks: int = 0
    trees_considered: int = 0
    expansions: int = 0
    signs_accepted: int = 0
    completeness_tests: int = 0
    propagation_steps: int = 0
    ask_evaluations: int = 0

    def merge(self, other: "Stats") -> None:
        for name in _STAT_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))


_STAT_NAMES = tuple(f.name for f in fields(Stats))


class AskResult(enum.Enum):
    ENTAILED = "entailed"
    DISENTAILED = "disentailed"
    UNKNOWN = "unknown"


class _VarState:
    __slots__ = ("kind", "domain", "complete", "status")

    def __init__(self, kind: VarKind):
        self.kind = kind
        self.domain: dict | None = None  # ordered set for FD vars
        self.complete = False
        self.status = Bool3.UNKNOWN


class Snapshot:
    """A restorable mark.  Restoring to it keeps it live and kills every
    snapshot taken after it (LIFO unwind); any rollback that unwinds past
    it, a failed tell or a raising transaction included, kills it too.
    Restoring to a dead snapshot is a usage error.  A snapshot taken at
    the same point as the live top one is that same object.  It refers
    to its store weakly, so the store's snapshot stack makes no cycle."""

    __slots__ = ("_store", "_mark")

    def __init__(self, store: "Store", mark: tuple[int, int]):
        self._store = weakref.ref(store)
        self._mark = mark

    @property
    def live(self) -> bool:
        store = self._store()
        # From the top: a restore to the top snapshot never asks, and
        # the other targets are near the top of the stack.
        return store is not None and any(s is self for s in reversed(store._snapshots))


class PendingAsk:
    """A suspended ask: re-examined on store events touching its
    variables, fires its callback once resolved, then retires."""

    __slots__ = ("constraint", "callback", "alive")

    def __init__(self, constraint, callback):
        self.constraint = constraint
        self.callback = callback
        self.alive = True


class Relation:
    """Incrementally described relation: the model side of the store.

    Facts accumulate monotonically.  A *group* is the image of the first
    argument position under fixed remaining arguments; closing a group
    declares that image complete, after which it accepts no more facts.
    Only closure events (not fact additions) can flip resolvability, so
    only they re-check the model-gated constraints.  A relation refers
    to its store weakly and its undo entries name its containers, so a
    store with relations is freed by reference counting too.
    """

    def __init__(self, store: "Store", name: str, arity: int):
        self._store = weakref.ref(store)
        self.name = name
        self.arity = arity
        self._groups: dict[tuple, dict] = {}
        self._closed: set[tuple] = set()

    def __contains__(self, fact) -> bool:
        fact = tuple(fact)
        return len(fact) == self.arity and fact[0] in self._groups.get(fact[1:], ())

    def group(self, key: tuple) -> tuple:
        return tuple(self._groups.get(tuple(key), ()))

    def group_closed(self, key: tuple) -> bool:
        return tuple(key) in self._closed

    def _live_store(self) -> "Store":
        st = self._store()
        if st is None:
            raise UsageError(f"the store of relation {self.name} is gone")
        return st

    def add(self, *fact) -> bool:
        """Tell one fact.  Returns the store's consistency flag."""
        if len(fact) != self.arity:
            raise UsageError(f"{self.name} expects arity {self.arity}")
        key = fact[1:]
        if key in self._closed:
            raise UsageError(f"group {key} of {self.name} is closed")
        if fact in self:
            return True
        st = self._live_store()
        mark = st._mark()
        bucket = self._groups.setdefault(key, {})
        bucket[fact[0]] = None
        st._trail.append(functools.partial(_drop_fact, self._groups, key, fact[0]))
        if st._trace:
            st._emit("fact", self.name, "-", repr(fact))
        return st._after_model_event(self, mark, closure=False)

    def close_group(self, *key) -> bool:
        """Declare the image under `key` complete.  Returns consistency."""
        key = tuple(key)
        if len(key) != self.arity - 1:
            raise UsageError(f"{self.name} group keys have arity {self.arity - 1}")
        if key in self._closed:
            return True
        st = self._live_store()
        mark = st._mark()
        self._closed.add(key)
        st._trail.append(functools.partial(self._closed.discard, key))
        if st._trace:
            st._emit("close_group", self.name, "open", repr(key))
        return st._after_model_event(self, mark, closure=True)


def _drop_fact(groups: dict, key: tuple, first) -> None:
    """Undo one `Relation.add`: the fact goes, and its group with it if
    the fact was the group's only one."""
    bucket = groups[key]
    del bucket[first]
    if not bucket:
        del groups[key]


class Store:
    _ids = itertools.count(1)

    def __init__(self, trace: Callable[[str], None] | None = None):
        self._id = next(Store._ids)
        self._vars: dict[int, _VarState] = {}
        self._next_var = itertools.count(1)
        self._trail: list[Callable[[], None]] = []
        self._snapshots: list[Snapshot] = []
        self.posted: dict = {}      # insertion-ordered set of constraints
        self._watching: dict[int, list] = {}
        self._queue: deque = deque()
        self._queued: set[int] = set()
        self._asks: dict[object, list[PendingAsk]] = {}
        self._ask_wake: list = []
        self._draining = False
        # the posted model-gated constraints, by relation and key variable
        self._watchers_rel: dict[int, list] = {}
        self._watchers_var: dict[int, list] = {}
        self._resolved: set = set()
        self._running = None        # the constraint whose filter runs
        self.counters = Stats()
        self._trace = trace
        # One entailed-false and one entailed-true variable, which every
        # status known when it is made shares (`fstruct`): made with no
        # undo entry, so no restore takes them back.  Telling one the
        # other value fails, as it would on a variable of its own.
        self.false, self.true = self._constant(False), self._constant(True)

    # -- variables ----------------------------------------------------

    def new_var(self, values, *, name: str = "", closed: bool = False) -> VarId:
        """Create a finite-domain variable over `values` (order kept).

        The domain starts incomplete -- a partial description that later
        information may be measured against -- unless `closed` is set.
        """
        state = _VarState(_FD)
        state.domain = dict.fromkeys(values)
        if not state.domain:
            raise UsageError("a finite-domain variable needs at least one value")
        state.complete = closed
        return self._install(state, name)

    def new_bool(self, name: str = "") -> VarId:
        return self._install(_VarState(_BOOL), name)

    def new_bools(self, names) -> list[VarId]:
        """Open boolean variables in one batch, one per name; one undo
        entry takes the batch back."""
        out = []
        for name in names:
            idx = next(self._next_var)
            self._vars[idx] = _VarState(_BOOL)
            out.append(VarId(idx, self._id, _BOOL, name))
        if out:
            self._trail.append(functools.partial(_drop_keys, self._vars, [v.index for v in out]))
        return out

    def _constant(self, flag: bool) -> VarId:
        state = _VarState(_BOOL)
        state.status = Bool3.of(flag)
        idx = next(self._next_var)
        self._vars[idx] = state
        return VarId(idx, self._id, _BOOL, str(flag).lower())

    def _install(self, state: _VarState, name: str) -> VarId:
        idx = next(self._next_var)
        self._vars[idx] = state
        # The undo entries name the containers, not the store, so a store
        # is freed by reference counting and never waits for the cyclic
        # collector.
        self._trail.append(functools.partial(self._vars.pop, idx, None))
        return VarId(idx, self._id, state.kind, name)

    def _state(self, v: VarId, kind: VarKind) -> _VarState:
        """v's state, once v is found to be a live variable of this
        store and of that kind."""
        # fast path: a live handle of this store, of the kind asked for
        try:
            if v.store_id == self._id:
                state = self._vars[v.index]
                if state.kind is kind:
                    return state
        except (AttributeError, KeyError):
            pass
        if not isinstance(v, VarId) or v.store_id != self._id:
            raise UsageError(f"{v!r} does not belong to this store")
        state = self._vars.get(v.index)
        if state is None:
            raise UsageError(f"{v!r} no longer exists (restored away?)")
        raise UsageError(f"{v!r} is a {state.kind.value} variable, not {kind.value}")

    def domain(self, v: VarId) -> tuple:
        return tuple(self._state(v, _FD).domain)

    def value(self, v: VarId):
        """The single remaining value, or None if not yet determined."""
        dom = self._state(v, _FD).domain
        if len(dom) == 1:
            return next(iter(dom))
        return None

    def is_complete(self, v: VarId) -> bool:
        return self._state(v, _FD).complete

    def bool_value(self, v: VarId) -> Bool3:
        return self._state(v, _BOOL).status

    # -- propagator API ---------------------------------------------------
    # Trailed single steps that do not propagate: filters call them,
    # other layers call them inside `transaction()`.

    def on_undo(self, fn: Callable[[], None]) -> None:
        """Trail `fn`: it runs when a restore or rollback unwinds past
        this point."""
        self._trail.append(fn)

    def prune(self, v: VarId, allowed) -> bool:
        """Intersect v's domain with the set `allowed`.  False iff
        emptied."""
        state = self._state(v, _FD)
        old = state.domain
        if old.keys() <= allowed:
            return True
        new = {val: None for val in old if val in allowed}
        state.domain = new
        self._trail.append(functools.partial(setattr, state, "domain", old))
        if self._trace:
            self._emit("prune", v, self._fmt_dom(old), self._fmt_dom(new))
        self._touch_var(v)
        return len(new) > 0

    def set_bool(self, v: VarId, flag: bool) -> bool:
        state = self._state(v, _BOOL)
        if state.status.known:
            return state.status is Bool3.of(flag)
        state.status = Bool3.of(flag)
        self._trail.append(functools.partial(setattr, state, "status", Bool3.UNKNOWN))
        self._emit("status", v, "U", state.status.value)
        self._touch_var(v)
        return True

    def _touch_var(self, v: VarId) -> None:
        running = self._running
        for c in self._watching.get(v.index, ()):
            # an idempotent filter is at its own fixpoint once it returns,
            # so its own prunes do not wake it
            if c is not running or not c.idempotent:
                self._enqueue(c)
        key = ("v", v.index)
        if self._asks.get(key):
            self._ask_wake.append(key)

    def mark_complete(self, v: VarId) -> None:
        """Flag v's domain complete and fire the closure event, without
        propagating (safe to call from inside a filter)."""
        state = self._state(v, _FD)
        if state.complete:
            return
        state.complete = True
        self._trail.append(functools.partial(setattr, state, "complete", False))
        self._emit("close", v, "open", "closed")
        for c in self._watchers_var.get(v.index, ()):
            # the joint key domain closes with the last of its variables
            if all(self.is_complete(k) for k in c.key_vars):
                self._attempt(c, domain_event=True)
        self._touch_var(v)

    def close_domain(self, v: VarId) -> bool:
        """Flag v's domain as a complete partial description.

        This is the event that lets suspended asks and resolvability
        checks over v fire.  Returns the store's consistency flag.
        """
        if self._state(v, _FD).complete:
            return True
        mark = self._mark()
        self.mark_complete(v)
        return self._settle(mark)

    # -- relations ------------------------------------------------------

    def new_relation(self, name: str, arity: int) -> Relation:
        if arity < 2:
            raise UsageError("relations need arity >= 2")
        return Relation(self, name, arity)

    def _after_model_event(self, rel: Relation, mark: tuple[int, int], closure: bool) -> bool:
        if closure:
            for c in self._watchers_rel.get(id(rel), ()):
                self._attempt(c, domain_event=False)
        self._ask_wake.append(("r", id(rel)))
        return self._settle(mark)

    # -- resolvability ----------------------------------------------------
    # A model-gated constraint is re-checked on the group closures of its
    # relation and on the closure of the last of its key-variable
    # domains; once resolvable it is queued, and its filter runs.

    def _attempt(self, c, domain_event: bool) -> None:
        if c not in self._resolved and self._recheck_resolvability(c, domain_event):
            self._resolved.add(c)
            self._trail.append(functools.partial(self._resolved.discard, c))
            self._enqueue(c)

    def _recheck_resolvability(self, c, domain_event: bool) -> bool:
        """One run of the completeness recursion over c's image groups.

        Every group consulted counts as one completeness test; the final
        (joint) domain flag counts as one more unless `domain_event`
        says this very check was woken by that closure.
        """
        for key in c.image_keys(self):
            self.counters.completeness_tests += 1
            if not c.relation.group_closed(key):
                return False
        if c.key_vars and not domain_event:
            self.counters.completeness_tests += 1
            if not all(self.is_complete(v) for v in c.key_vars):
                return False
        return True

    def is_resolved(self, c) -> bool:
        return c in self._resolved

    # -- tell / ask -------------------------------------------------------

    def tell(self, c) -> bool:
        """Post a constraint and propagate to fixpoint.

        Returns True if the store stays consistent; on inconsistency the
        store is restored to its pre-tell state (counters excepted) and
        False comes back.  Reposting an identical constraint is a no-op.
        """
        cvars = self._check_owned(c)
        if c in self.posted:
            return True
        mark = self._mark()
        self.posted[c] = None
        self._trail.append(functools.partial(self.posted.pop, c))
        # One run entails a `one_run` constraint: with no propagation
        # pending it runs at once and watches nothing.  Pending work
        # keeps its FIFO turn before it.
        first = None
        if c.one_run and not self._queue:
            first = c
        else:
            self._schedule(c, cvars)
        if self._trace:
            self._emit("post", c, "-", "-")
        if self._settle(mark, first):
            return True
        self._emit("fail", c, "-", "-")
        return False

    def _schedule(self, c, cvars) -> None:
        """Make the events on c's variables wake c, and a model-gated c's
        closures too, and queue c."""
        trail = self._trail
        for v in cvars:
            bucket = self._watching.setdefault(v.index, [])
            bucket.append(c)
            trail.append(bucket.pop)
        if c.model_gated:
            key_vars = c.key_vars
            for bucket in (self._watchers_rel.setdefault(id(c.relation), []),
                           *(self._watchers_var.setdefault(v.index, []) for v in key_vars)):
                bucket.append(c)
                trail.append(bucket.pop)
            if all(self.is_complete(v) for v in key_vars):
                self._attempt(c, domain_event=False)  # late post: no closure to wait for
        self._enqueue(c)

    def _check_owned(self, c) -> tuple:
        """c's variables, once they and c's relation, if it has one, are
        found to belong to this store, and the variables to be of c's
        kind."""
        cvars, kind = c.vars(), c.var_kind
        for v in cvars:
            self._state(v, kind)
        if c.model_gated and c.relation._store() is not self:
            raise UsageError(f"relation {c.relation.name} does not belong to this store")
        return cvars

    def ask(self, c) -> AskResult:
        """Query entailment without changing the description.

        Entailed iff c holds under every assignment the current domains
        admit, disentailed iff under none; unknown otherwise, including
        whenever some involved domain is not yet complete.
        """
        self._check_owned(c)
        self.counters.ask_evaluations += 1
        return c.ask_value(self)

    def post_ask(self, c, callback: Callable[[AskResult], None]) -> PendingAsk:
        """Suspend an ask: evaluate now, else re-examine on each event
        touching its variables; fire `callback` once and retire."""
        pa = PendingAsk(c, callback)
        res = self.ask(c)
        if res is not AskResult.UNKNOWN:
            pa.alive = False
            callback(res)
            return pa
        keys = [("v", v.index) for v in c.vars()]
        if c.model_gated:
            keys.append(("r", id(c.relation)))
        for key in keys:
            bucket = self._asks.setdefault(key, [])
            bucket.append(pa)
            self._trail.append(lambda b=bucket, p=pa: b.remove(p))
        return pa

    def _drain_wakeups(self) -> None:
        if self._draining:
            return
        self._draining = True
        try:
            while self._ask_wake:
                key = self._ask_wake.pop()
                for pa in list(self._asks.get(key, ())):
                    if not pa.alive:
                        continue
                    res = self.ask(pa.constraint)
                    if res is not AskResult.UNKNOWN:
                        pa.alive = False
                        self._trail.append(lambda p=pa: setattr(p, "alive", True))
                        pa.callback(res)
        finally:
            self._draining = False

    # -- propagation --------------------------------------------------------

    def _enqueue(self, c) -> None:
        # Keyed by identity: every queued constraint is the posted
        # instance, since tell drops equal reposts.
        if id(c) not in self._queued:
            self._queue.append(c)
            self._queued.add(id(c))

    def propagate(self) -> bool:
        """Run filtering to fixpoint (FIFO).  False on inconsistency;
        unlike tell, a bare propagate does not restore anything."""
        queue, queued, counters = self._queue, self._queued, self.counters
        try:
            while queue:
                c = queue.popleft()
                queued.discard(id(c))
                counters.propagation_steps += 1
                self._running = c
                if not c.filter(self):
                    self._emit("fail", c, "-", "-")
                    return False
            return True
        finally:
            self._running = None

    def _run(self, c) -> bool:
        """One counted run of c's filter, outside the queue; False on a
        wipe-out."""
        self.counters.propagation_steps += 1
        if c.filter(self):
            return True
        self._emit("fail", c, "-", "-")
        return False

    # -- snapshot / restore ---------------------------------------------------

    def snapshot(self) -> Snapshot:
        mark = self._mark()
        if self._snapshots and self._snapshots[-1]._mark == mark:
            # nothing changed since the top one: a snapshot/restore loop
            # keeps the stack at one entry
            return self._snapshots[-1]
        snap = Snapshot(self, mark)
        self._snapshots.append(snap)
        return snap

    def restore(self, snap: Snapshot) -> None:
        """Rewind to `snap` (which stays live; younger snapshots die).
        The counters are not rolled back."""
        snaps = self._snapshots
        if snaps and snaps[-1] is snap:
            # the top one, as every window solve's base is: no search
            self._rollback(snap._mark)
            return
        if snap._store() is not self:
            raise UsageError("snapshot belongs to a different store")
        if not snap.live:
            raise UsageError("snapshot is dead (already unwound past)")
        while snaps[-1] is not snap:
            snaps.pop()
        self._rollback(snap._mark)

    def _settle(self, mark: tuple[int, int], first=None) -> bool:
        """Run `first`'s filter, if given, once; propagate, then re-ask
        the suspended asks woken since `mark`.  On inconsistency (a
        failing filter, or a woken callback raising InconsistencyError)
        undo to `mark` and return False; any other exception is re-raised
        after the same undo."""
        try:
            if (first is None or self._run(first)) and self.propagate():
                if self._ask_wake:
                    self._drain_wakeups()
                return True
        except InconsistencyError:
            pass
        except BaseException:
            self._rollback(mark)
            raise
        self._rollback(mark)
        return False

    def _mark(self) -> tuple[int, int]:
        return len(self._trail), len(self._ask_wake)

    def _rollback(self, mark: tuple[int, int]) -> None:
        """Undo the trail down to `mark`, drop the ask wake-ups queued
        since it, the snapshots taken past it and all pending
        propagation: the one way a failed mutation is taken back."""
        trailed, woken = mark
        while len(self._trail) > trailed:
            self._trail.pop()()
        del self._ask_wake[woken:]
        while self._snapshots and self._snapshots[-1]._mark[0] > trailed:
            self._snapshots.pop()
        self._queue.clear()
        self._queued.clear()
        self._running = None

    @contextmanager
    def transaction(self):
        """All-or-nothing block: if the body raises, every trailed change
        it made is undone and the exception propagates; otherwise the
        suspended asks its events woke are re-examined.  The counters are
        not rolled back."""
        mark = self._mark()
        try:
            yield
            self._drain_wakeups()
        except BaseException:
            self._rollback(mark)
            raise

    # -- diagnostics ------------------------------------------------------------

    def fingerprint(self) -> tuple:
        """Hashable summary of variable state; used to check that
        restore is exact."""
        rows = []
        for idx in sorted(self._vars):
            state = self._vars[idx]
            if state.kind is _FD:
                rows.append((idx, tuple(state.domain), state.complete))
            else:
                rows.append((idx, state.status.value))
        return tuple(rows), len(self.posted)

    @staticmethod
    def _fmt_dom(dom) -> str:
        return "{" + ",".join(str(v) for v in dom) + "}"

    def _emit(self, kind: str, subject, before: str, after: str) -> None:
        if self._trace:
            self._trace(f"EVENT {kind} {subject!r} {before} {after}")
