"""Constraint vocabulary posted into the store.

Standard finite-domain constraints (eq, neq, all_distinct, element) and
boolean formulas are always resolvable: their filters run as soon as
they are posted.  Membership in an incrementally described relation
(`InRelation`, made by in_relation, and by daughter with the mother node
as its one fixed key) is model-gated: it filters nothing until the
completeness machinery declares it resolvable, at which point it
induces a complete domain on its first argument.

`Spells` ties a window to a ground sequence by content: one variable
over (origin, size) windows, kept to those whose slice is a word of a
trie (Pesant 2004, for the finite language of a grammar's right-hand
sides) that may be rewritten to a symbol its neighbours can stand
beside.

Every constraint but `BoolConstraint` is over finite-domain variables;
`var_kind` names the kind, and the store refuses a tell or an ask whose
variables are of the other kind.

Constraints are built in code, through the classes or the constructors
at the end of this module.  A boolean formula written as text goes
through `logic.parse_formula` and is posted with bool_post.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .logic import Bool3, Formula, eval_formula, enforce
from .store import AskResult, Relation, Store, VarId, VarKind

# The symbol past either end of a sequence, in `Spells.follows`: no
# category name is empty.
BOUNDARY = ""


class Constraint:
    """Base: subclasses are frozen dataclasses, so identical posts dedupe.

    A constraint is `idempotent` when one run of its filter always
    reaches the filter's own fixpoint: a second run straight after it
    prunes nothing.  The store then does not wake it for the events of
    its own run (Schulte & Stuckey 2008).

    A constraint is `one_run` when one run of its filter entails it: the
    filter prunes its one variable to a fixed set, and every later prune
    keeps the variable inside that set.  The store runs such a filter
    once, as the constraint is told, and never wakes it again: a
    subsumed propagator is never scheduled again (ibid.)."""

    model_gated = False
    idempotent = False
    one_run = False
    var_kind = VarKind.FD

    def vars(self) -> tuple[VarId, ...]:
        raise NotImplementedError

    def filter(self, store: Store) -> bool:
        """Prune to per-constraint local consistency.  False on wipe-out."""
        return True

    def holds(self, asg: dict, store: Store) -> bool:
        raise NotImplementedError

    def is_resolvable(self, store: Store) -> bool:
        return True

    def ask_value(self, store: Store) -> AskResult:
        """Decide entailment by support enumeration once every involved
        domain is complete; unknown before that."""
        if not self.is_resolvable(store):
            return AskResult.UNKNOWN
        vs = self.vars()
        if any(not store.is_complete(v) for v in vs):
            return AskResult.UNKNOWN
        truths: set[bool] = set()
        for combo in itertools.product(*(store.domain(v) for v in vs)):
            truths.add(self.holds(dict(zip(vs, combo)), store))
            if len(truths) == 2:
                return AskResult.UNKNOWN
        if truths == {True}:
            return AskResult.ENTAILED
        return AskResult.DISENTAILED


def _is_var(x) -> bool:
    return isinstance(x, VarId)


@dataclass(frozen=True)
class Eq(Constraint):
    """x equals y, a variable or a constant.  Idempotent: the filter
    leaves both domains equal to their intersection, which a second run
    finds again."""

    x: VarId
    y: object  # variable or constant

    idempotent = True

    @property
    def one_run(self) -> bool:
        return not _is_var(self.y)

    def vars(self):
        return (self.x, self.y) if _is_var(self.y) else (self.x,)

    def filter(self, store):
        if _is_var(self.y):
            allowed = set(store.domain(self.x)) & set(store.domain(self.y))
            return store.prune(self.x, allowed) and store.prune(self.y, allowed)
        return store.prune(self.x, {self.y})

    def holds(self, asg, store):
        return asg[self.x] == (asg[self.y] if _is_var(self.y) else self.y)


@dataclass(frozen=True)
class Neq(Constraint):
    """x differs from y, a variable or a constant.  Idempotent: a prune
    only removes the other side's single value, so a side it leaves
    single holds a value unlike that one, and a second run removes
    nothing."""

    x: VarId
    y: object

    idempotent = True

    @property
    def one_run(self) -> bool:
        return not _is_var(self.y)

    def vars(self):
        return (self.x, self.y) if _is_var(self.y) else (self.x,)

    def filter(self, store):
        if not _is_var(self.y):
            return store.prune(self.x, set(store.domain(self.x)) - {self.y})
        ok = True
        xv, yv = store.value(self.x), store.value(self.y)
        if xv is not None:
            ok = store.prune(self.y, set(store.domain(self.y)) - {xv})
        if ok and yv is not None:
            ok = store.prune(self.x, set(store.domain(self.x)) - {yv})
        return ok

    def holds(self, asg, store):
        return asg[self.x] != (asg[self.y] if _is_var(self.y) else self.y)


@dataclass(frozen=True)
class AllDistinct(Constraint):
    """Pairwise distinctness, filtered at singleton-elimination strength:
    every determined item's value is removed from the other domains."""

    items: tuple  # variables and constants mixed

    def vars(self):
        return tuple(i for i in self.items if _is_var(i))

    def filter(self, store):
        pinned: list[tuple[object, object]] = []  # (source item, value)
        for item in self.items:
            if _is_var(item):
                val = store.value(item)
                if val is not None:
                    pinned.append((item, val))
            else:
                pinned.append((None, item))
        seen = set()
        for _, val in pinned:
            if val in seen:
                return False
            seen.add(val)
        for src, val in pinned:
            for item in self.items:
                if _is_var(item) and item is not src and store.value(item) != val:
                    if not store.prune(item, set(store.domain(item)) - {val}):
                        return False
                elif _is_var(item) and item is not src and store.value(item) == val:
                    return False
        return True

    def holds(self, asg, store):
        vals = [asg[i] if _is_var(i) else i for i in self.items]
        return len(vals) == len(set(vals))


@dataclass(frozen=True)
class Element(Constraint):
    """Membership restriction: the variable ranges over `allowed`.
    Idempotent: the filter is one intersection with a fixed set."""

    x: VarId
    allowed: tuple

    idempotent = one_run = True

    def vars(self):
        return (self.x,)

    def filter(self, store):
        return store.prune(self.x, set(self.allowed))

    def holds(self, asg, store):
        return asg[self.x] in self.allowed


@dataclass(frozen=True)
class Spells(Constraint):
    """w ranges over (origin, size) windows of `whole` that spell a word
    of `trie` rewritable between the window's neighbours.  `trie` is a
    dict from each first symbol to the pair (the symbols a word ending
    there may be rewritten to, the trie of what may follow), as
    `Grammar.rhs_trie`.  `follows` maps a symbol, and `BOUNDARY` for the
    left end, to the symbols that may stand right after it, `BOUNDARY`
    for the right end, as `Grammar.follows`.  A window is kept when one
    of its word's symbols may follow the symbol before the window and be
    followed by the one after it, `BOUNDARY` past either end of `whole`.
    The trie and `follows` are left out of equality, hashing and repr: a
    trace line names the sequence.

    The filter walks the trie from each origin of `whole` and prunes w
    to the windows whose walk ends at a word that fits there.
    Idempotent: the walk depends on `whole` alone, so a second run finds
    the same windows and prunes nothing."""

    w: VarId
    whole: tuple
    trie: dict = field(compare=False, repr=False)
    follows: dict = field(compare=False, repr=False)

    idempotent = one_run = True

    def vars(self):
        return (self.w,)

    def filter(self, store):
        whole, trie, follows, n = self.whole, self.trie, self.follows, len(self.whole)
        spelled = set()
        before = follows.get(BOUNDARY, ())
        for va, cat in enumerate(whole):
            entry, end = trie.get(cat), va + 1
            while entry is not None:
                words, node = entry
                if words:
                    after = whole[end] if end < n else BOUNDARY
                    for x in words:
                        if x in before and after in follows.get(x, ()):
                            spelled.add((va, end - va))
                            break
                if end == n:
                    break
                entry, end = node.get(whole[end]), end + 1
            before = follows.get(cat, ())
        return store.prune(self.w, spelled)

    def holds(self, asg, store):
        whole, follows = self.whole, self.follows
        va, vb = asg[self.w]
        end = va + vb
        if not (0 <= va and 0 < vb and end <= len(whole)):
            return False
        node = self.trie
        for cat in whole[va:end]:
            entry = node.get(cat)
            if entry is None:
                return False
            words, node = entry
        before = follows.get(whole[va - 1] if va else BOUNDARY, ())
        after = whole[end] if end < len(whole) else BOUNDARY
        return any(x in before and after in follows.get(x, ()) for x in words)


@dataclass(frozen=True)
class BoolConstraint(Constraint):
    """Asserts a three-valued formula true, at unit-propagation strength:
    whenever all but one leaf of a decisive context is fixed, the
    remaining status is forced."""

    formula: Formula

    var_kind = VarKind.BOOL

    def __post_init__(self) -> None:
        # Every tell hashes the constraint and reads its variables; walk
        # the formula for both once, as VarId computes its hash once.
        # Equality stays structural.
        object.__setattr__(self, "_vars", tuple(dict.fromkeys(self.formula.leaves())))
        object.__setattr__(self, "_hash", hash((self.formula,)))

    def __hash__(self) -> int:
        return self._hash

    def vars(self):
        return self._vars

    def filter(self, store):
        return enforce(self.formula, True, store.bool_value, store.set_bool)

    def ask_value(self, store):
        val = eval_formula(self.formula, store.bool_value)
        if val is Bool3.TRUE:
            return AskResult.ENTAILED
        if val is Bool3.FALSE:
            return AskResult.DISENTAILED
        return AskResult.UNKNOWN


@dataclass(frozen=True)
class InRelation(Constraint):
    """(u, k1[, k2]) is a fact of the relation.  Each key is a variable
    or a fixed value, a fixed key being its own one image value.

    The induced partial domain of u is complete exactly when every key
    domain is complete and every image group over the current key values
    is closed -- the recursive completeness condition whose re-check
    cost the counters measure.
    """

    u: VarId
    keys: tuple
    relation: Relation

    model_gated = True

    @property
    def key_vars(self) -> tuple:
        return tuple(k for k in self.keys if _is_var(k))

    def vars(self):
        return (self.u, *self.key_vars)

    def image_keys(self, store):
        return list(itertools.product(
            *(store.domain(k) if _is_var(k) else (k,) for k in self.keys)))

    def is_resolvable(self, store):
        if store.is_resolved(self):
            return True
        return (all(store.is_complete(v) for v in self.key_vars)
                and all(self.relation.group_closed(k) for k in self.image_keys(store)))

    def filter(self, store):
        if not self.is_resolvable(store):
            return True
        induced: set = set()
        for key in self.image_keys(store):
            induced.update(self.relation.group(key))
        if not store.prune(self.u, induced):
            return False
        store.mark_complete(self.u)
        return True

    def holds(self, asg, store):
        return (asg[self.u], *(asg[k] if _is_var(k) else k for k in self.keys)) in self.relation


# -- convenience constructors ------------------------------------------------

def eq(x: VarId, y) -> Eq:
    return Eq(x, y)


def neq(x: VarId, y) -> Neq:
    return Neq(x, y)


def all_distinct(*items) -> AllDistinct:
    return AllDistinct(tuple(items))


def element(x: VarId, allowed) -> Element:
    return Element(x, tuple(allowed))


def spells(w: VarId, whole, trie: dict, follows: dict) -> Spells:
    return Spells(w, tuple(whole), trie, follows)


def bool_post(formula: Formula) -> BoolConstraint:
    return BoolConstraint(formula)


def daughter(y: VarId, x, relation: Relation) -> InRelation:
    """y is an immediate daughter of the fixed node x: the relation
    with x as its one fixed key."""
    return InRelation(y, (x,), relation)


def in_relation(u: VarId, key_vars, relation: Relation) -> InRelation:
    return InRelation(u, tuple(key_vars), relation)
