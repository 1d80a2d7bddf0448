"""Principle layer over signs.

A sign is a feature structure rooted at synsem.loc.cat with subj/comps
valency lists and, for phrases, a dtrs node holding the daughter signs.
Local trees are checked for linear precedence, dominance and
projection (`check_local_tree`, which also checks that daughters of one
category are distinct signs for callers that pass signs, unless a
`rule*` is among the rules over the tree).
Valency is decided by a split: the saturated sisters split over the
head's lists, which cancel the realized daughters from the end.  The
pipeline checks no distinctness: each daughter is its own install, so
no two daughters are one sign.  Subcategorization is
boolean implications over per-constituent well-formedness, but a
constituent that is built is well formed, the store's true constant,
and an unrealized frame member is its false constant, so a frame's
implications are ground: the verdict depends only on the phrase's
label, daughter categories, head schema and complement categories.
`frame_holds` decides it from them, as `post_subcat` would over those
constants, with no store.

Every decision about a phrase depends on its label and its
daughters' signatures alone, each sign's `(category, subj, comps, schema)`.
Cancellation only shortens lists, so the signatures a grammar reaches
are finite: the loader closes over them from the lexical ones
(`decide_phrases`) and keeps, per label and daughter signatures whose
valency split holds, the head, the split, the mother's signature and
the one reason the phrase is rejected, if any (`PhraseDecision`).
Signs carry their signature, so the pipeline decides each phrase by
one lookup in that table, and the grammar is never written.

Cooccurrence restrictions compile to implications over status
variables, and head feature sharing installs the mother's head as the
head daughter's head node (token identity).  Head sharing has one
rule: a guard (the nine statuses along both cat chains) entailed when
the share is posted installs the head at once; an open guard entails a
fresh status and suspends an ask that installs the head under it once
the guard is entailed.  A mother whose head daughter has no head yet
posts its share when that head arrives, so delayed sharing chains up
the tree.

The sentence pipeline drives all of this from one window-parser search
over every lexical tagging: each distinct tree off its forest is built
bottom-up on a fresh store.  The active strategy checks each reduction
as it is built.  The generate-and-test strategy defers the
entries' restrictions a tree still posts and the rejection of a phrase
whose entry gives a reason to the end of the tree, but rejects a failed
valency split at once and builds each mother, its head sharing
included, and so checks it, as it goes.
Both accept exactly the same signs.

Each lexical entry arrives compiled from the grammar loader: its sign
as a flat cell list over relative node numbers with the known statuses,
and the nodes where each cooccurrence restriction applies.  The loader
also decides the restrictions its template alone decides
(`fold_restrictions`): their placeholder cells and forced statuses go
into the template, and no site is left.  An entry with a status left
open, or one that violates a restriction, keeps its sites, and every
tree posts them.  The phrase skeleton is a template compiled once, at
import.  A tree installs these templates instead of encoding every
entry again.  Each mother is one install:
the skeleton plus the phrase's own cells, its valency lists, its dtrs
as absolute references to the daughters' roots and, when the head
daughter's install realized its head, the shared head: `Sign.head`, an
entry's decided at load from its template, a phrase's the one it shared.
Nothing a tree's store holds refers back strongly to its structure, so
a rejected tree is freed by reference counting, without the cyclic
collector.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, replace

from .cfg import Search
from .constraints import BoolConstraint, all_distinct, bool_post, element
from .errors import InconsistencyError, UsageError
from .fstruct import Bool3, Cell, FeatureStructure, Ref, compile_avm, template_value
from .grammar import FCR, FcrLiteral, Grammar, LexEntry, fcr_sites
from .logic import And, Const, Formula, Implies, Not, Or, Var, conj
from .store import AskResult, Stats, Store, VarId

CAT_PATH = ("synsem", "loc", "cat")


@dataclass
class Sign:
    fs: FeatureStructure
    root: int
    # (category, subj, comps, schema): the lexical entry's, or the one
    # its phrase's `PhraseDecision` gives, whose schema is None
    signature: tuple
    parts: tuple = ()                       # (category, root) per constituent
    head: object = None     # the Ref or atom its install realized as head

    @property
    def category(self) -> str:
        return self.signature[0]

    def same_ref(self, other: "Sign") -> bool:
        return self.fs is other.fs and self.root == other.root


@dataclass(frozen=True)
class LocalTree:
    root: str
    daughters: tuple  # ((category, Sign | None), ...) in surface order


@dataclass(frozen=True)
class Violation:
    kind: str     # distinctness | precedence | dominance | projection
    detail: str


# -- valency ------------------------------------------------------------

def _cat_chain(fs: FeatureStructure, root: int) -> list[Cell] | None:
    """The synsem, loc and cat cells below `root`, one `find` step
    each; None when a step is missing or holds no node."""
    chain, node = [], root
    for feature in CAT_PATH:
        cell = fs.find(node, feature)
        if cell is None or not isinstance(cell.value, Ref):
            return None
        chain.append(cell)
        node = cell.value.index
    return chain


def valency_of(sign: Sign) -> tuple[tuple, tuple]:
    """The sign's current subj and comps lists (empty when unset)."""
    fs = sign.fs
    chain = _cat_chain(fs, sign.root)
    if chain is None:
        return (), ()
    cat = chain[-1].value.index
    cells = (fs.find(cat, feat) for feat in ("subj", "comps"))
    return tuple(tuple(c.value) if c is not None and c.value else () for c in cells)


def _cancel(head_list, realized, which: str):
    k = len(realized)
    if k == 0:
        return tuple(head_list)
    if k > len(head_list):
        raise InconsistencyError(f"{which} over-saturated: {realized} against {head_list}")
    if tuple(head_list[-k:]) != tuple(realized):
        raise InconsistencyError(
            f"{which} mismatch: realized {realized} does not close {head_list}")
    return tuple(head_list[:-k])


def _split_realized(head_subj, head_comps, sisters):
    """Assign the sisters, given by their categories, to the head's
    lists, complements first.  Returns (subject positions, complement
    positions, mother_subj, mother_comps), positions into `sisters`."""
    rem_c, rem_s = list(head_comps), list(head_subj)
    comps_r, subj_r = [], []
    for k, cat in enumerate(sisters):
        if cat in rem_c:
            rem_c.remove(cat)
            comps_r.append(k)
        elif cat in rem_s:
            rem_s.remove(cat)
            subj_r.append(k)
        else:
            raise InconsistencyError(f"{cat} is not subcategorized by the head")
    mother_comps = _cancel(head_comps, tuple(sisters[k] for k in comps_r), "comps")
    mother_subj = _cancel(head_subj, tuple(sisters[k] for k in subj_r), "subj")
    if len(subj_r) > 1:
        raise InconsistencyError("at most one subject daughter")
    return tuple(subj_r), tuple(comps_r), mother_subj, mother_comps


# -- local tree gate ----------------------------------------------------

def _head_index(root: str, cats, g: Grammar) -> int | None:
    frame = g.frames.get(root)
    if frame is not None and frame.head in cats:
        return cats.index(frame.head)
    for i, cat in enumerate(cats):
        if g.projection(cat) == root:
            return i
    return None


def check_local_tree(t: LocalTree, g: Grammar) -> tuple[Violation, ...]:
    """Evaluate the four structural constraints building the mother does
    not make; the violations are data, none when the tree passes.  Two
    daughters of one category violate distinctness when they are one
    sign, unless some rule over the tree is a rule*."""
    if not t.daughters:
        raise UsageError("a local tree needs daughters")
    cats = tuple(cat for cat, _ in t.daughters)
    violations = []
    rules = g.rules_matching(cats)
    if not rules or all(r.distinct_daughters for r in rules):
        for (i, (cat, si)), (j, (cat_j, sj)) in itertools.combinations(enumerate(t.daughters), 2):
            if cat == cat_j and si is not None and sj is not None and si.same_ref(sj):
                violations.append(Violation(
                    "distinctness", f"daughters {i + 1} and {j + 1} are the same {cat}"))

    for x, y in zip(cats, cats[1:]):
        if not g.lp_ok(x, y):
            violations.append(Violation("precedence", f"{x} may not precede {y}"))

    legal = g.legal_daughters(t.root)
    for cat in cats:
        if cat not in legal:
            violations.append(Violation("dominance", f"{t.root} may not dominate {cat}"))

    if all(g.projection(cat) != t.root for cat in cats):
        violations.append(Violation(
            "projection", f"{t.root} is not the projection of any daughter"))

    return tuple(violations)


# -- daughter slots -----------------------------------------------------

def post_unicity(slot_vars, store: Store) -> bool:
    """Distinctness over a caller's slot variables; the pipeline has none."""
    if len(slot_vars) < 2:
        return True
    return store.tell(all_distinct(*slot_vars))


# -- boolean subcategorization -------------------------------------------

def post_subcat(frame, store: Store, wf: dict[str, VarId],
                schema: frozenset[str] | None = None,
                complement_vars=()) -> bool:
    """Implications of one phrase occurrence: the phrase entails its
    compulsory members, a selected schema entails its optional members
    (a member with no variable in `wf` is unrealized, so false), and
    complement category variables stay within the frame."""
    ok = True
    phrase = Var(wf[frame.phrase])
    for c in sorted(frame.c):
        ok = ok and store.tell(bool_post(Implies(phrase, Var(wf[c]))))
    if schema:
        need = conj([Var(wf[o]) if o in wf else Const(False) for o in sorted(schema)])
        ok = ok and store.tell(bool_post(Implies(phrase, need)))
    for v in complement_vars:
        ok = ok and store.tell(element(v, sorted(frame.m)))
    return ok


def frame_holds(frame, daughter_cats, schema, comp_cats) -> bool:
    """What `post_subcat` decides over one phrase whose built
    constituents are true and whose unrealized members are false.  The
    built ones are the members among the daughter categories, and the
    phrase itself when it is no member.  A built phrase needs its
    compulsory members and its head's schema, and every complement
    category must be a member."""
    built = frame.m.intersection(daughter_cats).union({frame.phrase} - frame.m)
    return frame.m.issuperset(comp_cats) and (
        frame.phrase not in built or built >= frame.c.union(schema or ()))


# -- cooccurrence restrictions --------------------------------------------

def _value_guard(fs: FeatureStructure, node: int, feature: str, value: str) -> VarId:
    """Boolean variable tied to 'the cell's value equals this atom'.
    Bound now if the value is known, or when it later arrives."""
    store = fs.store
    var = store.new_bool(f"{feature}[{value}]@{node}")
    # The watcher holds the structure weakly: the store's undo entry
    # holds the watcher, so a strong reference would make a cycle.
    settle = functools.partial(_settle_guard, weakref.ref(fs), node, feature, value, var)
    cell = fs.find(node, feature)
    if cell is not None and cell.value is not None:
        settle(cell)
    fs.value_watchers.append(settle)
    store.on_undo(functools.partial(fs.value_watchers.remove, settle))
    return var


def _settle_guard(fs_ref, node: int, feature: str, value: str, var: VarId,
                  cell: Cell) -> None:
    fs = fs_ref()
    if fs is None or cell.value is None or isinstance(cell.value, (Ref, tuple)):
        return
    if cell.feature != feature or cell.owner != node:
        return
    store = fs.store
    with store.transaction():
        if not (store.set_bool(var, cell.value == value) and store.propagate()):
            raise InconsistencyError(f"value restriction {feature}[{value}] violated")


def compile_fcr(f: FCR, fs: FeatureStructure, node: int) -> Formula:
    """Instantiate a restriction the loader checked at one node: bare
    literals become the feature's status variable (a valueless placeholder
    cell if it is absent), valued literals conjoin a value guard."""

    def leaf(lit: FcrLiteral) -> Formula:
        cell = fs.find(node, lit.feature)
        if cell is None:
            fs.add(((lit.feature, node, None, Bool3.UNKNOWN),))
            cell = fs.find(node, lit.feature)
        if lit.value is None:
            return Var(cell.status)
        return And((Var(cell.status), Var(_value_guard(fs, node, lit.feature, lit.value))))

    return _map_leaves(f.formula, leaf)


def _map_leaves(g: Formula, leaf) -> Formula:
    """The formula with each leaf `Var(x)` replaced by `leaf(x)`, leaves
    visited left to right."""
    if isinstance(g, Var):
        return leaf(g.ref)
    if isinstance(g, Not):
        return Not(_map_leaves(g.arg, leaf))
    if isinstance(g, And):
        return And(tuple(_map_leaves(a, leaf) for a in g.args))
    if isinstance(g, Or):
        return Or(tuple(_map_leaves(a, leaf) for a in g.args))
    return type(g)(_map_leaves(g.lhs, leaf), _map_leaves(g.rhs, leaf))


def post_fcrs(fs: FeatureStructure, root: int, fcrs) -> None:
    """Instantiate the restrictions at the `fcr_sites` of the nodes
    reachable from `root`, in ascending order."""
    nodes = ((n, [c.feature for c in fs.cells_of(n)]) for n in fs.reachable(root))
    _post_sites(fs, 0, fcr_sites(nodes, fcrs), fcrs)


def _post_fcr(fs: FeatureStructure, node: int, f: FCR) -> None:
    if not fs.store.tell(BoolConstraint(compile_fcr(f, fs, node))):
        raise InconsistencyError(f"cooccurrence restriction {f} violated")


def _post_sites(fs: FeatureStructure, base: int, sites, fcrs) -> None:
    for node, k in sites:
        _post_fcr(fs, base + node, fcrs[k])


def fold_restrictions(entry: LexEntry, fcrs) -> LexEntry:
    """The entry with its restrictions decided at load where its template
    alone decides them.  The sites are posted as a tree posts them, on a
    throwaway store.  If the post holds and every status comes out
    known, the structure read back, placeholders included with their
    forced status at the end of their node's group, is the template a
    tree installs, and no site is left.  Otherwise the entry is returned
    as it is, for every tree to post its sites, which rejects an entry
    that violates a restriction where it always did.
    This is exact because nothing adds a cell, value or status to a
    folded entry's nodes once it is installed: it has no site left to
    post, nodes are never merged, and the sign builder adds cells only
    to the mothers it installs.  And no later value or status can change
    a formula whose every leaf is decided."""
    if not entry.sites:
        return entry
    fs = FeatureStructure(Store())
    n_nodes = entry.template[0]
    fs.instantiate(entry.template)      # on nodes 1 to n_nodes, as compiled
    try:
        _post_sites(fs, 0, entry.sites, fcrs)
    except InconsistencyError:
        return entry
    cells = []
    for node in range(1, n_nodes + 1):
        for cell in fs.cells_of(node):
            status = fs.store.bool_value(cell.status)
            if not status.known:
                return entry
            cells.append((cell.feature, node, template_value(cell.value), status is Bool3.TRUE))
    return replace(entry, template=(n_nodes, tuple(cells)), sites=())


# -- head feature sharing -------------------------------------------------

_HFP_PATTERN = (
    ("synsem", "M0", "M1", "g1"),
    ("loc", "M1", "M2", "g2"),
    ("cat", "M2", "M3", "g3"),
    ("dtrs", "M0", "D0", "g4"),
    ("head_dtr", "D0", "D1", "g5"),
    ("synsem", "D1", "D2", "g6"),
    ("loc", "D2", "D3", "g7"),
    ("cat", "D3", "D4", "g8"),
)


def apply_hfp(fs: FeatureStructure, root: int) -> FeatureStructure:
    """Post head sharing on a headed sign.  The match binds the status
    variables along both cat chains, which with the head daughter's
    head status make the guard; the mother's head cell is installed as
    a reference to the head daughter's head node once the guard is
    entailed.  A guard entailed already installs the head at once,
    realized.  An open one entails a fresh status under which the head
    is installed when the guard is entailed, possibly much later, or
    never.  A head daughter with no head cell yet, its own share still
    waiting, defers the whole post until that cell arrives, so delayed
    sharing chains up the tree."""
    env = fs.delta(_HFP_PATTERN, {"M0": root})
    if env is None:
        return fs
    head = fs.find(env["D4"], "head")
    if head is None:
        _HeadWait.post(fs, root, env["D4"])
        return fs
    store = fs.store
    guards = [env[f"g{k}"] for k in range(1, 9)] + [head.status]
    if all(store.bool_value(g) is Bool3.TRUE for g in guards):
        fs.add((("head", env["M3"], head.value, Bool3.TRUE),))
        return fs
    guard = conj([Var(g) for g in guards])
    shared = store.new_bool(f"hfp@{env['M3']}")
    if not store.tell(bool_post(Implies(guard, Var(shared)))):
        raise InconsistencyError("head sharing rejected")
    # weakly, as the store holds the callback (see _value_guard)
    store.post_ask(BoolConstraint(guard), functools.partial(
        _share_head, weakref.ref(fs), env["M3"], head.value, shared))
    return fs


def _share_head(fs_ref, target: int, value, shared: VarId, result: AskResult) -> None:
    fs = fs_ref()
    if fs is not None and result is AskResult.ENTAILED:
        fs.add((("head", target, value, shared),))


class _HeadWait:
    """A value watcher that posts a mother's head sharing once its head
    daughter's cat node gets a head cell, then retires.  It holds the
    structure weakly (see _value_guard)."""

    __slots__ = ("fs_ref", "root", "cat")

    def __init__(self, fs: FeatureStructure, root: int, cat: int):
        self.fs_ref, self.root, self.cat = weakref.ref(fs), root, cat

    @classmethod
    def post(cls, fs: FeatureStructure, root: int, cat: int) -> None:
        watcher = cls(fs, root, cat)
        fs.value_watchers.append(watcher)
        fs.store.on_undo(functools.partial(fs.value_watchers.remove, watcher))

    def __call__(self, cell: Cell) -> None:
        fs = self.fs_ref()
        if fs is None or cell.feature != "head" or cell.owner != self.cat:
            return
        fs.value_watchers.remove(self)
        fs.store.on_undo(functools.partial(fs.value_watchers.append, self))
        apply_hfp(fs, self.root)


def apply_valency(fs: FeatureStructure, root: int, subj, comps) -> FeatureStructure:
    """Write a sign's valency lists.  The pipeline writes a mother's
    lists, those of its `PhraseDecision`, in its install
    (`attach_daughters`)."""
    chain = _cat_chain(fs, root)
    if chain is None:
        raise UsageError("mother sign has no category node")
    cat = chain[-1].value.index
    fs.add((("subj", cat, tuple(subj), Bool3.TRUE),
            ("comps", cat, tuple(comps), Bool3.TRUE)))
    return fs


# -- the mother install ---------------------------------------------------

# A phrase's skeleton, realized: the mother's root (node 1), its
# synsem.loc.cat chain and its dtrs node.  Each phrase adds its own
# cells on the cat node (4) and the dtrs node (5).
_PHRASE = compile_avm({"synsem": {"loc": {"cat": {}}}, "dtrs": {}}, Bool3.TRUE)
_CAT, _DTRS = 4, 5


def attach_daughters(fs: FeatureStructure, head: Sign, *, subj=(), comps=(),
                     mother_subj=(), mother_comps=()) -> int:
    """Install a mother over its daughters, distinct signs, with one
    `instantiate` and return its root: the phrase skeleton, the
    mother's subj and comps lists, the dtrs as references to the
    daughters' roots and the head daughter's `Sign.head`, shared and
    realized, if it has one; else `apply_hfp` posts the share after."""
    if len(subj) > 1:
        raise UsageError("at most one subject daughter")
    cells = [("subj", _CAT, tuple(mother_subj), True),
             ("comps", _CAT, tuple(mother_comps), True)]
    if head.head is not None:
        cells.append(("head", _CAT, head.head, True))
    cells.append(("head_dtr", _DTRS, Ref(head.root), True))
    cells += [("subj_dtr", _DTRS, Ref(sign.root), True) for sign in subj]
    if comps:
        cells.append(("comp_dtrs", _DTRS, tuple(Ref(s.root) for s in comps), True))
    n_nodes, skeleton = _PHRASE
    root = fs.instantiate((n_nodes, skeleton + tuple(cells)))
    if head.head is None:
        apply_hfp(fs, root)
    return root


# -- sign construction ----------------------------------------------------

def lexical_sign(fs: FeatureStructure, entry: LexEntry) -> Sign:
    """Install one lexical entry's template; entry features are realized
    (status true) unless the entry text says otherwise."""
    root = fs.instantiate(entry.template)
    head = entry.head
    return Sign(fs, root, entry.signature,
                head=Ref(root - 1 + head) if isinstance(head, int) else head)


# -- phrases decided at load ----------------------------------------------

@dataclass(frozen=True, slots=True)
class PhraseDecision:
    """What the sign layer decides for one phrase from its label and its
    daughters' signatures alone; positions are daughter positions."""

    head: int
    subj: tuple[int, ...]          # the subject daughter, if one is realized
    comps: tuple[int, ...]         # the complement daughters, in surface order
    mother: tuple                  # the mother's signature
    # why the phrase is rejected: the failed precedence, dominance and
    # projection checks and the frame, joined; "" when it passes
    reason: str


def _decide(label: str, hi: int, sigs, g: Grammar) -> PhraseDecision | None:
    """The phrase `label` over daughters with signatures `sigs`, head
    daughter `hi`, decided as building it decides it, or None if its
    valency split fails."""
    cats = tuple(sig[0] for sig in sigs)
    _, head_subj, head_comps, schema = sigs[hi]
    sisters = tuple(i for i in range(len(sigs)) if i != hi)
    try:
        subj, comps, mother_subj, mother_comps = _split_realized(
            head_subj, head_comps, [cats[i] for i in sisters])
    except InconsistencyError:
        return None
    subj, comps = (tuple(sisters[k] for k in ks) for ks in (subj, comps))
    reasons = [v.detail for v in check_local_tree(
        LocalTree(label, tuple((cat, None) for cat in cats)), g)]
    frame = g.frames.get(label)
    if frame is not None and not frame_holds(frame, cats, schema, [cats[i] for i in comps]):
        reasons.append(f"subcategorization of {label} rejected")
    return PhraseDecision(hi, subj, comps, (label, mother_subj, mother_comps, None),
                          "; ".join(reasons))


def decide_phrases(g: Grammar) -> dict:
    """`Grammar.phrase_table`: every phrase a tree over g can build,
    keyed by `(label, daughter signatures)`.  It starts from the lexical
    signatures and decides each rule over every tuple of known ones, the
    head daughter's drawn from all of its category and each sister's
    only from the saturated ones (empty subj and comps), until no mother
    brings a new signature.  A mother's lists are what is left of its
    head daughter's, so the signatures are finite.  A phrase whose
    valency split fails has no entry; every other mother, also one its
    entry's reason rejects, joins the known signatures."""
    known: dict[str, dict] = {}     # category -> its signatures, in the order found
    for entries in g.lexicon.values():
        for e in entries:
            known.setdefault(e.category, {})[e.signature] = None
    # headless trees fail the projection check anyway
    heads = [(rule, _head_index(rule.lhs, rule.rhs, g) or 0) for rule in g.rules]
    table: dict = {}
    tried: set = set()
    grown = True
    while grown:
        grown = False
        for rule, hi in heads:
            pools = [tuple(sig for sig in known.get(cat, ())
                           if k == hi or not (sig[1] or sig[2]))
                     for k, cat in enumerate(rule.rhs)]
            for sigs in itertools.product(*pools):
                key = (rule.lhs, sigs)
                if key in tried:
                    continue
                tried.add(key)
                d = _decide(rule.lhs, hi, sigs, g)
                if d is None:
                    continue
                table[key] = d
                mothers = known.setdefault(rule.lhs, {})
                if d.mother not in mothers:
                    mothers[d.mother] = None
                    grown = True
    return table


# -- pipeline -------------------------------------------------------------

def _reject(reason: str) -> None:
    raise InconsistencyError(reason)


class _TreeBuild:
    """One tree's signs, built bottom-up on a fresh store.  The checks
    it defers are partials over the store and the structure, never over
    the builder, and what the store holds refers to the structure only
    weakly, so a tree's store and structure are freed by reference
    counting."""

    def __init__(self, g: Grammar, tagging, active: bool, stats: Stats, trace):
        self.g = g
        self.store = Store(trace=trace)
        self.store.counters = stats
        self.fs = FeatureStructure(self.store)
        self.leaves = iter(tagging)
        self.active = active
        self.stats = stats
        self.deferred: list = []
        self.parts: list[tuple[str, int]] = []

    def gate(self, fn) -> None:
        if self.active:
            fn()
        else:
            self.deferred.append(fn)

    def sign(self, node) -> Sign:
        label, children = node
        if not children:
            return self.lexical(label)
        signs = [self.sign(child) for child in children]
        self.stats.expansions += 1
        return self.phrase(label, signs)

    def lexical(self, label: str) -> Sign:
        entry = next(self.leaves)
        self.stats.expansions += 1
        sign = lexical_sign(self.fs, entry)
        self.parts.append((label, sign.root))
        if entry.sites:
            self.gate(functools.partial(_post_sites, self.fs, sign.root - 1, entry.sites,
                                        self.g.fcrs))
        return sign

    def phrase(self, label: str, signs) -> Sign:
        """Build the mother the grammar's `PhraseDecision` describes: the
        gate on its reason, then the install, whose head is the one it
        shared; a phrase with no entry, whose valency split fails,
        rejects the tree at once."""
        d = self.g.phrase_table.get((label, tuple([s.signature for s in signs])))
        if d is None:
            raise InconsistencyError(f"no valency split of {label} over its daughters")
        if d.reason:
            self.gate(functools.partial(_reject, d.reason))
        head = signs[d.head]
        root = attach_daughters(self.fs, head, subj=[signs[i] for i in d.subj],
                                comps=[signs[i] for i in d.comps],
                                mother_subj=d.mother[1], mother_comps=d.mother[2])
        self.parts.append((label, root))
        return Sign(self.fs, root, d.mother, head=head.head)


def _build_tree(tree, tagging, g: Grammar, strategy: str, stats: Stats,
                trace=None) -> Sign | None:
    """The root sign of one tree, or None if the tree is rejected.
    `tagging` holds each leaf's entry."""
    build = _TreeBuild(g, tagging, strategy == "active", stats, trace)
    try:
        root_sign = build.sign(tree)
        for fn in build.deferred:
            fn()
        _, subj, comps, _ = root_sign.signature
        if subj or comps:
            return None     # A6: the root must be saturated
    except InconsistencyError:
        return None

    root_sign.parts = tuple(build.parts)
    return root_sign


def parse_hpsg(words, g: Grammar, *, strategy: str = "active",
               limit: int | None = None, trace=None) -> tuple[tuple[Sign, ...], Stats]:
    """Look words up, search all taggings at once and build signs for
    every distinct tree; returns the consistent root signs."""
    words = tuple(words)
    if not words:
        raise UsageError("empty input")
    choices = [g.entries(w) for w in words]
    for w, entries in zip(words, choices):
        if not entries:
            raise UsageError(f"unknown word {w!r}")
    search = Search(g, strategy, trace=trace)
    stats = search.stats
    if limit is not None and limit <= 0:
        return (), stats
    signs: list[Sign] = []

    for tagging in itertools.product(*choices):
        for tree, _ in search.trees(tuple(e.category for e in tagging)):
            stats.trees_considered += 1
            sign = _build_tree(tree, tagging, g, strategy, stats, trace)
            if sign is not None:
                stats.signs_accepted += 1
                signs.append(sign)
                if limit is not None and len(signs) >= limit:
                    return tuple(signs), stats
    return tuple(signs), stats


def sign_dump(sign: Sign, *, statuses: bool = False) -> str:
    # every constituent's well-formedness is the store's true constant
    wf = " ".join(f"{cat}@{root}={Bool3.TRUE.value}" for cat, root in sign.parts)
    return sign.fs.dump(statuses=statuses) + "\n" + f"WF {wf}".rstrip()
