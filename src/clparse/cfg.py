"""Bottom-up window parser over category sequences.

The input sequence is split into a.b.c; the middle part b is the
window.  A window is the pair (origin, size), origin = |a| and size =
|b|, with c the rest of the sequence, so the active strategy below
posts the split as one store variable over such pairs, not as three
sequence variables.  Windows are enumerated (origin ascending, then
size ascending), and each one the scan takes up is matched with one
probe of `Grammar.by_rhs`, the table from each right-hand side to its
rules.  A match rewrites the window to the rule's left-hand side.  A
derivation records the reduction steps until the sequence equals
<start>.

A search state is the sequence plus `unary_seen`, the (origin, lhs)
unary reductions made since the sequence last got shorter, which stops
a unary cycle from running forever.  The derivations below a state
depend on nothing else, so the search builds a packed forest (Billot &
Lang 1989; Johnson 1995): one record per distinct state, with its
derivation count and its (step, window origin, child) edges in scan
order.  A state met again is not scanned again: the scan reads a
child's record from the memo, and only a miss scans it.  Its count joins
the running total of derivations found, and the search stops once that
total reaches `limit`, so a limit bounds the work and not only the
output.  The derivations are then read off the forest lazily, in the
order of an unshared depth-first search.  `windows_tried` and
`reductions_applied` count the scans of distinct states only, and
`backtracks` the distinct states without a derivation.  A scan adds
its windows to `windows_tried` once, at its end, or up to and including
the window in which `limit` stops it.

A sentence is one `Search`, its taggings roots of one memo, with
`limit` counted across them.  A tagging's distinct trees are built along
its derivations by the origins, each with its first one.

Two strategies return the same derivations in the same order; they
differ in which windows they try, and so in the dead states they scan.
"active" posts what the window must spell, and where its rewrite may
stand: one store per search holds a variable w over the (origin, size)
windows of a rule length that fit the root, in scan order.  At each
root, the search first checks every two neighbours of the sequence,
and either end, against the grammar's table of categories that may
stand side by side in a sentential form (`Grammar.follows`); a root
that fails it has no windows and costs the store nothing.  Otherwise,
at each distinct sequence scanned, a `Spells` constraint prunes w to
the windows whose slice is a rule's right-hand side, by a walk over
the grammar's trie of right-hand sides from each origin (Pesant 2004:
the right-hand sides are a finite regular language), and whose rule's
left-hand side may stand between the window's two neighbours.  Those
are the only new neighbours a reduction makes, so the check is exact:
every state the search skips has no derivation.  Where rules share a
right-hand side, the scan reduces only those whose left-hand side fits
between the window's neighbours, so every state it reaches below the
root passes the whole check, and the check is made once per root.
Each solve restores the store to the snapshot taken after w was made,
tells `Spells` for its sequence and reads the windows off w's domain;
the store counts into the search's `Stats` as it works, and a longer
root makes a new store.  The answer depends on the sequence alone, so
the search tables it by sequence, and every later state with that
sequence reads it from the table instead of solving again (Schulte &
Stuckey 2008: a propagator whose input did not change is not run
again).  The goal state <start> has one window, and when no right-hand
side begins with the start category it spells nothing: the goal's first
scan tables it as none, with no solve.
"gentest" tries every arithmetically possible window, l(l+1)/2 on a
sequence of length l, with no `follows`, no store and no table by
sequence: it is the plain generate-and-test figure the active strategy
is measured against, and it scans every dead state it reaches.  It tests
its windows by one walk down the trie from each origin, through the
sizes in ascending order, stopped where the walk leaves the trie.

A derivation is a tuple of (lhs, window) steps.  `format_derivation`
writes the paper's text form, <<NP>, <Det,Nm>, ...>, which the CLI
prints; nothing reads that form back.  `derivations_to_tree` replays a
derivation over the input categories and returns its first tree.
"""

from __future__ import annotations

import math
from itertools import islice

from .constraints import BOUNDARY, spells
from .errors import UsageError
from .grammar import Grammar
from .store import Stats, Store

# One reduction: (lhs, matched window).  A derivation is a step tuple,
# in reduction order; replaying it over the input yields <start>.
Step = tuple[str, tuple[str, ...]]
Derivation = tuple[Step, ...]

# Trees are (label, children) pairs; a leaf has no children.
Tree = tuple


def parse(cats, g: Grammar, *, limit: int | None = None,
          strategy: str = "active", trace=None) -> tuple[tuple[Derivation, ...], Stats]:
    """All derivations of the category sequence, with search statistics."""
    cats = tuple(cats)
    if not cats:
        raise UsageError("empty input")
    for c in cats:
        g.category(c)
    search = Search(g, strategy, limit=limit, trace=trace)
    if limit is not None and limit <= 0:
        return (), search.stats
    return tuple(islice(search.derivations(cats), limit)), search.stats


# A forest record is (count, edges): how many derivations a search state
# has, and what each of them starts with, in scan order -- None for the
# empty derivation of <start>, else a (step, window origin, child record)
# triple.  Every dead state shares the one record with no edges.
_DEAD = (0, ())
_NO_UNARY: frozenset = frozenset()


class Search:
    """One sentence's search, building one forest record per distinct
    (sequence, unary_seen) state of its taggings.  Nothing in it refers
    back to it, so the forest is freed once the sentence is read."""

    def __init__(self, g: Grammar, strategy: str = "active", *, limit=None, trace=None):
        if strategy not in ("active", "gentest"):
            raise UsageError(f"unknown strategy {strategy!r}")
        self.g, self.trace, self.stats = g, trace, Stats()
        self.active, self.goal = strategy == "active", (g.start,)
        # active: when no right-hand side begins with the start category,
        # the goal's one window spells nothing, and its first scan tables
        # that instead of solving it
        self.goal_dead = self.active and g.start not in g.rhs_trie
        self.wanted = math.inf if limit is None else limit
        self.found = 0          # derivations of the root found so far
        self.memo: dict = {}    # finished state -> record
        self.shared: dict = {}  # sequence or unary set -> its one copy
        # active: the (origin, size) windows to try on each sequence
        # solved, in scan order, keyed by its copy in `shared`
        self.table: dict = {}
        # active: one store per search, made at its first solve, counting
        # into `stats`; `w` ranges over the windows of a rule length that
        # fit the longest root solved, `size`, and `base` is the snapshot
        # every solve restores to
        self.size, self.store, self.w, self.base = 0, None, None, None

    def node(self, seq: tuple[str, ...], unary_seen: frozenset) -> tuple:
        """The record of one state.  A state is scanned on its first
        visit only; once `limit` derivations are found, the scan stops
        and returns a partial record, which is never memoized."""
        record = self.memo.get((seq, unary_seen))
        if record is None:
            return self._scan(seq, unary_seen)
        self.found += record[0]
        return record

    def _scan(self, seq: tuple[str, ...], unary_seen: frozenset) -> tuple:
        """The record of a state not in the memo, scanned now."""
        # There are far fewer sequences and unary sets than states, so
        # the memo keeps one copy of each: that more than halves the
        # forest's peak memory.
        shared = self.shared
        seq = shared.setdefault(seq, seq)
        key = (seq, shared.setdefault(unary_seen, unary_seen))
        count, edges = 0, []
        if seq == self.goal:
            count, edges = 1, [None]
            self.found += 1
            if self.found >= self.wanted:
                return count, tuple(edges)
            if self.goal_dead:
                self.table[seq] = ()
        stats, memo, active, by_rhs = self.stats, self.memo, self.active, self.g.by_rhs
        l = len(seq)
        windows = self._windows(seq) if active else _spelled(seq, self.g.rhs_trie)
        for va, vb in windows:
            rules = by_rhs[seq[va:va + vb]]
            if active and len(rules) > 1:
                rules = self._fitting(rules, seq, va, va + vb)
            for rule in rules:
                if vb == 1:
                    mark = (va, rule.lhs)
                    if mark in unary_seen:
                        continue
                    child_seen = unary_seen | {mark}
                else:
                    child_seen = _NO_UNARY
                stats.reductions_applied += 1
                child_seq = seq[:va] + (rule.lhs,) + seq[va + vb:]
                child = memo.get((child_seq, child_seen))
                if child is None:
                    child = self._scan(child_seq, child_seen)
                else:
                    self.found += child[0]
                if child[0]:
                    count += child[0]
                    edges.append(((rule.lhs, rule.rhs), va, child))
                if self.found >= self.wanted:
                    # the windows tried up to and including this one:
                    # gentest tries them all, in (origin, size) order
                    stats.windows_tried += (windows.index((va, vb)) + 1 if active
                                            else va * l - va * (va - 1) // 2 + vb)
                    return count, tuple(edges)
        stats.windows_tried += len(windows) if active else l * (l + 1) // 2
        if not count:
            stats.backtracks += 1
        record = (count, tuple(edges)) if count else _DEAD
        memo[key] = record
        return record

    def derivations(self, cats):
        """The tagging's derivations, lazily, in scan order."""
        yield from _derivations(self._root(cats))

    def trees(self, cats):
        """The tagging's distinct trees, each with its first derivation,
        lazily, in scan order of those derivations."""
        yield from _trees(self._root(cats), tuple((c, ()) for c in cats), set())

    def _root(self, cats) -> tuple:
        """The record of a tagging's root.  Under active, the root is the
        one state whose neighbours are checked against `Grammar.follows`:
        every state the scan reaches below a root that passes passes too,
        so a root that fails has no windows and costs the store nothing."""
        if self.active and not self.g.could_be_sentential(cats):
            self.table[self.shared.setdefault(cats, cats)] = ()
        return self.node(cats, _NO_UNARY)

    def _fitting(self, rules, seq, va: int, end: int) -> tuple:
        """The rules whose left-hand side may stand between the window's
        neighbours, BOUNDARY past either end: the test `Spells` keeps a
        window by, made per rule."""
        follows = self.g.follows
        before = follows.get(seq[va - 1] if va else BOUNDARY, ())
        after = seq[end] if end < len(seq) else BOUNDARY
        return tuple(r for r in rules if r.lhs in before and after in follows.get(r.lhs, ()))

    def _windows(self, seq) -> tuple[tuple[int, int], ...]:
        # the windows active scans on seq, in scan order, its roots
        # checked by `_root`: a sequence is solved at its first scan and
        # read from the table after
        got = self.table.get(seq)
        if got is None:
            if len(seq) > self.size:
                self._new_store(len(seq))
            st, got = self.store, ()
            if st is not None:
                st.restore(self.base)
                if st.tell(spells(self.w, seq, self.g.rhs_trie, self.g.follows)):
                    got = st.domain(self.w)
            self.table[seq] = got
        return got

    def _new_store(self, l: int) -> None:
        # Every state below a root is no longer than it, so its windows
        # are among the root's; a longer root needs a wider domain.
        self.size = l
        lengths = sorted(self.g.rhs_lengths())
        fits = [(va, vb) for va in range(l) for vb in lengths if va + vb <= l]
        if fits:
            self.store = Store(trace=self.trace)
            self.store.counters = self.stats
            self.w = self.store.new_var(fits, name="w")
            self.base = self.store.snapshot()


def _spelled(seq, trie: dict) -> list[tuple[int, int]]:
    """The windows of seq whose slice is a right-hand side, in scan
    order: gentest's one walk down `Grammar.rhs_trie` per origin, through
    the sizes in ascending order, stopped where it leaves the trie."""
    out, n = [], len(seq)
    for va in range(n):
        node, end = trie, va
        while end < n and (entry := node.get(seq[end])):
            end += 1
            if entry[0]:
                out.append((va, end - va))
            node = entry[1]
    return out


def _derivations(record: tuple, path: Derivation = ()):
    """The derivations under a record, lazily, in scan order."""
    for edge in record[1]:
        if edge is None:
            yield path
        else:
            yield from _derivations(edge[2], path + (edge[0],))


def _trees(record: tuple, nodes: tuple, seen: set, path: Derivation = ()):
    """The (tree, first derivation) pairs under a record, lazily, trees in
    `seen` left out: `nodes` are the trees over the record's sequence."""
    for edge in record[1]:
        if edge is None:
            if nodes[0] not in seen:
                seen.add(nodes[0])
                yield nodes[0], path
        else:
            (lhs, window), va, child = edge
            end = va + len(window)
            yield from _trees(child, nodes[:va] + ((lhs, nodes[va:end]),) + nodes[end:],
                              seen, path + ((lhs, window),))


def oracle_parse(cats, g: Grammar, *, limit: int | None = None) -> tuple[Derivation, ...]:
    """Ground truth by plain exhaustive search, no store involved.
    Exponential, so the input length is capped."""
    cats = tuple(cats)
    if len(cats) > 12:
        raise UsageError("oracle input longer than 12 categories")
    if not cats:
        raise UsageError("empty input")
    for c in cats:
        g.category(c)
    out: list[Derivation] = []

    def walk(seq, steps, unary_seen) -> bool:
        if seq == (g.start,):
            out.append(steps)
            if limit is not None and len(out) >= limit:
                return True
        for va in range(len(seq)):
            for vb in range(1, len(seq) - va + 1):
                window = seq[va:va + vb]
                for rule in g.rules:
                    if rule.rhs != window:
                        continue
                    if vb == 1:
                        key = (va, rule.lhs)
                        if key in unary_seen:
                            continue
                        seen2 = unary_seen | {key}
                    else:
                        seen2 = frozenset()
                    if walk(seq[:va] + (rule.lhs,) + seq[va + vb:],
                            steps + ((rule.lhs, window),), seen2):
                        return True
        return False

    if limit is None or limit > 0:
        walk(cats, (), frozenset())
    return tuple(out)


def derivations_to_tree(derivation, cats) -> Tree:
    """Replay a derivation over the input and return the first tree.

    Steps carry no positions, so a derivation can denote several trees;
    the replay backtracks over the places a step's window may match."""
    tree = _replay(tuple((c, ()) for c in cats), tuple(derivation))
    if tree is None:
        raise UsageError("derivation does not replay over the input")
    return tree


def _replay(nodes, steps):
    if not steps:
        return nodes[0] if len(nodes) == 1 else None
    lhs, rhs = steps[0]
    k = len(rhs)
    for i in range(len(nodes) - k + 1):
        if tuple(n[0] for n in nodes[i:i + k]) == tuple(rhs):
            got = _replay(nodes[:i] + ((lhs, nodes[i:i + k]),) + nodes[i + k:], steps[1:])
            if got is not None:
                return got
    return None


def format_derivation(d: Derivation) -> str:
    """<<NP>, <Det,Nm>, ...> with lhs and window alternating."""
    inner = ", ".join(f"<{lhs}>, <{','.join(rhs)}>" for lhs, rhs in d)
    return f"<{inner}>"
