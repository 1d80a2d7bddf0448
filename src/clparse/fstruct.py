"""Indexed flat representation of attribute-value matrices.

A structure is a sequence of cells ⟨feature, owner, value, status⟩
grouped by owner node.  Values are atoms, node references, flat sequences
of both (on the designated list-valued features), or absent; `compile_avm`
and `add` refuse deeper nesting, so every complex value is one indirection away.
Structure sharing is two cells holding the same node reference.  Nodes
are never merged, so a node index is the node for as long as it
exists: a reference is made only by installing a cell that holds it or
by filling a placeholder with it, and `add` on a cell that has a value
agrees with it or clashes.

Each cell's status is a boolean variable in the owning store, so
implications over feature statuses propagate through the ordinary
constraint machinery.  A status known when its cell is made is the
store's shared constant, `Store.true` or `Store.false`; only an open
status gets a variable of its own.  All mutations are trailed on the
store: snapshot/restore rolls the structure back together with the
domains, and each public mutation runs as one store transaction, so one
that fails leaves the structure and the store as they were.  The undo
entries name the structure's containers, never the structure, so a
structure and its store are freed by reference counting.

A description compiles, without a store, to a template of plain tuples
over relative node numbers, and `instantiate` installs a template on
fresh nodes of any structure in one step: that is the one way a
description's cells reach a structure.  The grammar loader compiles
each lexical entry once.  A template may also hold absolute `Ref`s to
nodes that exist already: the sign builder installs each phrase as its
compiled skeleton plus references to the daughters' roots.  Such an
install needs no acyclicity walk, since no existing node refers to a
fresh one.

`parse_avm` reads the bracketed text syntax through `logic.Cursor`, so
any text it has no token for is a `UsageError`.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .constraints import BoolConstraint
from .errors import InconsistencyError, UsageError
from .logic import NAME, Bool3, Cursor, Equiv, Var
from .store import Store, VarId, VarKind

# features whose cells may carry a sequence of references/atoms
LIST_FEATURES = frozenset({"subj", "comps", "comp_dtrs"})


@dataclass(frozen=True)
class Ref:
    """A node reference used as a cell value."""

    index: int

    def __repr__(self) -> str:
        return f"@{self.index}"


@dataclass(frozen=True)
class Ann:
    """A status-annotated value inside an avm description."""

    value: object
    status: Bool3


class Cell:
    __slots__ = ("feature", "owner", "value", "status")

    def __init__(self, feature: str, owner: int, value, status: VarId):
        self.feature = feature
        self.owner = owner
        self.value = value
        self.status = status

    def __repr__(self) -> str:
        return f"<{self.feature},{self.owner},{self.value!r}>"


def norm_feat(name: str) -> str:
    # HEAD-DTR and head_dtr are the same feature
    return name.lower().replace("-", "_")


def _as_path(p) -> tuple[str, ...]:
    if isinstance(p, str):
        parts = tuple(norm_feat(s.strip()) for s in p.split("."))
    else:
        parts = tuple(norm_feat(s) for s in p)
    if not parts or any(not s for s in parts):
        raise UsageError(f"bad path {p!r}")
    return parts


class FeatureStructure:
    """One indexed structure bound to a store.  Node 1 is the root of
    whatever is encoded first; independent signs live side by side in
    the same structure under their own root indices."""

    def __init__(self, store: Store):
        self.store = store
        # the cell group of node i, by feature, at position i (0 unused)
        self._groups: list[dict[str, Cell]] = [{}]
        # called with a cell whenever the value of a cell on an existing
        # node becomes known: a cell `add`ed with a value, or a
        # placeholder `add` fills (`instantiate` only makes fresh nodes)
        self.value_watchers: list = []

    # -- nodes ---------------------------------------------------------

    @property
    def _n_nodes(self) -> int:
        return len(self._groups) - 1

    def new_node(self) -> int:
        self._groups.append({})
        self.store.on_undo(self._groups.pop)
        return self._n_nodes

    def _check_node(self, i: int) -> int:
        if not (1 <= i <= self._n_nodes):
            raise UsageError(f"no node {i}")
        return i

    def node_indices(self) -> list[int]:
        """Node indices, ascending."""
        return list(range(1, self._n_nodes + 1))

    def cells_of(self, i: int) -> tuple[Cell, ...]:
        return tuple(self._groups[self._check_node(i)].values())

    def find(self, i: int, feature: str) -> Cell | None:
        return self._groups[self._check_node(i)].get(norm_feat(feature))

    # -- cell creation --------------------------------------------------

    def _new_status(self, feature: str, owner: int, spec) -> VarId:
        if isinstance(spec, VarId):
            if spec.kind is not VarKind.BOOL:
                raise UsageError(f"status for {feature} must be a boolean variable")
            return spec
        if isinstance(spec, Bool3) and spec.known:
            return self.store.true if spec is Bool3.TRUE else self.store.false
        return self.store.new_bool(f"{feature}@{owner}")

    def _install_cell(self, feature: str, owner: int, value, status) -> Cell:
        group = self._groups[owner]
        cell = Cell(feature, owner, value, self._new_status(feature, owner, status))
        group[feature] = cell
        self.store.on_undo(functools.partial(group.__delitem__, feature))
        if value is not None:
            self._notify_value(cell)
        return cell

    # -- encoding --------------------------------------------------------

    def encode_node(self, avm: dict, default_status: Bool3 = Bool3.UNKNOWN) -> int:
        """Encode a nested description into fresh nodes; returns the
        root index.  Indices are assigned depth-first in declaration
        order, at first entry; a dict object appearing twice becomes a
        shared node.  All or nothing: a rejected description adds no node.
        """
        return self.instantiate(compile_avm(avm, default_status))

    def instantiate(self, template: tuple) -> int:
        """Install a compiled template (see `compile_avm`) on fresh nodes
        numbered after the existing ones; returns the node its node 1
        became.  Besides the template's own node numbers, a value may
        hold a `Ref`: an absolute reference to a node that exists
        already, which is how a template points into structure built
        before it (a `Ref` to no such node is a `UsageError`, before
        anything changes).  A known status is the store's shared
        constant; the open ones are allocated in one batch, and one undo
        entry takes the nodes back.

        The install needs no acyclicity walk.  The template's own node
        numbers form no cycle (`compile_avm` refuses one), and no
        existing node refers to a fresh one, so an edge from a fresh
        node to an existing node cannot close a cycle.  Value watchers
        are not called either: they watch existing nodes, and no cell of
        an existing node changes."""
        n_nodes, cells = template
        base = self._n_nodes
        values = [_absolute(value, base) for _, _, value, _ in cells]
        store = self.store
        known = (store.false, store.true)    # by the status, False or True
        open_ = iter(store.new_bools([f"{feature}@{base + owner}"
                                      for feature, owner, _, status in cells if status is None]))
        groups: list[dict[str, Cell]] = [{} for _ in range(n_nodes)]
        for (feature, owner, _, status), value in zip(cells, values):
            groups[owner - 1][feature] = Cell(
                feature, base + owner, value, next(open_) if status is None else known[status])
        self._groups.extend(groups)
        self.store.on_undo(functools.partial(self._groups.__delitem__,
                                             slice(base + 1, None)))
        return base + 1

    def decode(self, root: int = 1) -> dict:
        """Back to a nested description; shared nodes come out as the
        same dict object.  A node's dict is made when it is first met
        and filled from an explicit stack, so any depth decodes."""
        memo: dict[int, dict] = {}
        todo: list[int] = []

        def element(v):
            if not isinstance(v, Ref):
                return v
            i = v.index
            if i not in memo:
                memo[i] = {}
                todo.append(i)
            return memo[i]

        out = element(Ref(self._check_node(root)))
        while todo:
            i = todo.pop()
            memo[i].update((cell.feature, tuple(map(element, cell.value))
                            if isinstance(cell.value, tuple) else element(cell.value))
                           for cell in self._groups[i].values())
        return out

    # -- paths -----------------------------------------------------------

    def lookup(self, path, start: int = 1) -> Cell | None:
        """Follow a feature path from `start`; the terminal cell, or
        None as soon as any step is missing or atomic."""
        idx = self._check_node(start)
        parts = _as_path(path)
        for k, feat in enumerate(parts):
            cell = self._groups[idx].get(feat)
            if cell is None:
                return None
            if k == len(parts) - 1:
                return cell
            if not isinstance(cell.value, Ref):
                return None
            idx = cell.value.index
        return None

    def resolve(self, path, start: int = 1):
        """The node index or atom (or sequence) the path leads to."""
        cell = self.lookup(path, start)
        if cell is None:
            return None
        if isinstance(cell.value, Ref):
            return cell.value.index
        return cell.value

    # -- mutation ----------------------------------------------------------

    def _notify_value(self, cell: Cell) -> None:
        for fn in tuple(self.value_watchers):
            fn(cell)

    def _tie_statuses(self, a: VarId, b: VarId) -> None:
        if a == b:
            return
        if not self.store.tell(BoolConstraint(Equiv(Var(a), Var(b)))):
            raise InconsistencyError("status clash")

    def _agree(self, cell: Cell, value) -> None:
        """`value` on a cell that exists: a placeholder takes it, an equal
        value (or none) leaves the cell as it is, anything else clashes."""
        if value is None or value == cell.value:
            return
        if cell.value is not None:
            raise InconsistencyError(
                f"value clash on {cell.feature}: {cell.value!r} vs {value!r}")
        self.store.on_undo(functools.partial(setattr, cell, "value", None))
        cell.value = value
        self._notify_value(cell)

    def add(self, cells) -> None:
        """Install cells ⟨feature, owner, value, status⟩.  A feature the
        node has already is not duplicated: its cell agrees with the
        value or clashes (`_agree`), and takes the status as given.  A
        status given as a variable is used as-is (token identity), as
        a known truth value it is the store's shared constant, as unknown
        a fresh variable.  So two cells share a status variable when they
        were tied or were made with the same known status.  All or
        nothing: if any cell clashes or has a malformed value, none is
        installed.
        """
        with self.store.transaction():
            for feature, owner, value, status in cells:
                feature = norm_feat(feature)
                owner = self._check_node(owner)
                if isinstance(value, tuple):
                    if feature not in LIST_FEATURES:
                        raise UsageError(f"{feature} is not list-valued")
                    if any(isinstance(e, tuple) for e in value):
                        raise UsageError(f"{feature} holds a sequence inside a sequence")
                for r in self._refs(value):
                    self._check_node(r.index)
                existing = self._groups[owner].get(feature)
                if existing is None:
                    self._install_cell(feature, owner, value, status)
                else:
                    self._agree(existing, value)
                    if isinstance(status, VarId):
                        self._tie_statuses(existing.status, status)
                    elif isinstance(status, Bool3) and status.known:
                        self._force_status(existing, status)
                # only a node reference adds an edge, and so can close a cycle
                if self._refs(value):
                    self._assert_acyclic(owner)

    def _force_status(self, cell: Cell, s: Bool3) -> None:
        store = self.store
        with store.transaction():
            if not (store.set_bool(cell.status, s is Bool3.TRUE) and store.propagate()):
                raise InconsistencyError(f"status {s.value} rejected on {cell.feature}")

    def set_status(self, path, s: Bool3, start: int = 1) -> Cell:
        """Constrain the status of the cell at `path` (creating a
        valueless placeholder cell for the final step if needed).  All
        or nothing: a rejected status leaves no placeholder behind."""
        parts = _as_path(path)
        if len(parts) == 1:
            idx = self._check_node(start)
        else:
            parent = self.resolve(parts[:-1], start)
            if not isinstance(parent, int):
                raise UsageError(f"path {path!r} has no node at {parts[-2]}")
            idx = parent
        with self.store.transaction():
            cell = self._groups[idx].get(parts[-1])
            if cell is None:
                cell = self._install_cell(parts[-1], idx, None, Bool3.UNKNOWN)
            if s.known:
                self._force_status(cell, s)
        return cell

    def status_value(self, path, start: int = 1) -> Bool3:
        cell = self.lookup(path, start)
        if cell is None:
            raise UsageError(f"no cell at {path!r}")
        return self.store.bool_value(cell.status)

    # -- pattern extraction -------------------------------------------------

    def delta(self, pattern, bindings: dict | None = None) -> dict | None:
        """Match cell templates ⟨feature, owner, value, status⟩ against
        the structure, threading one binding environment left to right.

        Strings in owner/value/status positions are variables; anything
        else is a constant (pre-bind a variable to force a constant
        value).  A node reference binds as its node index, in a sequence
        too, and a `Ref` constant matches the node it names.  Owners must be bound by the time their template is
        tried; an owner that names no node is a UsageError.  A variable
        bound twice must see the same thing, which is how a repeated
        index variable expresses token identity.  A repeated status
        variable matches statuses that are tied or were both made known
        with the same value, which share the store's constant.
        Returns the bindings, or None if some required cell is absent;
        with several candidates for a fully free template the first
        node in index order wins.
        """
        env = dict(bindings or {})

        def bind(term, actual) -> bool:
            if isinstance(term, str):
                if term in env:
                    return env[term] == actual
                env[term] = actual
                return True
            if isinstance(term, Ref):
                term = term.index
            return term == actual

        for feature, owner, value, status in pattern:
            feature = norm_feat(feature)
            if isinstance(owner, str):
                if owner not in env:
                    # unrooted template: scan nodes in index order
                    hit = None
                    for i in self.node_indices():
                        if feature in self._groups[i]:
                            hit = i
                            break
                    if hit is None:
                        return None
                    env[owner] = hit
                idx = env[owner]
            else:
                idx = owner
            if not isinstance(idx, int):
                return None
            cell = self._groups[self._check_node(idx)].get(feature)
            if cell is None:
                return None
            if not bind(value, template_value(cell.value)):
                return None
            if status is not None and not bind(status, cell.status):
                return None
        return env

    # -- the node graph -------------------------------------------------------

    def _below(self, i: int) -> set[int]:
        """The nodes at the end of some non-empty path from node i: the
        one walk over node references."""
        seen: set[int] = set()
        stack = [i]
        while stack:
            for cell in self._groups[stack.pop()].values():
                for r in self._refs(cell.value):
                    t = r.index
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
        return seen

    def reachable(self, root: int) -> list[int]:
        """The nodes reachable from `root`, itself included, ascending."""
        root = self._check_node(root)
        return sorted(self._below(root) | {root})

    def _assert_acyclic(self, start: int) -> None:
        # Every mutation is checked here and rolled back on failure, so the
        # structure was acyclic before it: a new cycle must pass through the
        # node that was mutated.
        if start in self._below(start):
            raise UsageError("cycle through node references")

    @staticmethod
    def _refs(value):
        if isinstance(value, Ref):
            return (value,)
        if isinstance(value, tuple):
            return [e for e in value if isinstance(e, Ref)]
        return ()

    def has_substructure(self, x: int, y: int) -> bool:
        """Passive check: is y the value of some non-empty path from x?
        (Deliberately not a posted constraint.)"""
        x, y = self._check_node(x), self._check_node(y)
        return y in self._below(x)

    # -- output -----------------------------------------------------------------

    @staticmethod
    def _fmt_value(v) -> str:
        v = template_value(v)
        if isinstance(v, tuple):
            return "<" + ",".join("-" if e is None else str(e) for e in v) + ">"
        return "-" if v is None else str(v)

    def dump(self, statuses: bool = False) -> str:
        """One group per line in tuple notation, nodes in index order."""
        lines = []
        for i in self.node_indices():
            parts = []
            for cell in self._groups[i].values():
                fields = [cell.feature, str(i), self._fmt_value(cell.value)]
                if statuses:
                    fields.append(self.store.bool_value(cell.status).value)
                parts.append("<" + ",".join(fields) + ">")
            lines.append("[" + ", ".join(parts) + "]")
        return "\n".join(lines)


def template_value(value):
    """A cell value in template form, each node reference as its node
    number: as `delta` binds it and `dump` prints it."""
    if isinstance(value, tuple):
        return tuple(map(template_value, value))
    return value.index if isinstance(value, Ref) else value


def compile_avm(avm: dict, default_status: Bool3 = Bool3.UNKNOWN) -> tuple:
    """A nested description as a compiled template `(n_nodes, cells)` of
    plain tuples, for `FeatureStructure.instantiate`.  Nodes are numbered
    from 1 at first entry, depth-first in declaration order, and a dict
    object appearing twice is one shared node.  Each cell is `(feature,
    node, value, status)`; a node's cells come after those of the nodes
    first reached through them.  A node reference is written as its
    number, and the status as True, False or None (unknown): the `Ann`
    status, or `default_status`.  Uses no store: a bad description raises
    `UsageError` before anything is installed."""
    if not isinstance(avm, dict):
        raise UsageError(f"bad avm {avm!r}")
    index_of: dict[int, int] = {}
    cells: list[tuple] = []
    ctx = (_template_status(default_status), index_of, set(), cells)
    # `_compile` frames on an explicit stack, so any depth compiles
    frames, value = [_compile(avm, *ctx)], None
    while frames:
        try:
            frames.append(_compile(frames[-1].send(value), *ctx))
            value = None
        except StopIteration as done:
            frames.pop()
            value = done.value
    return len(index_of), tuple(cells)


def _compile(raw, default, index_of: dict, on_stack: set, cells: list):
    """The frame that returns `raw` in template form: a dict is its node
    number, its cells compiled at first entry.  It yields each value it
    needs compiled and is sent back that value's template form."""
    if raw is None or isinstance(raw, str):
        return raw
    if isinstance(raw, (list, tuple)):
        out = []
        for e in raw:
            if isinstance(e, (list, tuple)):
                raise UsageError("a sequence inside a sequence")
            out.append((yield e))
        return tuple(out)
    if not isinstance(raw, dict):
        raise UsageError(f"bad avm value {raw!r}")
    if id(raw) in on_stack:
        raise UsageError("cyclic avm")
    if id(raw) in index_of:
        return index_of[id(raw)]
    idx = index_of[id(raw)] = len(index_of) + 1
    on_stack.add(id(raw))
    seen: set[str] = set()
    for feat, value in raw.items():
        status = default
        if isinstance(value, Ann):
            status, value = _template_status(value.status), value.value
        value = yield value
        feature = norm_feat(feat)
        if feature in seen:
            raise UsageError(f"avm names {feature} twice on one node")
        if isinstance(value, tuple) and feature not in LIST_FEATURES:
            raise UsageError(f"{feature} is not list-valued")
        seen.add(feature)
        cells.append((feature, idx, value, status))
    on_stack.discard(id(raw))
    return idx


def _template_status(s) -> bool | None:
    if not isinstance(s, Bool3):
        raise UsageError(f"status {s!r} is not a Bool3")
    return None if s is Bool3.UNKNOWN else s is Bool3.TRUE


def _absolute(value, base: int):
    """A template value on a structure: node number k is node base + k,
    and a `Ref` must name one of the first `base` nodes."""
    if isinstance(value, int):
        return Ref(base + value)
    if isinstance(value, tuple):
        return tuple(_absolute(e, base) for e in value)
    if isinstance(value, Ref) and not 1 <= value.index <= base:
        raise UsageError(f"no node {value.index}")
    return value


def encode(avm: dict, store: Store | None = None,
           default_status: Bool3 = Bool3.UNKNOWN) -> FeatureStructure:
    fs = FeatureStructure(store or Store())
    fs.encode_node(avm, default_status)
    return fs


def avm_equal(a, b) -> bool:
    """Structural equality of nested descriptions, sharing included:
    two avms are equal iff their dict objects correspond one to one."""
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if isinstance(x, dict) and isinstance(y, dict):
            if id(x) in fwd or id(y) in bwd:
                if fwd.get(id(x)) != id(y) or bwd.get(id(y)) != id(x):
                    return False
            elif x.keys() != y.keys():
                return False
            else:
                fwd[id(x)], bwd[id(y)] = id(y), id(x)
                todo.extend((x[k], y[k]) for k in x)
        elif isinstance(x, tuple) and isinstance(y, tuple) and len(x) == len(y):
            todo.extend(zip(x, y))
        elif x != y:
            return False
    return True


# -- avm text syntax ------------------------------------------------------------
#
#   [cat: [head: [maj: n, case: nom]], content: [index: [gen: masc, num: sing]]]
#   sharing:   [head: #1 [maj: n], subj_head: #1]
#   sequences: [comps: <#2, #3>]      statuses:  [+vform: pas, -index, ?gen: masc]

class AvmParser(Cursor):
    # each '[' and '<' nests one level
    def __init__(self, text: str):
        super().__init__(text, rf"#\d+|[\[\]<>,:+?-]|{NAME}", "avm")
        self.tags: dict[str, dict] = {}

    def avm(self) -> dict:
        self.take("[")
        self.nest()
        out: dict = {}
        if self.peek() != "]":
            while True:
                self.pair(out)
                if self.peek() != ",":
                    break
                self.take(",")
        self.take("]")
        self.nest(-1)
        return out

    def pair(self, out: dict) -> None:
        status = None
        if self.peek() in ("+", "-", "?"):
            status = {"+": Bool3.TRUE, "-": Bool3.FALSE, "?": Bool3.UNKNOWN}[self.take()]
        name = self.take()
        if not re.fullmatch(NAME, name):
            self.fail(f"bad feature name {name!r}")
        value = None
        if self.peek() == ":":
            self.take(":")
            value = self.value()
        key = norm_feat(name)
        if key in out:
            self.fail(f"duplicate feature {name!r}")
        out[key] = value if status is None else Ann(value, status)

    def value(self):
        tok = self.peek()
        if tok == "[":
            return self.avm()
        if tok == "<":
            return self.seq()
        if tok == "-":
            self.take()
            return None
        if tok is not None and tok.startswith("#"):
            return self.tag()
        name = self.take()
        if not re.fullmatch(NAME, name):
            self.fail(f"bad value {name!r}")
        return name.lower()

    def seq(self) -> tuple:
        self.take("<")
        self.nest()
        items = []
        if self.peek() != ">":
            while True:
                items.append(self.value())
                if self.peek() != ",":
                    break
                self.take(",")
        self.take(">")
        self.nest(-1)
        return tuple(items)

    def tag(self):
        label = self.take()
        node = self.tags.setdefault(label, {})
        if self.peek() == "[":
            filled = self.avm()
            for k, v in filled.items():
                if k in node:
                    self.fail(f"tag {label} redefines {k}")
                node[k] = v
        return node


def parse_avm(text: str) -> dict:
    """Parse the bracketed avm syntax into nested dicts (sharing tags
    become shared dict objects, annotations become Ann wrappers)."""
    p = AvmParser(text)
    avm = p.avm()
    p.end()
    return avm
