"""Three-valued truth values and boolean formula trees.

Statuses range over {TRUE, FALSE, UNKNOWN} with strong Kleene
connectives: UNKNOWN absorbs exactly where a classical value would not
already decide the result.  Formulas are immutable trees over leaf
references (store variables) and constants; `enforce` implements
unit-propagation-strength inference used by the boolean propagator.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import UsageError


class Bool3(enum.Enum):
    TRUE = "T"
    FALSE = "F"
    UNKNOWN = "U"

    @classmethod
    def of(cls, flag: bool) -> "Bool3":
        return cls.TRUE if flag else cls.FALSE

    @property
    def known(self) -> bool:
        return self is not Bool3.UNKNOWN

    def __repr__(self) -> str:
        return self.value


def not3(a: Bool3) -> Bool3:
    if a is Bool3.TRUE:
        return Bool3.FALSE
    if a is Bool3.FALSE:
        return Bool3.TRUE
    return Bool3.UNKNOWN


def and3(*values) -> Bool3:
    out = Bool3.TRUE
    for v in values:
        if v is Bool3.FALSE:
            return Bool3.FALSE
        if v is Bool3.UNKNOWN:
            out = Bool3.UNKNOWN
    return out


def or3(*values) -> Bool3:
    out = Bool3.FALSE
    for v in values:
        if v is Bool3.TRUE:
            return Bool3.TRUE
        if v is Bool3.UNKNOWN:
            out = Bool3.UNKNOWN
    return out


def implies3(a: Bool3, b: Bool3) -> Bool3:
    return or3(not3(a), b)


def equiv3(a: Bool3, b: Bool3) -> Bool3:
    if a.known and b.known:
        return Bool3.of(a is b)
    return Bool3.UNKNOWN


# --- formula trees ---------------------------------------------------------


class Formula:
    """Base class; concrete nodes are frozen dataclasses below."""

    def leaves(self) -> Iterator[object]:
        """Yield every leaf reference (duplicates included)."""
        for child in self._children():
            yield from child.leaves()

    def _children(self) -> tuple["Formula", ...]:
        return ()


@dataclass(frozen=True)
class Var(Formula):
    ref: object

    def leaves(self):
        yield self.ref


@dataclass(frozen=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula

    def _children(self):
        return (self.arg,)


@dataclass(frozen=True)
class And(Formula):
    args: tuple[Formula, ...]

    def _children(self):
        return self.args


@dataclass(frozen=True)
class Or(Formula):
    args: tuple[Formula, ...]

    def _children(self):
        return self.args


@dataclass(frozen=True)
class Implies(Formula):
    lhs: Formula
    rhs: Formula

    def _children(self):
        return (self.lhs, self.rhs)


@dataclass(frozen=True)
class Equiv(Formula):
    lhs: Formula
    rhs: Formula

    def _children(self):
        return (self.lhs, self.rhs)


def conj(parts) -> Formula:
    parts = tuple(parts)
    if not parts:
        return Const(True)
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disj(parts) -> Formula:
    parts = tuple(parts)
    if not parts:
        return Const(False)
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


def eval_formula(f: Formula, lookup: Callable[[object], Bool3]) -> Bool3:
    """Kleene evaluation under the given leaf valuation."""
    if isinstance(f, Var):
        return lookup(f.ref)
    if isinstance(f, Const):
        return Bool3.of(f.value)
    if isinstance(f, Not):
        return not3(eval_formula(f.arg, lookup))
    if isinstance(f, And):
        return and3(*(eval_formula(a, lookup) for a in f.args))
    if isinstance(f, Or):
        return or3(*(eval_formula(a, lookup) for a in f.args))
    if isinstance(f, Implies):
        return implies3(eval_formula(f.lhs, lookup), eval_formula(f.rhs, lookup))
    if isinstance(f, Equiv):
        return equiv3(eval_formula(f.lhs, lookup), eval_formula(f.rhs, lookup))
    raise UsageError(f"not a formula: {f!r}")


def enforce(
    f: Formula,
    want: bool,
    lookup: Callable[[object], Bool3],
    assign: Callable[[object, bool], bool],
) -> bool:
    """Force `f` toward `want`, setting leaves that are logically forced.

    Single pass; the store re-runs the propagator after each assignment,
    so fixpoint behaviour comes from the propagation loop.  Returns False
    on contradiction.
    """
    cur = eval_formula(f, lookup)
    if cur is Bool3.of(want):
        return True
    if cur.known:
        return False
    if isinstance(f, Var):
        return assign(f.ref, want)
    if isinstance(f, Not):
        return enforce(f.arg, not want, lookup, assign)
    if isinstance(f, (And, Or)):
        # an And forced true (dually an Or forced false) fixes every arm;
        # the opposite polarity only fires once a single arm is left open
        all_fixed = want if isinstance(f, And) else not want
        if all_fixed:
            return all(enforce(a, want, lookup, assign) for a in f.args)
        open_args = [a for a in f.args if not eval_formula(a, lookup).known]
        if len(open_args) == 1:
            return enforce(open_args[0], want, lookup, assign)
        return True
    if isinstance(f, Implies):
        return enforce(Or((Not(f.lhs), f.rhs)), want, lookup, assign)
    if isinstance(f, Equiv):
        va = eval_formula(f.lhs, lookup)
        vb = eval_formula(f.rhs, lookup)
        if va.known:
            return enforce(f.rhs, (va is Bool3.TRUE) == want, lookup, assign)
        if vb.known:
            return enforce(f.lhs, (vb is Bool3.TRUE) == want, lookup, assign)
        return True
    raise UsageError(f"not a formula: {f!r}")


# --- textual syntax --------------------------------------------------------
#
#   expr   := equiv
#   equiv  := impl ('<->' impl)*
#   impl   := or ('->' or)*          (right associative)
#   or     := and ('|' and)*
#   and    := unary ('&' unary)*
#   unary  := '~' unary | '(' expr ')' | LEAF    (LEAF: set by a leaf rule)


def _tokenize(text: str, leaf_pattern: str) -> list[str]:
    token = re.compile(rf"\s*(<->|->|[~&|()]|{leaf_pattern})")
    out, pos = [], 0
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise UsageError(f"bad formula syntax near {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str], leaf: Callable[[str], Formula]):
        self.toks = tokens
        self.pos = 0
        self.leaf = leaf

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise UsageError("unexpected end of formula")
        self.pos += 1
        return tok

    def expr(self) -> Formula:
        node = self.impl()
        while self.peek() == "<->":
            self.take()
            node = Equiv(node, self.impl())
        return node

    def impl(self) -> Formula:
        node = self.or_()
        if self.peek() == "->":
            self.take()
            return Implies(node, self.impl())
        return node

    def or_(self) -> Formula:
        node = self.and_()
        while self.peek() == "|":
            self.take()
            nxt = self.and_()
            node = Or(node.args + (nxt,)) if isinstance(node, Or) else Or((node, nxt))
        return node

    def and_(self) -> Formula:
        node = self.unary()
        while self.peek() == "&":
            self.take()
            nxt = self.unary()
            node = And(node.args + (nxt,)) if isinstance(node, And) else And((node, nxt))
        return node

    def unary(self) -> Formula:
        tok = self.take()
        if tok == "~":
            return Not(self.unary())
        if tok == "(":
            node = self.expr()
            if self.take() != ")":
                raise UsageError("missing ')' in formula")
            return node
        return self.leaf(tok)


def parse_with_leaves(text: str, leaf_pattern: str,
                      leaf: Callable[[str], Formula]) -> Formula:
    """Parse the textual boolean syntax under a leaf rule: tokens
    matching `leaf_pattern` become `leaf(token)`.  `leaf` also sees any
    operator token found where a leaf belongs, and must reject it."""
    parser = _Parser(_tokenize(text, leaf_pattern), leaf)
    node = parser.expr()
    if parser.peek() is not None:
        raise UsageError(f"trailing tokens in formula: {parser.toks[parser.pos:]}")
    return node


def parse_formula(text: str, env: dict[str, object]) -> Formula:
    """Parse the textual boolean syntax; names resolve through `env`."""

    def leaf(tok: str) -> Formula:
        if tok == "true":
            return Const(True)
        if tok == "false":
            return Const(False)
        if tok in env:
            return Var(env[tok])
        raise UsageError(f"unknown boolean variable {tok!r}")

    return parse_with_leaves(text, r"[A-Za-z_][\w-]*", leaf)


def format_formula(f: Formula, name_of: Callable[[object], str] = str) -> str:
    """Render a formula in the same syntax `parse_formula` accepts."""

    def walk(g: Formula, parent: int) -> str:
        # precedence: equiv 0 < implies 1 < or 2 < and 3 < unary 4
        if isinstance(g, Var):
            return name_of(g.ref)
        if isinstance(g, Const):
            return "true" if g.value else "false"
        if isinstance(g, Not):
            return "~" + walk(g.arg, 4)
        if isinstance(g, And):
            text, level = " & ".join(walk(a, 3) for a in g.args), 3
        elif isinstance(g, Or):
            text, level = " | ".join(walk(a, 2) for a in g.args), 2
        elif isinstance(g, Implies):
            text, level = f"{walk(g.lhs, 2)} -> {walk(g.rhs, 1)}", 1
        else:
            text, level = f"{walk(g.lhs, 1)} <-> {walk(g.rhs, 1)}", 0
        return f"({text})" if level < parent else text

    return walk(f, 0)
