"""Three-valued truth values and boolean formula trees.

Statuses range over {TRUE, FALSE, UNKNOWN} with strong Kleene
connectives: UNKNOWN absorbs exactly where a classical value would not
already decide the result.  Formulas are immutable trees over leaf
references (store variables) and constants; `enforce` implements
unit-propagation-strength inference used by the boolean propagator.
`Cursor` is the tokenizer of the formula reader here and of the avm
reader in `fstruct`: text it has no token for is a `UsageError`, never
skipped.  A grammar file's statements are split and read by
`grammar`'s own splitter and regexes; only the fcr formulas and the
avms in them go through `Cursor`.
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


# The three values under module names, for the functions below, which
# run for every sign constraint: a module name is read about ten times
# faster than an enum member through its class.
_T, _F, _U = Bool3.TRUE, Bool3.FALSE, Bool3.UNKNOWN


def not3(a: Bool3) -> Bool3:
    if a is _T:
        return _F
    if a is _F:
        return _T
    return _U


def and3(*values) -> Bool3:
    out = _T
    for v in values:
        if v is _F:
            return _F
        if v is _U:
            out = _U
    return out


def or3(*values) -> Bool3:
    out = _F
    for v in values:
        if v is _T:
            return _T
        if v is _U:
            out = _U
    return out


def implies3(a: Bool3, b: Bool3) -> Bool3:
    return or3(not3(a), b)


def equiv3(a: Bool3, b: Bool3) -> Bool3:
    if a is not _U and b is not _U:
        return _T if a is b else _F
    return _U


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


def eval_formula(f: Formula, lookup: Callable[[object], Bool3]) -> Bool3:
    """Kleene evaluation under the given leaf valuation."""
    if isinstance(f, Var):
        return lookup(f.ref)
    if isinstance(f, Const):
        return _T if f.value else _F
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
    return _enforce(f, want, lookup, assign, None)


def _enforce(f: Formula, want: bool, lookup, assign, cur: Bool3 | None) -> bool:
    # `cur`, when given, is f's value computed with no assignment since.
    # A compound evaluates its arms, derives its own value from theirs,
    # and hands an arm's value down when nothing was assigned in between.
    if isinstance(f, (And, Or)):
        vals = [eval_formula(a, lookup) for a in f.args]
        cur = and3(*vals) if isinstance(f, And) else or3(*vals)
    elif isinstance(f, (Implies, Equiv)):
        va, vb = eval_formula(f.lhs, lookup), eval_formula(f.rhs, lookup)
        cur = implies3(va, vb) if isinstance(f, Implies) else equiv3(va, vb)
    elif cur is None:
        cur = eval_formula(f, lookup)
    if cur is (_T if want else _F):
        return True
    if cur is not _U:
        return False
    if isinstance(f, Var):
        return assign(f.ref, want)
    if isinstance(f, Not):
        # f is unknown here, so its argument is too
        return _enforce(f.arg, not want, lookup, assign, _U)
    if isinstance(f, (And, Or)):
        # an And forced true (dually an Or forced false) fixes every arm,
        # each evaluated afresh after the arms before it assigned;
        # the opposite polarity only fires once a single arm is left open
        if want == isinstance(f, And):
            return all(_enforce(a, want, lookup, assign, None) for a in f.args)
        open_arms = [(a, v) for a, v in zip(f.args, vals) if v is _U]
        if len(open_arms) == 1:
            (arm, value), = open_arms
            return _enforce(arm, want, lookup, assign, value)
        return True
    if isinstance(f, Implies):
        # the Or of ~lhs and rhs: forced false it fixes both arms, forced
        # true it fires once a single arm is left open
        if not want:
            return (_enforce(f.lhs, True, lookup, assign, va)
                    and _enforce(f.rhs, False, lookup, assign, None))
        if va is not _U:
            return _enforce(f.rhs, True, lookup, assign, vb)
        if vb is not _U:
            return _enforce(f.lhs, False, lookup, assign, va)
        return True
    if isinstance(f, Equiv):
        if va is not _U:
            return _enforce(f.rhs, (va is _T) == want, lookup, assign, vb)
        if vb is not _U:
            return _enforce(f.lhs, (vb is _T) == want, lookup, assign, va)
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
#
# Each '~', '(', '->' and '<->' nests one level; text nested deeper than
# MAX_NESTING is a usage error, so no parse or later walk over the tree
# runs out of stack.

MAX_NESTING = 100

# A name in every text syntax: a letter or underscore, then word
# characters, with a hyphen only between two of them, so that `a->b`
# reads as `a`, `->`, `b`.
NAME = r"[A-Za-z_]\w*(?:-\w+)*"


class Cursor:
    """The tokenizer of the formula and avm syntaxes.  It reads `text` one
    token at a time, only when asked; a token is one of the regex
    alternatives `tokens`, after optional blanks.  Non-blank text where
    a token is due is a `UsageError` ("<what> syntax: ..."), never
    skipped.  `pos` is the offset just past the last token taken: a
    reader that stops early leaves the rest there for its caller.
    `nest` counts open levels against MAX_NESTING."""

    def __init__(self, text: str, tokens: str, what: str):
        self.text, self.what = text, what
        self.token = re.compile(rf"\s*({tokens})")
        self.pos = 0
        self.depth = 0

    def _match(self) -> re.Match | None:
        m = self.token.match(self.text, self.pos)
        if m is None and self.text[self.pos:].strip():
            self.fail(f"bad text at {self.text[self.pos:].strip()!r}")
        return m

    def fail(self, problem: str):
        raise UsageError(f"{self.what} syntax: {problem}")

    def peek(self) -> str | None:
        m = self._match()
        return m and m.group(1)

    def take(self, want: str | None = None) -> str:
        m = self._match()
        if m is None or want not in (None, m.group(1)):
            self.fail(f"expected {want and repr(want) or 'more'}, "
                      f"got {m and repr(m.group(1)) or 'end of text'}")
        self.pos = m.end()
        return m.group(1)

    def nest(self, levels: int = 1) -> None:
        self.depth += levels
        if self.depth > MAX_NESTING:
            self.fail(f"nested deeper than {MAX_NESTING} levels")

    def end(self) -> None:
        if self.peek() is not None:
            self.fail(f"trailing {self.text[self.pos:].strip()!r}")


class _Parser(Cursor):
    def __init__(self, text: str, leaf_pattern: str, leaf: Callable[[str], Formula]):
        super().__init__(text, rf"<->|->|[~&|()]|{leaf_pattern}", "formula")
        self.leaf = leaf

    def expr(self) -> Formula:
        node = self.impl()
        links = 0
        while self.peek() == "<->":
            self.take()
            self.nest()
            links += 1
            node = Equiv(node, self.impl())
        self.nest(-links)
        return node

    def impl(self) -> Formula:
        node = self.or_()
        if self.peek() == "->":
            self.take()
            self.nest()
            node = Implies(node, self.impl())
            self.nest(-1)
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
            self.nest()
            node = Not(self.unary())
        elif tok == "(":
            self.nest()
            node = self.expr()
            self.take(")")
        else:
            return self.leaf(tok)
        self.nest(-1)
        return node


def parse_with_leaves(text: str, leaf_pattern: str,
                      leaf: Callable[[str], Formula]) -> Formula:
    """Parse the textual boolean syntax under a leaf rule: tokens
    matching `leaf_pattern` become `leaf(token)`.  `leaf` also sees any
    operator token found where a leaf belongs, and must reject it."""
    parser = _Parser(text, leaf_pattern, leaf)
    node = parser.expr()
    parser.end()
    return node


_CONSTANTS = ("true", "false")


def parse_formula(text: str, env: dict[str, object]) -> Formula:
    """Parse the textual boolean syntax; names resolve through `env`,
    which may not name a constant."""
    if any(const in env for const in _CONSTANTS):
        raise UsageError("true and false are constants, not variable names")

    def leaf(tok: str) -> Formula:
        if tok == "true":
            return Const(True)
        if tok == "false":
            return Const(False)
        if tok in env:
            return Var(env[tok])
        raise UsageError(f"unknown boolean variable {tok!r}")

    return parse_with_leaves(text, NAME, leaf)


def format_formula(f: Formula, name_of: Callable[[object], str] = str) -> str:
    """Render a formula in the same syntax `parse_formula` accepts.  A
    name that could never read back -- empty, with a blank, or a
    constant -- is a `UsageError`."""
    return _format(f, 0, name_of)


def _format(g: Formula, parent: int, name_of) -> str:
    # precedence: equiv 0 < implies 1 < or 2 < and 3 < unary 4
    if isinstance(g, Var):
        name = name_of(g.ref)
        # one word, neither empty nor holding a blank
        if name.split() != [name] or name in _CONSTANTS:
            raise UsageError(f"{name!r} cannot be written as a variable name")
        return name
    if isinstance(g, Const):
        return "true" if g.value else "false"
    if isinstance(g, (And, Or)) and not g.args:
        # the empty conjunction is true, the empty disjunction false
        return "true" if isinstance(g, And) else "false"
    if isinstance(g, Not):
        return "~" + _format(g.arg, 4, name_of)
    if isinstance(g, And):
        text, level = " & ".join(_format(a, 3, name_of) for a in g.args), 3
    elif isinstance(g, Or):
        text, level = " | ".join(_format(a, 2, name_of) for a in g.args), 2
    elif isinstance(g, Implies):
        text, level = f"{_format(g.lhs, 2, name_of)} -> {_format(g.rhs, 1, name_of)}", 1
    else:
        text, level = f"{_format(g.lhs, 1, name_of)} <-> {_format(g.rhs, 1, name_of)}", 0
    return f"({text})" if level < parent else text
