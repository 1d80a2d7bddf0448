"""Grammar and lexicon model with a line-oriented file loader.

Declarations:

    start S.
    rule S -> NP VP.
    lp Det < Nm.
    frame NP { M = {Nm,Det,Adj,PP}; C = {Nm}; head = Nm; schema {Det,Adj}; }
    proj Nm = NP.
    fcr PFORM -> ~INDEX.
    lex "the" Det [maj: det] subcat [].
    lex "sleeps" Vb [maj: v] subj [NP] subcat [] schema {}.

Comments run from % to end of line.  Frames may omit O (then O = M - C)
and the closing brace ends the statement; everything else ends with a
dot.  A frame's `schema` clause is validated (it must lie within O) and
constrains nothing.  Any text outside the syntax is a `GrammarError` on its line: a
lexical entry's avm is read by the avm reader, which stops after its
closing bracket and leaves the clauses after it to the loader.  The
LP pairs must form a strict partial order; a cycle is reported on the
line of its latest-declared pair.  A grammar is immutable once loaded.
The rules compile to the window parser's three tables: `by_rhs`,
each right-hand side's rules, the trie of right-hand sides, and
`follows`, the categories that may stand side by side in a sentential
form of the start category.
Each lexical entry compiles to its sign's template as it is read.  An
entry that cannot become a sign, among them one whose avm writes the
valency lists its `subj` and `subcat` clauses give, or an fcr naming a
feature no sign can carry, is a `GrammarError` on its line; entries
record their fcr sites, and the restrictions the template alone decides
are folded into it.  Last, `phrase_table` decides every phrase a tree
can build from the entries' signatures, each by its head, split, mother
and the reason it is rejected, if any; a phrase whose valency split
fails has no entry (`hpsg.decide_phrases`).
"""

from __future__ import annotations

import graphlib
import re
from dataclasses import dataclass, field, replace
from functools import cached_property

from .constraints import BOUNDARY
from .errors import GrammarError, UsageError
from .fstruct import AvmParser, compile_avm, norm_feat
from .logic import NAME, Bool3, Formula, Implies, Var, format_formula, parse_with_leaves


@dataclass(frozen=True)
class Category:
    name: str
    level: str  # "lexical" or "phrasal"


@dataclass(frozen=True)
class PSRule:
    lhs: str
    rhs: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.lhs} -> {' '.join(self.rhs)}"


@dataclass(frozen=True)
class Frame:
    """Immediate-constituent frame of one phrase: maximal set M split
    into compulsory C and optional O, with the head.  A frame's
    `schema {...}` clause is checked to lie within O and then dropped:
    it constrains nothing, since the optional members a head demands
    come from its lexical entry's `schema` clause, through
    `hpsg.frame_holds`."""

    phrase: str
    m: frozenset[str]
    c: frozenset[str]
    o: frozenset[str]
    head: str


@dataclass(frozen=True)
class FcrLiteral:
    """A feature mention in a cooccurrence restriction: bare name means
    'realized' (status true); name[value] additionally pins the value."""

    feature: str
    value: str | None = None


@dataclass(frozen=True)
class FCR:
    antecedent: Formula   # leaves are Var(FcrLiteral)
    consequent: Formula

    @property
    def formula(self) -> Formula:
        return Implies(self.antecedent, self.consequent)

    @cached_property
    def features(self) -> frozenset[str]:
        """Every feature the restriction mentions."""
        return frozenset(lit.feature for lit in self.formula.leaves())

    def __str__(self) -> str:
        return format_formula(self.formula, _format_literal)


def fcr_sites(nodes, fcrs):
    """The `(node, index into fcrs)` pairs where the restrictions apply,
    given `(node, features)` pairs in walk order: a restriction applies
    at every node that carries one of its features, and after that the
    node carries all of them."""
    for node, feats in nodes:
        feats = set(feats)
        for k, f in enumerate(fcrs):
            if not feats.isdisjoint(f.features):
                feats |= f.features
                yield node, k


def template_sites(template, fcrs) -> tuple:
    """The `fcr_sites` of a compiled template's nodes."""
    nodes: list[set[str]] = [set() for _ in range(template[0])]
    for feature, node, _, _ in template[1]:
        nodes[node - 1].add(feature)
    return tuple(fcr_sites(enumerate(nodes, 1), fcrs))


@dataclass(frozen=True)
class LexEntry:
    """`template`, the compiled sign, is made from the other fields when
    not given; `sites` are its `template_sites` under the grammar's fcrs
    that a tree still posts, none once `hpsg.fold_restrictions` has
    folded the restrictions into the template.  `signature` is the
    sign's `(category, subj, comps, schema)`: the avm cannot write the
    valency lists itself, so they are `subj` and `subcat`.  `head` is
    the head value the template installs realized (`_template_head`);
    `replace` remakes it, as it does `signature`."""

    form: str
    category: str
    avm: dict = field(default_factory=dict, hash=False, compare=False)
    subj: tuple[str, ...] = ()
    subcat: tuple[str, ...] = ()
    schema: frozenset[str] | None = None
    template: tuple = field(default=None, hash=False, compare=False, repr=False)
    sites: tuple = field(default=(), hash=False, compare=False, repr=False)
    signature: tuple = field(init=False, hash=False, compare=False, repr=False)
    head: object = field(init=False, hash=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "signature",
                           (self.category, tuple(self.subj), tuple(self.subcat), self.schema))
        if self.template is None:
            avm = _deep_merge(self.avm, {"synsem": {"loc": {"cat": {
                "subj": tuple(self.subj), "comps": tuple(self.subcat)}}}})
            object.__setattr__(self, "template", compile_avm(avm, Bool3.TRUE))
        object.__setattr__(self, "head", _template_head(self.template))


def _template_head(template):
    """The synsem.loc.cat head value a compiled sign installs realized,
    with the three cells above it: a node number or an atom, or None."""
    cells = {(feature, node): (value, status) for feature, node, value, status in template[1]}
    value = 1
    for feature in ("synsem", "loc", "cat", "head"):
        value, status = cells.get((feature, value), (None, None))
        if status is not True:
            return None
    return value


def _deep_merge(dst: dict, extra: dict) -> dict:
    out = dict(dst)
    for k, v in extra.items():
        if k in out:
            cur = out[k]
            inner = cur.value if hasattr(cur, "value") else cur
            if not (isinstance(inner, dict) and isinstance(v, dict)):
                raise UsageError(f"lexical entry reserves {k!r}")
            merged = _deep_merge(inner, v)
            out[k] = replace(cur, value=merged) if hasattr(cur, "value") else merged
        else:
            out[k] = v
    return out


class Grammar:
    def __init__(self):
        self.start = "S"
        self.rules: list[PSRule] = []
        self.lp: dict[tuple[str, str], int] = {}   # (before, after) -> first line
        self.frames: dict[str, Frame] = {}
        self.proj: dict[str, str] = {}
        self.fcrs: list[FCR] = []
        self.lexicon: dict[str, list[LexEntry]] = {}
        self._categories: dict[str, Category] = {}
        # Each right-hand side mapped to its rules, in file order.
        self.by_rhs: dict[tuple[str, ...], tuple[PSRule, ...]] = {}
        # The right-hand sides as a trie: each category maps to the
        # left-hand sides of the rules whose right-hand side ends there,
        # in file order, and the trie of the categories that may follow it.
        self.rhs_trie: dict[str, tuple[tuple[str, ...], dict]] = {}
        # Each category, and BOUNDARY for the left end, mapped to those
        # that may stand right after it in a sentential form of the start
        # category, BOUNDARY for the right end (`_follows`).
        self.follows: dict[str, frozenset[str]] = {}
        # Each `(label, daughter signatures)` whose valency split holds
        # mapped to its `hpsg.PhraseDecision` (`hpsg.decide_phrases`).
        self.phrase_table: dict[tuple, object] = {}

    # -- queries --------------------------------------------------------

    def categories(self) -> tuple[Category, ...]:
        return tuple(self._categories.values())

    def category(self, name: str) -> Category:
        try:
            return self._categories[name]
        except KeyError:
            raise UsageError(f"unknown category {name!r}") from None

    def is_phrasal(self, name: str) -> bool:
        return self.category(name).level == "phrasal"

    def legal_daughters(self, r: str) -> frozenset[str]:
        """Everything r may immediately dominate: rule right-hand sides
        united with the frame's maximal constituent set."""
        if not self.is_phrasal(r):
            raise UsageError(f"{r} is not a phrasal category")
        out: set[str] = set()
        for rule in self.rules:
            if rule.lhs == r:
                out.update(rule.rhs)
        frame = self.frames.get(r)
        if frame is not None:
            out.update(frame.m)
        if not out:
            raise UsageError(f"no rules or frame for {r}")
        return frozenset(out)

    def lp_ok(self, x: str, y: str) -> bool:
        """Undeclared pairs are unordered; only a declared y < x order
        forbids the sequence x y."""
        return (y, x) not in self.lp

    def projection(self, x: str) -> str | None:
        return self.proj.get(x)

    def entries(self, form: str) -> tuple[LexEntry, ...]:
        return tuple(self.lexicon.get(form, ()))

    def rhs_lengths(self) -> frozenset[int]:
        return frozenset(len(r.rhs) for r in self.rules)

    def could_be_sentential(self, seq) -> bool:
        """False when two neighbours of seq, or an end and the category
        there, stand side by side in no sentential form of the start
        category: then no derivation reaches seq."""
        follows, ends = self.follows, (BOUNDARY, *seq, BOUNDARY)
        return all(b in follows.get(a, ()) for a, b in zip(ends, ends[1:]))


def _format_literal(lit: FcrLiteral) -> str:
    if lit.value:
        return f"{lit.feature.upper()}[{lit.value.upper()}]"
    return lit.feature.upper()


_LIT = re.compile(rf"\+?({NAME})(?:\[({NAME})\])?")
# a phrase skeleton's features, which an fcr may name besides the lexicon's
_SKELETON = frozenset({"synsem", "loc", "cat", "head", "subj", "comps", "dtrs",
                       "head_dtr", "subj_dtr", "comp_dtrs"})


def _fcr_literal(tok: str) -> Formula:
    m = _LIT.fullmatch(tok)
    if not m:
        raise UsageError(f"bad literal {tok!r}")
    feature, value = m.groups()
    return Var(FcrLiteral(norm_feat(feature), value.lower() if value else None))


def parse_fcr(text: str, line: int | None = None) -> FCR:
    """Parse a restriction: the boolean syntax over feature literals
    (`NAME`, `+NAME` or `NAME[VALUE]`), which must be an implication."""
    try:
        f = parse_with_leaves(text, _LIT.pattern, _fcr_literal)
    except UsageError as e:
        raise GrammarError(f"fcr: {e}", line) from None
    if not isinstance(f, Implies):
        raise GrammarError("an fcr must be an implication", line)
    return FCR(f.lhs, f.rhs)


# -- statement splitting --------------------------------------------------

def _statements(text: str):
    """Yield (line_number, statement_text).  Statements end at a dot at
    top level, or at the closing brace of a frame block.  A `%` starts a
    comment to the end of its line; a quoted form, which ends on its own
    line, is plain text to both."""
    buf: list[str] = []
    depth = 0
    line = 1
    start_line = None
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "%":
            end = text.find("\n", i)
            i = len(text) if end < 0 else end
            continue
        if ch == "\n":
            line += 1
        if not buf and (ch.isspace()):
            i += 1
            continue
        if start_line is None:
            start_line = line
        if ch == '"':
            end = text.find('"', i + 1)
            if end < 0 or "\n" in text[i:end]:
                raise GrammarError("unterminated quote", line)
            buf.extend(text[i:end + 1])
            i = end + 1
            continue
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
            if depth < 0:
                raise GrammarError("unbalanced brackets", line)
            buf.append(ch)
            if depth == 0 and buf[0:5] == list("frame"):
                yield start_line, "".join(buf).strip()
                buf, start_line = [], None
            i += 1
            continue
        elif ch == "." and depth == 0:
            yield start_line, "".join(buf).strip()
            buf, start_line = [], None
            i += 1
            continue
        buf.append(ch)
        i += 1
    if "".join(buf).strip():
        raise GrammarError("statement missing final dot", start_line)


def _split_names(body: str, line: int) -> list[str]:
    names = [s.strip() for s in body.split(",") if s.strip()]
    for n in names:
        if not re.fullmatch(NAME, n):
            raise GrammarError(f"bad category name {n!r}", line)
    return names


def _parse_frame(body: str, line: int) -> Frame:
    m = re.fullmatch(rf"frame\s+({NAME})\s*\{{(.*)\}}", body.strip(), re.S)
    if not m:
        raise GrammarError("bad frame declaration", line)
    phrase, inner = m.group(1), m.group(2)
    sets: dict[str, list[str]] = {}
    head = None
    schemata: list[frozenset[str]] = []
    for clause in (c.strip() for c in inner.split(";")):
        if not clause:
            continue
        cm = re.fullmatch(r"([MCO])\s*=\s*\{(.*)\}", clause, re.S)
        if cm:
            key = cm.group(1)
            if key in sets:
                raise GrammarError(f"duplicate {key} in frame {phrase}", line)
            sets[key] = _split_names(cm.group(2), line)
            continue
        hm = re.fullmatch(rf"head\s*=\s*({NAME})", clause)
        if hm:
            head = hm.group(1)
            continue
        sm = re.fullmatch(r"schema\s*\{(.*)\}", clause, re.S)
        if sm:
            schemata.append(frozenset(_split_names(sm.group(1), line)))
            continue
        raise GrammarError(f"bad frame clause {clause!r}", line)
    if "M" not in sets or "C" not in sets or head is None:
        raise GrammarError(f"frame {phrase} needs M, C and head", line)
    m_set, c_set = frozenset(sets["M"]), frozenset(sets["C"])
    o_set = frozenset(sets["O"]) if "O" in sets else m_set - c_set
    if c_set & o_set:
        raise GrammarError(f"frame {phrase}: C and O overlap", line)
    if m_set != c_set | o_set:
        raise GrammarError(f"frame {phrase}: M is not C with O", line)
    if head not in c_set:
        raise GrammarError(f"frame {phrase}: head {head} not compulsory", line)
    for schema in schemata:
        if not schema <= o_set:
            raise GrammarError(f"frame {phrase}: schema exceeds the optional set", line)
    return Frame(phrase, m_set, c_set, o_set, head)


def _parse_lex(body: str, line: int) -> LexEntry:
    m = re.match(rf'lex\s+"([^"]*)"\s+({NAME})\s*(.*)$', body.strip(), re.S)
    if not m:
        raise GrammarError("bad lex declaration", line)
    form, cat, rest = m.group(1), m.group(2), m.group(3).strip()
    avm: dict = {}
    if rest.startswith("["):
        reader = AvmParser(rest)   # reads the avm and stops after it
        try:
            avm = reader.avm()
        except UsageError as e:
            raise GrammarError(str(e), line) from None
        rest = rest[reader.pos:].strip()
    subj: tuple[str, ...] = ()
    subcat: tuple[str, ...] = ()
    schema: frozenset[str] | None = None
    while rest:
        km = re.match(r"(subj|subcat)\s*\[([^\]]*)\]\s*(.*)$", rest, re.S)
        if km:
            value = tuple(_split_names(km.group(2), line))
            if km.group(1) == "subj":
                subj = value
            else:
                subcat = value
            rest = km.group(3).strip()
            continue
        sm = re.match(r"schema\s*\{([^}]*)\}\s*(.*)$", rest, re.S)
        if sm:
            schema = frozenset(_split_names(sm.group(1), line))
            rest = sm.group(2).strip()
            continue
        raise GrammarError(f"bad lex clause {rest[:20]!r}", line)
    try:
        return LexEntry(form, cat, avm, subj, subcat, schema)
    except UsageError as e:
        raise GrammarError(f"lex {form!r}: {e}", line) from None


def load_grammar(text: str) -> Grammar:
    g = Grammar()
    defined: set[str] = set()          # categories introduced by declarations
    referenced: dict[str, int] = {}    # name -> first referencing line
    fcr_lines: list[int] = []
    start_line = None

    for line, stmt in _statements(text):
        head = stmt.split(None, 1)[0] if stmt else ""
        if head == "rule":
            m = re.fullmatch(rf"rule\s+({NAME})\s*->(.*)", stmt, re.S)
            if not m:
                raise GrammarError("bad rule", line)
            rhs = tuple(m.group(2).split())
            for n in (m.group(1),) + rhs:
                if not re.fullmatch(NAME, n):
                    raise GrammarError(f"bad category name {n!r}", line)
            if not rhs:
                raise GrammarError("empty right-hand side", line)
            g.rules.append(PSRule(m.group(1), rhs))
            defined.update((m.group(1),) + rhs)
        elif head == "lp":
            m = re.fullmatch(rf"lp\s+({NAME})\s*<\s*({NAME})", stmt)
            if not m:
                raise GrammarError("bad lp declaration", line)
            x, y = m.groups()
            if x == y:
                raise GrammarError("lp pair must be irreflexive", line)
            g.lp.setdefault((x, y), line)
            referenced.setdefault(x, line)
            referenced.setdefault(y, line)
        elif head == "frame" or stmt.startswith("frame"):
            frame = _parse_frame(stmt, line)
            if frame.phrase in g.frames:
                raise GrammarError(f"duplicate frame for {frame.phrase}", line)
            g.frames[frame.phrase] = frame
            defined.add(frame.phrase)
            defined.update(frame.m)
        elif head == "proj":
            m = re.fullmatch(rf"proj\s+({NAME})\s*=\s*({NAME})", stmt)
            if not m:
                raise GrammarError("bad proj declaration", line)
            x, target = m.groups()
            if g.proj.get(x, target) != target:
                raise GrammarError(f"conflicting projection for {x}", line)
            g.proj[x] = target
            referenced.setdefault(x, line)
            defined.add(target)
        elif head == "fcr":
            g.fcrs.append(parse_fcr(stmt[3:].strip(), line))
            fcr_lines.append(line)
        elif head == "lex":
            entry = _parse_lex(stmt, line)
            g.lexicon.setdefault(entry.form, []).append(entry)
            defined.add(entry.category)
            for n in entry.subj + entry.subcat + tuple(sorted(entry.schema or ())):
                referenced.setdefault(n, line)
        elif head == "start":
            m = re.fullmatch(rf"start\s+({NAME})", stmt)
            if not m:
                raise GrammarError("bad start declaration", line)
            g.start = m.group(1)
            start_line = line
            referenced.setdefault(g.start, line)
        elif stmt:
            raise GrammarError(f"unknown declaration {head!r}", line)

    for name, line in referenced.items():
        if name not in defined:
            raise GrammarError(f"unknown category {name!r}", line)
    if (g.rules or g.frames) and g.start not in defined:
        raise GrammarError(f"start category {g.start!r} undefined", start_line)

    # LP order must be a strict partial order: no cycle through the pairs,
    # one reported on the line of its latest-declared pair
    order = graphlib.TopologicalSorter()
    for before, after in g.lp:
        order.add(after, before)
    try:
        order.prepare()
    except graphlib.CycleError as e:
        cycle = e.args[1]
        raise GrammarError(f"lp order is cyclic: {' < '.join(cycle)}",
                           max(map(g.lp.get, zip(cycle, cycle[1:])))) from None

    phrasal = {r.lhs for r in g.rules} | set(g.frames) | set(g.proj.values())
    for name in sorted(defined):
        level = "phrasal" if name in phrasal else "lexical"
        g._categories[name] = Category(name, level)
    for rule in g.rules:
        g.by_rhs[rule.rhs] = g.by_rhs.get(rule.rhs, ()) + (rule,)
        node = g.rhs_trie
        for cat in rule.rhs[:-1]:
            node = node.setdefault(cat, ((), {}))[1]
        lhss, children = node.get(rule.rhs[-1], ((), {}))
        node[rule.rhs[-1]] = (lhss + (rule.lhs,), children)
    g.follows = _follows(g)
    from .hpsg import decide_phrases, fold_restrictions    # cycle at import time

    feats = set(_SKELETON)
    folded: dict[tuple, LexEntry] = {}     # (template, sites) -> its fold
    for entries in g.lexicon.values():
        for i, e in enumerate(entries):
            key = (e.template, template_sites(e.template, g.fcrs))
            if key not in folded:
                folded[key] = fold_restrictions(replace(e, sites=key[1]), g.fcrs)
            entries[i] = replace(e, template=folded[key].template, sites=folded[key].sites)
            feats.update(cell[0] for cell in e.template[1])
    for f, line in zip(g.fcrs, fcr_lines):
        unknown = f.features - feats
        if unknown:
            raise GrammarError(f"fcr names unknown features: {sorted(unknown)}", line)
    g.phrase_table = decide_phrases(g)
    return g


def _closure(cats, step: dict) -> dict[str, set[str]]:
    """Each category with every category reached from it in zero or more
    steps of `step`."""
    out = {}
    for c in cats:
        seen, todo = {c}, [c]
        while todo:
            for d in step.get(todo.pop(), ()):
                if d not in seen:
                    seen.add(d)
                    todo.append(d)
        out[c] = seen
    return out


def _follows(g: Grammar) -> dict[str, frozenset[str]]:
    """What may stand right after each category in a sentential form of
    the start category, BOUNDARY before the first and after the last
    (Nederhof 2000).  With FIRST*(X) and LAST*(X) the categories a
    rewrite of X may begin and end with, X itself included, the pairs
    are LAST*(X) x FIRST*(Y) for each two neighbours X Y of a
    right-hand side whose left-hand side is reachable from the start,
    BOUNDARY before FIRST*(start), and LAST*(start) before BOUNDARY.  No
    right-hand side is empty, so no category vanishes from between two
    others.  Every category of the grammar is a key."""
    cats = set(g._categories) | {g.start}
    below, first, last = {}, {}, {}
    for r in g.rules:
        below.setdefault(r.lhs, set()).update(r.rhs)
        first.setdefault(r.lhs, set()).add(r.rhs[0])
        last.setdefault(r.lhs, set()).add(r.rhs[-1])
    reachable = _closure((g.start,), below)[g.start]
    first, last = _closure(cats, first), _closure(cats, last)
    out = {c: set() for c in cats}
    out[BOUNDARY] = set(first[g.start])
    for c in last[g.start]:
        out[c].add(BOUNDARY)
    for r in g.rules:
        if r.lhs in reachable:
            for x, y in zip(r.rhs, r.rhs[1:]):
                for c in last[x]:
                    out[c].update(first[y])
    return {c: frozenset(after) for c, after in out.items()}


def load_grammar_file(path: str) -> Grammar:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        try:
            # with the newline translation of a file opened as text
            text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        except UnicodeDecodeError as e:
            raise GrammarError(f"not UTF-8 text ({e.reason})",
                               raw.count(b"\n", 0, e.start) + 1) from None
        return load_grammar(text)
    except GrammarError as e:
        raise GrammarError(f"{path}: {e.args[0] if e.args else e}", None) from None
