"""Three-valued logic: truth tables, evaluation, unit propagation, syntax."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clparse.logic import (
    And,
    Bool3,
    Const,
    Equiv,
    Implies,
    Not,
    Or,
    Var,
    and3,
    conj,
    enforce,
    equiv3,
    MAX_NESTING,
    eval_formula,
    format_formula,
    implies3,
    not3,
    or3,
    parse_formula,
)
from clparse.errors import UsageError

T, F, U = Bool3.TRUE, Bool3.FALSE, Bool3.UNKNOWN


def test_negation():
    assert not3(T) is F
    assert not3(F) is T
    assert not3(U) is U


def test_conjunction_table():
    assert and3(T, T) is T
    assert and3(T, U) is U
    assert and3(U, U) is U
    assert and3(F, U) is F      # false wins regardless of the unknown
    assert and3(U, F) is F
    assert and3(F, T) is F


def test_disjunction_table():
    assert or3(F, F) is F
    assert or3(F, U) is U
    assert or3(T, U) is T       # true wins regardless of the unknown
    assert or3(U, T) is T


def test_implication_table():
    assert implies3(F, U) is T
    assert implies3(U, T) is T
    assert implies3(T, U) is U
    assert implies3(U, F) is U
    assert implies3(T, F) is F
    assert implies3(U, U) is U


def test_equivalence_table():
    assert equiv3(T, T) is T
    assert equiv3(F, F) is T
    assert equiv3(T, F) is F
    assert equiv3(U, T) is U
    assert equiv3(U, U) is U


def test_eval_formula():
    env = {"a": T, "b": F, "c": U}
    look = env.__getitem__
    assert eval_formula(And((Var("a"), Var("b"))), look) is F
    assert eval_formula(Or((Var("b"), Var("c"))), look) is U
    assert eval_formula(Implies(Var("b"), Var("c")), look) is T
    assert eval_formula(Not(Var("c")), look) is U
    assert eval_formula(Const(True), look) is T


def test_conj_disj_empty():
    assert conj([]) == Const(True)
    assert eval_formula(Or(()), lambda ref: U) is F   # the empty disjunction
    assert conj([Var("a")]) == Var("a")


class _Env:
    """Tiny mutable assignment for enforce tests."""

    def __init__(self, **vals):
        self.vals = dict(vals)

    def look(self, ref):
        return self.vals.get(ref, U)

    def assign(self, ref, flag):
        want = T if flag else F
        if self.vals.get(ref, U) is not U:
            return self.vals[ref] is want
        self.vals[ref] = want
        return True


def test_enforce_conjunction_fixes_all_arms():
    e = _Env()
    assert enforce(And((Var("a"), Var("b"))), True, e.look, e.assign)
    assert e.vals == {"a": T, "b": T}


def test_enforce_disjunction_last_open_arm():
    e = _Env(a=F)
    assert enforce(Or((Var("a"), Var("b"))), True, e.look, e.assign)
    assert e.vals["b"] is T


def test_enforce_disjunction_stays_open():
    e = _Env()
    assert enforce(Or((Var("a"), Var("b"))), True, e.look, e.assign)
    assert "a" not in e.vals and "b" not in e.vals


def test_enforce_implication():
    e = _Env(a=T)
    assert enforce(Implies(Var("a"), Var("b")), True, e.look, e.assign)
    assert e.vals["b"] is T
    e = _Env(b=F)
    assert enforce(Implies(Var("a"), Var("b")), True, e.look, e.assign)
    assert e.vals["a"] is F


def test_enforce_contradiction_detected():
    e = _Env(a=F)
    assert not enforce(Var("a"), True, e.look, e.assign)
    e = _Env(a=T, b=F)
    assert not enforce(And((Var("a"), Var("b"))), True, e.look, e.assign)


def test_enforce_negation_and_equiv():
    e = _Env(a=T)
    assert enforce(Not(Var("b")), True, e.look, e.assign)
    assert e.vals["b"] is F
    e = _Env(a=T)
    assert enforce(Equiv(Var("a"), Var("b")), True, e.look, e.assign)
    assert e.vals["b"] is T
    e = _Env(a=F)
    assert enforce(Equiv(Var("a"), Var("b")), True, e.look, e.assign)
    assert e.vals["b"] is F


def test_parse_precedence():
    env = {n: n for n in "abcd"}
    f = parse_formula("a | b & c", env)
    assert f == Or((Var("a"), And((Var("b"), Var("c")))))
    f = parse_formula("~a | b", env)
    assert f == Or((Not(Var("a")), Var("b")))
    f = parse_formula("a -> b -> c", env)   # right associative
    assert f == Implies(Var("a"), Implies(Var("b"), Var("c")))
    f = parse_formula("a <-> b | c", env)
    assert f == Equiv(Var("a"), Or((Var("b"), Var("c"))))
    f = parse_formula("(a | b) & c", env)
    assert f == And((Or((Var("a"), Var("b"))), Var("c")))


def test_parse_constants_and_errors():
    env = {"a": "a"}
    assert parse_formula("true", env) == Const(True)
    assert parse_formula("a -> false", env) == Implies(Var("a"), Const(False))
    with pytest.raises(UsageError):
        parse_formula("nosuch", env)
    with pytest.raises(UsageError):
        parse_formula("a &", env)
    with pytest.raises(UsageError):
        parse_formula("(a", env)
    # a constant's name cannot stand for a variable
    for const in ("true", "false"):
        with pytest.raises(UsageError, match="constants"):
            parse_formula(const, {const: "x"})


def test_a_hyphen_in_a_name_sits_between_word_characters():
    env = {n: n for n in ("a", "b", "a-b", "c-d-2", "a-", "a--b")}
    assert parse_formula("a->b", env) == Implies(Var("a"), Var("b"))
    assert parse_formula("a-b->c-d-2", env) == Implies(Var("a-b"), Var("c-d-2"))
    assert parse_formula("a-b<->~a", env) == Equiv(Var("a-b"), Not(Var("a")))
    for bad in ("a- > b", "a-", "-a", "a--b"):
        with pytest.raises(UsageError, match="bad text"):
            parse_formula(bad, env)


def test_empty_connectives_format_as_constants():
    # the empty conjunction is true and the empty disjunction false, in
    # text that parse_formula reads back
    assert format_formula(And(())) == "true"
    assert format_formula(Or(())) == "false"
    assert format_formula(Not(Or(()))) == "~false"
    assert format_formula(And((Or(()), Var("a")))) == "false & a"
    assert parse_formula(format_formula(Or(())), {}) == Const(False)
    assert parse_formula(format_formula(Implies(And(()), Or(()))), {}) == \
        Implies(Const(True), Const(False))


def test_format_round_trip():
    env = {n: n for n in "abc"}
    for text in ["a & b | c", "~(a | b)", "a -> b -> c", "a <-> ~b", "a & (b | c)"]:
        f = parse_formula(text, env)
        assert parse_formula(format_formula(f), env) == f


def test_deep_nesting_is_a_usage_error():
    env = {"a": "a"}
    for text in ("~" * 3000 + "a", "(" * 3000 + "a" + ")" * 3000,
                 " -> ".join("a" * 3000), " <-> ".join("a" * 3000)):
        with pytest.raises(UsageError, match="nested deeper"):
            parse_formula(text, env)
    # the limit itself parses
    assert parse_formula("~" * MAX_NESTING + "a", env) is not None
    assert parse_formula("(" * MAX_NESTING + "a" + ")" * MAX_NESTING, env) == Var("a")
    with pytest.raises(UsageError):
        parse_formula("~" * (MAX_NESTING + 1) + "a", env)


# -- enforce against the evaluate-everything-again original ----------------


def _old_enforce(f, want, lookup, assign):
    """enforce as it was before it passed values down: every call, the
    Implies rewrite and the Equiv sides evaluate their formula again."""
    cur = eval_formula(f, lookup)
    if cur is Bool3.of(want):
        return True
    if cur.known:
        return False
    if isinstance(f, Var):
        return assign(f.ref, want)
    if isinstance(f, Not):
        return _old_enforce(f.arg, not want, lookup, assign)
    if isinstance(f, (And, Or)):
        all_fixed = want if isinstance(f, And) else not want
        if all_fixed:
            return all(_old_enforce(a, want, lookup, assign) for a in f.args)
        open_args = [a for a in f.args if not eval_formula(a, lookup).known]
        if len(open_args) == 1:
            return _old_enforce(open_args[0], want, lookup, assign)
        return True
    if isinstance(f, Implies):
        return _old_enforce(Or((Not(f.lhs), f.rhs)), want, lookup, assign)
    va = eval_formula(f.lhs, lookup)
    vb = eval_formula(f.rhs, lookup)
    if va.known:
        return _old_enforce(f.rhs, (va is Bool3.TRUE) == want, lookup, assign)
    if vb.known:
        return _old_enforce(f.lhs, (vb is Bool3.TRUE) == want, lookup, assign)
    return True


class _LoggedEnv(_Env):
    def __init__(self, vals):
        super().__init__(**vals)
        self.log = []

    def assign(self, ref, flag):
        ok = super().assign(ref, flag)
        self.log.append((ref, flag, ok))
        return ok


_formulas = st.recursive(
    st.sampled_from("abcd").map(Var) | st.booleans().map(Const),
    lambda sub: (sub.map(Not)
                 | st.lists(sub, min_size=2, max_size=4).map(lambda a: And(tuple(a)))
                 | st.lists(sub, min_size=2, max_size=4).map(lambda a: Or(tuple(a)))
                 | st.tuples(sub, sub).map(lambda p: Implies(*p))
                 | st.tuples(sub, sub).map(lambda p: Equiv(*p))),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_formulas, st.booleans(),
       st.dictionaries(st.sampled_from("abcd"), st.sampled_from([T, F])))
def test_enforce_matches_the_original(f, want, vals):
    # same result, same leaves assigned in the same order with the same
    # outcomes, so the store's propagation counts cannot move
    new, old = _LoggedEnv(vals), _LoggedEnv(vals)
    assert enforce(f, want, new.look, new.assign) == _old_enforce(f, want, old.look, old.assign)
    assert new.log == old.log
    assert new.vals == old.vals


_readable = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,2}(?:-[A-Za-z0-9_]{1,2}){0,2}",
                          fullmatch=True).filter(lambda n: n not in ("true", "false"))
# names no text could read back as a variable: one in four leaves
_unreadable = st.sampled_from(("", "true", "false", "a b", " a", "a\n", "\t"))
_names = st.one_of(_readable, _readable, _readable, _unreadable)
# And and Or with no arm or at least two: one arm prints as the arm alone
_arms = st.sampled_from((0, 2, 3))
_named_formulas = st.recursive(
    _names.map(Var) | st.booleans().map(Const),
    lambda sub: (sub.map(Not)
                 | _arms.flatmap(lambda n: st.lists(sub, min_size=n, max_size=n))
                   .map(lambda a: And(tuple(a)))
                 | _arms.flatmap(lambda n: st.lists(sub, min_size=n, max_size=n))
                   .map(lambda a: Or(tuple(a)))
                 | st.tuples(sub, sub).map(lambda p: Implies(*p))
                 | st.tuples(sub, sub).map(lambda p: Equiv(*p))),
    max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(_named_formulas, st.data())
def test_format_then_parse_round_trips(f, data):
    # the text reads back to a formula that prints as the same text and
    # has the same Kleene value under every valuation drawn; a formula
    # with a name that could not read back is refused in writing, and a
    # name that is a constant in reading too
    env = {ref: ref for ref in f.leaves()}
    if any(not n or n in ("true", "false") or any(c.isspace() for c in n) for n in env):
        with pytest.raises(UsageError, match="variable name"):
            format_formula(f)
        if {"true", "false"} & env.keys():
            with pytest.raises(UsageError, match="constants"):
                parse_formula("true", env)
        return
    text = format_formula(f)
    back = parse_formula(text, env)
    assert format_formula(back) == text
    vals = data.draw(st.fixed_dictionaries({n: st.sampled_from([T, F, U]) for n in env}))
    assert eval_formula(back, vals.__getitem__) is eval_formula(f, vals.__getitem__)
