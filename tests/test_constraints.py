"""Constraint vocabulary: filtering strength and entailment answers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from clparse import (
    AskResult,
    Bool3,
    Implies,
    Not,
    Store,
    Var,
    all_distinct,
    bool_post,
    element,
    eq,
    in_relation,
    neq,
)
from clparse.constraints import BOUNDARY, BoolConstraint, spells
from clparse.grammar import load_grammar


def test_eq_var_var_intersects_both():
    s = Store()
    x = s.new_var([1, 2, 3])
    y = s.new_var([2, 3, 4])
    assert s.tell(eq(x, y))
    assert s.domain(x) == (2, 3)
    assert s.domain(y) == (2, 3)


def test_eq_var_const():
    s = Store()
    x = s.new_var([1, 2, 3])
    assert s.tell(eq(x, 2))
    assert s.value(x) == 2
    assert not s.tell(eq(x, 3))


def test_neq_waits_for_determination():
    s = Store()
    x = s.new_var([1, 2])
    y = s.new_var([1, 2])
    s.tell(neq(x, y))
    assert s.domain(x) == (1, 2)    # nothing determined yet
    s.tell(eq(x, 1))
    assert s.value(y) == 2


def test_all_distinct_with_constants():
    s = Store()
    x = s.new_var(["a", "b"])
    assert s.tell(all_distinct(x, "a"))
    assert s.value(x) == "b"
    y = s.new_var(["a", "b"])
    assert not s.tell(all_distinct(y, "a", "b"))


def test_all_distinct_two_equal_constants_inconsistent():
    s = Store()
    x = s.new_var(["a", "b", "c"])
    assert not s.tell(all_distinct(x, "a", "a"))


def test_all_distinct_entailment():
    s = Store()
    x = s.new_var(["a", "b"], closed=True)
    y = s.new_var(["c"], closed=True)
    assert s.ask(all_distinct(x, y)) is AskResult.ENTAILED
    z = s.new_var(["a", "c"], closed=True)
    assert s.ask(all_distinct(x, z)) is AskResult.UNKNOWN
    w = s.new_var(["a"], closed=True)
    v = s.new_var(["a"], closed=True)
    assert s.ask(all_distinct(w, v)) is AskResult.DISENTAILED


def test_element_restricts_at_post():
    s = Store()
    x = s.new_var(["NP", "VP", "S"])
    assert s.tell(element(x, ["NP", "VP"]))
    assert s.domain(x) == ("NP", "VP")
    assert not s.tell(element(x, ["S"]))


# Words sharing prefixes, with what each may be rewritten to
SYMBOLS_OF = {("A",): {"S"}, ("A", "B"): {"S", "T"}, ("A", "B", "C"): {"S"},
              ("B", "A"): {"S"}, ("C",): {"T"}}
WORDS = load_grammar("start S. rule S -> A. rule S -> A B. rule S -> A B C. "
                     "rule S -> B A. rule T -> A B. rule T -> C.").rhs_trie
SYMBOLS = (BOUNDARY, "A", "B", "C", "S", "T")
# anything may follow anything, so that only the spelling counts
OPEN = {x: frozenset(SYMBOLS) for x in SYMBOLS}


def test_spells_keeps_the_windows_that_spell_a_word():
    s = Store()
    whole = ("A", "B", "C", "A")
    w = s.new_var([(va, vb) for va in range(4) for vb in range(1, 5 - va)], name="w")
    assert s.tell(spells(w, whole, WORDS, OPEN))
    assert s.domain(w) == ((0, 1), (0, 2), (0, 3), (2, 1), (3, 1))
    assert not s.tell(spells(w, ("B", "B", "B", "B"), WORDS, OPEN))
    assert s.domain(w) == ((0, 1), (0, 2), (0, 3), (2, 1), (3, 1))


def test_spells_keeps_a_window_only_where_its_word_fits():
    # S may begin, follow C and stand before C or the end; T may follow B
    # and stand only at the end.  Of the five spelled windows, A B as S
    # fits before C, and the last A as S after C and at the end; the C
    # as T would stand before an A.
    follows = {BOUNDARY: {"A", "S"}, "A": {"B", "T"}, "B": {"C", "T"}, "C": {"A", "S"},
               "S": {"C", BOUNDARY}, "T": {BOUNDARY}}
    s = Store()
    w = s.new_var([(va, vb) for va in range(4) for vb in range(1, 5 - va)], name="w")
    assert s.tell(spells(w, ("A", "B", "C", "A"), WORDS, follows))
    assert s.domain(w) == ((0, 2), (3, 1))


def test_spells_leaves_the_trie_out_of_equality_and_repr():
    s = Store()
    w = s.new_var([(0, 1)], name="w")
    other = load_grammar("start S. rule S -> Q.")
    c = spells(w, ["A"], WORDS, OPEN)
    same = spells(w, ("A",), other.rhs_trie, other.follows)
    assert c == same and hash(c) == hash(same)
    assert c != spells(w, ("B",), WORDS, OPEN)
    assert repr(c) == "Spells(w=w, whole=('A',))"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from("ABC"), max_size=6).map(tuple),
       st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1),
       st.sets(st.tuples(st.sampled_from(SYMBOLS), st.sampled_from(SYMBOLS))))
def test_spells_filter_matches_brute_force(whole, windows, pairs):
    # the domain may hold windows past the end of `whole` and empty ones;
    # a window is kept when one of its word's symbols may stand between
    # the window's neighbours by the drawn pairs
    s = Store()
    w = s.new_var(sorted(windows), name="w")
    c = spells(w, whole, WORDS, {x: {b for a, b in pairs if a == x} for x in SYMBOLS})
    ends = (BOUNDARY,) + whole + (BOUNDARY,)
    kept = [x for x in sorted(windows) if c.holds({w: x}, s)]
    assert kept == [(va, vb) for va, vb in sorted(windows)
                    if vb and va + vb <= len(whole) and any(
                        (ends[va], x) in pairs and (x, ends[va + vb + 1]) in pairs
                        for x in SYMBOLS_OF.get(whole[va:va + vb], ()))]
    assert s.tell(c) == bool(kept)
    assert s.domain(w) == (tuple(kept) if kept else tuple(sorted(windows)))


def test_bool_constraint_propagates():
    s = Store()
    p = s.new_bool("p")
    q = s.new_bool("q")
    s.tell(bool_post(Implies(Var(p), Var(q))))
    s.tell(bool_post(Var(p)))
    assert s.bool_value(q) is Bool3.TRUE


def test_bool_constraint_detects_clash():
    s = Store()
    p = s.new_bool("p")
    s.tell(bool_post(Var(p)))
    assert not s.tell(bool_post(Not(Var(p))))
    assert s.bool_value(p) is Bool3.TRUE


def test_bool_ask_three_valued():
    s = Store()
    p = s.new_bool("p")
    q = s.new_bool("q")
    c = BoolConstraint(Implies(Var(p), Var(q)))
    assert s.ask(c) is AskResult.UNKNOWN
    s.set_bool(p, False)
    assert s.ask(c) is AskResult.ENTAILED


def test_in_relation_prunes_key_too_late_not_at_all():
    # before resolvability nothing is pruned, even with facts present
    s = Store()
    u = s.new_var([1, 2, 3])
    v = s.new_var(["k"])
    r = s.new_relation("r", 2)
    r.add(1, "k")
    s.tell(in_relation(u, (v,), r))
    assert s.domain(u) == (1, 2, 3)
    r.close_group("k")
    assert s.domain(u) == (1, 2, 3)     # domain of v still open
    s.close_domain(v)
    assert s.domain(u) == (1,)
    assert s.is_complete(u)


def test_in_relation_entailment_after_resolution():
    s = Store()
    u = s.new_var([1, 2])
    v = s.new_var(["k"], closed=True)
    r = s.new_relation("r", 2)
    r.add(1, "k")
    r.add(2, "k")
    c = in_relation(u, (v,), r)
    s.tell(c)
    r.close_group("k")
    assert s.ask(c) is AskResult.ENTAILED
