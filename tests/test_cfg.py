import ast
import functools
import gc
import math
import random
from dataclasses import asdict

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import counters
from clparse import cfg
from clparse.cfg import (
    Search,
    derivations_to_tree,
    format_derivation,
    oracle_parse,
    parse,
)
from clparse.constraints import spells
from clparse.errors import UsageError
from clparse.grammar import load_grammar, load_grammar_file
from clparse.store import Store

SENT7, DEAD9, DEAD11 = (tuple(s.split()) for s in (counters.A1, counters.DEAD9, counters.DEAD11))

# The three answers for SENT7, in enumeration order.  Frozen from a
# hand trace of the window scan (origin ascending, size ascending,
# rules in file order) over the six-rule grammar.
T1 = (("NP", ("Det", "Nm")), ("NP", ("Det", "Nm")), ("NP", ("Nm",)),
      ("PP", ("Prep", "NP")), ("VP", ("Vb", "NP", "PP")), ("S", ("NP", "VP")))
T2 = (("NP", ("Det", "Nm")), ("NP", ("Nm",)), ("NP", ("Det", "Nm")),
      ("PP", ("Prep", "NP")), ("VP", ("Vb", "NP", "PP")), ("S", ("NP", "VP")))
T3 = (("NP", ("Det", "Nm")), ("NP", ("Nm",)), ("PP", ("Prep", "NP")),
      ("NP", ("Det", "Nm")), ("VP", ("Vb", "NP", "PP")), ("S", ("NP", "VP")))

T1_TEXT = ("<<NP>, <Det,Nm>, <NP>, <Det,Nm>, <NP>, <Nm>, <PP>, <Prep,NP>, "
           "<VP>, <Vb,NP,PP>, <S>, <NP,VP>>")


@pytest.fixture(scope="module")
def toy():
    return load_grammar_file("grammars/toy.clg")


def test_first_three_answers(toy):
    derivs, _ = parse(SENT7, toy)
    assert derivs[:3] == (T1, T2, T3)
    assert len(derivs) > 3   # the answer list goes on past the printed ones


def test_every_derivation_ends_at_the_root(toy):
    derivs, _ = parse(SENT7, toy)
    assert all(d[-1] == ("S", ("NP", "VP")) for d in derivs)


def test_one_tree_many_derivations(toy):
    derivs, _ = parse(SENT7, toy)
    trees = {derivations_to_tree(d, SENT7) for d in derivs}
    assert len(trees) == 1
    (tree,) = trees
    assert tree[0] == "S"

    def leaves(node):
        label, children = node
        return (label,) if not children else sum(map(leaves, children), ())

    assert leaves(tree) == SENT7


def test_reductions_can_begin_anywhere(toy):
    # starting with the second Det,Nm yields the same step sequence as
    # T1, so the answer list reports it twice
    derivs, _ = parse(SENT7, toy)
    assert derivs.count(T1) >= 2
    g = load_grammar("rule S -> A NP. rule NP -> B C. start S.")
    derivs, _ = parse(("A", "B", "C"), g)
    assert derivs == ((("NP", ("B", "C")), ("S", ("A", "NP"))),)


def test_single_start_symbol_is_an_empty_derivation(toy):
    derivs, _ = parse(("S",), toy)
    assert derivs == ((),)
    assert format_derivation(()) == "<>"
    assert derivations_to_tree((), ("S",)) == ("S", ())


def test_minimal_grammar():
    g = load_grammar("rule S -> A B. start S.")
    derivs, _ = parse(("A", "B"), g)
    assert derivs == ((("S", ("A", "B")),),)
    assert parse(("B", "A"), g)[0] == ()


def test_ungrammatical_input_is_empty_not_an_error(toy):
    assert parse(("Prep",), toy)[0] == ()
    assert oracle_parse(("Prep",), toy) == ()


def test_unknown_category_rejected(toy):
    with pytest.raises(UsageError):
        parse(("Det", "Foo"), toy)
    with pytest.raises(UsageError):
        parse((), toy)
    with pytest.raises(UsageError, match="unknown strategy"):
        parse(("Det",), toy, strategy="eager")


def test_strategies_agree_on_answers(toy):
    for cats in (SENT7, ("Det", "Nm"), ("NP", "VP"), ("Det", "Adj", "Nm", "Vb")):
        active, sa = parse(cats, toy, strategy="active")
        gentest, sg = parse(cats, toy, strategy="gentest")
        assert active == gentest
        assert sa.windows_tried <= sg.windows_tried
        assert sa.reductions_applied <= sg.reductions_applied
        assert sa.backtracks <= sg.backtracks
    sa = parse(SENT7, toy, strategy="active")[1]
    sg = parse(SENT7, toy, strategy="gentest")[1]
    assert sa.windows_tried < sg.windows_tried


def _pinned(cats, strategy, limit=None) -> dict:
    """The counter table's row for this parse on the toy grammar."""
    return counters.pinned("toy", "cfg", cats, strategy, limit)


def test_window_counts_by_hand(toy):
    # the counter table's rows for <NP,VP> give the windows each
    # strategy tries, counted by hand there
    for strategy in ("active", "gentest"):
        derivs, stats = parse(("NP", "VP"), toy, strategy=strategy)
        assert derivs == ((("S", ("NP", "VP")),),)
        assert asdict(stats) == _pinned(("NP", "VP"), strategy)


def test_stats_counters(toy):
    _, active = parse(DEAD9, toy, strategy="active")
    _, gentest = parse(DEAD9, toy, strategy="gentest")
    assert active.propagation_steps > 0
    assert gentest.propagation_steps == 0
    assert active.backtracks > 0
    assert active.reductions_applied > 0


def test_oracle_agreement_on_random_inputs(toy):
    rng = random.Random(11)
    alphabet = ("Det", "Nm", "Vb", "Prep", "Adj")
    for _ in range(60):
        n = rng.randint(1, 6)
        cats = tuple(rng.choice(alphabet) for _ in range(n))
        assert parse(cats, toy)[0] == oracle_parse(cats, toy)


def test_oracle_length_cap(toy):
    with pytest.raises(UsageError):
        oracle_parse(("Det",) * 13, toy)


def test_unary_chain_guard():
    g = load_grammar("rule S -> X A. rule X -> A. rule X -> X. start S.")
    derivs, _ = parse(("A", "A"), g)
    assert derivs == (((("X", ("A",))), ("S", ("X", "A"))),)
    assert oracle_parse(("A", "A"), g) == derivs
    g2 = load_grammar("rule X -> A. rule X -> X. start X.")
    derivs, _ = parse(("A",), g2)
    assert derivs == ((("X", ("A",)),),)


def test_limit(toy):
    derivs, _ = parse(SENT7, toy, limit=2)
    assert derivs == (T1, T2)
    assert parse(SENT7, toy, limit=0)[0] == ()
    full = parse(SENT7, toy)[0]
    assert parse(SENT7, toy, limit=len(full) + 5)[0] == full


def test_replay_backtracks_over_positions(toy):
    # T2's second step matches an earlier Nm than the one actually
    # reduced; a greedy leftmost replay would get stuck
    tree = derivations_to_tree(T2, SENT7)
    assert tree == derivations_to_tree(T1, SENT7)
    with pytest.raises(UsageError):
        derivations_to_tree(T1, ("Det", "Nm"))


def test_format_and_parse_derivation(toy):
    # the text form the CLI prints for the first answer of parse
    assert format_derivation(T1) == T1_TEXT
    derivs, _ = parse(SENT7, toy)
    assert format_derivation(derivs[0]) == T1_TEXT


# -- exact counters --------------------------------------------------------
# The counts are rows of tests/counters.py, which says why they are what
# they are.


def test_pinned_counters(toy):
    # A1 and its dead ends, under both strategies
    for cats, found in ((SENT7, 15), (DEAD9, 0), (DEAD11, 0)):
        for strategy in ("active", "gentest"):
            derivs, stats = parse(cats, toy, strategy=strategy)
            assert len(derivs) == found
            assert asdict(stats) == _pinned(cats, strategy)


@pytest.mark.parametrize("strategy,limit,counts", [
    (strategy, limit, _pinned(SENT7, strategy, limit))
    for strategy in ("active", "gentest") for limit in (1, 2, 5)
])
def test_pinned_counters_where_the_limit_stops_a_scan(toy, strategy, limit, counts):
    derivs, stats = parse(SENT7, toy, strategy=strategy, limit=limit)
    assert len(derivs) == limit
    assert asdict(stats) == counts


def test_active_reduces_only_the_rules_that_fit_a_shared_window():
    # X and Y share the right-hand side A, and only X may stand before B:
    # active reduces X alone, where gentest also makes the dead Y B
    g = load_grammar(counters.SHARED)
    want = ((("X", ("A",)), ("S", ("X", "B"))),)
    for strategy in ("active", "gentest"):
        derivs, stats = parse(("A", "B"), g, strategy=strategy)
        assert derivs == want
        assert asdict(stats) == counters.pinned("shared", "cfg", "A B", strategy)


def test_limit_bounds_the_work(toy):
    # the search stops as soon as `limit` derivations are found, counting
    # all of them under a state it meets again.  Gentest scans dead
    # states after the last derivation; active scans none on A1, so a
    # limit of the derivation count saves it nothing.
    for strategy in ("active", "gentest"):
        derivs, full = parse(SENT7, toy, strategy=strategy)
        for k in (1, 2, len(derivs)):
            stats = parse(SENT7, toy, strategy=strategy, limit=k)[1]
            if strategy == "active" and k == len(derivs):
                assert stats == full
                continue
            assert stats.windows_tried < full.windows_tried
            assert stats.reductions_applied < full.reductions_applied


def test_a_parse_leaves_no_garbage(toy):
    # neither the forest nor the search's store has reference cycles,
    # so they go when parse returns instead of waiting for the cyclic
    # collector
    gc.collect()
    gc.disable()
    try:
        for strategy in ("active", "gentest"):
            parse(DEAD9, toy, strategy=strategy)
            assert gc.collect() == 0, strategy
    finally:
        gc.enable()


def _store_work(lines: list) -> int:
    """Spells posts in a trace."""
    return sum(ln.startswith("EVENT post Spells(") for ln in lines)


def _count_stores(monkeypatch) -> list:
    """The stores cfg makes from now on."""
    stores = []
    monkeypatch.setattr(cfg, "Store", lambda **kw: stores.append(Store(**kw)) or stores[-1])
    return stores


def _posted(lines: list) -> list:
    """The sequences named by the Spells posts in a trace, in order."""
    head, tail = "EVENT post Spells(w=w, whole=", ") - -"
    return [ast.literal_eval(ln[len(head):-len(tail)]) for ln in lines if ln.startswith(head)]


def test_one_window_post_per_distinct_sequence(toy, monkeypatch):
    # active makes one store per search and posts one Spells, naming a
    # sequence, per distinct sequence scanned but the goal S, whose
    # windows are tabled as none: the 18 states scanned hold 15
    # sequences, and a state whose sequence was solved before reads its
    # windows from the search's table
    stores = _count_stores(monkeypatch)
    lines = []
    search = Search(toy, "active", trace=lines.append)
    assert tuple(search.derivations(SENT7)) == oracle_parse(SENT7, toy)
    assert len(stores) == 1
    assert len(search.memo) == 18
    assert asdict(search.stats) == _pinned(SENT7, "active")
    assert _store_work(lines) == len({seq for seq, _ in search.memo} - {("S",)}) == \
        search.stats.propagation_steps
    assert f"EVENT post Spells(w=w, whole={SENT7!r}) - -" in lines


@pytest.mark.parametrize("cats,sequences", [
    (cats, _pinned(cats, "active")["propagation_steps"]) for cats in (SENT7, DEAD9, DEAD11)
], ids=["A1", "dead9", "dead11"])
def test_spells_posts_are_the_distinct_sequences_scanned(toy, cats, sequences):
    # every state is scanned once (no limit), so the memo holds them all;
    # each of their sequences but the goal S is posted exactly once, at
    # its first scan
    lines = []
    search = Search(toy, "active", trace=lines.append)
    tuple(search.derivations(cats))
    posted = _posted(lines)
    assert len(posted) == search.stats.propagation_steps == sequences
    assert sorted(posted) == sorted({seq for seq, _ in search.memo} - {("S",)})
    # the table holds each sequence once, by the copy the memo keeps
    kept = {id(seq) for seq, _ in search.memo}
    assert all(id(seq) in kept for seq in search.table)


def test_limited_parse_counts_the_store_work_done(toy):
    # the store counts into the search's stats as it works, so a parse
    # stopped by `limit` reports the posts made before it stopped
    full = parse(SENT7, toy)[1].propagation_steps
    for k in (1, 2, 3):
        lines = []
        derivs, stats = parse(SENT7, toy, limit=k, trace=lines.append)
        assert len(derivs) == k
        assert 0 < stats.propagation_steps == _store_work(lines) < full


def test_a_failing_window_solve_traces_the_wipe_out_and_two_fails(toy):
    # DEAD9's one failing solve is NP Vb NP Prep NP PP: its Spells prunes
    # w to nothing, and the trace names the failure twice, once for the
    # filter's run and once for the tell
    lines = []
    parse(DEAD9, toy, trace=lines.append)
    whole = "Spells(w=w, whole=('NP', 'Vb', 'NP', 'Prep', 'NP', 'PP')) - -"
    at = lines.index(f"EVENT post {whole}")
    assert lines[at + 1].startswith("EVENT prune w {(0, 1),") and lines[at + 1].endswith("} {}")
    assert lines[at + 2:at + 4] == [f"EVENT fail {whole}"] * 2
    assert len(lines) == 50
    assert [ln for ln in lines if ln.startswith("EVENT fail")] == [f"EVENT fail {whole}"] * 2


def test_a_search_reused_with_a_longer_root(toy, monkeypatch):
    # a longer root widens the window domain with a new store; a shorter
    # one reuses the store it has
    stores = _count_stores(monkeypatch)
    search = Search(toy, "active")
    for cats, made in ((("NP", "VP"), 1), (SENT7, 2), (("Det", "Nm", "VP"), 2),
                       (DEAD9, 3), (("Nm", "Vb", "Nm", "Prep", "Det", "Adj", "Nm"), 3)):
        assert tuple(search.derivations(cats)) == oracle_parse(cats, toy), cats
        assert len(stores) == made


def _spelled(seq, rhss) -> tuple:
    """Every (origin, size) whose slice is in rhss, in scan order."""
    return tuple((va, vb) for va in range(len(seq)) for vb in range(1, len(seq) - va + 1)
                 if seq[va:va + vb] in rhss)


words = st.lists(st.sampled_from("ABC"), min_size=1, max_size=4).map(tuple)


@settings(max_examples=300, deadline=None)
@given(st.lists(words, min_size=1, max_size=5), st.data())
def test_active_windows_are_those_that_spell_a_rule(drawn, data):
    # a prefix of each drawn right-hand side is one too, so the words
    # share prefixes; a sequence, two shorter ones and a longer one are
    # checked.  With S -> S S the sentential forms are the strings of
    # words and S's, so two symbols stand side by side when a word holds
    # them so, or when the first may end a word (or is S) and the second
    # may begin one (or is S); either end of a form is a word's or S.
    # Active keeps a spelled window when its sequence has only such
    # neighbours, which `could_be_sentential` checks once per root, and
    # S may stand between the window's neighbours, which a `Spells` tell
    # checks on a store whose w ranges over every window.  Gentest's
    # trie walk finds every spelled window.
    rhss = set(drawn) | {r[:data.draw(st.integers(1, len(r)))] for r in drawn}
    g = load_grammar("start S. rule S -> S S. "
                     + " ".join(f"rule S -> {' '.join(r)}." for r in sorted(rhss)))
    lasts = {r[-1] for r in rhss} | {"S", ""}
    firsts = {r[0] for r in rhss} | {"S", ""}
    inside = {pair for r in rhss for pair in zip(r, r[1:])}

    def stand(a, b):
        return (a, b) in inside or (a in lasts and b in firsts)

    seq = tuple(data.draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=9)))
    for cats in (seq, seq[1:], seq[:-1], seq + seq[:3]):
        if cats:
            ends = ("",) + cats + ("",)
            assert g.could_be_sentential(cats) == all(map(stand, ends, ends[1:]))
            store = Store()
            w = store.new_var(_every_window(len(cats)), name="w")
            kept = store.domain(w) if store.tell(spells(w, cats, g.rhs_trie, g.follows)) else ()
            assert kept == tuple((va, vb) for va, vb in _spelled(cats, rhss)
                                 if stand(ends[va], "S") and stand("S", ends[va + vb + 1]))
            assert tuple(cfg._spelled(cats, g.rhs_trie)) == _spelled(cats, rhss)


# -- the windows on grammars whose rule lengths have gaps --------------------

GAP13 = """start S.
rule S -> NP V NP.
rule NP -> N.
rule NP -> NP P NP.
rule V -> W."""
GAP13_SENTS = (("N", "W", "N"), ("N", "W", "N", "P", "N"),
               ("N", "P", "N", "W", "N"), ("N", "P", "N", "W", "N", "P", "N"))

GAP24 = """start S.
rule S -> NP VP.
rule NP -> D N.
rule VP -> V NP.
rule VP -> VP PP.
rule VP -> V NP P NP.
rule PP -> P NP."""
GAP24_SENTS = (("D", "N", "V", "D", "N"), ("D", "N", "V", "D", "N", "P", "D", "N"))


@pytest.mark.parametrize("text,lengths,sents", [
    (GAP13, {1, 3}, GAP13_SENTS),
    (GAP24, {2, 4}, GAP24_SENTS),
], ids=["lengths13", "lengths24"])
def test_split_table_properties(text, lengths, sents):
    g = load_grammar(text)
    assert g.rhs_lengths() == lengths
    alphabet = sorted({c for s in sents for c in s})
    rng = random.Random(len(text))
    inputs = list(sents) + [tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
                            for _ in range(40)]
    found = 0
    for cats in inputs:
        full = {}
        for strategy in ("active", "gentest"):
            derivs, stats = parse(cats, g, strategy=strategy)
            assert parse(cats, g, strategy=strategy) == (derivs, stats)
            for k in (1, 2, 5) if derivs else ():
                assert parse(cats, g, strategy=strategy, limit=k)[0] == derivs[:k]
            full[strategy] = derivs, stats
        (da, sa), (dg, sg) = full["active"], full["gentest"]
        assert da == dg == oracle_parse(cats, g)
        assert sa.reductions_applied <= sg.reductions_applied
        assert sa.backtracks <= sg.backtracks
        assert sa.windows_tried <= sg.windows_tried
        found += len(da) > 0
    assert found >= len(sents)


@pytest.mark.parametrize("text,lengths", [
    ("start S. rule S -> A B C. rule S -> A.", {1, 3}),
    ("start S. rule S -> A B. rule S -> A B C D.", {2, 4}),
], ids=["lengths13", "lengths24"])
def test_window_counts_closed_form_without_matches(text, lengths):
    # no window of C's matches a rule, so only the root node scans, and
    # active tries none of its windows: no sentential form begins with
    # a C, so the root fails its adjacency check and is never posted
    g = load_grammar(text)
    assert g.rhs_lengths() == lengths
    for l in range(1, 9):
        cats = ("C",) * l
        derivs, sa = parse(cats, g, strategy="active")
        _, sg = parse(cats, g, strategy="gentest")
        assert derivs == ()
        assert (sa.windows_tried, sa.propagation_steps) == (0, 0)
        assert sg.windows_tried == l * (l + 1) // 2
        assert sa.reductions_applied == sg.reductions_applied == 0


# -- unary chains and cycles, as a property ----------------------------------

CATS = ("S", "A", "B", "C")
rhs = st.lists(st.sampled_from(CATS), min_size=1, max_size=3).map(tuple)
unary_cycle = st.tuples(st.sampled_from(CATS), st.sampled_from(CATS)).filter(
    lambda pair: pair[0] != pair[1])
grammars = st.tuples(
    st.lists(st.tuples(st.sampled_from(CATS), rhs), min_size=1, max_size=5),
    st.lists(unary_cycle, max_size=2))


def _load(rules, cycles):
    """The rules and, for each pair X, Y, the cycle X -> Y, Y -> X;
    the first rule's left-hand side is the start."""
    rules = list(rules) + [r for x, y in cycles for r in (((x, (y,))), (y, (x,)))]
    return load_grammar(f"start {rules[0][0]}. " + " ".join(
        f"rule {lhs} -> {' '.join(rhs)}." for lhs, rhs in rules))


def _oracle_nodes(cats, g, cap: int) -> int:
    """How many nodes oracle_parse's unshared search visits, counted up
    to cap + 1: unary cycles can make it factorial in the length."""
    count, stack = 0, [(cats, frozenset())]
    while stack and count <= cap:
        seq, seen = stack.pop()
        count += 1
        for va in range(len(seq)):
            for vb in range(1, len(seq) - va + 1):
                for rule in g.rules_matching(seq[va:va + vb]):
                    mark = (va, rule.lhs)
                    if vb == 1 and mark not in seen:
                        stack.append((seq[:va] + (rule.lhs,) + seq[va + 1:], seen | {mark}))
                    elif vb > 1:
                        stack.append((seq[:va] + (rule.lhs,) + seq[va + vb:], frozenset()))
    return count


def _first_derivations(cats, g) -> dict:
    """Each tree of the unshared search mapped to its first derivation,
    in depth-first scan order: a brute force over every derivation,
    building the tree along each one."""
    out = {}

    def walk(nodes, path, seen):
        seq = tuple(label for label, _ in nodes)
        if seq == (g.start,):
            out.setdefault(nodes[0], path)
        for va in range(len(seq)):
            for vb in range(1, len(seq) - va + 1):
                window = seq[va:va + vb]
                for rule in g.rules:
                    mark = (va, rule.lhs)
                    if rule.rhs != window or (vb == 1 and mark in seen):
                        continue
                    walk(nodes[:va] + ((rule.lhs, nodes[va:va + vb]),) + nodes[va + vb:],
                         path + ((rule.lhs, window),),
                         seen | {mark} if vb == 1 else frozenset())

    walk(tuple((c, ()) for c in cats), (), frozenset())
    return out


@settings(max_examples=300, deadline=None)
@given(grammars, st.data())
def test_forest_matches_the_oracle_with_unary_cycles(grammar, data):
    g = _load(*grammar)
    names = [c.name for c in g.categories()]
    cats = tuple(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=7)))
    assume(_oracle_nodes(cats, g, 500) <= 500)
    # active scans no state gentest does not, and tries and reduces no
    # more there: a state it passes over is dead, and so is every state
    # below it, so gentest's extra scans never add a derivation
    want = oracle_parse(cats, g)
    trees = list(_first_derivations(cats, g).items())
    for k in (None, *range(1, len(want) + 2)):
        stats = {}
        for strategy in ("active", "gentest"):
            got, stats[strategy] = parse(cats, g, strategy=strategy, limit=k)
            assert got == want[:k]
        sa, sg = stats["active"], stats["gentest"]
        assert sa.windows_tried <= sg.windows_tried
        assert sa.reductions_applied <= sg.reductions_applied
        assert sa.backtracks <= sg.backtracks
    for strategy in ("active", "gentest"):
        assert list(Search(g, strategy).trees(cats)) == trees
    # the same grammar with a drawn rule's right-hand side given to a
    # second left-hand side: active reduces only the rules of a window
    # that fit between its neighbours, so no state it makes below the
    # root fails the neighbour check
    rules, cycles = grammar
    lhs, rhs = data.draw(st.sampled_from(rules))
    twin = data.draw(st.sampled_from([c for c in CATS if c != lhs]))
    shared = _load(list(rules) + [(twin, rhs)], cycles)
    if _oracle_nodes(cats, shared, 500) <= 500:
        search = Search(shared, "active")
        assert tuple(search.derivations(cats)) == oracle_parse(cats, shared)
        assert all(shared.could_be_sentential(seq) for seq, seen in search.memo
                   if (seq, seen) != (cats, frozenset()))


def _active_windows(seq, g) -> list:
    """The windows active tries on seq, each with the rules it reduces
    there, in file order: none if seq could not be sentential, else
    those where a rule makes a sequence that could be, with those rules."""
    if not g.could_be_sentential(seq):
        return []
    out = []
    for va in range(len(seq)):
        for vb in range(1, len(seq) - va + 1):
            rules = [r for r in g.rules if r.rhs == seq[va:va + vb]
                     and g.could_be_sentential(seq[:va] + (r.lhs,) + seq[va + vb:])]
            if rules:
                out.append(((va, vb), rules))
    return out


def _neighbours(rules, start, longest: int) -> set:
    """Every two neighbours, "" past either end, in the sentential forms
    of start no longer than `longest`: a walk that rewrites one category
    at a time.  No right-hand side is empty, so a form never gets
    shorter, and the walk meets every form within the bound."""
    by_lhs = {}
    for lhs, rhs in rules:
        by_lhs.setdefault(lhs, []).append(tuple(rhs))
    forms, todo = {(start,)}, [(start,)]
    while todo:
        form = todo.pop()
        for i, cat in enumerate(form):
            for rhs in by_lhs.get(cat, ()):
                new = form[:i] + rhs + form[i + 1:]
                if len(new) <= longest and new not in forms:
                    forms.add(new)
                    todo.append(new)
    return {pair for form in forms for pair in zip(("",) + form, form + ("",))}


def _compiled(g) -> set:
    return {(a, b) for a, after in g.follows.items() for b in after}


@pytest.mark.parametrize("source", [
    "grammars/toy.clg", "bench/lex.clg",
    # T is not reachable from S, so B A stands side by side in no form
    "start S. rule S -> A B. rule S -> A S. rule T -> B A.",
], ids=["toy", "lex", "unreachable"])
def test_compiled_neighbours_are_those_of_the_sentential_forms(source):
    # every pair the compiled table holds shows up in a form of at most
    # 9 categories, and every pair of such a form is in the table: in
    # toy.clg no two PPs stand side by side and no form ends in Prep
    g = load_grammar_file(source) if source.endswith(".clg") else load_grammar(source)
    rules = [(r.lhs, r.rhs) for r in g.rules]
    assert _compiled(g) == _neighbours(rules, g.start, 9)
    if source == "grammars/toy.clg":
        assert ("PP", "PP") not in _compiled(g) and ("Prep", "") not in _compiled(g)


def test_a_sequence_with_neighbours_no_form_has_could_not_be_sentential(toy):
    assert toy.could_be_sentential(SENT7) and toy.could_be_sentential(("S",))
    assert toy.could_be_sentential(("NP", "Vb", "NP", "PP"))
    assert not toy.could_be_sentential(("NP", "Vb", "NP", "PP", "PP"))
    assert not toy.could_be_sentential(SENT7 + ("Prep",))
    assert not toy.could_be_sentential(("VP", "NP"))
    assert not toy.could_be_sentential(())


@settings(max_examples=300, deadline=None)
@given(grammars)
def test_compiled_neighbours_cover_the_sentential_forms(grammar):
    rules, cycles = grammar
    rules = list(rules) + [r for x, y in cycles for r in ((x, (y,)), (y, (x,)))]
    assert _neighbours(rules, rules[0][0], 6) <= _compiled(_load(*grammar))


def _scan_order(cats, g, limit) -> list:
    """The states whose scan begins under active, in order, when the
    search stops once `limit` derivations are found: a plain depth-first
    walk in scan order over the windows active tries, that counts a
    finished state's derivations instead of walking it again, with the
    counts from a recursion of its own."""
    def children(state):
        seq, seen = state
        for (va, vb), rules in _active_windows(seq, g):
            for rule in rules:
                mark = (va, rule.lhs)
                if not (vb == 1 and mark in seen):
                    yield (seq[:va] + (rule.lhs,) + seq[va + vb:],
                           seen | {mark} if vb == 1 else frozenset())

    @functools.cache
    def count(state):
        return (state[0] == (g.start,)) + sum(map(count, children(state)))

    wanted = math.inf if limit is None else limit
    done, order, found = set(), [], 0

    def visit(state) -> bool:
        nonlocal found
        if state in done:
            found += count(state)
            return found >= wanted
        if state[0] == (g.start,):
            found += 1
            if found >= wanted:
                return True
        order.append(state)
        if any(visit(child) for child in children(state)):
            return True
        done.add(state)
        return False

    visit((cats, frozenset()))
    return order


@settings(max_examples=200, deadline=None)
@given(grammars, st.data())
def test_active_solves_each_distinct_sequence_once(grammar, data):
    # the windows of a sequence are solved at its first scan and read
    # from the search's table by every later state with that sequence;
    # a sequence that could not be sentential is never posted, nor is the
    # goal when no right-hand side begins with the start category, and
    # with a limit, a state the search stops at before its scan posts
    # nothing (no store is made while no rule length fits the root)
    g = _load(*grammar)
    names = [c.name for c in g.categories()]
    cats = tuple(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=7)))
    assume(_oracle_nodes(cats, g, 500) <= 500)
    want = oracle_parse(cats, g)
    stored = len(cats) >= min(g.rhs_lengths())
    dead_goal = {(g.start,)} - {r.rhs[:1] for r in g.rules}
    for limit in (None, *range(1, len(want) + 2)):
        lines = []
        got, stats = parse(cats, g, limit=limit, trace=lines.append)
        assert got == want[:limit]
        order = _scan_order(cats, g, limit)
        sequences = [seq for seq in dict.fromkeys(seq for seq, _ in order)
                     if stored and g.could_be_sentential(seq) and seq not in dead_goal]
        assert _posted(lines) == sequences
        assert stats.propagation_steps == len(sequences)
        if limit is None:
            assert stats.windows_tried == sum(len(_active_windows(seq, g)) for seq, _ in order)


# -- gentest counts every window, those its trie walk passes over too -------

def _every_window(l: int) -> tuple:
    return tuple((va, vb) for va in range(l) for vb in range(1, l - va + 1))


def _gentest_counts(cats, g, limit) -> tuple[int, int, int]:
    """(windows_tried, reductions_applied, backtracks) of a gentest search
    stopped once `limit` derivations are found: a plain depth-first walk
    that tries every window of a state in scan order against every rule,
    and counts a finished state's derivations instead of walking it
    again.  A scan stopped in a window counts the windows up to and
    including it."""
    def children(state):
        seq, seen = state
        for i, (va, vb) in enumerate(_every_window(len(seq))):
            for rule in g.rules:
                mark = (va, rule.lhs)
                if rule.rhs == seq[va:va + vb] and not (vb == 1 and mark in seen):
                    yield i, (seq[:va] + (rule.lhs,) + seq[va + vb:],
                              seen | {mark} if vb == 1 else frozenset())

    @functools.cache
    def count(state):
        return (state[0] == (g.start,)) + sum(count(child) for _, child in children(state))

    wanted = math.inf if limit is None else limit
    done, found, tally = set(), 0, [0, 0, 0]

    def visit(state) -> bool:
        nonlocal found
        if state in done:
            found += count(state)
            return found >= wanted
        if state[0] == (g.start,):
            found += 1
            if found >= wanted:
                return True
        for i, child in children(state):
            tally[1] += 1
            if visit(child):
                tally[0] += i + 1
                return True
        tally[0] += len(_every_window(len(state[0])))
        tally[2] += not count(state)
        done.add(state)
        return False

    visit((cats, frozenset()))
    return tuple(tally)


@settings(max_examples=200, deadline=None)
@given(grammars, st.data())
def test_gentest_counts_every_window(grammar, data):
    # the trie walk from an origin stops at the first slice that begins
    # no right-hand side, and the windows it leaves unwalked are still
    # tried: with no limit the search counts l(l+1)/2 windows in each
    # state it scans, and with a limit those up to and including the
    # window where it stops, in (origin, size) order
    g = _load(*grammar)
    names = [c.name for c in g.categories()]
    cats = tuple(data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=7)))
    assume(_oracle_nodes(cats, g, 500) <= 500)
    search = Search(g, "gentest")
    want = tuple(search.derivations(cats))
    assert want == oracle_parse(cats, g)
    assert search.stats.windows_tried == sum(len(seq) * (len(seq) + 1) // 2
                                             for seq, _ in search.memo)
    for limit in (None, *range(1, len(want) + 2)):
        stats = parse(cats, g, strategy="gentest", limit=limit)[1]
        assert (stats.windows_tried, stats.reductions_applied,
                stats.backtracks) == _gentest_counts(cats, g, limit)


LONGER = "start S. rule S -> A B C D E F G H. rule S -> X B. rule X -> A."


def test_gentest_tables_no_windows(toy):
    # gentest walks the trie at every scan, dead states too, and keeps
    # no table of windows and no store
    for cats in (SENT7, DEAD9):
        search = Search(toy, "gentest")
        tuple(search.derivations(cats))
        assert search.memo and search.table == {} and search.store is None


@pytest.mark.parametrize("text,sents", [
    (LONGER, (("A", "B"),)),
    (GAP13, GAP13_SENTS),
    (GAP24, GAP24_SENTS),
], ids=["longer-than-input", "lengths13", "lengths24"])
def test_gentest_counts_at_the_edges_of_the_size_cap(text, sents):
    # a right-hand side longer than the input leaves the trie walk
    # unfinished at the input's end; where the rule lengths have gaps,
    # the walk passes over a window between two of them, and it stops
    # before one past the longest.  Each is counted all the same.
    g = load_grammar(text)
    for cats in sents:
        want = oracle_parse(cats, g)
        assert want
        for limit in (None, 1, 2, 5):
            assert parse(cats, g, strategy="active", limit=limit)[0] == want[:limit]
            derivs, stats = parse(cats, g, strategy="gentest", limit=limit)
            assert derivs == want[:limit]
            assert (stats.windows_tried, stats.reductions_applied,
                    stats.backtracks) == _gentest_counts(cats, g, limit)
    if text == LONGER:
        # by hand: A B tries 3 windows, X B 3 and the goal S 1
        assert _gentest_counts(("A", "B"), g, None) == (7, 2, 0)
