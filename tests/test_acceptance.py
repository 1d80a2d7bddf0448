"""Acceptance suite.

Each test covers one numbered criterion (A1 through A8) and prints a
single PASS or FAIL line for it, so the checklist can be read straight
off the test output.
"""

import itertools
import random
import time

import counters
from checks import CAT, valency_pairs
from clparse import Bool3, InconsistencyError, Store, UsageError
from clparse.cfg import Search, oracle_parse, parse
from clparse.constraints import (
    all_distinct,
    bool_post,
    element,
    eq,
    in_relation,
    neq,
)
from clparse.fstruct import FeatureStructure, encode, parse_avm, avm_equal
from clparse.grammar import load_grammar, load_grammar_file, parse_fcr
from clparse.hpsg import apply_hfp, compile_fcr, parse_hpsg, post_fcrs
from clparse.logic import Var, conj

TOY = "grammars/toy.clg"
TOY_LEX = "grammars/toy_lex.clg"

SENT7 = tuple(counters.A1.split())

T1 = (("NP", ("Det", "Nm")), ("NP", ("Det", "Nm")), ("NP", ("Nm",)),
      ("PP", ("Prep", "NP")), ("VP", ("Vb", "NP", "PP")), ("S", ("NP", "VP")))
T2 = (("NP", ("Det", "Nm")), ("NP", ("Nm",)), ("NP", ("Det", "Nm")),
      ("PP", ("Prep", "NP")), ("VP", ("Vb", "NP", "PP")), ("S", ("NP", "VP")))
T3 = (("NP", ("Det", "Nm")), ("NP", ("Nm",)), ("PP", ("Prep", "NP")),
      ("NP", ("Det", "Nm")), ("VP", ("Vb", "NP", "PP")), ("S", ("NP", "VP")))

CASE_MATRIX = "[cat: [head: [maj: n, case: nom]], content: [index: [gen: masc, num: sing]]]"

CASE_DUMP = """\
[<cat,1,2>, <content,1,4>]
[<head,2,3>]
[<maj,3,n>, <case,3,nom>]
[<index,4,5>]
[<gen,5,masc>, <num,5,sing>]"""

CANONICAL_FCRS = (
    "PFORM -> ~INDEX",
    "VFORM -> MAJ[V]",
    "PRD | VFORM -> VFORM[PAS] | VFORM[PRP]",
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def worst_case(m: int) -> int:
    return m * (m + 5) // 2


def drive_schedule(s, u_size, key_sizes):
    """One constraint through the worst-case event order: every image
    group closes one by one, then each key domain, domain last."""
    u = s.new_var(range(u_size), name="u")
    keys = [s.new_var(range(sz), name=f"k{i}") for i, sz in enumerate(key_sizes)]
    r = s.new_relation("r", 1 + len(keys))
    for combo in itertools.product(*(range(sz) for sz in key_sizes)):
        r.add(sum(c * 100 ** i for i, c in enumerate(combo)), *combo)
    s.tell(in_relation(u, tuple(keys), r))
    base = s.counters.completeness_tests
    for combo in itertools.product(*(range(sz) for sz in key_sizes)):
        r.close_group(*combo)
    for k in keys:
        s.close_domain(k)
    return s.counters.completeness_tests - base


def test_a1_toy_sentence_reproduction():
    started = time.perf_counter()
    g = load_grammar_file(TOY)
    derivs, _ = parse(SENT7, g)
    elapsed = time.perf_counter() - started
    missing = [t for t in (T1, T2, T3) if t not in derivs]
    first_three = derivs[:3] == (T1, T2, T3)
    endings = all(d[-1] == ("S", ("NP", "VP")) for d in derivs)
    trees = list(Search(g).trees(SENT7))
    _report("A1", not missing and first_three and endings
            and len(trees) == 1 and elapsed < 1.0,
            f"missing={len(missing)} first_three={first_three} "
            f"endings={endings} trees={len(trees)} elapsed={elapsed:.3f}s")


def test_a2_completeness_counter_law():
    binary_ok = all(
        drive_schedule(Store(), 10 * m + 10, [m]) == worst_case(m)
        for m in range(1, 9))
    ternary_ok = all(
        drive_schedule(Store(), 100 * mv * mw + 10, [mv, mw])
        == worst_case(mv * mw)
        for mv, mw in itertools.product((1, 2, 3), repeat=2))
    ratios = []
    n = 6
    for m in (4, 8, 16):
        s = Store()
        total = sum(drive_schedule(s, 10 * m + 10, [m]) for _ in range(n))
        ratios.append(total / (n * worst_case(m)))
    ratio_ok = all(0.9 <= r <= 1.1 for r in ratios)
    _report("A2", binary_ok and ternary_ok and ratio_ok,
            f"binary={binary_ok} ternary={ternary_ok} "
            f"ratios={[round(r, 3) for r in ratios]}")


def test_a3_encoding_fidelity():
    dump_ok = encode(parse_avm(CASE_MATRIX)).dump() == CASE_DUMP

    rng = random.Random(23)
    atoms = ["n", "v", "nom", "acc", "sg", "pl"]
    feats = ["f0", "f1", "f2", "f3", "f4", "f5"]

    def build(depth):
        out = {}
        pool = []
        def grow(d, depth):
            for feat in rng.sample(feats, rng.randrange(1, 4)):
                roll = rng.random()
                if depth > 0 and roll < 0.45:
                    child = {}
                    pool.append(child)
                    d[feat] = child
                    grow(child, depth - 1)
                elif roll < 0.6 and pool:
                    d[feat] = rng.choice(pool)
                else:
                    d[feat] = rng.choice(atoms)
        grow(out, depth)
        return out

    checked = 0
    round_trip_ok = True
    while checked < 200:
        avm = build(rng.randrange(1, 4))
        try:
            fs = encode(avm)
        except UsageError:
            continue   # a sharing roll can close a cycle
        round_trip_ok = round_trip_ok and avm_equal(avm, fs.decode())
        checked += 1
    _report("A3", dump_ok and round_trip_ok,
            f"dump={dump_ok} round_trip={round_trip_ok} cases={checked}")


def test_a4_cooccurrence_restrictions():
    g = load_grammar_file(TOY_LEX)
    fcr_texts = [str(f) for f in g.fcrs]
    loaded_ok = "PFORM -> ~INDEX" in fcr_texts

    # an entry whose pform is realized gets index pushed to false
    st = Store()
    fs = FeatureStructure(st)
    entry = g.entries("with")[0]
    root = fs.encode_node(entry.avm, default_status=Bool3.TRUE)
    post_fcrs(fs, root, g.fcrs)
    head = fs.resolve(("synsem", "loc", "cat", "head"), root)
    forced = fs.status_value("index", head) is Bool3.FALSE
    clashed = False
    try:
        fs.set_status("index", Bool3.TRUE, head)
    except InconsistencyError:
        clashed = True

    compiled = round_tripped = True
    for text in CANONICAL_FCRS:
        f = parse_fcr(text)
        round_tripped = round_tripped and str(f) == text
        st2 = Store()
        fs2 = FeatureStructure(st2)
        node = fs2.encode_node({"maj": None}, default_status=Bool3.UNKNOWN)
        compiled = compiled and st2.tell(bool_post(compile_fcr(f, fs2, node)))
    _report("A4", loaded_ok and forced and clashed and compiled and round_tripped,
            f"loaded={loaded_ok} forced={forced} clash={clashed} "
            f"compile={compiled} round_trip={round_tripped}")


def test_a5_head_sharing_token_identity():
    st = Store()
    fs = FeatureStructure(st)
    root = fs.encode_node({
        "synsem": {"loc": {"cat": {}}},
        "dtrs": {"head_dtr": {"synsem": {"loc": {"cat": {
            "head": {"maj": "v"}}}}}},
    }, default_status=Bool3.TRUE)
    apply_hfp(fs, root)
    mother = fs.resolve(("synsem", "loc", "cat", "head"), root)
    daughter = fs.resolve(
        ("dtrs", "head_dtr", "synsem", "loc", "cat", "head"), root)
    same = isinstance(mother, int) and mother == daughter
    fs.add((("vform", daughter, "fin", Bool3.TRUE),))
    seen = fs.resolve(("synsem", "loc", "cat", "head", "vform"), root) == "fin"
    _report("A5", same and seen, f"same_node={same} mutation_visible={seen}")


def test_a6_valency_conservation():
    g = load_grammar_file(TOY_LEX)
    signs, _ = parse_hpsg(["the", "cat", "sleeps"], g)
    ok = len(signs) == 1
    detail = f"signs={len(signs)}"
    if ok:
        sign = signs[0]
        # in order: a phrase's lists followed by its realized daughters'
        # categories are its head daughter's lists
        pairs = valency_pairs(sign)
        conserved = bool(pairs) and all(got == want for got, want in pairs)
        root_cell = tuple(sign.fs.resolve(CAT + (f,), sign.root) or () for f in ("subj", "comps"))
        saturated = root_cell == ((), ())
        ok = conserved and saturated
        detail += f" reductions={len(pairs)} conserved={conserved} saturated={saturated}"
    _report("A6", ok, detail)


def test_a7_oracle_equivalence():
    grammars = (
        load_grammar("start S. rule S -> A B."),
        load_grammar("start S. rule S -> S S. rule S -> A B."),
        load_grammar("start S. rule S -> S A. rule S -> B A."),
    )
    alphabets = (("A", "B"), ("A", "B"), ("A", "B"))
    agree = True
    bounded = True
    strictly = False
    for g, alphabet in zip(grammars, alphabets):
        for n in range(1, 9):
            for cats in itertools.product(alphabet, repeat=n):
                got, sa = parse(cats, g, strategy="active")
                blind, sg = parse(cats, g, strategy="gentest")
                want = oracle_parse(cats, g)
                agree = agree and got == want == blind
                bounded = bounded and sa.windows_tried <= sg.windows_tried
                strictly = strictly or sa.windows_tried < sg.windows_tried
    _report("A7", agree and bounded and strictly,
            f"agree={agree} bounded={bounded} strict_somewhere={strictly}")


def _solutions(doms, preds):
    for combo in itertools.product(*doms):
        if all(p(combo) for p in preds):
            yield combo


def test_a8_propagation_soundness():
    rng = random.Random(7)
    sound = True
    distinct_ok = True
    idempotent_ok = True
    restore_ok = True

    for case in range(1000):
        s = Store()
        n = rng.randrange(2, 5)
        doms = [list(range(rng.randrange(1, 6))) for _ in range(n)]
        vs = [s.new_var(d, closed=True) for d in doms]

        cons = []
        preds = []
        for _ in range(rng.randrange(1, 5)):
            kind = rng.choice(("eq_const", "neq_const", "eq_var",
                               "element", "all_distinct"))
            i = rng.randrange(n)
            if kind == "eq_const":
                c = rng.choice(doms[i])
                cons.append(eq(vs[i], c))
                preds.append(lambda a, i=i, c=c: a[i] == c)
            elif kind == "neq_const":
                c = rng.choice(doms[i])
                cons.append(neq(vs[i], c))
                preds.append(lambda a, i=i, c=c: a[i] != c)
            elif kind == "eq_var":
                j = rng.randrange(n)
                if j == i:
                    continue
                cons.append(eq(vs[i], vs[j]))
                preds.append(lambda a, i=i, j=j: a[i] == a[j])
            elif kind == "element":
                allowed = [v for v in doms[i] if rng.random() < 0.6]
                cons.append(element(vs[i], allowed))
                preds.append(lambda a, i=i, al=tuple(allowed): a[i] in al)
            else:
                picked = rng.sample(range(n), rng.randrange(2, n + 1))
                cons.append(all_distinct(*(vs[k] for k in picked)))
                preds.append(lambda a, p=tuple(picked):
                             len({a[k] for k in p}) == len(p))

        before = s.fingerprint()
        snap = s.snapshot()
        consistent = True
        told = []
        for c, p in zip(cons, preds):
            told.append(p)
            if not s.tell(c):
                consistent = False
                break
        solutions = list(_solutions(doms, told))
        if consistent:
            final = [set(s.domain(v)) for v in vs]
            sound = sound and all(
                sol[i] in final[i] for sol in solutions for i in range(n))
        else:
            sound = sound and not solutions
        s.restore(snap)
        restore_ok = restore_ok and s.fingerprint() == before

        if case % 5 == 0 and n >= 2:
            sa, sb = Store(), Store()
            xs = [sa.new_var(d, closed=True) for d in doms]
            ys = [sb.new_var(d, closed=True) for d in doms]
            oka = sa.tell(all_distinct(*xs))
            okb = True
            for i in range(n):
                for j in range(i + 1, n):
                    okb = okb and sb.tell(neq(ys[i], ys[j]))
            if okb:
                if oka:
                    distinct_ok = distinct_ok and all(
                        set(sa.domain(x)) <= set(sb.domain(y))
                        for x, y in zip(xs, ys))
            else:
                distinct_ok = distinct_ok and not oka

            sc = Store()
            b1, b2 = sc.new_bool("p"), sc.new_bool("q")
            formula = conj([Var(b1), Var(b2)])
            sc.tell(bool_post(formula))
            posted = len(sc.posted)
            fp = sc.fingerprint()
            sc.tell(bool_post(formula))
            idempotent_ok = idempotent_ok and len(sc.posted) == posted
            idempotent_ok = idempotent_ok and sc.fingerprint() == fp

    _report("A8", sound and distinct_ok and idempotent_ok and restore_ok,
            f"sound={sound} all_distinct={distinct_ok} "
            f"idempotent={idempotent_ok} restore={restore_ok}")
