import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clparse.errors import GrammarError, UsageError
from clparse.grammar import (
    FCR,
    FcrLiteral,
    Frame,
    PSRule,
    fcr_sites,
    load_grammar,
    load_grammar_file,
    parse_fcr,
    template_sites,
)
from clparse.fstruct import parse_avm
from clparse.logic import Not, Or, Var, parse_formula

TOY = "grammars/toy.clg"
TOY_LEX = "grammars/toy_lex.clg"


def test_toy_grammar_loads():
    g = load_grammar_file(TOY)
    assert g.start == "S"
    assert len(g.rules) == 6
    assert g.rules[0] == PSRule("S", ("NP", "VP"))
    assert g.rules[-1] == PSRule("VP", ("Vb", "NP", "PP"))
    assert g.rhs_lengths() == {1, 2, 3}


def test_category_levels():
    g = load_grammar_file(TOY)
    for name in ("S", "NP", "PP", "VP"):
        assert g.is_phrasal(name)
    for name in ("Det", "Adj", "Nm", "Prep", "Vb"):
        assert not g.is_phrasal(name)
    with pytest.raises(UsageError):
        g.category("Foo")


def test_rules_matching_is_exact_and_in_file_order():
    g = load_grammar_file(TOY)
    assert [str(r) for r in g.rules_matching(("Det", "Nm"))] == ["NP -> Det Nm"]
    assert [r.lhs for r in g.rules_matching(("NP", "VP"))] == ["S"]
    assert g.rules_matching(("Det",)) == ()
    assert g.rules_matching(("Det", "Nm", "extra")) == ()
    g2 = load_grammar("rule A -> X Y. rule B -> X Y. start A.")
    assert [r.lhs for r in g2.rules_matching(("X", "Y"))] == ["A", "B"]


def test_legal_daughters_union_of_rules_and_frame():
    g = load_grammar_file(TOY)
    assert g.legal_daughters("NP") == {"Det", "Adj", "Nm"}
    assert g.legal_daughters("S") == {"NP", "VP"}
    glex = load_grammar_file(TOY_LEX)
    assert glex.legal_daughters("NP") == {"Det", "Nm"}
    with pytest.raises(UsageError):
        g.legal_daughters("Det")   # lexical
    g3 = load_grammar("rule S -> A B. proj B = C. start S.")
    with pytest.raises(UsageError):
        g3.legal_daughters("C")    # phrasal by projection, but no rules/frame


def test_lp_is_permissive_by_default():
    g = load_grammar_file(TOY_LEX)
    assert g.lp_ok("Det", "Nm")
    assert not g.lp_ok("Nm", "Det")
    assert g.lp_ok("NP", "VP") and g.lp_ok("VP", "NP")   # undeclared


def test_rule_star_disables_distinctness():
    g = load_grammar("rule* X -> A A. rule X -> A B. start X.")
    assert g.rules[0].distinct_daughters is False
    assert g.rules[1].distinct_daughters is True


def test_frames_and_projections():
    g = load_grammar_file(TOY_LEX)
    np = g.frames["NP"]
    # the frame's `schema {Det}` clause is validated and kept nowhere
    assert np == Frame("NP", frozenset({"Det", "Nm"}), frozenset({"Nm"}),
                       frozenset({"Det"}), "Nm")
    assert g.frames["VP"].o == frozenset()
    assert g.projection("Nm") == "NP"
    assert g.projection("VP") == "S"
    assert g.projection("Det") is None


def test_frame_with_explicit_optional_set():
    g = load_grammar(
        "rule NP -> Det Nm. start NP."
        "frame NP { M = {Det,Adj,Nm}; C = {Nm}; O = {Det,Adj}; head = Nm; }")
    assert g.frames["NP"].o == {"Det", "Adj"}


@pytest.mark.parametrize("text,fragment", [
    ("frame NP { M = {Det,Nm}; C = {Nm}; O = {Det,Nm}; head = Nm; }",
     "C and O overlap"),
    ("frame NP { M = {Det,Nm,Adj}; C = {Nm}; O = {Det}; head = Nm; }",
     "M is not C with O"),
    ("frame NP { M = {Det,Nm}; C = {Nm}; head = Det; }",
     "not compulsory"),
    ("frame NP { M = {Det,Nm}; C = {Nm}; head = Nm; schema {Adj}; }",
     "schema exceeds"),
    ("frame NP { M = {Det,Nm}; head = Nm; }",
     "needs M, C and head"),
])
def test_bad_frames_rejected(text, fragment):
    with pytest.raises(GrammarError) as err:
        load_grammar("rule NP -> Det Nm. start NP. " + text)
    assert fragment in str(err.value)


def test_duplicate_frame_rejected():
    body = "frame VP { M = {Vb}; C = {Vb}; head = Vb; }"
    with pytest.raises(GrammarError) as err:
        load_grammar(f"rule VP -> Vb. start VP. {body} {body}")
    assert "duplicate frame" in str(err.value)


def test_empty_rule_rejected_with_line():
    with pytest.raises(GrammarError) as err:
        load_grammar("rule S -> NP VP.\nrule VP -> .\nstart S.")
    assert "line 2" in str(err.value)
    assert "empty right-hand side" in str(err.value)


def test_unknown_category_reference_rejected():
    with pytest.raises(GrammarError) as err:
        load_grammar("rule S -> NP VP.\nlp NP < Zz.\nstart S.")
    assert "line 2" in str(err.value) and "Zz" in str(err.value)
    with pytest.raises(GrammarError):
        load_grammar('rule S -> V. start S. lex "eats" V [] subcat [Qq].')


def test_unknown_schema_category_rejected_on_its_lex_line():
    # checked as subj and subcat are, the names in sorted order
    with pytest.raises(GrammarError, match="^line 2: unknown category 'Yyy'"):
        load_grammar('rule S -> V. start S.\nlex "eats" V [] schema {Zzz, Yyy}.')


def test_cyclic_lp_rejected():
    with pytest.raises(GrammarError) as err:
        load_grammar("rule S -> A B C. start S.\n"
                     "lp A < B.\nlp B < C.\nlp C < A.")
    assert "cyclic" in str(err.value)
    # a cycle is reported on the line of its latest-declared pair, which
    # a repeated pair does not move
    with pytest.raises(GrammarError, match="^line 4: lp order is cyclic: "):
        load_grammar("rule S -> A B C. start S.\n"
                     "lp B < C.\nlp C < A.\nlp A < B.\nlp B < C.")
    with pytest.raises(GrammarError):
        load_grammar("rule S -> A B. start S. lp A < A.")


def test_long_lp_chain_loads():
    n = 1500
    cats = [f"C{k}" for k in range(n)]
    chain = "".join(f"lp {a} < {b}.\n" for a, b in zip(cats, cats[1:]))
    g = load_grammar(f"start S.\nrule S -> {' '.join(cats)}.\n" + chain)
    assert g.lp_ok("C0", "C1") and not g.lp_ok("C1", "C0")
    # the pair that closes a cycle at the end of the chain is on line n + 2
    with pytest.raises(GrammarError, match=rf"line {n + 2}: lp order is cyclic"):
        load_grammar(f"start S.\nrule S -> {' '.join(cats)}.\n" + chain
                     + f"lp C{n - 1} < C0.\n")


def test_grammar_file_that_is_not_utf8_is_a_grammar_error(tmp_path):
    bad = tmp_path / "latin1.clg"
    bad.write_bytes(open(TOY, "rb").read() + "% caf\u00e9\n".encode("latin-1"))
    with pytest.raises(GrammarError, match="not UTF-8"):
        load_grammar_file(str(bad))


def test_missing_start_category_rejected():
    with pytest.raises(GrammarError) as err:
        load_grammar("rule X -> A B.")
    assert "start" in str(err.value)
    assert load_grammar("rule X -> A B. start X.").start == "X"


def test_comments_and_multiline_statements():
    g = load_grammar(
        "% header comment\n"
        "rule S ->   % trailing comment\n"
        "  NP VP.\n"
        "frame S {\n"
        "  M = {NP,VP};\n"
        "  C = {NP,VP};\n"
        "  head = VP;\n"
        "}\n"
        "start S.\n")
    assert g.rules == [PSRule("S", ("NP", "VP"))]
    assert g.frames["S"].head == "VP"


def test_statement_missing_dot_rejected():
    with pytest.raises(GrammarError):
        load_grammar("rule S -> NP VP")


@pytest.mark.parametrize("bad,fragment", [
    ("rule S A.", "bad rule"),
    ("rule S -> A 1B.", "bad category name '1B'"),
    ("lp A B.", "bad lp declaration"),
    ("lp A < A.", "lp pair must be irreflexive"),
    ("proj A.", "bad proj declaration"),
    ("start S T.", "bad start declaration"),
    ("foo bar.", "unknown declaration 'foo'"),
    ("frame { M = {A}; C = {A}; head = A; }", "bad frame declaration"),
    ("frame S { M = {A}; M = {A}; C = {A}; head = A; }", "duplicate M in frame S"),
    ("frame S { M = {A}; C = {A}; head = A; tail = A; }", "bad frame clause 'tail = A'"),
    ('lex x A [].', "bad lex declaration"),
    ('lex "x" A [] subcat.', "bad lex clause 'subcat'"),
    ('lex "x" A [maj: n] subcat [1A].', "bad category name '1A'"),
    ("rule S -> A].", "unbalanced brackets"),
    ("rule S -> A", "statement missing final dot"),
    ('lex "x" A [maj: n$].', "avm syntax: bad text at '$]'"),
    ('lex "x" A [maj: n] $.', "bad lex clause '$'"),
])
def test_every_loader_error_names_its_line(bad, fragment):
    with pytest.raises(GrammarError, match=f"^line 3: {re.escape(fragment)}") as err:
        load_grammar("rule S -> A. start S.\n% the third line is bad\n" + bad)
    assert err.value.line == 3


def test_a_dot_after_a_frame_is_an_empty_statement():
    frame = "frame S { M = {A}; C = {A}; head = A; }"
    for text in (f"{frame}.", f"{frame} .", f"{frame}\n.", f"rule S -> A.. {frame}"):
        g = load_grammar(f"rule S -> A.\n{text}\nstart S.")
        assert g.frames["S"].head == "A" and g.start == "S"


def test_lexicon_entries():
    g = load_grammar_file(TOY_LEX)
    the, = g.entries("the")
    assert the.category == "Det" and the.subcat == () and the.subj == ()
    assert the.avm == {"synsem": {"loc": {"cat": {"head": {"maj": "det"}}}}}
    cat, = g.entries("cat")
    assert cat.subcat == ("Det",)
    assert cat.schema == frozenset({"Det"})
    sleeps, = g.entries("sleeps")
    assert sleeps.subj == ("NP",) and sleeps.subcat == ()
    assert g.entries("dog") == ()


def test_quoted_forms_may_hold_dots_and_percent_signs():
    base = open(TOY_LEX).read()
    g = load_grammar(base + '\nlex "Mr." Nm [maj: n] subcat [].  % "a quote"\n'
                     'lex "50%" Nm [maj: n] subcat [].\n')
    assert [e.category for e in g.entries("Mr.")] == ["Nm"]
    assert [e.category for e in g.entries("50%")] == ["Nm"]
    line = base.count("\n") + 2
    for bad in ('lex "Mr. Nm [maj: n] subcat [].', 'lex "Mr.\n" Nm [maj: n] subcat [].'):
        with pytest.raises(GrammarError, match=f"line {line}: unterminated quote"):
            load_grammar(base + "\n" + bad)


def test_ambiguous_form_keeps_file_order():
    g = load_grammar('rule S -> A B. start S.\n'
                     'lex "run" A [] subcat [].\n'
                     'lex "run" B [] subcat [].')
    assert [e.category for e in g.entries("run")] == ["A", "B"]


def test_lex_avm_errors_carry_line():
    with pytest.raises(GrammarError) as err:
        load_grammar('rule S -> A. start S.\nlex "x" A [maj: n, maj: v].')
    assert "line 2" in str(err.value)


def test_lex_entry_that_cannot_become_a_sign_is_a_grammar_error_with_its_line():
    text = open(TOY_LEX).read()
    with pytest.raises(GrammarError, match="reserves 'synsem'") as err:
        load_grammar(text + '\nlex "bad" Nm [synsem: x] subcat [].\n')
    assert err.value.line == len(text.splitlines()) + 2


@pytest.mark.parametrize("avm, reserved", [
    ("[synsem: [loc: [cat: [subj: <NP>]]]]", "subj"),
    ("[synsem: [loc: [cat: [comps: <>]]]]", "comps"),
    ("[synsem: [loc: [cat: [?comps: <Det>, head: [maj: n]]]]]", "comps"),
    ("[synsem: [loc: [cat: [-subj: <>]]]]", "subj"),
    ("[synsem: [loc: [cat: [subj: [maj: n]]]]]", "subj"),
    ("[synsem: [loc: [cat: x]]]", "cat"),
    ("[synsem: [loc: x]]", "loc"),
])
def test_an_avm_that_writes_the_valency_lists_is_a_grammar_error_on_its_line(avm, reserved):
    # an entry's signature takes its lists from the subj and subcat
    # clauses, so the avm may write neither list, whatever its status
    text = open(TOY_LEX).read()
    with pytest.raises(GrammarError, match=f"reserves '{reserved}'") as err:
        load_grammar(text + f'\nlex "bad" Nm {avm} subcat [].\n')
    assert err.value.line == len(text.splitlines()) + 2


def test_fcr_sites_apply_where_a_feature_occurs_and_then_carry_all():
    fcrs = [parse_fcr("PFORM -> ~INDEX"), parse_fcr("INDEX -> NUM")]
    nodes = [(1, {"maj"}), (2, {"pform"}), (3, {"num"})]
    assert list(fcr_sites(nodes, fcrs)) == [(2, 0), (2, 1), (3, 1)]
    # an entry's sites are the rule over its raw template's nodes, and an
    # fcr after the lex lines counts
    g = load_grammar('rule S -> A. start S.\nlex "x" A [synsem: [pform: p]] subcat [].\n'
                     'lex "y" A [index: i] subcat [].\nfcr PFORM -> ~INDEX.')
    raw = replace(g.entries("x")[0], template=None).template
    assert template_sites(raw, g.fcrs) == ((2, 0),)


def test_the_loader_folds_each_distinct_template_once(monkeypatch):
    # "the"/"a", "cat"/"dog" and the two intransitive verbs share their
    # templates: 9 entries, 6 folds, and entries that share a template
    # share its fold
    import clparse.hpsg as hpsg

    folds = []
    fold = hpsg.fold_restrictions
    monkeypatch.setattr(hpsg, "fold_restrictions", lambda e, fcrs: folds.append(e) or fold(e, fcrs))
    g = load_grammar_file("bench/lex.clg")
    entries = [e for es in g.lexicon.values() for e in es]
    assert (len(entries), len(folds)) == (9, 6)
    assert g.entries("the")[0].template is g.entries("a")[0].template
    assert g.entries("cat")[0].template is g.entries("dog")[0].template
    assert g.entries("sleeps")[0].template is g.entries("fish")[1].template
    for e in entries:
        raw = replace(e, template=None)
        folded = fold(replace(raw, sites=template_sites(raw.template, g.fcrs)), g.fcrs)
        assert (e.template, e.sites) == (folded.template, folded.sites), e.form


def test_deep_nesting_is_a_grammar_error_with_its_line():
    with pytest.raises(GrammarError, match="nested deeper"):
        parse_fcr("~" * 3000 + "A")
    head = "rule S -> A. start S.\n"
    for line in ("fcr " + "~" * 3000 + "A -> B.",
                 "fcr (" + " <-> ".join("A" * 3000) + ") -> B.",
                 'lex "x" A ' + "[a: " * 3000 + "b" + "]" * 3000 + "."):
        with pytest.raises(GrammarError, match="nested deeper") as err:
            load_grammar(head + line)
        assert err.value.line == 2


CANONICAL_FCRS = [
    "PFORM -> ~INDEX",
    "VFORM -> MAJ[V]",
    "PRD | VFORM -> VFORM[PAS] | VFORM[PRP]",
]


def test_fcr_parse_shapes():
    f = parse_fcr("PFORM -> ~INDEX")
    assert f == FCR(Var(FcrLiteral("pform")), Not(Var(FcrLiteral("index"))))
    f = parse_fcr("VFORM -> MAJ[V]")
    assert f.consequent == Var(FcrLiteral("maj", "v"))
    f = parse_fcr("+PRD | VFORM -> VFORM[PAS] | VFORM[PRP]")
    assert f.antecedent == Or((Var(FcrLiteral("prd")), Var(FcrLiteral("vform"))))
    assert f.consequent == Or((Var(FcrLiteral("vform", "pas")),
                               Var(FcrLiteral("vform", "prp"))))


@pytest.mark.parametrize("text", CANONICAL_FCRS)
def test_fcr_round_trip(text):
    f = parse_fcr(text)
    assert str(f) == text
    assert parse_fcr(str(f)) == f


def test_fcr_plus_prefix_is_cosmetic():
    assert parse_fcr("+PRD -> ~INDEX") == parse_fcr("PRD -> ~INDEX")


def test_an_arrow_may_follow_a_name_without_a_blank():
    text = open(TOY_LEX).read()
    spaced = load_grammar(text + "\nfcr PFORM -> ~INDEX.\nfcr CASE[NOM] -> INDEX.\n")
    tight = load_grammar(text + "\nfcr PFORM->~INDEX.\nfcr CASE[NOM]->INDEX.\n")
    assert tight.fcrs == spaced.fcrs
    assert parse_fcr("PFORM->~INDEX") == parse_fcr("PFORM -> ~INDEX")
    assert load_grammar("rule S->A B. start S.").rules == [PSRule("S", ("A", "B"))]


def test_fcr_must_be_implication():
    with pytest.raises(GrammarError):
        parse_fcr("PFORM & INDEX")
    with pytest.raises(GrammarError):
        load_grammar("fcr MAJ.")


def test_fcr_rejects_garbage():
    for bad in ("PFORM -> ", "-> INDEX", "PFORM -> INDEX]", "PFORM ~ INDEX"):
        with pytest.raises(GrammarError):
            parse_fcr(bad)


def test_fcrs_in_grammar_file():
    g = load_grammar_file(TOY_LEX)
    assert [str(f) for f in g.fcrs] == ["PFORM -> ~INDEX", "VFORM -> MAJ[V]"]


def test_conflicting_projection_rejected():
    with pytest.raises(GrammarError) as err:
        load_grammar("rule S -> A. start S. proj A = S. proj A = B.")
    assert "conflicting projection" in str(err.value)


def test_unknown_declaration_rejected():
    with pytest.raises(GrammarError) as err:
        load_grammar("rule S -> A. start S.\nfoo bar.")
    assert "line 2" in str(err.value)


def test_load_grammar_file_prefixes_path(tmp_path):
    p = tmp_path / "bad.clg"
    p.write_text("rule S -> .\n")
    with pytest.raises(GrammarError) as err:
        load_grammar_file(str(p))
    assert str(p) in str(err.value)


# the characters of the text syntaxes, a few outside them, and their keywords
PIECES = list("aZ_1 \n[]<>{}(),:;.+-?#~&|%\"*=$@!") + [
    "rule ", "lex ", "lp ", "frame ", "proj ", "start ", "fcr ", "subj ", "subcat ",
    "schema ", "->", "<->", "M = ", "C = ", "head = ", '"x" ']


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=30).map("".join))
def test_text_readers_raise_only_their_own_errors(text):
    readers = (parse_avm, lambda t: parse_formula(t, {"a": 1, "Z": 2}), parse_fcr,
               load_grammar, lambda t: load_grammar(f'rule S -> A. start S. lex "x" A {t}.'))
    for read in readers:
        try:
            read(text)
        except (UsageError, GrammarError):
            pass
