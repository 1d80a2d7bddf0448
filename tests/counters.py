"""The work counters the tests pin, in one table.

Each row of ROWS names a grammar, a layer, an input, a strategy and a
limit, and gives the nine `Stats` fields of that parse in field order.
The `cfg` layer runs `cfg.parse` over the input's categories and the
`hpsg` layer runs `hpsg.parse_hpsg` over its words, each on a freshly
loaded grammar.  The values are data, written here by hand and never
computed by the code under test; `test_counters.py` checks every row,
and the tests that compare a count read it from its row with `pinned`.
A counter that moves on purpose is re-pinned by editing its row.

The module imports the standard library alone, so a script outside the
test suite can load it by path.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A1's sentence over grammars/toy.clg, and its two dead ends: each
# further Prep Nm leaves the toy grammar no derivation.  An input is
# its categories or words, one space apart.
A1 = "Det Nm Vb Det Nm Prep Nm"
DEAD9 = A1 + " Prep Nm"
DEAD11 = DEAD9 + " Prep Nm"

# X and Y share the right-hand side A, and only X may stand before B.
SHARED = "start S. rule S -> X B. rule X -> A. rule Y -> A."

# Appended to grammars/toy_lex.clg: local trees its checks reject or
# watch.  NP -> Nm Det breaks the LP order, nothing projects NP in
# NP -> Det, and the Vb daughters of VP -> Vb Vb and of the rule*
# VP -> Vb Vb Vb are only built as distinct signs.  Over the Vb
# signatures, an unsaturated sister ("sleeps", "do", "dodo") or a Vb no
# head selects has no phrase table entry.
CATEGORIAL = (
    "rule NP -> Nm Det. rule NP -> Det. rule VP -> Vb Vb. rule* VP -> Vb Vb Vb.\n"
    'lex "rains" Vb [synsem: [loc: [cat: [head: [maj: v]]]]] subcat [].\n'
    'lex "do" Vb [synsem: [loc: [cat: [head: [maj: v]]]]] subj [NP] subcat [Vb].\n'
    'lex "dodo" Vb [synsem: [loc: [cat: [head: [maj: v]]]]] subj [NP] subcat [Vb, Vb].\n')

# name: (a committed grammar file under the repository root, or None,
# then text of its own that follows the file's)
GRAMMARS = {
    "toy": ("grammars/toy.clg", ""),
    "toy_lex": ("grammars/toy_lex.clg", ""),
    "lex": ("bench/lex.clg", ""),
    "shared": (None, SHARED),
    "categorial": ("grammars/toy_lex.clg", CATEGORIAL),
}

FIELDS = ("windows_tried", "reductions_applied", "backtracks", "trees_considered",
          "expansions", "signs_accepted", "completeness_tests", "propagation_steps",
          "ask_evaluations")

ROWS = (
    # (grammar, layer, input, strategy, limit, counts in FIELDS order)
    #
    # Windows and reductions are counted once per distinct (sequence,
    # unary_seen) state, on its first visit, and backtracks once per dead
    # state.  Active tries only the windows that spell a right-hand side
    # whose left-hand side may stand between the window's neighbours, and
    # no two toy rules share a right-hand side, so its windows are its
    # reductions.  Its propagation_steps is one Spells filter run per
    # distinct sequence scanned but the goal S: one run entails Spells,
    # so nothing wakes it again, and the states that share a sequence
    # share its windows; no toy right-hand side begins with S, so the
    # goal's windows are tabled as none, with no run.  Gentest tries
    # every window, reduces every match and uses no store.
    #
    # By hand, on <NP,VP>: gentest's root scan tries (0,1), (0,2) and
    # (1,1) and the reduced <S> node tries (0,1); active tries only
    # (0,2), the one window that spells a right-hand side, and none at <S>.
    ("toy", "cfg", "NP VP", "active", None, (1, 1, 0, 0, 0, 0, 0, 1, 0)),
    ("toy", "cfg", "NP VP", "gentest", None, (4, 1, 0, 0, 0, 0, 0, 0, 0)),
    ("toy", "cfg", A1, "active", None, (29, 29, 0, 0, 0, 0, 0, 14, 0)),
    ("toy", "cfg", A1, "gentest", None, (961, 82, 33, 0, 0, 0, 0, 0, 0)),
    ("toy", "cfg", DEAD9, "active", None, (84, 84, 43, 0, 0, 0, 0, 24, 0)),
    ("toy", "cfg", DEAD9, "gentest", None, (6645, 488, 215, 0, 0, 0, 0, 0, 0)),
    ("toy", "cfg", DEAD11, "active", None, (281, 281, 125, 0, 0, 0, 0, 48, 0)),
    ("toy", "cfg", DEAD11, "gentest", None, (42176, 2723, 909, 0, 0, 0, 0, 0, 0)),
    # A scan that `limit` stops inside a window counts the windows up to
    # and including that one, and none after it.
    ("toy", "cfg", A1, "active", 1, (6, 6, 0, 0, 0, 0, 0, 6, 0)),
    ("toy", "cfg", A1, "active", 2, (9, 9, 0, 0, 0, 0, 0, 7, 0)),
    ("toy", "cfg", A1, "active", 5, (15, 15, 0, 0, 0, 0, 0, 10, 0)),
    ("toy", "cfg", A1, "gentest", 1, (53, 6, 0, 0, 0, 0, 0, 0, 0)),
    ("toy", "cfg", A1, "gentest", 2, (151, 12, 3, 0, 0, 0, 0, 0, 0)),
    ("toy", "cfg", A1, "gentest", 5, (535, 39, 19, 0, 0, 0, 0, 0, 0)),
    # Active reduces X alone, where gentest also makes the dead Y B.
    ("shared", "cfg", "A B", "active", None, (2, 2, 0, 0, 0, 0, 0, 2, 0)),
    ("shared", "cfg", "A B", "gentest", None, (10, 3, 1, 0, 0, 0, 0, 0, 0)),
    # The tagging Det Vb Vb of "the fish sleeps" puts a verb after a
    # determiner, as no sentential form does: its root is checked once,
    # is one dead state and costs the store nothing.
    ("lex", "cfg", "Det Vb Vb", "active", None, (0, 0, 1, 0, 0, 0, 0, 0, 0)),
    # Both strategies build the sign in the AllDistinct runs of the NP's
    # and the S's daughter slots; active's search adds one Spells run for
    # each distinct sequence among the states it scans but the goal S,
    # and tries only the windows it reduces.  Every head share is
    # entailed when its mother is installed, so no ask is evaluated.
    ("toy_lex", "hpsg", "the cat sleeps", "active", None, (6, 6, 0, 1, 6, 1, 0, 6, 0)),
    ("toy_lex", "hpsg", "the cat sleeps", "gentest", None, (22, 6, 0, 1, 6, 1, 0, 2, 0)),
    # The counts of a build that ran check_local_tree on every phrase:
    # active stops a tree at its first violation, gentest at its end.
    ("categorial", "hpsg", "cat the sleeps", "active", None, (6, 6, 0, 1, 3, 0, 0, 4, 0)),
    ("categorial", "hpsg", "cat the sleeps", "gentest", None, (37, 10, 3, 1, 6, 0, 0, 2, 0)),
    ("categorial", "hpsg", "the sleeps", "active", None, (5, 5, 0, 1, 2, 0, 0, 4, 0)),
    ("categorial", "hpsg", "the sleeps", "gentest", None, (13, 5, 0, 1, 5, 0, 0, 1, 0)),
    ("categorial", "hpsg", "the cat do rains", "active", None, (5, 5, 0, 1, 7, 1, 0, 9, 0)),
    ("categorial", "hpsg", "the cat do rains", "gentest", None, (165, 35, 20, 1, 7, 1, 0, 5, 0)),
    ("categorial", "hpsg", "the cat dodo rains rains", "active", None, (5, 5, 0, 1, 8, 1, 0, 10, 0)),
    ("categorial", "hpsg", "the cat dodo rains rains", "gentest", None, (775, 135, 75, 1, 8, 1, 0, 6, 0)),
)


def grammar_text(name: str) -> str:
    path, own = GRAMMARS[name]
    return ((ROOT / path).read_text() if path else "") + own


def pinned(grammar: str, layer: str, words, strategy: str, limit=None) -> dict:
    """The counts of the one row for this parse, by field name; `words`
    is the input or its tokens."""
    key = (grammar, layer, words if isinstance(words, str) else " ".join(words), strategy, limit)
    (counts,) = [row[5] for row in ROWS if row[:5] == key]
    return dict(zip(FIELDS, counts))
