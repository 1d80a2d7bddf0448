"""Every row of the counter table in `counters.py` is what its parse
counts on a freshly loaded grammar, all nine `Stats` fields exactly."""

from dataclasses import asdict

import pytest

import counters
from clparse.cfg import parse
from clparse.grammar import load_grammar
from clparse.hpsg import parse_hpsg

PARSERS = {"cfg": parse, "hpsg": parse_hpsg}


@pytest.mark.parametrize("row", counters.ROWS, ids=lambda row: "-".join(map(str, row[:5])))
def test_each_row_is_what_its_parse_counts(row):
    grammar, layer, words, strategy, limit, counts = row
    g = load_grammar(counters.grammar_text(grammar))
    _, stats = PARSERS[layer](words.split(), g, strategy=strategy, limit=limit)
    assert tuple(asdict(stats)) == counters.FIELDS
    assert asdict(stats) == counters.pinned(grammar, layer, words, strategy, limit)
