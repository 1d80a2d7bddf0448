"""Checks that more than one test module makes.  Each reads a sign
through the methods of the sign's own structure, so this module imports
nothing."""

CAT = ("synsem", "loc", "cat")


def valency_pairs(sign) -> list:
    """Walk the sign's phrases through dtrs, reading the structure
    alone.  One pair per phrase: its subj and comps lists, each followed
    by its realized daughters' categories in order, and its head
    daughter's lists.  Valency is conserved where the two are equal."""
    fs = sign.fs
    cats = {r: c for c, r in sign.parts}

    def lists(node):
        return tuple(tuple(fs.resolve(CAT + (feat,), node) or ()) for feat in ("subj", "comps"))

    pairs, todo = [], [sign.root]
    while todo:
        node = todo.pop()
        head = fs.resolve(("dtrs", "head_dtr"), node)
        if head is None:
            continue
        subj_dtr = fs.resolve(("dtrs", "subj_dtr"), node)
        subj = () if subj_dtr is None else (subj_dtr,)
        comps_cell = fs.lookup(("dtrs", "comp_dtrs"), node)
        comps = tuple(ref.index for ref in (comps_cell.value if comps_cell else ()))
        mother_subj, mother_comps = lists(node)
        pairs.append(((mother_subj + tuple(cats[d] for d in subj),
                       mother_comps + tuple(cats[d] for d in comps)), lists(head)))
        todo += [head, *subj, *comps]
    return pairs
