"""Spans recorded from outside the program.

`install` replaces public functions and methods of an imported clparse
with timing wrappers and returns a function that puts the originals
back.  Nothing under src/ knows about it.  Spans stay in memory until
`write` dumps them; self time (a span's duration minus its direct
children's) is summed per name as spans close.

Span file format (gzip-compressed text), one tab-separated line per
span after a header line:

    id  name  start_ns  end_ns  parent  sentence

`id` numbers spans in the order they open, `parent` is the id of the
innermost enclosing span (-1 at the top), `sentence` the index of the
timed sentence within the run, and the times are time.perf_counter_ns()
readings.  Each timed sentence is one top-level span named `sentence`.
A `store.tell` span is named after the constraint's class, as in
`store.tell.Concat3`.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.sentence = array("i")
        self.sentence_id = -1
        self._open = [-1]          # ids of the open spans, innermost last
        self._child_ns = [0]       # time the closed children of each open span took
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()

    def open(self, label: str) -> int:
        nid = self._name_ids.get(label)
        if nid is None:
            nid = self._name_ids[label] = len(self.names)
            self.names.append(label)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.sentence.append(self.sentence_id)
        self.end.append(0)
        self._open.append(sid)
        self._child_ns.append(0)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int, label: str) -> None:
        now = time.perf_counter_ns()
        self.end[sid] = now
        self._open.pop()
        children = self._child_ns.pop()
        took = now - self.start[sid]
        self._child_ns[-1] += took
        self.calls[label] += 1
        self.self_ns[label] += took - children

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tsentence\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                         f"\t{self.parent[i]}\t{self.sentence[i]}\n")


FSTRUCT_METHODS = ("encode_node", "add", "delta", "resolve", "dump")
HPSG_STEPS = ("lexical_sign", "check_local_tree", "attach_daughters", "post_unicity",
              "post_fcrs", "post_subcat", "apply_hfp", "apply_valency")

_CODES = {Tracer.open.__code__, Tracer.close.__code__}


def in_tracer(frame) -> bool:
    """Whether `frame` is running the tracer's own bookkeeping."""
    return frame is not None and frame.f_code in _CODES


def _wrap(tracer: Tracer, label: str, fn, kind_of=None, on_result=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = label if kind_of is None else f"{label}.{kind_of(args)}"
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid, name)
        if on_result is not None:
            on_result(result)
        return result
    _CODES.add(traced.__code__)
    return traced


def install(tracer: Tracer, c):
    """Wrap the layer boundaries of the clparse package `c`; returns the
    function that removes the wrappers."""
    undo = []

    def on_tell(ok):
        if not ok:
            tracer.counts["store.tell.failed"] += 1

    def on_parse(result):
        tracer.counts["cfg.derivations"] += len(result[0])

    def method(cls, attr, label, **hooks):
        orig = cls.__dict__[attr]
        setattr(cls, attr, _wrap(tracer, label, orig, **hooks))
        undo.append(lambda: setattr(cls, attr, orig))

    def function(module, attr, label, **hooks):
        # Rebind the name in every clparse module that imported it, since
        # hpsg calls cfg.parse and friends through its own globals.
        orig = getattr(module, attr)
        wrapped = _wrap(tracer, label, orig, **hooks)
        for name, mod in list(sys.modules.items()):
            if name == "clparse" or name.startswith("clparse."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        undo.append(functools.partial(setattr, mod, key, orig))

    store = c.store.Store
    method(store, "__init__", "store.new")
    method(store, "tell", "store.tell", kind_of=lambda a: type(a[1]).__name__,
           on_result=on_tell)
    for attr in ("snapshot", "restore", "propagate", "ask"):
        method(store, attr, f"store.{attr}")

    function(c.cfg, "parse", "cfg.parse", on_result=on_parse)
    function(c.cfg, "derivations_to_tree", "cfg.tree_replay")

    fs = c.fstruct.FeatureStructure
    for attr in FSTRUCT_METHODS:
        method(fs, attr, f"fstruct.{attr}")

    for attr in ("parse_hpsg",) + HPSG_STEPS:
        function(c.hpsg, attr, f"hpsg.{attr}")

    def uninstall():
        while undo:
            undo.pop()()
    return uninstall
