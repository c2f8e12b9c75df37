"""Per-layer tracing of dualmc from outside the package.

The tracer wraps public functions of the dualmc modules and rebinds every
module attribute that refers to them, so the engines call the wrappers
through their ordinary global lookups.  Nothing under src/ changes.

Hot leaves (millions of calls) are not recorded one by one: they are
aggregated per (item, layer) as a call count, total time and self time,
where self time is total time minus the time of wrapped callees, tracked
with a stack.  Spans (name, start, end, parent) are kept only at the
pass, item and stage level.

A wrapped name that does not exist is listed in `missing` and the layer
reads as absent; tracing never fails a run because the program was
refactored.
"""
from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

INSERT = "ordering.MinorSet.insert"

# (layer, module, attribute path, kind).  Kinds:
#   call       plain timed function
#   candidates records len(result) as the number of candidates produced
#   predicate  factory returning a predicate; the predicate is timed and
#              its False results are counted as dead
#   leq        counts the calls made directly by MinorSet.insert
#   insert     MinorSet.insert; counts inserted, subsumed and evicted
LAYERS = (
    ("model.parse_program", "model", "parse_program", "call"),
    ("backward.predecessor_candidates", "backward", "predecessor_candidates", "candidates"),
    ("backward.live", "backward", "live_filter", "predicate"),
    ("backward.concretize_witness", "backward", "concretize_witness", "call"),
    (INSERT, "ordering", "MinorSet.insert", "insert"),
    ("ordering.config_leq", "ordering", "config_leq", "leq"),
    ("ordering.param_leq", "ordering", "param_leq", "leq"),
    ("ordering.word_leq", "ordering", "word_leq", "call"),
    ("param.predecessor_candidates", "param", "predecessor_candidates", "candidates"),
    ("param.live", "param", "live_filter", "predicate"),
    ("param.canonical", "param", "canonical", "call"),
    ("dtso.dtso_successors", "dtso", "dtso_successors", "call"),
    ("tso.tso_successors", "tso", "tso_successors", "call"),
    ("translate.dtso_to_tso", "translate", "dtso_to_tso", "call"),
    ("translate.tso_to_dtso", "translate", "tso_to_dtso", "call"),
    ("runs.replay", "runs", "replay", "call"),
)

# Stat slots: calls, total seconds, self seconds, and two kind-specific counts.
CALLS, TOTAL, SELF, EXTRA, EXTRA2 = range(5)
EXTRA_NAMES = {
    "candidates": ("candidates",),
    "predicate": ("dead",),
    "leq": ("under_insert",),
    "insert": ("inserted", "evicted"),
    "call": (),
}


def stat_dict(layer: str, stat: list) -> dict:
    """A stat list as a dict with the kind-specific counts named."""
    kind = next(k for name, _, _, k in LAYERS if name == layer)
    out = {"calls": stat[CALLS], "total_s": stat[TOTAL], "self_s": stat[SELF]}
    out.update(zip(EXTRA_NAMES[kind], stat[EXTRA:]))
    return out


PACKAGE = "dualmc"


class Tracer:
    def __init__(self):
        self.missing: list[str] = []
        self.spans: list[dict] = []
        self.items: dict[str, dict[str, list]] = {}
        self.table: dict[str, list] = self._new_table()
        self._frames: list[list] = [[None, 0.0]]
        self._open: list[int] = []
        self._sets: dict[int, list] = {}  # id -> [antichain, first len, inserted]
        for layer, module, path, kind in LAYERS:
            self._install(layer, module, path, kind)

    # -- aggregation -----------------------------------------------------

    @staticmethod
    def _new_table() -> dict[str, list]:
        return {layer: [0, 0.0, 0.0, 0, 0] for layer, *_ in LAYERS}

    @contextmanager
    def span(self, name: str, item: str | None = None):
        """Record a span; with `item`, aggregate wrapped calls under it."""
        record = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        saved = self.table
        if item is not None:
            self.table = self.items.setdefault(item, self._new_table())
        try:
            yield
        finally:
            if item is not None:
                self._count_evictions()
            self.table = saved
            self._open.pop()
            record["end"] = time.perf_counter()

    # -- wrapping --------------------------------------------------------

    def _install(self, layer: str, module: str, path: str, kind: str) -> None:
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return
        if kind == "predicate":
            wrapped = self._predicate_factory(original, layer)
        elif kind == "insert":
            wrapped = self._insert(original, layer)
        elif kind == "candidates":
            wrapped = self._timed(original, layer, _count_candidates)
        elif kind == "leq":
            wrapped = self._timed(original, layer, _count_under_insert)
        else:
            wrapped = self._timed(original, layer)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            self._rebind(original, wrapped)

    def _rebind(self, original, wrapped) -> None:
        """Point every package-module attribute bound to `original` at `wrapped`."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    def _timed(self, fn, layer: str, observe=None):
        frames = self._frames
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = frames[-1]
            frame = [layer, 0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                parent[1] += elapsed
                stat = tracer.table[layer]
                stat[CALLS] += 1
                stat[TOTAL] += elapsed
                stat[SELF] += elapsed - frame[1]
            if observe is not None:
                observe(stat, parent[0], result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _predicate_factory(self, factory, layer: str):
        def make(*args, **kwargs):
            return self._timed(factory(*args, **kwargs), layer, _count_dead)

        make.__wrapped__ = factory
        return make

    def _insert(self, method, layer: str):
        timed = self._timed(method, layer)
        tracer = self
        sets = self._sets

        def insert(minors, elem, *args, **kwargs):
            entry = sets.get(id(minors))
            if entry is None:
                entry = sets[id(minors)] = [minors, len(minors), 0]
            result = timed(minors, elem, *args, **kwargs)
            if getattr(result, "inserted", result):
                tracer.table[layer][EXTRA] += 1
                entry[2] += 1
            return result

        insert.__wrapped__ = method
        return insert

    def _count_evictions(self) -> None:
        """Evictions per antichain: size at first insert plus inserted
        elements minus final size.  Read off len() once per antichain and
        item, because len() walks every bucket; the count does not depend
        on what insert returns beyond whether the element went in."""
        stat = self.table[INSERT]
        for minors, first_len, inserted in self._sets.values():
            stat[EXTRA2] += first_len + inserted - len(minors)
        self._sets.clear()


def _count_candidates(stat, _parent, result) -> None:
    stat[EXTRA] += len(result)


def _count_dead(stat, _parent, result) -> None:
    if not result:
        stat[EXTRA] += 1


def _count_under_insert(stat, parent, _result) -> None:
    if parent == INSERT:
        stat[EXTRA] += 1
