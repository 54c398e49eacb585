"""Timing wrappers around each layer's public entry points.

The traced run installs one wrapper per (module, attribute) in
:data:`LAYER_ENTRY_POINTS`. A wrapper records a span (name, start, end,
parent span, design or job id) in the :class:`Tracer` and calls through.
Spans stay in memory until the run ends. :func:`installed` restores every
original attribute on exit, so an untraced run later in the same process
runs the program's own code.

A class method is wrapped on the class. A module-level function is wrapped
in the module that calls it, because the flow imports such names with
``from ... import`` and looks them up in its own namespace.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: (layer, module, attribute) — every entry point the traced run times
LAYER_ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("core.place", "repro.core.dsplacer", "DSPlacer.place"),
    ("placers.prototype", "repro.placers.vivado_like", "VivadoLikePlacer.place"),
    ("placers.global_place", "repro.placers.analytical", "QuadraticGlobalPlacer.place"),
    ("placers.legalize", "repro.placers.legalizer", "Legalizer.legalize"),
    ("placers.refine", "repro.placers.vivado_like", "refine_sites"),
    ("placers.refine", "repro.core.placement.incremental", "refine_sites"),
    ("incremental.replace", "repro.core.dsplacer", "replace_other_components"),
    ("extraction.identify", "repro.core.extraction.identification", "DatapathIdentifier.predict"),
    ("extraction.iddfs", "repro.core.dsplacer", "iddfs_dsp_paths"),
    ("extraction.dsp_graph", "repro.core.dsplacer", "build_dsp_graph"),
    ("assignment.solve", "repro.core.placement.assignment", "DatapathDSPAssigner.solve"),
    ("legalization.legalize", "repro.core.placement.legalization", "CascadeLegalizer.legalize"),
    ("solvers.ilp", "repro.core.placement.legalization", "solve_ilp"),
    ("solvers.isotonic", "repro.core.placement.legalization", "legalize_column_rows"),
    ("solvers.mcf", "repro.core.placement.assignment", "min_cost_assignment"),
    ("router.route", "repro.router.pattern_router", "PatternRouter.route"),
    ("timing.build", "repro.timing.sta", "StaticTimingAnalyzer.__init__"),
    ("timing.analyze", "repro.timing.sta", "StaticTimingAnalyzer.analyze"),
    ("accelgen.generate", "repro.accelgen", "generate_suite"),
    ("serve.submit", "repro.serve.server", "PlacementServer.submit"),
)

#: every layer name, in table order
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in LAYER_ENTRY_POINTS))

#: exact counts read from a layer's return value at its boundary
COUNTERS = {
    "core.place": lambda r: {"datapath_dsps": r.n_datapath_dsps},
    "assignment.solve": lambda r: {"iterates": r[1]},
    "legalization.legalize": lambda r: {
        "ilp_nodes": r.ilp_nodes,
        "ilp_solved": int(r.used_ilp),
        "greedy_fallbacks": int(not r.used_ilp),
    },
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a root span
    context: str | None  # design or job id
    counts: dict | None = None  # see COUNTERS

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.context: str | None = None
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def reset(self) -> None:
        """Forget every span (a forked worker starts from the parent's state)."""
        self.spans.clear()
        self._stack.clear()

    def call(self, name: str, fn, args, kwargs):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter()
        counts = None
        try:
            result = fn(*args, **kwargs)
            counter = COUNTERS.get(name)
            if counter is not None:
                counts = counter(result)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.context, counts))


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name, current raw value) of ``module.attr_path``."""
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    return wrapper


#: calls per calibration timing, and timings per calibration
CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 5


def call_cost_s() -> float:
    """Seconds a wrapper adds to one call: :data:`CALIBRATION_CALLS`
    wrapped calls of a no-op less as many direct ones, per call, the median
    of :data:`CALIBRATION_REPEATS` timings."""
    n = CALIBRATION_CALLS

    def noop():
        return None

    tracer = Tracer()
    wrapped = _wrap(tracer, "calibration", noop)
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        tracer.reset()
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        samples.append(((t1 - t0) - (t2 - t1)) / n)
    return max(statistics.median(samples), 0.0)


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore
    every original attribute — also when the block raises."""
    originals: list[tuple[object, str, object]] = []
    try:
        for name, module_name, attr_path in LAYER_ENTRY_POINTS:
            owner, attr, raw = _resolve(module_name, attr_path)
            originals.append((owner, attr, raw))
            setattr(owner, attr, _wrap(tracer, name, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its children cover (overlapping children count once)."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append(sp)
    out: dict[int, float] = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for ch in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, cursor), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered
    return out


def descendants(spans: list[Span], root_id: int) -> list[Span]:
    """Every span below ``root_id``, at any depth."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        children.setdefault(sp.parent, []).append(sp)
    out: list[Span] = []
    stack = list(children.get(root_id, ()))
    while stack:
        sp = stack.pop()
        out.append(sp)
        stack.extend(children.get(sp.id, ()))
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per layer: summed self time, summed wall time, call count and the
    summed :data:`COUNTERS` values.

    Wall time sums only the outermost span of each nest of same-layer
    spans, so a layer that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    by_id = {sp.id: sp for sp in spans}
    out = {name: _empty_totals() for name in LAYERS}
    for sp in spans:
        agg = out.setdefault(sp.name, _empty_totals())
        agg["self_s"] += selfs[sp.id]
        agg["calls"] += 1
        for key, value in (sp.counts or {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
        parent = by_id.get(sp.parent)
        while parent is not None and parent.name != sp.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            agg["wall_s"] += sp.duration
    return out


def merge_totals(a: dict[str, dict], b: dict[str, dict]) -> dict[str, dict]:
    """Sum two :func:`layer_totals` results (e.g. the parent's and a worker's)."""
    out = {}
    for name in dict.fromkeys([*a, *b]):
        x, y = a.get(name, _empty_totals()), b.get(name, _empty_totals())
        counts = dict(x["counts"])
        for key, value in y["counts"].items():
            counts[key] = counts.get(key, 0) + value
        out[name] = {
            "self_s": x["self_s"] + y["self_s"],
            "wall_s": x["wall_s"] + y["wall_s"],
            "calls": x["calls"] + y["calls"],
            "counts": counts,
        }
    return out


def _empty_totals() -> dict:
    return {"self_s": 0.0, "wall_s": 0.0, "calls": 0, "counts": {}}
