#!/usr/bin/env python3
"""Benchmark of the default DSPlacer flow, end to end and layer by layer.

Run from the root of a checkout::

    python3 flowbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs one untraced pass, then one pass with timing wrappers
around each layer's entry points, and reports the per-layer metrics. The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. The full record of the run,
per design or job, goes to ``flowbench/results/``. See
``flowbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import math
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import deque
from contextlib import ExitStack
from pathlib import Path

import numpy as np

import tracing
from check import placement_problems, recompute_hpwl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

TABLE1_SUITES = ("ismartdnn", "skynet", "skrskr1", "skrskr2", "skrskr3")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    suites: tuple[str, ...]
    scale: float
    serve: bool = False
    #: serve stream shape: distinct designs, and repeats of earlier ones
    distinct: int = 0
    repeats: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1",
            "the five Table I suites at the standard 0.25 shrink: the analytical "
            "placer dominates place_s and the inter-column ILP solves at the root",
            TABLE1_SUITES,
            0.25,
        ),
        Workload(
            "half_scale",
            "skrskr2 and skrskr3 at 0.5: assignment takes the dense-LSA path and "
            "the inter-column ILP branches",
            ("skrskr2", "skrskr3"),
            0.5,
        ),
        Workload(
            "serve_mix",
            "a closed-loop stream of scale-0.05 jobs through a 2-worker "
            "PlacementServer, a third of them repeats served from the cache",
            TABLE1_SUITES,
            0.05,
            serve=True,
            distinct=60,
            repeats=30,
        ),
    )
}

SETUP_REPEATS = 5
SERVE_WORKERS = 2
SERVE_OUTSTANDING = 2
SERVE_POLL_S = 0.02
#: sign-offs per cold serve job, the median time kept: one takes ~0.04 s
SERVE_SIGNOFF_REPEATS = 3
TAIL_BEYOND = 10
#: allowed gap between a design's place_s and its spans' summed self times
PLACE_SUM_ATOL = 0.005
PLACE_SUM_RTOL = 1e-3

PLACE_IMPORTS = (
    "repro.accelgen",
    "repro.core.dsplacer",
    "repro.fpga",
    "repro.router.pattern_router",
    "repro.timing",
)
SERVE_IMPORTS = PLACE_IMPORTS + ("repro.placers.api", "repro.serve")

#: every end-to-end metric the run prints: name -> (unit, better)
REPORTED = {
    "setup_s": ("s", "lower"),
    "place_s": ("s", "lower"),
    "signoff_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "hpwl_um": ("um", "lower"),
    "routed_wl_um": ("um", "lower"),
    "fmax_mhz": ("MHz", "higher"),
    "wns_ns": ("ns", "higher"),
    "failed_share": ("ratio", "lower"),
    "degraded_share": ("ratio", "lower"),
    "fallback_share": ("ratio", "lower"),
    "serve_jobs_per_min": ("jobs/min", "higher"),
    "serve_latency_p50_s": ("s", "lower"),
    "serve_latency_tail_s": ("s", "lower"),
}

#: the end-to-end metrics in the result line (BENCHMARK.json "end_to_end").
#: wns_ns and the three shares are printed but not gated: they read 0 or
#: cross 0, which a share-of-median bound cannot gate.
END_TO_END = (
    "setup_s",
    "place_s",
    "signoff_s",
    "peak_rss_mb",
    "hpwl_um",
    "routed_wl_um",
    "fmax_mhz",
    "serve_jobs_per_min",
    "serve_latency_p50_s",
    "serve_latency_tail_s",
)


def _per_layer_units() -> dict[str, str]:
    units = {"import_s": "s", "fpga.device_s": "s", "accelgen.generate_s": "s"}
    for layer in tracing.LAYERS:
        if layer == "accelgen.generate":
            continue
        units["core.place.self_s" if layer == "core.place" else f"{layer}_s"] = "s"
        units[f"{layer}.wall_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(
        {
            "extraction.datapath_dsps": "count",
            "assignment.iterates": "count",
            "legalization.ilp_nodes": "count",
            "legalization.greedy_fallbacks": "count",
            "legalization.ilp_solved_ratio": "ratio",
            "serve.queue_wait_s": "s",
            "serve.service_s": "s",
            "serve.cache_hit_ratio": "ratio",
            "serve.hit_latency_s": "s",
            "serve.cold_latency_s": "s",
            "core.place.degraded_share": "ratio",
            "core.place.fallback_share": "ratio",
            "timing.wns_ns": "ns",
            "trace.overhead_s": "s",
        }
    )
    return units


#: every per-layer metric (BENCHMARK.json "per_layer") with its unit
PER_LAYER = _per_layer_units()


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def import_seconds(modules: tuple[str, ...]) -> float:
    """Import time of ``modules`` in a fresh interpreter."""
    code = (
        "import importlib, sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        f"for m in {modules!r}: importlib.import_module(m)\n"
        "print(time.perf_counter() - t)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout.strip().splitlines()[-1])


def set_up(wl: Workload, seed: int, first_import_s: float):
    """Set up ``SETUP_REPEATS`` times; return the timings and the last
    repetition's device and netlists (none on a serve workload, whose
    netlists are generated per request)."""
    from repro import accelgen, fpga

    modules = SERVE_IMPORTS if wl.serve else PLACE_IMPORTS
    reps = []
    for i in range(SETUP_REPEATS):
        rep = {"import_s": first_import_s if i == 0 else import_seconds(modules)}
        t0 = time.perf_counter()
        device = fpga.zcu104()
        rep["device_s"] = time.perf_counter() - t0
        netlists = []
        if not wl.serve:
            t0 = time.perf_counter()
            netlists = [
                accelgen.generate_suite(s, scale=wl.scale, device=device, seed=seed)
                for s in wl.suites
            ]
            rep["generate_s"] = time.perf_counter() - t0
        rep["total_s"] = sum(rep.values())
        reps.append(rep)
    return reps, device, netlists


def serve_stream(wl: Workload, seed: int) -> list[tuple[str, int]]:
    """The serve request stream: (suite, netlist seed) pairs.

    ``wl.distinct`` designs spread evenly over the suites, in seeded order,
    plus ``wl.repeats`` repeats of distinct earlier designs, each at least
    ``SERVE_OUTSTANDING`` requests after its first occurrence.
    """
    rng = random.Random(seed)
    designs = [
        (wl.suites[i % len(wl.suites)], seed * wl.distinct + i) for i in range(wl.distinct)
    ]
    rng.shuffle(designs)
    stream = list(designs)
    for design in rng.sample(designs, wl.repeats):
        earliest = min(stream.index(design) + 1 + SERVE_OUTSTANDING, len(stream))
        stream.insert(rng.randint(earliest, len(stream)), design)
    return stream


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
def signoff(netlist, placement) -> dict:
    """Route and time one placement, as ``repro report`` does."""
    from repro.router.pattern_router import PatternRouter
    from repro.timing import StaticTimingAnalyzer

    gc.collect()  # see place_pass
    t0 = time.perf_counter()
    routing = PatternRouter().route(placement)
    timing = StaticTimingAnalyzer(netlist).analyze(placement, routing)
    return {
        "signoff_s": time.perf_counter() - t0,
        "routed_wl_um": float(routing.total_wirelength),
        "fmax_mhz": float(timing.freq_mhz_limit),
        "wns_ns": float(timing.wns_ns),
    }


def health_fields(health: dict) -> dict:
    events = health.get("events", [])
    return {
        "degraded": bool(health.get("degraded", False)),
        "fallbacks": [f"[{e['stage']}] {e['detail']}" for e in events if e["kind"] == "fallback"],
    }


def place_pass(wl: Workload, device, netlists, tracer=None) -> dict:
    """Place, sign off and check every design once, in-process.

    The designs are a batch placed one after another, so a design's
    latency is the summed ``place`` time up to and including its own.
    """
    from repro.core import DSPlacer

    t_pass = time.perf_counter()
    records = []
    for nl in netlists:
        if tracer is not None:
            tracer.context = nl.name
        rec = {"design": nl.name, "cells": len(nl.cells)}
        records.append(rec)
        # Each timed call starts from a collected heap, so the collections
        # it triggers depend on its own allocations, not on garbage left by
        # the benchmark or by earlier calls.
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = DSPlacer(device).place(nl)
        except Exception:  # noqa: BLE001 — a raising placement is counted, not fatal
            rec.update(place_s=time.perf_counter() - t0, status="failed")
            rec["problems"] = [f"place raised: {traceback.format_exc(limit=3)}"]
            continue
        rec.update(place_s=time.perf_counter() - t0, status="ok")
        rec["latency_s"] = sum(r["place_s"] for r in records)
        rec.update(signoff(nl, result.placement))
        rec.update(health_fields(result.health.to_dict()))
        rec["hpwl_um"] = float(result.placement.hpwl())
        rec["datapath_dsps"] = int(result.n_datapath_dsps)
        rec["problems"] = placement_problems(result.placement)
    return {
        "records": records,
        "wall_s": sum(r["place_s"] for r in records),
        "pass_s": time.perf_counter() - t_pass,
    }


def _place_span_s(report: dict | None) -> float:
    """Wall time of the ``place`` span in a worker's RunReport."""
    stack = list((report or {}).get("spans", []))
    while stack:
        sp = stack.pop()
        if sp["name"] == "place":
            return float(sp["wall_s"])
        stack.extend(sp.get("children", []))
    return 0.0


def serve_pass(wl: Workload, device, stream, tracer=None) -> dict:
    """Push the stream through a fresh server, closed loop, then check every
    result and sign off each cold one."""
    from repro.placers.api import PlacementRequest
    from repro.serve import PlacementServer

    t_pass = time.perf_counter()
    records = []
    pending = deque(stream)
    outstanding: list[tuple[dict, object]] = []
    with PlacementServer(workers=SERVE_WORKERS) as server:
        while pending or outstanding:
            while pending and len(outstanding) < SERVE_OUTSTANDING:
                suite, netlist_seed = pending.popleft()
                rec = {"design": f"{suite}/{netlist_seed}"}
                if tracer is not None:
                    tracer.context = rec["design"]
                rec["submit_unix"] = time.time()
                request = PlacementRequest(suite=suite, scale=wl.scale, netlist_seed=netlist_seed)
                outstanding.append((rec, server.submit(request, device=device)))
            done = [item for item in outstanding if item[1].done]
            if not done:
                outstanding[0][1].wait(timeout=SERVE_POLL_S)
            for item in done:
                outstanding.remove(item)
                records.append(_job_record(*item))
    wall_s = time.perf_counter() - t_pass
    # Every response stays alive for the checks below. Freeze them out of
    # the garbage collector's reach, or each full collection during sign-off
    # rescans them (about 1 s apart from 0.05 s sign-offs at 60 designs).
    gc.freeze()
    try:
        _check_and_sign_off(records)
    finally:
        gc.unfreeze()
    return {"records": records, "wall_s": wall_s, "pass_s": time.perf_counter() - t_pass}


def _check_and_sign_off(records: list[dict]) -> None:
    """Check every ok job and compare each cache hit with its cold leader;
    sign off each cold job ``SERVE_SIGNOFF_REPEATS`` times."""
    leaders: dict[str, tuple[dict, object]] = {}
    for rec in records:
        placement = rec.pop("placement")
        if rec["status"] != "ok":
            rec["problems"] = [f"job {rec['status']}: {rec['error']}"]
            continue
        problems = placement_problems(placement)
        if not math.isclose(recompute_hpwl(placement), rec["hpwl_um"], rel_tol=1e-9):
            problems.append(f"reported HPWL {rec['hpwl_um']!r} is not the placement's")
        if rec["cache"] != "hit":
            leaders.setdefault(rec["design"], (rec, placement))
        elif rec["design"] not in leaders:
            problems.append("cache hit before any cold job of its design")
        else:
            cold = leaders[rec["design"]][1]
            if not (np.array_equal(cold.site, placement.site) and np.array_equal(cold.xy, placement.xy)):
                problems.append(f"cache hit differs from its cold job {leaders[rec['design']][0]['job']}")
        rec["problems"] = problems
    for rec, placement in leaders.values():
        runs = [signoff(placement.netlist, placement) for _ in range(SERVE_SIGNOFF_REPEATS)]
        times = [run.pop("signoff_s") for run in runs]
        if any(run != runs[0] for run in runs):
            rec["problems"].append("sign-off quality differs between repeats")
        rec.update(runs[0], signoff_s=statistics.median(times))


def _job_record(rec: dict, job) -> dict:
    resp = job.response
    rec.update(
        job=resp.job_id,
        status=resp.status,
        cache=resp.cache,
        latency_s=resp.finished_unix - rec["submit_unix"],
        error=resp.error,
        placement=resp.placement,
    )
    if resp.ok:
        rec["hpwl_um"] = float(resp.quality["hpwl_um"])
        rec["cells"] = len(resp.placement.netlist.cells)
        rec.update(health_fields(resp.report.get("health") or {}))
        if resp.cache != "hit":
            gauges = (resp.report.get("metrics") or {}).get("gauges", {})
            rec["datapath_dsps"] = int(gauges.get("extraction.datapath_dsps", 0))
            rec["place_s"] = _place_span_s(resp.report)
            rec["queue_wait_s"] = resp.started_unix - resp.submitted_unix
            rec["service_s"] = resp.finished_unix - resp.started_unix
    return rec


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else math.nan


def tail(samples: list[float]) -> tuple[float, dict]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it; with too few samples, the maximum (with fewer beyond)."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return math.nan, {"n": 0}
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    pct = 100.0 * k / (n - 1) if n > 1 else 100.0
    return xs[k], {"percentile": round(pct, 2), "beyond": n - 1 - k, "n": n}


def is_ok(rec: dict) -> bool:
    return rec.get("status") == "ok" and not rec["problems"]


def signed_off(records: list[dict]) -> list[dict]:
    """The records that carry sign-off quality: one per design."""
    return [r for r in records if is_ok(r) and "routed_wl_um" in r]


def share(records: list[dict], pred) -> float:
    return sum(bool(pred(r)) for r in records) / len(records)


def end_to_end(setup_reps: list[dict], passes: list[dict]) -> tuple[dict, dict]:
    """Every :data:`REPORTED` metric, and the tail's percentile note."""
    records = [r for p in passes for r in p["records"]]
    first = signed_off(passes[0]["records"])
    # per pass, then the median over passes: pooling the passes of an
    # in-process workload would turn its tail from each pass's last design
    # into a low percentile once more than 10 samples had been gathered
    latencies = [
        [r["latency_s"] for r in p["records"] if r.get("status") == "ok"] for p in passes
    ]
    tails = [tail(lat) for lat in latencies if lat]
    tail_note = {**(tails[0][1] if tails else {"n": 0}), "passes": len(tails)}
    metrics = {
        "setup_s": statistics.median(r["total_s"] for r in setup_reps),
        "place_s": statistics.median(map(pass_place_s, passes)),
        "signoff_s": statistics.median(
            sum(r.get("signoff_s", 0.0) for r in p["records"]) for p in passes
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hpwl_um": geomean([r["hpwl_um"] for r in first]),
        "routed_wl_um": geomean([r["routed_wl_um"] for r in first]),
        "fmax_mhz": geomean([r["fmax_mhz"] for r in first]),
        "wns_ns": min((r["wns_ns"] for r in first), default=math.nan),
        "failed_share": share(records, lambda r: not is_ok(r)),
        "degraded_share": share(records, lambda r: r.get("degraded")),
        "fallback_share": share(records, lambda r: r.get("fallbacks")),
        "serve_jobs_per_min": statistics.median(
            60.0 * sum(map(is_ok, p["records"])) / p["wall_s"] for p in passes
        ),
        "serve_latency_p50_s": (
            statistics.median(statistics.median(lat) for lat in latencies if lat)
            if tails else math.nan
        ),
        "serve_latency_tail_s": statistics.median(t for t, _ in tails) if tails else math.nan,
    }
    return metrics, tail_note


def determinism_problems(passes: list[dict]) -> list[str]:
    """Every pass must reproduce the first pass's quality exactly."""
    keys = ("hpwl_um", "routed_wl_um", "fmax_mhz", "wns_ns", "degraded")

    def quality(p):
        return {r["design"]: tuple(r[k] for k in keys) for r in signed_off(p["records"])}

    ref = quality(passes[0])
    return [
        f"pass {i}: quality differs from pass 0"
        for i, p in enumerate(passes[1:], start=1)
        if quality(p) != ref
    ]


def per_layer(setup_reps, traced: dict, totals: dict, overhead_s: float) -> dict:
    """Every per-layer metric of the traced pass."""
    records = traced["records"]
    cold = [r for r in records if "service_s" in r]
    hits = [r for r in records if r.get("cache") == "hit"]
    m = {
        "import_s": statistics.median(r["import_s"] for r in setup_reps),
        "fpga.device_s": statistics.median(r["device_s"] for r in setup_reps),
        # set-up generation (place workloads) plus generation inside
        # PlacementServer.submit (serve_mix)
        "accelgen.generate_s": statistics.median(r.get("generate_s", 0.0) for r in setup_reps)
        + totals["accelgen.generate"]["self_s"],
    }
    for layer in tracing.LAYERS:
        if layer == "accelgen.generate":
            continue
        agg = totals[layer]
        m["core.place.self_s" if layer == "core.place" else f"{layer}_s"] = agg["self_s"]
        m[f"{layer}.wall_s"] = agg["wall_s"]
        m[f"{layer}.calls"] = agg["calls"]
    legal = totals["legalization.legalize"]
    m.update(
        {
            "extraction.datapath_dsps": totals["core.place"]["counts"].get("datapath_dsps", 0),
            "assignment.iterates": totals["assignment.solve"]["counts"].get("iterates", 0),
            "legalization.ilp_nodes": legal["counts"].get("ilp_nodes", 0),
            "legalization.greedy_fallbacks": legal["counts"].get("greedy_fallbacks", 0),
            "legalization.ilp_solved_ratio": (
                legal["counts"].get("ilp_solved", 0) / legal["calls"] if legal["calls"] else 0.0
            ),
            "serve.queue_wait_s": sum(r["queue_wait_s"] for r in cold),
            "serve.service_s": sum(r["service_s"] for r in cold),
            "serve.cache_hit_ratio": len(hits) / len(records),
            "serve.hit_latency_s": statistics.median(r["latency_s"] for r in hits) if hits else 0.0,
            "serve.cold_latency_s": (
                statistics.median(r["latency_s"] for r in cold) if cold else 0.0
            ),
            "core.place.degraded_share": share(records, lambda r: r.get("degraded")),
            "core.place.fallback_share": share(records, lambda r: r.get("fallbacks")),
            "timing.wns_ns": min((r["wns_ns"] for r in signed_off(records)), default=math.nan),
            "trace.overhead_s": overhead_s,
        }
    )
    return m


def pass_place_s(p: dict) -> float:
    """``place_s`` of one pass: summed over its designs (cold jobs)."""
    return sum(r.get("place_s", 0.0) for r in p["records"])


def place_self_sums(spans) -> tuple[dict[str, float], int]:
    """Per design or job: the summed self times of its ``core.place`` spans
    and everything below them; and the number of those spans."""
    selfs = tracing.self_times(spans)
    sums: dict[str, float] = {}
    n_spans = 0
    for sp in spans:
        if sp.name != "core.place":
            continue
        tree = [sp, *tracing.descendants(spans, sp.id)]
        n_spans += len(tree)
        sums[sp.context] = sums.get(sp.context, 0.0) + sum(selfs[t.id] for t in tree)
    return sums, n_spans


def place_sum_problems(sums: dict[str, float], place_s: dict[str, float]) -> list[str]:
    """Each design's summed self times must match the ``place_s`` timed
    around ``DSPlacer(device).place`` outside the wrappers.

    The outer time also holds what no wrapper sees: ``DSPlacer(device)``
    and the ``core.place`` wrapper's own entry and exit, tens of
    microseconds. :data:`PLACE_SUM_ATOL` plus :data:`PLACE_SUM_RTOL` of the
    outer time allows for them and for a garbage collection landing there;
    a layer whose work ran outside ``DSPlacer.place`` shows as a gap.
    """
    return [
        f"{ctx}: self times under DSPlacer.place sum to {sums.get(ctx)!r} s, place_s is {outer!r} s"
        for ctx, outer in place_s.items()
        if ctx not in sums or abs(sums[ctx] - outer) > PLACE_SUM_ATOL + PLACE_SUM_RTOL * outer
    ]


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class WorkerSpans:
    """Collects the spans recorded inside forked serve workers.

    Wraps ``repro.serve.worker._execute`` — the worker's place-and-measure
    step, which returns before the result goes down the pipe — so each
    worker starts from an empty tracer and has written its spans to a file
    before the parent can see its result.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def __enter__(self) -> "WorkerSpans":
        from repro.serve import worker

        self.dir = Path(tempfile.mkdtemp(prefix=".spans-", dir=BENCH_DIR))
        self._original = original = worker._execute
        tracer, out_dir = self.tracer, self.dir

        def execute(payload):
            tracer.reset()
            tracer.context = (payload.get("meta") or {}).get("job")
            try:
                return original(payload)
            finally:
                doc = [dataclasses.asdict(sp) for sp in tracer.spans]
                (out_dir / f"{os.getpid()}.json").write_text(json.dumps(doc))

        worker._execute = execute
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.serve import worker

        worker._execute = self._original
        shutil.rmtree(self.dir, ignore_errors=True)

    def span_lists(self) -> list[list]:
        return [
            [tracing.Span(**d) for d in json.loads(path.read_text())]
            for path in sorted(self.dir.glob("*.json"))
        ]


def traced_pass(wl: Workload, one_pass) -> tuple[dict, dict, list[str], dict]:
    """One pass with every layer wrapped: (pass, layer totals, problems, notes)."""
    tracer = tracing.Tracer()
    with ExitStack() as stack:
        workers = stack.enter_context(WorkerSpans(tracer)) if wl.serve else None
        stack.enter_context(tracing.installed(tracer))
        traced = one_pass(tracer)
        span_lists = [list(tracer.spans)] + (workers.span_lists() if workers else [])

    place_s = {r.get("job", r["design"]): r["place_s"] for r in traced["records"] if "place_s" in r}
    totals = tracing.layer_totals([])
    sums: dict[str, float] = {}
    n_place_spans = 0
    ilp_nodes: dict[str, list[int]] = {}
    for spans in span_lists:
        totals = tracing.merge_totals(totals, tracing.layer_totals(spans))
        list_sums, n = place_self_sums(spans)
        for ctx, summed in list_sums.items():
            sums[ctx] = sums.get(ctx, 0.0) + summed
        n_place_spans += n
        for sp in spans:
            if sp.name == "legalization.legalize":
                ilp_nodes.setdefault(sp.context, []).append(sp.counts["ilp_nodes"])
    # On serve_mix place_s is the worker's own "place" span, which sits
    # inside DSPlacer.place and leaves out the RunReport it builds after
    # that span, so there is no outer time to check the spans against.
    problems = [] if wl.serve else place_sum_problems(sums, place_s)
    for rec in traced["records"]:
        rec["ilp_nodes"] = ilp_nodes.get(rec.get("job", rec["design"]), [])
    cost = tracing.call_cost_s()
    notes = {
        "traced_place_s": sum(place_s.values()),
        "sum_of_self_s": sum(sums.values()),
        "spans_under_place": n_place_spans,
        "wrapper_call_s": cost,
        "trace_overhead_s": n_place_spans * cost,
    }
    return traced, totals, problems, notes


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def git_commit() -> str | None:
    """HEAD of the repository this checkout is, if it is one."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def provenance(wl: Workload, args, passes: list[dict]) -> dict:
    import scipy

    doc = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "suites": list(wl.suites),
        "scale": wl.scale,
        "designs": [
            {k: r.get(k) for k in ("design", "cells", "datapath_dsps")}
            for r in passes[0]["records"]
            if r.get("cache") != "hit"
        ],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "trace": bool(args.trace),
        "run_seconds": args.seconds,
        "passes": len(passes),
    }
    if wl.serve:
        doc["stream"] = {
            "requests": wl.distinct + wl.repeats,
            "distinct": wl.distinct,
            "workers": SERVE_WORKERS,
            "outstanding": SERVE_OUTSTANDING,
            "loop": "closed",
        }
    return doc


def design_rows(p: dict) -> list[dict]:
    """Per design of a pass: quality, health and ILP work (cache hits left out)."""
    keys = (
        "design", "job", "place_s", "hpwl_um", "routed_wl_um", "fmax_mhz", "wns_ns",
        "degraded", "fallbacks", "ilp_nodes", "problems",
    )
    return [{k: r[k] for k in keys if k in r} for r in p["records"] if r.get("cache") != "hit"]


def run(args, wl: Workload) -> int:
    """Run one workload; print the metrics and the result line; 0 when every
    check passed."""
    t_run = time.perf_counter()
    t0 = time.perf_counter()
    for module in SERVE_IMPORTS if wl.serve else PLACE_IMPORTS:
        importlib.import_module(module)
    setup_reps, device, netlists = set_up(wl, args.seed, time.perf_counter() - t0)
    stream = serve_stream(wl, args.seed) if wl.serve else None

    def one_pass(tracer=None):
        if wl.serve:
            return serve_pass(wl, device, stream, tracer)
        return place_pass(wl, device, netlists, tracer)

    problems: list[str] = []
    if args.trace:
        untraced = one_pass()
        traced, totals, problems, notes = traced_pass(wl, one_pass)
        passes = [untraced, traced]
        notes["untraced_place_s"] = pass_place_s(untraced)
        metrics = per_layer(setup_reps, traced, totals, notes["trace_overhead_s"])
        units = PER_LAYER
        names = list(units)
    else:
        passes = []
        t_measure = time.perf_counter()
        while True:
            passes.append(one_pass())
            typical = statistics.median(p["pass_s"] for p in passes)
            if time.perf_counter() - t_measure + typical > args.seconds:
                break
        metrics, notes = end_to_end(setup_reps, passes)
        units = {name: unit for name, (unit, _) in REPORTED.items()}
        names = list(END_TO_END)

    records = [r for p in passes for r in p["records"]]
    problems += [f"{r['design']}: {msg}" for r in records for msg in r["problems"]]
    problems += determinism_problems(passes)

    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    if not args.trace:
        print(
            f"{'':34s} tail: p{notes.get('percentile')} of {notes['n']} per pass, "
            f"{notes.get('beyond')} beyond, median of {notes['passes']} passes"
        )
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}")
    summary = {
        "provenance": provenance(wl, args, passes),
        "notes": notes,
        "designs": design_rows(passes[-1]),
    }
    print(json.dumps(summary, default=str))

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    detail = {
        **summary, "metrics": metrics, "problems": problems, "setup": setup_reps,
        "passes": passes, "run_s": time.perf_counter() - t_run,
    }
    out.write_text(json.dumps(detail, default=str, indent=1))

    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(not is_ok(r) for r in records),
        # a metric with nothing to measure (every placement failed) reads 0
        # in the result line, which then also reads "correct": false
        "metrics": {
            n: {"value": float(metrics[n]) if math.isfinite(metrics[n]) else 0.0, "unit": units[n]}
            for n in names
        },
    }
    print(json.dumps(result))
    return 1 if problems else 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        return run(args, WORKLOADS[args.workload])
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
