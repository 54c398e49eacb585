"""Hot-path perf-regression harness (``BENCH_hotpaths.json``).

The DSP assignment loop, the extraction kernels (feature centralities,
DSP path search, DSP-graph build), the outer-flow kernels (pattern
routing, STA, end-to-end ``place``), and the analytical-placer core
(``global_place.solve``, greedy ``refine``) are the flow's measured hot
paths (see ``docs/PERFORMANCE.md``). This module runs them under an
:func:`repro.obs.observe` block on a pinned, fully deterministic workload
(fixed suite/scale/seeds, fixed iteration cap) and folds the resulting
spans into a small JSON document:

```
{
  "kind": "repro.bench_hotpaths",
  "schema_version": 1,
  "workload": "skynet@0.25",
  "suite": "skynet", "scale": 0.25, "seed": 0,
  "n_cells": ..., "n_datapath_dsps": ..., "iterates": ...,
  "stages": {"assignment.iterate": {"wall_s": ..., "cpu_s": ..., "count": ...}, ...}
}
```

The committed baseline at the repo root (``BENCH_hotpaths.json``) holds one
such document per workload under ``"workloads"``, plus an optional
``"reference"`` block recording historical (pre-optimization) wall times.
:func:`compare` flags any gated stage whose wall time regressed beyond the
threshold; ``python -m repro.obs.bench`` is the CI entry point::

    PYTHONPATH=src python -m repro.obs.bench --suite skynet --scale 0.05 \
        --baseline BENCH_hotpaths.json --fail-threshold 0.25 \
        --out benchmarks/results/BENCH_hotpaths.json

Refresh the committed baseline after an intentional perf change with
``--update`` (it preserves each workload's ``reference`` block).
"""

from __future__ import annotations

import json
from typing import Any

from repro import obs
from repro.obs.report import aggregate_spans

BENCH_KIND = "repro.bench_hotpaths"
BENCH_SCHEMA_VERSION = 1

#: spans the harness records per workload
HOTPATH_STAGES = (
    "assignment.iterate",
    "assignment.cost_matrix",
    "assignment.solve",
    "assignment.objective",
    "extraction.features",
    "extraction.iddfs",
    "extraction.dsp_graph",
    "router.route",
    "sta.analyze",
    "place",
    "global_place.solve",
    "refine",
)

#: stages measured in their own observed blocks so spans emitted inside the
#: end-to-end flow (e.g. DSPlacer's internal STA calls) cannot leak into the
#: kernel aggregates — and vice versa
OUTER_FLOW_STAGES = ("router.route", "sta.analyze", "place")

#: stages gated by :func:`compare` (the rest are informational breakdown)
GATED_STAGES = (
    "assignment.iterate",
    "extraction.features",
    "extraction.iddfs",
    "extraction.dsp_graph",
    "router.route",
    "sta.analyze",
    "place",
    "global_place.solve",
    "refine",
)

#: the five Table I suites the serve-throughput benchmark sweeps
SERVE_SUITES = ("ismartdnn", "skynet", "skrskr1", "skrskr2", "skrskr3")

#: the single stage gated for the serving benchmark
SERVE_GATED_STAGES = ("serve.throughput",)

#: stages gated for the slot-fabric clock workload: skew-aware STA (H-tree
#: per-sink arrivals on the hot path) and the end-to-end skew-weighted place
SLOT_FABRIC_GATED_STAGES = ("sta.analyze", "place")


def workload_id(suite: str, scale: float) -> str:
    return f"{suite}@{scale:g}"


def run_hotpaths(
    suite: str = "skynet",
    scale: float = 0.25,
    seed: int = 0,
    max_iterations: int = 12,
    features_scale: float = 0.01,
) -> dict[str, Any]:
    """Run the hot paths once and return the bench document.

    The assignment workload places ``suite`` at ``scale`` on the full
    ZCU104 fabric, one dense LAPJV solve per linearization iterate; the
    feature-extraction workload regenerates the suite at ``features_scale``
    so it exercises the exact (sub-``exact_threshold``) centrality path.
    """
    # imports are local so `repro.obs` never depends on the flow packages
    from repro.accelgen import generate_suite
    from repro.core import DSPlacer, DSPlacerConfig
    from repro.core.extraction import (
        build_dsp_graph,
        extract_node_features,
        iddfs_dsp_paths,
        prune_control_dsps,
    )
    from repro.core.placement import AssignmentConfig, DatapathDSPAssigner
    from repro.fpga import zcu104
    from repro.placers import VivadoLikePlacer
    from repro.router.pattern_router import PatternRouter
    from repro.timing import StaticTimingAnalyzer

    dev = zcu104()
    netlist = generate_suite(suite, scale=scale, device=dev, seed=0)
    place = VivadoLikePlacer(seed=0, device=dev).place(netlist)
    feat_netlist = generate_suite(suite, scale=features_scale, seed=0)

    with obs.observe() as ob:
        # extraction hot paths: DSP path search + DSP-graph build are timed
        # here (their spans are emitted inside the callees)
        paths = iddfs_dsp_paths(netlist)
        graph = build_dsp_graph(netlist, paths)
        flags = {i: bool(netlist.cells[i].is_datapath) for i in netlist.dsp_indices()}
        dgraph = prune_control_dsps(graph, flags)
        dsps = sorted(dgraph.nodes)
        assigner = DatapathDSPAssigner(
            netlist,
            dev,
            dgraph,
            dsps,
            AssignmentConfig(max_iterations=max_iterations),
        )
        _, iterates = assigner.solve(place.copy())
        extract_node_features(feat_netlist)

    # outer-flow kernels: route + STA on the same pinned placement (the
    # timing-graph build is one-time per netlist and stays outside the span)
    sta = StaticTimingAnalyzer(netlist)
    with obs.observe() as ob_outer:
        routing = PatternRouter().route(place)
        sta.analyze(place, routing, with_slacks=True)
    # end-to-end place in its own block: DSPlacer re-enters the kernels
    # above, and those inner spans must not leak into the kernel aggregates
    with obs.observe() as ob_place:
        DSPlacer(dev, DSPlacerConfig(seed=seed)).place(netlist)
    # analytical-placer core in its own block, at the pinned protocol the
    # loop-reference baselines were measured with (B2B global place — one
    # solve span per iteration — then legalize + the greedy refiner); the
    # end-to-end place above re-enters refine and must not leak into it
    from repro.placers.analytical import GlobalPlaceConfig, QuadraticGlobalPlacer
    from repro.placers.detailed import refine_sites
    from repro.placers.legalizer import Legalizer

    with obs.observe() as ob_core:
        core_place = QuadraticGlobalPlacer(
            GlobalPlaceConfig(net_model="b2b", seed=seed)
        ).place(netlist, dev)
        Legalizer(dev).legalize(core_place)
        refine_sites(core_place, passes=4, n_candidates=16, seed=seed)

    agg = aggregate_spans(ob.tracer.to_dicts())
    agg_outer = aggregate_spans(ob_outer.tracer.to_dicts())
    agg.update((k, agg_outer[k]) for k in ("router.route", "sta.analyze") if k in agg_outer)
    agg_place = aggregate_spans(ob_place.tracer.to_dicts())
    if "place" in agg_place:
        agg["place"] = agg_place["place"]
    agg_core = aggregate_spans(ob_core.tracer.to_dicts())
    agg.update(
        (k, agg_core[k]) for k in ("global_place.solve", "refine") if k in agg_core
    )
    return {
        "kind": BENCH_KIND,
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": workload_id(suite, scale),
        "suite": suite,
        "scale": scale,
        "seed": seed,
        "max_iterations": max_iterations,
        "features_scale": features_scale,
        "n_cells": len(netlist.cells),
        "n_datapath_dsps": len(dsps),
        "iterates": iterates,
        "core_protocol": {"net_model": "b2b", "refine_passes": 4, "refine_candidates": 16},
        "stages": {
            name: agg[name] for name in HOTPATH_STAGES if name in agg
        },
    }


def run_serve_throughput(
    suites: tuple[str, ...] = SERVE_SUITES,
    scale: float = 0.05,
    workers: int = 2,
    seed: int = 0,
    config: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Measure sustained placements/minute through the serve worker pool.

    Submits one cold job per suite (cache off — throughput means *placing*,
    not replaying) to a :class:`~repro.serve.PlacementServer` and times the
    whole batch under a ``serve.throughput`` span: submission, netlist
    materialization, worker scheduling, placement, result assembly. The
    gate gates end-to-end serving capacity, not any single placement.
    """
    from repro.placers.api import PlacementRequest
    from repro.serve import PlacementServer

    config = dict(config) if config is not None else {"outer_iterations": 1}
    with obs.observe() as ob:
        with obs.trace.span("serve.throughput", workers=workers, n_jobs=len(suites)):
            with PlacementServer(workers=workers) as server:
                jobs = [
                    server.submit(
                        PlacementRequest(
                            suite=suite,
                            scale=scale,
                            seed=seed,
                            config=config,
                            use_cache=False,
                        )
                    )
                    for suite in suites
                ]
                responses = [job.result() for job in jobs]

    n_ok = sum(r.ok for r in responses)
    agg = aggregate_spans(ob.tracer.to_dicts())
    wall_s = agg["serve.throughput"]["wall_s"]
    return {
        "kind": BENCH_KIND,
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": f"serve@{scale:g}",
        "suites": list(suites),
        "scale": scale,
        "seed": seed,
        "workers": workers,
        "config": config,
        "n_jobs": len(suites),
        "n_ok": n_ok,
        "placements_per_minute": 60.0 * n_ok / wall_s if wall_s > 0 else 0.0,
        "stages": {"serve.throughput": agg["serve.throughput"]},
    }


def run_slot_fabric(
    suite: str = "skynet",
    scale: float = 0.05,
    seed: int = 0,
) -> dict[str, Any]:
    """Run the clock-aware slot-fabric workload and return the bench document.

    Exercises the two skew hot paths on the ``slot_fabric`` device: a
    slacks-enabled STA pass under :class:`~repro.clock.HTreeSkew` (per-sink
    H-tree arrivals on the endpoint/backward passes) and an end-to-end
    skew-weighted DSPlacer run (``skew_model="htree"``, ``skew_weight`` on,
    so the assignment cost matrix prices tap-arrival mismatch).
    """
    from repro.accelgen import generate_suite
    from repro.clock import get_skew_model
    from repro.core import DSPlacer, DSPlacerConfig
    from repro.fpga import slot_fabric
    from repro.placers import VivadoLikePlacer
    from repro.router.pattern_router import PatternRouter
    from repro.timing import StaticTimingAnalyzer

    dev = slot_fabric(scale)
    netlist = generate_suite(suite, scale=scale, device=dev, seed=0)
    place = VivadoLikePlacer(seed=0, device=dev).place(netlist)
    routing = PatternRouter().route(place)
    skew = get_skew_model("htree", dev)
    sta = StaticTimingAnalyzer(netlist, skew_model=skew)
    with obs.observe() as ob:
        sta.analyze(place, routing, with_slacks=True)
    # end-to-end skew-weighted place in its own block so DSPlacer's internal
    # STA calls cannot leak into the sta.analyze aggregate
    cfg = DSPlacerConfig(seed=seed, skew_model="htree", skew_weight=5.0)
    with obs.observe() as ob_place:
        DSPlacer(dev, cfg).place(netlist)

    agg = aggregate_spans(ob.tracer.to_dicts())
    agg_place = aggregate_spans(ob_place.tracer.to_dicts())
    if "place" in agg_place:
        agg["place"] = agg_place["place"]
    return {
        "kind": BENCH_KIND,
        "schema_version": BENCH_SCHEMA_VERSION,
        "workload": f"slot_fabric@{scale:g}",
        "suite": suite,
        "scale": scale,
        "seed": seed,
        "skew_model": "htree",
        "skew_weight": 5.0,
        "htree_depth": dev.clock_tree.config.depth,
        "n_cells": len(netlist.cells),
        "stages": {
            name: agg[name] for name in SLOT_FABRIC_GATED_STAGES if name in agg
        },
    }


#: absolute slack added on top of the relative band — a 25% band on a
#: millisecond-scale stage would gate pure scheduler jitter
ABS_SLACK_S = 0.005


def compare(
    current: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = 0.25,
    stages: tuple[str, ...] = GATED_STAGES,
    abs_slack: float = ABS_SLACK_S,
) -> list[str]:
    """Regression check of a fresh run against the committed baseline.

    Returns a list of human-readable problems — empty means no stage's
    wall time exceeded ``baseline × (1 + threshold) + abs_slack``. A missing
    baseline workload is itself a problem (the gate must not silently pass).
    """
    problems: list[str] = []
    wid = current.get("workload", "?")
    base = baseline.get("workloads", {}).get(wid)
    if base is None:
        return [
            f"no baseline entry for workload {wid!r} — refresh with "
            f"`python -m repro.obs.bench --suite {current.get('suite')} "
            f"--scale {current.get('scale')} --baseline BENCH_hotpaths.json --update`"
        ]
    for name in stages:
        cur = current.get("stages", {}).get(name)
        ref = base.get("stages", {}).get(name)
        if cur is None or ref is None:
            problems.append(f"{wid}: stage {name!r} missing from current/baseline run")
            continue
        limit = ref["wall_s"] * (1.0 + threshold) + abs_slack
        if cur["wall_s"] > limit:
            problems.append(
                f"{wid}: {name} regressed — {cur['wall_s']:.4f}s vs baseline "
                f"{ref['wall_s']:.4f}s (> {threshold:.0%} slower)"
            )
    return problems


def update_baseline(baseline: dict[str, Any] | None, doc: dict[str, Any]) -> dict[str, Any]:
    """Insert/replace ``doc``'s workload in a baseline document.

    Preserves an existing workload's ``reference`` block (the historical
    pre-optimization measurements) across refreshes.
    """
    out = dict(baseline or {})
    out.setdefault("kind", BENCH_KIND)
    out.setdefault("schema_version", BENCH_SCHEMA_VERSION)
    workloads = dict(out.get("workloads", {}))
    entry = {k: v for k, v in doc.items() if k not in ("kind", "schema_version")}
    old = workloads.get(doc["workload"])
    if old is not None and "reference" in old:
        entry["reference"] = old["reference"]
    workloads[doc["workload"]] = entry
    out["workloads"] = workloads
    return out


def _main(argv: list[str] | None = None) -> int:
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="run the hot-path benchmark and gate against a baseline",
    )
    parser.add_argument("--suite", default="skynet")
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="workload scale (default 0.25 for hot paths, 0.05 for --serve)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--iterations", type=int, default=12)
    parser.add_argument("--features-scale", type=float, default=0.01)
    parser.add_argument("--out", help="write the fresh run document here")
    parser.add_argument("--baseline", help="baseline JSON to compare against")
    parser.add_argument(
        "--fail-threshold",
        type=float,
        default=0.25,
        help="fail when a gated stage is this fraction slower than baseline",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline with this run instead of gating against it",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run the serve-throughput benchmark (five Table I suites through "
        "the worker pool) instead of the hot-path kernels",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker pool size for --serve"
    )
    parser.add_argument(
        "--slot-fabric",
        action="store_true",
        help="run the clock-aware slot-fabric workload (H-tree skew STA + "
        "skew-weighted place) instead of the hot-path kernels",
    )
    args = parser.parse_args(argv)

    if args.scale is None:
        args.scale = 0.05 if (args.serve or args.slot_fabric) else 0.25
    if args.serve:
        doc = run_serve_throughput(scale=args.scale, workers=args.workers, seed=args.seed)
        gated = SERVE_GATED_STAGES
        print(f"placements/minute: {doc['placements_per_minute']:.2f} ({doc['n_ok']}/{doc['n_jobs']} ok)")
    elif args.slot_fabric:
        doc = run_slot_fabric(suite=args.suite, scale=args.scale, seed=args.seed)
        gated = SLOT_FABRIC_GATED_STAGES
    else:
        doc = run_hotpaths(
            suite=args.suite,
            scale=args.scale,
            seed=args.seed,
            max_iterations=args.iterations,
            features_scale=args.features_scale,
        )
        gated = GATED_STAGES
    print(json.dumps(doc["stages"], indent=2, sort_keys=True))
    if args.out:
        pathlib.Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        pathlib.Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if not args.baseline:
        return 0
    path = pathlib.Path(args.baseline)
    if args.update:
        baseline = json.loads(path.read_text()) if path.exists() else None
        path.write_text(json.dumps(update_baseline(baseline, doc), indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {path}")
        return 0
    if not path.exists():
        print(f"baseline {path} not found")
        return 1
    problems = compare(
        doc, json.loads(path.read_text()), threshold=args.fail_threshold, stages=gated
    )
    for p in problems:
        print(f"REGRESSION: {p}")
    if not problems:
        print(f"ok: within {args.fail_threshold:.0%} of baseline for {doc['workload']}")
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
