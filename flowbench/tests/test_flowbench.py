"""Tests of the benchmark itself: run with ``python -m pytest flowbench/tests``."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import tracing  # noqa: E402
from check import placement_problems  # noqa: E402


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------
TINY = {
    "table1": dict(suites=("ismartdnn", "skynet"), scale=0.02),
    "half_scale": dict(suites=("skrskr2",), scale=0.02),
    "serve_mix": dict(suites=("ismartdnn", "skynet"), scale=0.02, distinct=4, repeats=2),
}


def _smoke(name: str, trace: int, capsys) -> dict:
    wl = dataclasses.replace(bench.WORKLOADS[name], **TINY[name])
    args = argparse.Namespace(workload=name, seed=3, seconds=0.1, trace=trace)
    code = bench.run(args, wl)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, lines[-25:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_untraced(name, capsys):
    result = _smoke(name, 0, capsys)
    assert list(result["metrics"]) == list(bench.END_TO_END)
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"]) and metric["value"] > 0


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_smoke_traced(name, capsys):
    originals = _entry_point_values()
    result = _smoke(name, 1, capsys)
    assert list(result["metrics"]) == list(bench.PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["core.place.calls"] >= 1
    assert values["placers.global_place.calls"] >= 1
    assert values["legalization.ilp_solved_ratio"] == 1.0
    if name == "serve_mix":
        assert values["serve.submit.calls"] == 6
        assert values["serve.cache_hit_ratio"] == pytest.approx(2 / 6)
    else:
        assert values["router.route.calls"] == len(TINY[name]["suites"])
    # every wrapper is gone again
    assert _entry_point_values() == originals


def test_place_self_times_sum_to_traced_place(capsys):
    wl = dataclasses.replace(bench.WORKLOADS["table1"], **TINY["table1"])
    args = argparse.Namespace(workload="table1", seed=0, seconds=0.1, trace=1)
    assert bench.run(args, wl) == 0
    capsys.readouterr()
    detail = json.loads((bench.RESULTS_DIR / "table1-seed0-trace1.json").read_text())
    note = detail["notes"]
    assert note["traced_place_s"] > 0
    assert note["sum_of_self_s"] == pytest.approx(note["traced_place_s"], abs=2 * bench.PLACE_SUM_ATOL)
    assert note["trace_overhead_s"] == pytest.approx(note["spans_under_place"] * note["wrapper_call_s"])
    assert 0 < note["trace_overhead_s"] < 0.01 * note["traced_place_s"]
    for row in detail["designs"]:
        assert len(row["ilp_nodes"]) == 2  # one legalization per outer iteration


def test_place_sum_check_catches_work_outside_the_place_span(capsys, monkeypatch):
    from repro.core import DSPlacer

    original = DSPlacer.__init__

    def slow_init(self, *args, **kwargs):
        time.sleep(0.05)  # timed as place_s, but no wrapped layer sees it
        original(self, *args, **kwargs)

    monkeypatch.setattr(DSPlacer, "__init__", slow_init)
    wl = dataclasses.replace(bench.WORKLOADS["table1"], **TINY["table1"])
    args = argparse.Namespace(workload="table1", seed=0, seconds=0.1, trace=1)
    assert bench.run(args, wl) == 1
    out = capsys.readouterr().out
    assert "self times under DSPlacer.place" in out
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_place_sum_problems_on_synthetic_spans():
    spans = [
        tracing.Span(1, "core.place", 0.0, 2.0, 0, "a"),
        tracing.Span(2, "placers.prototype", 0.5, 1.5, 1, "a"),
        tracing.Span(3, "router.route", 3.0, 4.0, 0, "a"),  # sign-off: not under place
    ]
    sums, n_spans = bench.place_self_sums(spans)
    assert sums == {"a": pytest.approx(2.0)} and n_spans == 2
    assert bench.place_sum_problems(sums, {"a": 2.0 + bench.PLACE_SUM_ATOL / 2}) == []
    assert bench.place_sum_problems(sums, {"a": 2.1})
    assert bench.place_sum_problems(sums, {"b": 1.0})  # a design with no place span


# ----------------------------------------------------------------------
# the output check
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def legal():
    from repro.accelgen import generate_suite
    from repro.fpga import zcu104
    from repro.placers import VivadoLikePlacer

    dev = zcu104()
    netlist = generate_suite("ismartdnn", scale=0.02, device=dev, seed=0)
    placement = VivadoLikePlacer(seed=0, device=dev).place(netlist)
    assert netlist.macros and placement_problems(placement) == []
    return placement


def _free_dsp_site(p, column_not: int | None = None) -> int:
    used = set(int(s) for s in p.site[p.netlist.dsp_indices()])
    for site in p.device.sites("DSP"):
        if site.sid not in used and site.col != column_not:
            return site.sid
    raise AssertionError("no free DSP site")


def test_check_rejects_overlap(legal):
    p = legal.copy()
    a, b = p.netlist.dsp_indices()[:2]
    p.assign_site(b, int(p.site[a]))
    assert any("holds 2 cells" in msg for msg in placement_problems(p))


def test_check_rejects_clb_over_capacity(legal):
    p = legal.copy()
    clb = [c.index for c in p.netlist.cells if c.fixed_xy is None and c.ctype.site_kind == "CLB"]
    for i in clb[: p.device.clb_capacity + 1]:
        p.assign_site(i, 0)
    assert any("CLB site 0 holds" in msg for msg in placement_problems(p))


def test_check_rejects_split_cascade(legal):
    p = legal.copy()
    macro = p.netlist.macros[0]
    col = p.device.sites("DSP")[int(p.site[macro.dsps[0]])].col
    p.assign_site(macro.dsps[-1], _free_dsp_site(p, column_not=col))
    assert any(f"macro {macro.macro_id}" in msg for msg in placement_problems(p))


def test_check_rejects_reversed_cascade(legal):
    p = legal.copy()
    macro = p.netlist.macros[0]
    head, second = macro.dsps[0], macro.dsps[1]
    s_head, s_second = int(p.site[head]), int(p.site[second])
    p.assign_site(head, s_second)
    p.assign_site(second, s_head)
    assert any(f"macro {macro.macro_id}" in msg for msg in placement_problems(p))


def test_check_rejects_wrong_site_kind(legal):
    p = legal.copy()
    lut = next(c.index for c in p.netlist.cells if c.ctype.site_kind == "CLB" and c.fixed_xy is None)
    free = _free_dsp_site(p)
    p.site[lut] = free
    p.xy[lut] = p.device.site_xy("DSP")[free]
    assert any("not at CLB site" in msg for msg in placement_problems(p))


def test_check_rejects_unsited_cell(legal):
    p = legal.copy()
    p.site[p.netlist.dsp_indices()[0]] = -1
    assert any("no DSP site" in msg for msg in placement_problems(p))


def test_check_rejects_moved_fixed_cell(legal):
    p = legal.copy()
    fixed = next(c.index for c in p.netlist.cells if c.fixed_xy is not None)
    p.xy[fixed] += 1.0
    assert any("moved" in msg for msg in placement_problems(p))


def test_check_rejects_wrong_hpwl(legal, monkeypatch):
    p = legal.copy()
    true_hpwl = p.hpwl()
    monkeypatch.setattr(p, "hpwl", lambda weighted=False: true_hpwl * (1 + 1e-6))
    assert any("HPWL" in msg for msg in placement_problems(p))


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def _span(sid, start, end, parent=0, name="x"):
    return tracing.Span(sid, name, start, end, parent, None)


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 5.0, parent=1),  # overlaps span 2: counted once
        _span(4, 6.0, 7.0, parent=1),
        _span(5, 6.2, 6.5, parent=4),
        _span(6, 9.5, 11.0, parent=1),  # runs past its parent: clipped
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(0.7)
    assert selfs[5] == pytest.approx(0.3)
    assert {sp.id for sp in tracing.descendants(spans, 1)} == {2, 3, 4, 5, 6}


def test_layer_totals_count_reentry_once():
    spans = [
        _span(1, 0.0, 4.0, name="core.place"),
        _span(2, 1.0, 3.0, parent=1, name="core.place"),
        _span(3, 1.5, 2.0, parent=2, name="placers.refine"),
    ]
    totals = tracing.layer_totals(spans)
    assert totals["core.place"]["calls"] == 2
    assert totals["core.place"]["wall_s"] == pytest.approx(4.0)
    assert totals["core.place"]["self_s"] == pytest.approx(3.5)
    assert totals["placers.refine"]["self_s"] == pytest.approx(0.5)
    merged = tracing.merge_totals(totals, totals)
    assert merged["core.place"]["calls"] == 4


def _entry_point_values():
    return [tracing._resolve(m, a)[2] for _, m, a in tracing.LAYER_ENTRY_POINTS]


def test_wrappers_are_removed_even_when_the_block_raises():
    from repro.accelgen import generate_suite
    from repro.core import DSPlacer
    from repro.fpga import zcu104

    originals = _entry_point_values()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert _entry_point_values() != originals
            raise RuntimeError("boom")
    assert _entry_point_values() == originals

    dev = zcu104()
    netlist = generate_suite("ismartdnn", scale=0.02, device=dev, seed=0)
    with tracing.installed(tracer):
        DSPlacer(dev).place(netlist)
    n_traced = len(tracer.spans)
    assert {"core.place", "placers.global_place", "legalization.legalize"} <= {
        sp.name for sp in tracer.spans
    }
    DSPlacer(dev).place(netlist)  # untraced: records nothing
    assert len(tracer.spans) == n_traced
    assert _entry_point_values() == originals


# ----------------------------------------------------------------------
# workload shape and statistics
# ----------------------------------------------------------------------
def test_serve_stream_is_seeded_and_repeats_earlier_designs():
    wl = bench.WORKLOADS["serve_mix"]
    stream = bench.serve_stream(wl, 7)
    assert stream == bench.serve_stream(wl, 7) != bench.serve_stream(wl, 8)
    assert len(stream) == wl.distinct + wl.repeats
    assert len(set(stream)) == wl.distinct
    for suite in wl.suites:
        assert sum(s == suite for s, _ in set(stream)) == wl.distinct // len(wl.suites)
    seen: dict = {}
    for pos, design in enumerate(stream):
        if design in seen:
            assert pos - seen[design] > bench.SERVE_OUTSTANDING
        else:
            seen[design] = pos


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, note = bench.tail([float(i) for i in range(60)])
    assert value == 49.0 and note["beyond"] == 10 and note["n"] == 60
    value, note = bench.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and note["beyond"] == 0


def test_latency_metrics_are_taken_per_pass():
    def design(latency):
        return {
            "design": "d", "status": "ok", "problems": [], "latency_s": latency, "place_s": 1.0,
            "signoff_s": 0.1, "hpwl_um": 1.0, "routed_wl_um": 1.0, "fmax_mhz": 1.0, "wns_ns": 0.0,
        }

    # three in-process passes of five designs: 15 samples in all, but each
    # pass's tail is still its last design
    passes = [
        {"records": [design(float(i + k)) for i in range(1, 6)], "wall_s": 5.0}
        for k in (0, 1, 2)
    ]
    setup = [{"total_s": 1.0}]
    metrics, note = bench.end_to_end(setup, passes)
    assert metrics["serve_latency_tail_s"] == 6.0  # median of 5, 6, 7
    assert metrics["serve_latency_p50_s"] == 4.0  # median of 3, 4, 5
    assert note["passes"] == 3 and note["n"] == 5


def test_benchmark_json_lists_the_metrics_the_run_prints():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(bench.END_TO_END)
    for m in doc["end_to_end"]:
        assert (m["unit"], m["better"]) == bench.REPORTED[m["name"]]
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in doc["workloads"]} <= set(bench.WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == bench.WORKLOADS[w["name"]].why
