"""Ablation A4 — ILP inter-column legalization vs greedy fallback.

Eq. (10)'s ILP minimizes total horizontal displacement under column
capacities; the greedy fallback (biggest-first nearest-fit) is the
comparison point. The ILP must never displace more, and the gap widens at
high DSP utilization.
"""

import numpy as np

from repro.core.placement import CascadeLegalizer
from repro.eval import render_table
from repro.eval.experiments import get_device, get_netlist
from repro.robustness import EVERY_CALL, FaultInjector, inject


def _desired(netlist, device, seed):
    rng = np.random.default_rng(seed)
    return {
        c.index: tuple(rng.uniform([0, 0], [device.width, device.height]))
        for c in netlist.cells
        if c.ctype.is_dsp
    }


def test_ablation_legalization(benchmark, settings, emit):
    device = get_device(settings)
    rows = []

    def run():
        out = []
        for suite in ("skynet", "skrskr3"):
            netlist = get_netlist(settings, suite)
            desired = _desired(netlist, device, settings.seed)
            ilp = CascadeLegalizer(netlist, device).legalize(desired)
            with inject(FaultInjector().fail_on("legalization.ilp", call=EVERY_CALL)):
                greedy = CascadeLegalizer(netlist, device).legalize(desired)
            out.append((netlist.name, ilp, greedy))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for name, ilp, greedy in results:
        rows.append(
            [
                name,
                f"{ilp.total_displacement_um:.0f}",
                f"{greedy.total_displacement_um:.0f}",
                f"{greedy.total_displacement_um / max(ilp.total_displacement_um, 1e-9):.2f}x",
            ]
        )
    emit(
        "ablation_legalization",
        render_table(
            ["Benchmark", "ILP disp (um)", "greedy disp (um)", "greedy/ILP"],
            rows,
            title="Ablation A4: eq. (10) ILP vs greedy inter-column legalization.",
        ),
    )
    for name, ilp, greedy in results:
        assert ilp.used_ilp and not greedy.used_ilp
        assert ilp.total_displacement_um <= greedy.total_displacement_um * 1.001
