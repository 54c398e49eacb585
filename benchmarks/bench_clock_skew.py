"""Clock extension — skew-aware vs skew-blind assignment on the slot fabric.

Regenerates the EXPERIMENTS.md "Clock-skew-aware assignment on the slot
fabric" table: ``slot_fabric(0.05)``, iSmartDNN and SkyNet at scale 0.05,
seeds {0, 1, 2}; each final placement is routed by the ``PatternRouter``
and timed by a ``StaticTimingAnalyzer`` under the H-tree skew model, so
every setup check pays the signed per-sink clock-arrival difference.
"Skew-blind" is ``skew_weight=0``, "skew-aware" ``skew_weight=5``.
"""

import numpy as np

from repro.accelgen import generate_suite
from repro.clock import get_skew_model
from repro.core import DSPlacer, DSPlacerConfig
from repro.eval import render_table
from repro.fpga import slot_fabric
from repro.router.pattern_router import PatternRouter
from repro.timing import StaticTimingAnalyzer

SUITES = ("ismartdnn", "skynet")
SEEDS = (0, 1, 2)
CONFIGS = (("skew-blind (w=0)", 0.0), ("skew-aware (w=5)", 5.0))


def test_clock_skew_slot_fabric(benchmark, emit):
    dev = slot_fabric(0.05)
    skew = get_skew_model("htree", dev)

    def sweep():
        rows = []
        for suite in SUITES:
            for label, weight in CONFIGS:
                wns, hpwl, rolled_back = [], [], 0
                for seed in SEEDS:
                    nl = generate_suite(suite, scale=0.05, device=dev, seed=seed)
                    res = DSPlacer(
                        dev,
                        DSPlacerConfig(seed=seed, skew_model="htree", skew_weight=weight),
                    ).place(nl)
                    p = res.placement
                    timing = StaticTimingAnalyzer(nl, skew_model=skew).analyze(
                        p, PatternRouter().route(p)
                    )
                    wns.append(timing.wns_ns)
                    hpwl.append(p.hpwl())
                    events = res.health.to_dict()["events"]
                    rolled_back += any("regressed past" in e["detail"] for e in events)
                rows.append(
                    (suite, label, min(wns), float(np.mean(wns)), float(np.mean(hpwl)),
                     rolled_back)
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "clock_skew",
        render_table(
            ["suite", "config", "worst WNS (ns)", "mean WNS (ns)", "mean HPWL (um)",
             "HPWL rollbacks"],
            [[s, c, f"{w:+.3f}", f"{m:+.3f}", f"{h:.4g}", f"{r}/{len(SEEDS)}"]
             for s, c, w, m, h, r in rows],
            title="Clock extension: skew-aware assignment on slot_fabric(0.05).",
        ),
    )
    # every placement must be legal and timed; the aware flow never trips
    # the wirelength rollback (it is exempt from it)
    assert all(np.isfinite(w) for _, _, w, _, _, _ in rows)
    assert all(r == 0 for _, c, *_, r in rows if "aware" in c)
