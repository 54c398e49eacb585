"""Aggregate experiment report generation.

Collects the artifacts the benchmark harness wrote under
``benchmarks/results/`` into one markdown document — the mechanical half of
EXPERIMENTS.md (the paper-vs-measured commentary is written by humans).
"""

from __future__ import annotations

from pathlib import Path

#: artifact name -> (section title, paper reference)
SECTIONS = {
    "table1": ("Table I — Benchmarks detail", "Table I"),
    "fig7a": ("Fig. 7(a) — Identification accuracy", "Fig. 7(a)"),
    "fig7b": ("Fig. 7(b) — Training curves", "Fig. 7(b)"),
    "table2": ("Table II — Placement comparison", "Table II"),
    "fig8": ("Fig. 8 — Runtime profiling", "Fig. 8"),
    "fig9": ("Fig. 9 — Layout visualization", "Fig. 9"),
    "ablation_identification": ("Ablation A1 — control-DSP pruning", "§III-B"),
    "ablation_lambda": ("Ablation A2 — λ sweep", "§V-C"),
    "ablation_candidates": ("Ablation A3 — MCF candidate window", "—"),
    "ablation_legalization": ("Ablation A4 — ILP vs greedy legalization", "eq. 10"),
    "ablation_alternation": ("Ablation A5 — alternation depth", "Fig. 6"),
    "ablation_timing_driven": ("Ablation A6 — timing-driven baseline", "§I"),
    "ablation_packing": ("Ablation A7 — BLE packing", "§I (UTPlaceF)"),
    "ablation_gcn_depth": ("Ablation A8 — GCN depth vs MLP", "§V-B"),
    "systolic_extension": ("Extension — systolic arrays", "§I (R-SAD)"),
    "freq_sweep": ("Extension — WNS vs clock sweep", "§V-C protocol"),
    "clock_skew": ("Extension — skew-aware assignment on the slot fabric", "—"),
    "seed_robustness": ("Robustness — seed sensitivity", "—"),
    "router_models": ("Infrastructure — router model agreement", "—"),
    "bench_hotpaths": ("Infrastructure — hot-path timings", "—"),
    "bench_serve": ("Infrastructure — serve throughput", "—"),
}


def collect_results(results_dir: str | Path) -> dict[str, str]:
    """Read every known artifact present in the results directory."""
    results_dir = Path(results_dir)
    out: dict[str, str] = {}
    for name in SECTIONS:
        path = results_dir / f"{name}.txt"
        if path.exists():
            out[name] = path.read_text().rstrip()
    return out


def build_report(results_dir: str | Path, title: str = "Experiment results") -> str:
    """Render all collected artifacts as one markdown document."""
    artifacts = collect_results(results_dir)
    lines = [f"# {title}", ""]
    if not artifacts:
        lines.append(
            "_No artifacts found — run `pytest benchmarks/ --benchmark-only` first._"
        )
    for name, (section, ref) in SECTIONS.items():
        if name not in artifacts:
            continue
        lines.append(f"## {section}")
        lines.append(f"_Paper reference: {ref}_")
        lines.append("")
        lines.append("```")
        lines.append(artifacts[name])
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def write_report(results_dir: str | Path, output: str | Path) -> Path:
    """Write the aggregate report; returns the output path."""
    output = Path(output)
    output.write_text(build_report(results_dir))
    return output
