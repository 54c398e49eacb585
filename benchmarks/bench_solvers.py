"""Micro-benchmarks of the optimization substrate.

These are true pytest-benchmark timings (multiple rounds) for the solvers
the DSPlacer inner loop leans on — useful to spot regressions in the
assignment, intra-column DP and ILP kernels.
"""

import numpy as np
import pytest

from repro.solvers import (
    ColumnBlock,
    legalize_column_rows,
    min_cost_assignment,
    solve_ilp,
)


@pytest.fixture(scope="module")
def assignment_cost():
    """A dense 100 DSP × 150 site cost matrix."""
    return np.random.default_rng(0).uniform(0, 100, (100, 150))


def test_bench_mcf_assignment(benchmark, assignment_cost):
    cols = benchmark(min_cost_assignment, assignment_cost)
    assert len(set(cols.tolist())) == assignment_cost.shape[0]


def test_bench_intra_column_dp(benchmark):
    rng = np.random.default_rng(3)
    blocks = []
    total = 0
    while total < 100:
        size = int(rng.integers(1, 9))
        blocks.append(ColumnBlock(targets=tuple(sorted(rng.uniform(0, 144, size)))))
        total += size
    blocks.sort(key=lambda b: np.mean(b.targets))
    starts = benchmark(legalize_column_rows, blocks, 144)
    assert len(starts) == len(blocks)


def test_bench_ilp_intercolumn_shape(benchmark):
    """An eq.-(10)-shaped ILP: 60 entities x 6 columns."""
    rng = np.random.default_rng(4)
    n, ncol = 60, 6
    sizes = rng.integers(1, 9, n).astype(float)
    cost = rng.uniform(0, 100, (n, ncol)).ravel()
    a_eq = np.zeros((n, n * ncol))
    for i in range(n):
        a_eq[i, i * ncol : (i + 1) * ncol] = 1.0
    a_ub = np.zeros((ncol, n * ncol))
    for j in range(ncol):
        a_ub[j, j::ncol] = sizes
    caps = np.full(ncol, sizes.sum() / ncol * 1.3)

    res = benchmark(
        solve_ilp,
        cost,
        A_ub=a_ub,
        b_ub=caps,
        A_eq=a_eq,
        b_eq=np.ones(n),
        bounds=[(0.0, 1.0)] * (n * ncol),
    )
    assert res.ok
