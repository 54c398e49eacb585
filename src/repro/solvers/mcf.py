"""Min-cost assignment: the per-iterate kernel of the linearized DSP
assignment (eq. 8/9).

The paper solves each linearized iterate with LEMON's min-cost flow. The
weighted-sum-of-``x_ij`` objective under the assignment constraints (eq. 4)
is a unit-capacity transportation problem whose constraint matrix is
totally unimodular, so the LP optimum — and hence the flow optimum — is
integral (Section IV-A). :func:`min_cost_assignment` solves that same
integral problem exactly with one dense LAPJV call
(``scipy.optimize.linear_sum_assignment``) over the full DSP × site cost
matrix. The successive-shortest-paths flow network in
``tests/oracles/mcf.py`` cross-checks its optima.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from repro.errors import SolverInfeasibleError
from repro.obs import metrics


def min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Assign every row (DSP) to a distinct column (site) at minimum total cost.

    Args:
        cost: ``(n, m)`` cost matrix with ``n <= m``. A ``+inf`` entry
            forbids that pairing.

    Returns:
        ``cols`` — an int64 array of length ``n``; row ``i`` takes column
        ``cols[i]``.

    Raises:
        SolverInfeasibleError: If no complete assignment exists (more rows
            than columns, a row with no finite entry) or the matrix holds
            NaN / ``-inf``.
    """
    n, m = cost.shape
    if n > m:
        # scipy would silently leave n - m rows unassigned
        raise SolverInfeasibleError(f"infeasible assignment: {n} rows exceed {m} columns")
    try:
        _, cols = scipy.optimize.linear_sum_assignment(cost)
    except ValueError as exc:
        raise SolverInfeasibleError(f"infeasible assignment: {exc}") from exc
    metrics.inc("mcf.solves")
    return np.asarray(cols, dtype=np.int64)
