"""Mixed-integer linear programming with HiGHS (``scipy.optimize.milp``).

Replaces the Gurobi dependency for the cascade legalization ILP (eq. 10).
HiGHS runs its own branch-and-cut; this module only maps its result onto
:class:`ILPResult` and the repo's typed errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.errors import SolverConvergenceError, SolverInputError
from repro.obs import metrics


@dataclass(frozen=True)
class ILPResult:
    """Outcome of an ILP solve."""

    status: str  # "optimal" | "infeasible" | "node_limit"
    x: np.ndarray | None
    objective: float | None
    n_nodes: int
    gap: float | None = None  # HiGHS relative MIP gap of the incumbent, if any

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def solve_ilp(
    c: np.ndarray,
    A_ub=None,
    b_ub: np.ndarray | None = None,
    A_eq=None,
    b_eq: np.ndarray | None = None,
    bounds: list[tuple[float, float]] | None = None,
    integrality: np.ndarray | None = None,
    max_nodes: int = 200_000,
) -> ILPResult:
    """min c@x s.t. A_ub x <= b_ub, A_eq x = b_eq, bounds, x[i] integer where marked.

    Args:
        A_ub, A_eq: Dense arrays or scipy sparse matrices.
        integrality: Boolean mask; ``None`` marks every variable integer.
        max_nodes: HiGHS branch-and-bound node budget; exceeding it returns
            the incumbent, if any, with status ``"node_limit"``.

    Returns:
        :class:`ILPResult` with the optimal integral solution when found.

    Raises:
        SolverInputError: The problem is unbounded.
        SolverConvergenceError: HiGHS failed for any other reason.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    lb, ub = np.asarray(bounds if bounds is not None else [(0.0, 1.0)] * n, dtype=np.float64).T
    integrality = np.ones(n) if integrality is None else np.asarray(integrality, dtype=np.uint8)
    constraints = []
    if A_ub is not None:
        constraints.append(LinearConstraint(A_ub, -np.inf, b_ub))
    if A_eq is not None:
        constraints.append(LinearConstraint(A_eq, b_eq, b_eq))

    metrics.inc("ilp.solves")
    metrics.inc("ilp.variables", n)
    res = milp(
        c,
        constraints=constraints,
        bounds=Bounds(lb, ub),
        integrality=integrality,
        options={"node_limit": max_nodes},
    )
    n_nodes = int(res.mip_node_count or 0)
    metrics.inc("ilp.nodes_explored", n_nodes)
    # HiGHS reports a node limit as "Solution limit reached" (scipy status 4)
    limit = res.status == 1 or "limit reached" in res.message
    if res.status == 0 or (limit and res.x is not None):  # a limit keeps HiGHS's incumbent
        x = np.where(integrality, np.round(res.x), res.x)
        status = "optimal" if res.status == 0 else "node_limit"
        return ILPResult(status, x, float(res.fun), n_nodes, float(res.mip_gap))
    if limit:
        return ILPResult("node_limit", None, None, n_nodes)
    if res.status == 2:
        return ILPResult("infeasible", None, None, n_nodes)
    if res.status == 3 or "unbounded" in res.message:
        raise SolverInputError("ILP is unbounded; add finite bounds")
    raise SolverConvergenceError(f"HiGHS failed: {res.message}")
