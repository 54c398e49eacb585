"""Bertsekas ε-scaling auction algorithm for dense assignment.

A third assignment engine alongside the min-cost flow and scipy's
``linear_sum_assignment``. The auction mechanism is naturally vectorizable (every
unassigned agent bids simultaneously via two numpy reductions).

Optimality contract: the returned assignment is **ε-optimal** — its cost is
within ``n × eps_min`` of the optimum (Bertsekas' classic bound). For
integer costs and ``eps_min < 1/(n+1)`` that bound implies exact
optimality; for float costs choose ``eps_min`` to the tolerance you need.
The test suite checks both regimes against ``linear_sum_assignment``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverConvergenceError, SolverInputError
from repro.obs import metrics


def auction_assignment(
    cost: np.ndarray,
    eps_min: float | None = None,
    eps_scale: float = 4.0,
    max_rounds: int = 10_000_000,
) -> tuple[np.ndarray, float]:
    """Minimize ``Σ cost[i, col(i)]`` over injective column choices.

    Args:
        cost: ``(n, m)`` dense cost matrix, ``n <= m``.
        eps_min: Final ε of the scaling schedule. Defaults to
            ``1/(2(n+1))`` after costs are normalized, which is exact for
            integer-valued costs and within ``n·eps_min·spread`` otherwise.
        eps_scale: ε shrink factor between scaling phases.
        max_rounds: Safety valve on total bidding rounds.

    Returns:
        ``(col_of_row, total_cost)`` — an ε-optimal assignment.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    if n > m:
        raise SolverInputError("auction_assignment requires n_rows <= n_cols")
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0.0
    metrics.inc("auction.solves")
    benefit = -cost  # auction maximizes
    spread = float(benefit.max() - benefit.min())
    if spread <= 0:  # all costs equal: any assignment is optimal
        col_of = np.arange(n, dtype=np.int64)
        return col_of, float(cost[np.arange(n), col_of].sum())
    if eps_min is None:
        eps_min = spread / (2.0 * (n + 1))

    # One forward-auction run with fresh zero prices. (Price-carrying
    # ε-scaling is faster on square problems but breaks the n·ε optimality
    # bound when n < m: an object bid up in an early phase and abandoned at
    # a restart keeps its inflated price with no owner. With zero initial
    # prices, every priced object is owned at termination, and the classic
    # ε-complementary-slackness argument gives cost ≤ optimum + n·ε.)
    del eps_scale  # retained in the signature for API stability
    prices = np.zeros(m)
    owner = np.full(m, -1, dtype=np.int64)
    col_of = np.full(n, -1, dtype=np.int64)
    eps = eps_min

    rounds = 0
    while (col_of < 0).any():
        rounds += 1
        if rounds > max_rounds:
            raise SolverConvergenceError("auction did not converge (max_rounds)")
        bidders = np.flatnonzero(col_of < 0)
        values = benefit[bidders] - prices[None, :]
        best_j = np.argmax(values, axis=1)
        best_v = values[np.arange(bidders.size), best_j]
        values[np.arange(bidders.size), best_j] = -np.inf
        second_v = values.max(axis=1)
        if m == 1:
            second_v = best_v - spread  # no alternative object
        bids = best_v - second_v + eps
        # Jacobi bidding: per contested object only the single highest bid
        # wins and sets the price (accumulating simultaneous bids would
        # overshoot prices past the ε-CS guarantee)
        win_bid: dict[int, tuple[float, int]] = {}
        for k in range(bidders.size):
            j = int(best_j[k])
            entry = win_bid.get(j)
            if entry is None or bids[k] > entry[0]:
                win_bid[j] = (float(bids[k]), int(bidders[k]))
        for j, (bid, i) in win_bid.items():
            prev = owner[j]
            if prev >= 0:
                col_of[prev] = -1
            owner[j] = i
            col_of[i] = j
            prices[j] += bid

    total = float(cost[np.arange(n), col_of].sum())
    return col_of, total
