"""Optimization substrate.

Implementations of the solvers the paper outsources:

- :mod:`repro.solvers.mcf` — min-cost flow (the paper uses LEMON) via
  successive shortest paths with Johnson potentials, plus a bipartite
  assignment front-end used by the linearized DSP placement (eq. 8/9).
- :mod:`repro.solvers.ilp` — mixed-integer LP (the paper uses Gurobi) as one
  HiGHS ``scipy.optimize.milp`` call.
- :mod:`repro.solvers.auction` — Bertsekas ε-scaling auction assignment.
- :mod:`repro.solvers.isotonic` — exact intra-column row legalization
  (eq. 11) by cascade-block collapsing + dynamic programming, and an L1
  isotonic (PAVA-median) fast path.
"""

from repro.solvers.auction import auction_assignment
from repro.solvers.mcf import MinCostFlow, min_cost_assignment
from repro.solvers.ilp import ILPResult, solve_ilp
from repro.solvers.isotonic import ColumnBlock, l1_isotonic, legalize_column_rows

__all__ = [
    "MinCostFlow",
    "min_cost_assignment",
    "auction_assignment",
    "ILPResult",
    "solve_ilp",
    "ColumnBlock",
    "l1_isotonic",
    "legalize_column_rows",
]
