"""Optimization substrate.

Implementations of the solvers the paper outsources:

- :mod:`repro.solvers.mcf` — the min-cost assignment of the linearized
  DSP placement (eq. 8/9; the paper uses LEMON's min-cost flow), solved
  by one dense LAPJV call (``scipy.optimize.linear_sum_assignment``).
- :mod:`repro.solvers.ilp` — mixed-integer LP (the paper uses Gurobi) as one
  HiGHS ``scipy.optimize.milp`` call.
- :mod:`repro.solvers.isotonic` — exact intra-column row legalization
  (eq. 11) by cascade-block collapsing + dynamic programming, and an L1
  isotonic (PAVA-median) fast path.
"""

from repro.solvers.mcf import min_cost_assignment
from repro.solvers.ilp import ILPResult, solve_ilp
from repro.solvers.isotonic import ColumnBlock, l1_isotonic, legalize_column_rows

__all__ = [
    "min_cost_assignment",
    "ILPResult",
    "solve_ilp",
    "ColumnBlock",
    "l1_isotonic",
    "legalize_column_rows",
]
