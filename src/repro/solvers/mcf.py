"""Min-cost assignment: the per-iterate kernel of the linearized DSP
assignment (eq. 8/9).

The paper solves each linearized iterate with LEMON's min-cost flow. The
weighted-sum-of-``x_ij`` objective under the assignment constraints (eq. 4)
is a unit-capacity transportation problem whose constraint matrix is
totally unimodular, so the LP optimum — and hence the flow optimum — is
integral (Section IV-A). :func:`min_cost_assignment` solves that same
integral problem over a sparse candidate-arc set with scipy's LAPJVsp
(``csgraph.min_weight_full_bipartite_matching``). The successive-shortest-
paths flow network in ``tests/oracles/mcf.py`` cross-checks its optima.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.errors import SolverInfeasibleError
from repro.obs import metrics


ArcArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def _normalize_arcs(
    n_agents: int, n_slots: int, arcs: list[tuple[int, int, float]] | ArcArrays
) -> ArcArrays:
    """Validate arcs and deduplicate ``(agent, slot)`` keys keeping the
    *minimum* cost.

    Duplicate arcs arise in the DSP loop when the previous-site feasibility
    arc coincides with a candidate-window arc; keeping the first listed cost
    (the pre-PR-3 behaviour) could shadow a cheaper duplicate, so the min
    wins regardless of listing order.
    """
    if isinstance(arcs, tuple) and len(arcs) == 3:
        agents = np.asarray(arcs[0], dtype=np.int64)
        slots = np.asarray(arcs[1], dtype=np.int64)
        costs = np.asarray(arcs[2], dtype=np.float64)
    else:
        agents = np.fromiter((a for a, _, _ in arcs), dtype=np.int64, count=len(arcs))
        slots = np.fromiter((s for _, s, _ in arcs), dtype=np.int64, count=len(arcs))
        costs = np.fromiter((c for _, _, c in arcs), dtype=np.float64, count=len(arcs))
    if agents.size and (
        agents.min() < 0
        or agents.max() >= n_agents
        or slots.min() < 0
        or slots.max() >= n_slots
    ):
        bad = np.flatnonzero(
            (agents < 0) | (agents >= n_agents) | (slots < 0) | (slots >= n_slots)
        )[0]
        raise IndexError(f"arc ({agents[bad]}, {slots[bad]}) out of range")
    order = np.lexsort((costs, slots, agents))
    agents, slots, costs = agents[order], slots[order], costs[order]
    keep = np.ones(agents.size, dtype=bool)
    keep[1:] = (agents[1:] != agents[:-1]) | (slots[1:] != slots[:-1])
    return agents[keep], slots[keep], costs[keep]


def _assignment_lapjvsp(
    n_agents: int, n_slots: int, agents: np.ndarray, slots: np.ndarray, costs: np.ndarray
) -> dict[int, int]:
    """Unit-capacity assignment via scipy's sparse LAPJVsp."""
    # LAPJVsp drops explicit zeros from the sparsity pattern; shift every
    # cost strictly positive — a uniform shift adds n_agents·shift to every
    # perfect matching, leaving the argmin unchanged.
    lo = float(costs.min())
    shifted = costs + (1.0 - lo) if lo < 1.0 else costs
    graph = sp.csr_matrix((shifted, (agents, slots)), shape=(n_agents, n_slots))
    try:
        rows, cols = csgraph.min_weight_full_bipartite_matching(graph)
    except ValueError as exc:
        raise SolverInfeasibleError(f"infeasible assignment: {exc}") from exc
    metrics.inc("mcf.lapjvsp_solves")
    return {int(r): int(c) for r, c in zip(rows, cols)}


def min_cost_assignment(
    n_agents: int,
    n_slots: int,
    arcs: list[tuple[int, int, float]] | ArcArrays,
) -> dict[int, int]:
    """Assign every agent to a slot at minimum total cost.

    Args:
        n_agents: Agents 0..n_agents-1; each must receive exactly one slot.
        n_slots: Slots 0..n_slots-1; each takes at most one agent.
        arcs: Candidate ``(agent, slot, cost)`` triples — either a list of
            tuples or a ``(agents, slots, costs)`` array triple (the DSP
            loop passes arrays to avoid materialising tuples). Duplicate
            ``(agent, slot)`` keys keep the minimum cost. Agents may only
            be assigned along a listed arc (the DSP placement restricts
            each DSP to a candidate window of sites).

    Returns:
        ``{agent: slot}`` covering all agents.

    Raises:
        SolverInfeasibleError: If no feasible complete assignment exists.
    """
    if n_agents == 0:
        return {}
    agents, slots, costs = _normalize_arcs(n_agents, n_slots, arcs)
    metrics.inc("mcf.arcs", int(agents.size))
    if np.unique(agents).size < n_agents:
        raise SolverInfeasibleError(
            f"infeasible assignment: {n_agents - np.unique(agents).size} of "
            f"{n_agents} agents have no candidate arc"
        )
    return _assignment_lapjvsp(n_agents, n_slots, agents, slots, costs)
