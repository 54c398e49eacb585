"""Successive-shortest-paths min-cost flow with Johnson potentials: the
oracle of ``min_cost_assignment``.

Dijkstra runs on non-negative reduced costs; an initial Bellman-Ford pass
absorbs negative edge costs. The oracle takes a sparse ``(agent, slot,
cost)`` arc list; the production solver takes the equivalent dense matrix.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.errors import SolverInfeasibleError, SolverInputError

ArcArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def _normalize_arcs(
    n_agents: int, n_slots: int, arcs: list[tuple[int, int, float]] | ArcArrays
) -> ArcArrays:
    """Validate arcs and deduplicate ``(agent, slot)`` keys keeping the
    *minimum* cost, whatever the listing order."""
    if isinstance(arcs, tuple) and len(arcs) == 3:
        agents = np.asarray(arcs[0], dtype=np.int64)
        slots = np.asarray(arcs[1], dtype=np.int64)
        costs = np.asarray(arcs[2], dtype=np.float64)
    else:
        agents = np.fromiter((a for a, _, _ in arcs), dtype=np.int64, count=len(arcs))
        slots = np.fromiter((s for _, s, _ in arcs), dtype=np.int64, count=len(arcs))
        costs = np.fromiter((c for _, _, c in arcs), dtype=np.float64, count=len(arcs))
    bad = np.flatnonzero(
        (agents < 0) | (agents >= n_agents) | (slots < 0) | (slots >= n_slots)
    )
    if bad.size:
        raise IndexError(f"arc ({agents[bad[0]]}, {slots[bad[0]]}) out of range")
    order = np.lexsort((costs, slots, agents))
    agents, slots, costs = agents[order], slots[order], costs[order]
    keep = np.ones(agents.size, dtype=bool)
    keep[1:] = (agents[1:] != agents[:-1]) | (slots[1:] != slots[:-1])
    return agents[keep], slots[keep], costs[keep]


class MinCostFlow:
    """A directed flow network with per-edge capacity and cost.

    Edges are stored pairwise (forward at even ids, residual at odd ids) in
    flat lists — the classic forward-star layout.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes <= 0:
            raise SolverInputError("network needs at least one node")
        self.n = n_nodes
        self._to: list[int] = []
        self._cap: list[float] = []
        self._cost: list[float] = []
        self._adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, cap: float, cost: float) -> int:
        """Add edge u→v; returns the forward edge id (use with :meth:`flow_on`)."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError(f"edge ({u}, {v}) out of range")
        if cap < 0:
            raise SolverInputError("negative capacity")
        eid = len(self._to)
        self._to.extend((v, u))
        self._cap.extend((float(cap), 0.0))
        self._cost.extend((float(cost), -float(cost)))
        self._adj[u].append(eid)
        self._adj[v].append(eid + 1)
        return eid

    def flow_on(self, eid: int) -> float:
        """Flow currently routed through forward edge ``eid``."""
        return self._cap[eid ^ 1]

    # ------------------------------------------------------------------
    def _bellman_ford_potentials(self, s: int) -> list[float]:
        """Initial potentials; needed when edges carry negative costs."""
        dist = [math.inf] * self.n
        dist[s] = 0.0
        for _ in range(self.n - 1):
            changed = False
            for u in range(self.n):
                du = dist[u]
                if du == math.inf:
                    continue
                for eid in self._adj[u]:
                    if self._cap[eid] > 1e-12:
                        v = self._to[eid]
                        nd = du + self._cost[eid]
                        if nd < dist[v] - 1e-12:
                            dist[v] = nd
                            changed = True
            if not changed:
                break
        return [d if d < math.inf else 0.0 for d in dist]

    def min_cost_flow(
        self, s: int, t: int, max_flow: float = math.inf
    ) -> tuple[float, float]:
        """Send up to ``max_flow`` units from ``s`` to ``t`` at minimum cost.

        Returns ``(flow_sent, total_cost)``. The network keeps its residual
        state, so edge flows can be read back via :meth:`flow_on`.
        """
        if s == t:
            raise SolverInputError("source equals sink")
        has_negative = any(
            self._cost[eid] < 0 and self._cap[eid] > 0 for eid in range(0, len(self._to), 2)
        )
        potential = self._bellman_ford_potentials(s) if has_negative else [0.0] * self.n

        total_flow = 0.0
        total_cost = 0.0
        prev_edge = [-1] * self.n

        while total_flow < max_flow:
            dist = [math.inf] * self.n
            dist[s] = 0.0
            prev_edge = [-1] * self.n
            heap: list[tuple[float, int]] = [(0.0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u] + 1e-12:
                    continue
                for eid in self._adj[u]:
                    if self._cap[eid] <= 1e-12:
                        continue
                    v = self._to[eid]
                    nd = d + self._cost[eid] + potential[u] - potential[v]
                    if nd < dist[v] - 1e-12:
                        dist[v] = nd
                        prev_edge[v] = eid
                        heapq.heappush(heap, (nd, v))
            if dist[t] == math.inf:
                break  # no more augmenting paths
            for v in range(self.n):
                if dist[v] < math.inf:
                    potential[v] += dist[v]
            # bottleneck along the path
            push = max_flow - total_flow
            v = t
            while v != s:
                eid = prev_edge[v]
                push = min(push, self._cap[eid])
                v = self._to[eid ^ 1]
            # apply
            v = t
            while v != s:
                eid = prev_edge[v]
                self._cap[eid] -= push
                self._cap[eid ^ 1] += push
                total_cost += push * self._cost[eid]
                v = self._to[eid ^ 1]
            total_flow += push
        return total_flow, total_cost


def min_cost_assignment_ssp(
    n_agents: int,
    n_slots: int,
    arcs: list[tuple[int, int, float]] | ArcArrays,
) -> dict[int, int]:
    """``{agent: slot}`` of minimum total cost over the listed arcs, solved
    as a unit-capacity flow network source → agents → slots → sink.
    Duplicate ``(agent, slot)`` arcs keep the minimum cost."""
    if n_agents == 0:
        return {}
    agents, slots, costs = _normalize_arcs(n_agents, n_slots, arcs)
    s = n_agents + n_slots
    t = s + 1
    net = MinCostFlow(n_agents + n_slots + 2)
    for a in range(n_agents):
        net.add_edge(s, a, 1, 0.0)
    edge_ids: dict[tuple[int, int], int] = {}
    for agent, slot, cost in zip(agents.tolist(), slots.tolist(), costs.tolist()):
        edge_ids[(agent, slot)] = net.add_edge(agent, n_agents + slot, 1, cost)
    for slot in np.unique(slots).tolist():
        net.add_edge(n_agents + slot, t, 1, 0.0)

    flow, _cost = net.min_cost_flow(s, t, n_agents)
    if flow < n_agents - 1e-9:
        raise SolverInfeasibleError(
            f"infeasible assignment: only {flow:.0f} of {n_agents} agents placeable"
        )
    result: dict[int, int] = {}
    for (agent, slot), eid in edge_ids.items():
        if net.flow_on(eid) > 0.5:
            result[agent] = slot
    return result
