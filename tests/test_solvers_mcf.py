"""Min-cost assignment tests: hand cases, the flow-network oracle, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro.solvers import min_cost_assignment
from tests.oracles.mcf import MinCostFlow, min_cost_assignment_ssp


def _lsa_optimum(cost):
    """Optimal assignment cost by scipy's ``linear_sum_assignment``."""
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


class TestMinCostFlowBasics:
    def test_single_edge(self):
        net = MinCostFlow(2)
        e = net.add_edge(0, 1, 5, 2.0)
        flow, cost = net.min_cost_flow(0, 1)
        assert flow == 5
        assert cost == 10.0
        assert net.flow_on(e) == 5

    def test_capacity_limits_flow(self):
        net = MinCostFlow(3)
        net.add_edge(0, 1, 3, 1.0)
        net.add_edge(1, 2, 2, 1.0)
        flow, cost = net.min_cost_flow(0, 2)
        assert flow == 2
        assert cost == 4.0

    def test_max_flow_argument(self):
        net = MinCostFlow(2)
        net.add_edge(0, 1, 10, 1.0)
        flow, _ = net.min_cost_flow(0, 1, max_flow=4)
        assert flow == 4

    def test_prefers_cheap_path(self):
        net = MinCostFlow(4)
        net.add_edge(0, 1, 1, 10.0)
        net.add_edge(1, 3, 1, 10.0)
        net.add_edge(0, 2, 1, 1.0)
        net.add_edge(2, 3, 1, 1.0)
        flow, cost = net.min_cost_flow(0, 3, max_flow=1)
        assert flow == 1
        assert cost == 2.0

    def test_negative_costs_handled(self):
        net = MinCostFlow(3)
        net.add_edge(0, 1, 1, -5.0)
        net.add_edge(1, 2, 1, 2.0)
        flow, cost = net.min_cost_flow(0, 2)
        assert flow == 1
        assert cost == -3.0

    def test_disconnected_returns_zero_flow(self):
        net = MinCostFlow(3)
        net.add_edge(0, 1, 1, 1.0)
        flow, cost = net.min_cost_flow(0, 2)
        assert flow == 0
        assert cost == 0.0

    def test_source_equals_sink_rejected(self):
        net = MinCostFlow(2)
        with pytest.raises(ValueError):
            net.min_cost_flow(1, 1)

    def test_bad_edge_rejected(self):
        net = MinCostFlow(2)
        with pytest.raises(IndexError):
            net.add_edge(0, 5, 1, 1.0)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1, 1.0)


class TestAssignment:
    def test_simple(self):
        asg = min_cost_assignment(2, 2, [(0, 0, 1.0), (0, 1, 9.0), (1, 0, 9.0), (1, 1, 1.0)])
        assert asg == {0: 0, 1: 1}

    def test_forced_expensive(self):
        asg = min_cost_assignment(2, 2, [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 1.0)])
        assert asg == {0: 1, 1: 0}  # agent 1 can only take slot 0

    def test_infeasible_raises(self):
        with pytest.raises(ValueError, match="infeasible"):
            min_cost_assignment(2, 2, [(0, 0, 1.0), (1, 0, 1.0)])

    def test_empty(self):
        assert min_cost_assignment(0, 3, []) == {}

    def test_out_of_range_arc(self):
        with pytest.raises(IndexError):
            min_cost_assignment(1, 1, [(0, 5, 1.0)])

    def test_duplicate_arcs_collapse(self):
        asg = min_cost_assignment(1, 1, [(0, 0, 1.0), (0, 0, 99.0)])
        assert asg == {0: 0}

    @pytest.mark.parametrize(
        "arcs",
        [
            # cheap duplicate listed last (the order that used to lose)
            [(0, 0, 5.0), (0, 1, 3.0), (0, 0, 1.0)],
            # cheap duplicate listed first
            [(0, 0, 1.0), (0, 1, 3.0), (0, 0, 5.0)],
        ],
    )
    def test_duplicate_arcs_keep_min_cost(self, arcs):
        """A duplicate (agent, slot) arc keeps the *minimum* cost regardless
        of listing order. First-wins (the pre-PR-3 behaviour) would price
        slot 0 at 5.0 in the first ordering and wrongly pick slot 1."""
        assert min_cost_assignment(1, 2, arcs) == {0: 0}
        assert min_cost_assignment_ssp(1, 2, arcs) == {0: 0}

    def test_arc_arrays_input(self):
        """The DSP loop passes (agents, slots, costs) arrays, not tuples."""
        arcs = (
            np.array([0, 0, 1, 1]),
            np.array([0, 1, 0, 1]),
            np.array([1.0, 9.0, 9.0, 1.0]),
        )
        assert min_cost_assignment(2, 2, arcs) == {0: 0, 1: 1}

    def test_agent_without_arcs_infeasible(self):
        with pytest.raises(ValueError, match="no candidate arc"):
            min_cost_assignment(2, 2, [(0, 0, 1.0), (0, 1, 1.0)])

    def test_methods_agree_with_negative_costs(self):
        arcs = [(0, 0, -5.0), (0, 1, -1.0), (1, 0, -2.0), (1, 1, -4.0)]
        assert min_cost_assignment(2, 2, arcs) == {0: 0, 1: 1}
        assert min_cost_assignment_ssp(2, 2, arcs) == {0: 0, 1: 1}

    def test_zero_cost_arcs_survive_lapjvsp(self):
        """Explicit zeros must not vanish from the sparse matching input."""
        arcs = [(0, 0, 0.0), (0, 1, 7.0), (1, 1, 0.0)]
        assert min_cost_assignment(2, 2, arcs) == {0: 0, 1: 1}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mcf_matches_hungarian(data):
    """Property: MCF assignment cost equals the ``linear_sum_assignment`` optimum."""
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(n, 7))
    cost = np.array(
        data.draw(
            st.lists(
                st.lists(st.floats(-20, 20, allow_nan=False), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )
    arcs = [(i, j, float(cost[i, j])) for i in range(n) for j in range(m)]
    asg = min_cost_assignment(n, m, arcs)
    assert sorted(asg) == list(range(n))
    assert len(set(asg.values())) == n
    got = sum(cost[i, asg[i]] for i in range(n))
    ref = _lsa_optimum(cost)
    assert got == pytest.approx(ref, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ssp_matches_lapjvsp_on_sparse_arcs(data):
    """Property: the successive-shortest-paths oracle and the compiled
    LAPJVsp path return equally cheap assignments on sparse candidate windows with
    negative costs and duplicate arcs.

    Sparse arc sets leave some slot nodes with no incoming arc, so the
    initial Bellman-Ford pass finds them unreachable and defaults their
    potential to 0.0 — this property pins down that those defaults never
    corrupt the reduced costs (an unreachable node can only stay
    unreachable as residual capacity shrinks during the successive
    shortest paths).
    """
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(n, 8))
    arcs = []
    for i in range(n):
        # a guaranteed distinct slot per agent keeps the instance feasible
        arcs.append((i, i, data.draw(st.floats(-20, 20, allow_nan=False))))
        for _ in range(data.draw(st.integers(0, 4))):
            arcs.append(
                (
                    i,
                    data.draw(st.integers(0, m - 1)),
                    data.draw(st.floats(-20, 20, allow_nan=False)),
                )
            )
    ssp = min_cost_assignment_ssp(n, m, arcs)
    fast = min_cost_assignment(n, m, arcs)
    best = {}
    for i, j, c in arcs:
        best[(i, j)] = min(best.get((i, j), math.inf), c)
    for asg in (ssp, fast):
        assert sorted(asg) == list(range(n))
        assert len(set(asg.values())) == n
    cost_ssp = sum(best[(i, j)] for i, j in ssp.items())
    cost_fast = sum(best[(i, j)] for i, j in fast.items())
    assert cost_ssp == pytest.approx(cost_fast, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_flow_conservation(data):
    """Property: at every interior node, inflow equals outflow."""
    n_nodes = data.draw(st.integers(3, 7))
    net = MinCostFlow(n_nodes)
    edges = []
    for _ in range(data.draw(st.integers(2, 12))):
        u = data.draw(st.integers(0, n_nodes - 1))
        v = data.draw(st.integers(0, n_nodes - 1))
        if u == v:
            continue
        cap = data.draw(st.integers(0, 5))
        cost = data.draw(st.floats(0, 10, allow_nan=False))
        edges.append((u, v, cap, net.add_edge(u, v, cap, cost)))
    flow, _ = net.min_cost_flow(0, n_nodes - 1)
    balance = [0.0] * n_nodes
    for u, v, cap, eid in edges:
        f = net.flow_on(eid)
        assert -1e-9 <= f <= cap + 1e-9
        balance[u] -= f
        balance[v] += f
    assert balance[0] == pytest.approx(-flow)
    assert balance[n_nodes - 1] == pytest.approx(flow)
    for i in range(1, n_nodes - 1):
        assert balance[i] == pytest.approx(0.0, abs=1e-9)
