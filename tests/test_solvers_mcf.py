"""Min-cost assignment tests: hand cases, the flow-network oracle, properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from repro.errors import SolverError, SolverInfeasibleError
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


INF = math.inf


class TestAssignment:
    def test_simple(self):
        cols = min_cost_assignment(np.array([[1.0, 9.0], [9.0, 1.0]]))
        assert cols.tolist() == [0, 1]
        assert cols.dtype == np.int64

    def test_forced_expensive(self):
        # +inf forbids a pairing: row 1 can only take column 0
        cols = min_cost_assignment(np.array([[1.0, 2.0], [1.0, INF]]))
        assert cols.tolist() == [1, 0]

    def test_infeasible_raises(self):
        with pytest.raises(SolverInfeasibleError, match="infeasible"):
            min_cost_assignment(np.array([[1.0, INF], [1.0, INF]]))

    def test_empty(self):
        assert min_cost_assignment(np.zeros((0, 3))).tolist() == []

    def test_more_rows_than_columns_infeasible(self):
        """scipy would assign only ``m`` of the rows; the contract is that
        every row gets a column or the solve fails."""
        with pytest.raises(SolverInfeasibleError, match="exceed"):
            min_cost_assignment(np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [math.nan, -INF])
    def test_non_finite_cost_is_typed(self, bad):
        """A NaN or -inf cost makes scipy raise ValueError; it must surface
        as a SolverError the assignment stage's guard can record."""
        cost = np.array([[1.0, 2.0], [bad, 1.0]])
        with pytest.raises(SolverInfeasibleError, match="invalid numeric"):
            min_cost_assignment(cost)
        assert issubclass(SolverInfeasibleError, SolverError)

    def test_agent_without_arcs_infeasible(self):
        with pytest.raises(SolverInfeasibleError, match="infeasible"):
            min_cost_assignment(np.array([[1.0, 1.0], [INF, INF]]))
        with pytest.raises(SolverInfeasibleError, match="infeasible"):
            min_cost_assignment_ssp(2, 2, [(0, 0, 1.0), (0, 1, 1.0)])

    def test_methods_agree_with_negative_costs(self):
        cost = np.array([[-5.0, -1.0], [-2.0, -4.0]])
        arcs = [(i, j, float(cost[i, j])) for i in range(2) for j in range(2)]
        assert min_cost_assignment(cost).tolist() == [0, 1]
        assert min_cost_assignment_ssp(2, 2, arcs) == {0: 0, 1: 1}

    # the SSP oracle's sparse-arc input handling

    def test_out_of_range_arc(self):
        with pytest.raises(IndexError):
            min_cost_assignment_ssp(1, 1, [(0, 5, 1.0)])

    def test_duplicate_arcs_collapse(self):
        assert min_cost_assignment_ssp(1, 1, [(0, 0, 1.0), (0, 0, 99.0)]) == {0: 0}

    @pytest.mark.parametrize(
        "arcs",
        [
            # cheap duplicate listed last
            [(0, 0, 5.0), (0, 1, 3.0), (0, 0, 1.0)],
            # cheap duplicate listed first
            [(0, 0, 1.0), (0, 1, 3.0), (0, 0, 5.0)],
        ],
    )
    def test_duplicate_arcs_keep_min_cost(self, arcs):
        """A duplicate (agent, slot) arc keeps the *minimum* cost regardless
        of listing order; first-wins would price slot 0 at 5.0 in the first
        ordering and wrongly pick slot 1."""
        assert min_cost_assignment_ssp(1, 2, arcs) == {0: 0}

    def test_arc_arrays_input(self):
        arcs = (
            np.array([0, 0, 1, 1]),
            np.array([0, 1, 0, 1]),
            np.array([1.0, 9.0, 9.0, 1.0]),
        )
        assert min_cost_assignment_ssp(2, 2, arcs) == {0: 0, 1: 1}


def _cost_matrix(data, n, m):
    return np.array(
        data.draw(
            st.lists(
                st.lists(st.floats(-20, 20, allow_nan=False), min_size=m, max_size=m),
                min_size=n,
                max_size=n,
            )
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mcf_matches_hungarian(data):
    """Property: the assignment is a full row → distinct-column map whose
    cost equals the ``linear_sum_assignment`` optimum."""
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(n, 7))
    cost = _cost_matrix(data, n, m)
    cols = min_cost_assignment(cost)
    assert cols.shape == (n,)
    assert len(set(cols.tolist())) == n
    got = float(cost[np.arange(n), cols].sum())
    ref = _lsa_optimum(cost)
    assert got == pytest.approx(ref, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ssp_matches_dense_assignment(data):
    """Property: the successive-shortest-paths oracle over the complete
    arc set and the dense LAPJV solve return equally cheap assignments,
    negative costs included."""
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(n, 8))
    cost = _cost_matrix(data, n, m)
    arcs = [(i, j, float(cost[i, j])) for i in range(n) for j in range(m)]
    ssp = min_cost_assignment_ssp(n, m, arcs)
    cols = min_cost_assignment(cost)
    assert sorted(ssp) == list(range(n))
    assert len(set(ssp.values())) == n
    assert len(set(cols.tolist())) == n
    cost_ssp = sum(cost[i, j] for i, j in ssp.items())
    cost_dense = float(cost[np.arange(n), cols].sum())
    assert cost_ssp == pytest.approx(cost_dense, abs=1e-6)


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
