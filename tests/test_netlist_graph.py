"""Unit tests for netlist graph views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist import CellType, Netlist, connectivity_matrix
from tests.oracles.graph import connectivity_matrix_loop, netlist_to_digraph, netlist_to_graph


@pytest.fixture()
def nl():
    n = Netlist("g")
    cells = [n.add_cell(f"c{i}", CellType.LUT) for i in range(5)]
    n.add_net("a", cells[0], [cells[1], cells[2]], weight=2.0)
    n.add_net("b", cells[1], [cells[3]])
    n.add_net("c", cells[3], [cells[0]])  # cycle 0→1→3→0
    n.add_net("d", cells[2], [cells[4]])
    return n


class TestDigraph:
    def test_nodes_match_cells(self, nl):
        g = netlist_to_digraph(nl)
        assert set(g.nodes) == {0, 1, 2, 3, 4}

    def test_edge_direction(self, nl):
        g = netlist_to_digraph(nl)
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)

    def test_edge_weight_fanout_normalized(self, nl):
        g = netlist_to_digraph(nl)
        assert g[0][1]["weight"] == pytest.approx(1.0)  # 2.0 weight / 2 sinks

    def test_parallel_edges_accumulate(self):
        n = Netlist("p")
        a = n.add_cell("a", CellType.LUT)
        b = n.add_cell("b", CellType.LUT)
        n.add_net("n1", a, [b])
        n.add_net("n2", a, [b])
        g = netlist_to_digraph(n)
        assert g[a][b]["weight"] == pytest.approx(2.0)

    def test_node_ctype_attr(self, nl):
        g = netlist_to_digraph(nl)
        assert g.nodes[0]["ctype"] is CellType.LUT


class TestUndirected:
    def test_undirected_has_both_directions(self, nl):
        g = netlist_to_graph(nl)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)


class TestConnectivityMatrix:
    def test_symmetric(self, nl):
        w = connectivity_matrix(nl)
        assert abs(w - w.T).max() < 1e-12

    def test_zero_diagonal(self, nl):
        w = connectivity_matrix(nl)
        assert np.all(w.diagonal() == 0)

    def test_clique_model_weight(self, nl):
        # net "a": degree 3 clique, weight 2.0 / (3-1) = 1.0 per pair
        w = connectivity_matrix(nl)
        assert w[1, 2] == pytest.approx(1.0)

    def test_star_model_for_wide_nets(self):
        n = Netlist("wide")
        drv = n.add_cell("drv", CellType.LUT)
        sinks = [n.add_cell(f"s{i}", CellType.FF) for i in range(40)]
        n.add_net("wide", drv, sinks)
        w = connectivity_matrix(n, max_clique_degree=16)
        # star: sink-sink entries are zero, driver-sink positive
        assert w[sinks[0], sinks[1]] == 0.0
        assert w[drv, sinks[0]] > 0

    def test_unweighted_option(self, nl):
        w = connectivity_matrix(nl, use_net_weights=False)
        assert w[1, 2] == pytest.approx(0.5)  # 1.0 / (3-1)

    def test_reads_weights_fresh(self, nl):
        """In-place net reweighting (timing-driven flow) must be visible on
        the next call — weights are never cached in NetlistCSR."""
        before = connectivity_matrix(nl)[0, 1]
        nl.nets[0].weight *= 4.0
        assert connectivity_matrix(nl)[0, 1] == pytest.approx(4.0 * before)


@st.composite
def _rand_netlist(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    nl = Netlist("h")
    for i in range(n):
        nl.add_cell(f"c{i}", CellType.LUT if i % 2 else CellType.FF)
    n_nets = draw(st.integers(min_value=1, max_value=2 * n))
    for j in range(n_nets):
        driver = draw(st.integers(min_value=0, max_value=n - 1))
        sinks = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1).filter(lambda s: s != driver),
                min_size=1,
                max_size=n - 1,
                unique=True,
            )
        )
        weight = draw(st.floats(min_value=0.125, max_value=8.0, allow_nan=False))
        nl.add_net(f"n{j}", driver, sinks, weight=round(weight * 8) / 8)
    return nl


class TestVectorizedAgainstLoop:
    @settings(max_examples=50, deadline=None)
    @given(
        _rand_netlist(),
        st.sampled_from([1, 2, 4, 16]),
        st.booleans(),
    )
    def test_matches_loop_reference(self, nl, max_clique_degree, use_net_weights):
        """Vectorized builder ≡ the original per-net loop, including wide
        nets falling back to the star model and duplicate pin pairs."""
        fast = connectivity_matrix(
            nl, max_clique_degree=max_clique_degree, use_net_weights=use_net_weights
        )
        ref = connectivity_matrix_loop(
            nl, max_clique_degree=max_clique_degree, use_net_weights=use_net_weights
        )
        assert abs(fast - ref).max() < 1e-12
