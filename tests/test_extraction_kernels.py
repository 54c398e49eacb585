"""Equivalence properties pinning the vectorized extraction kernels.

Every compiled/batched kernel must agree with its pure-Python reference:

- level-synchronous Brandes betweenness vs ``nx.betweenness_centrality``
  (exact, to 1e-9, on directed / disconnected / self-loop graphs),
- the feature kernels vs the networkx oracle (exact branch),
- SCC feedback flags vs ``nx.strongly_connected_components``,
- batched BFS DSP paths vs the pure-Python IDDFS oracle under jittered
  ``max_fanout`` / ``max_depth``,
- the sampled-closeness pivot fix (regression for the off-by-one bias).
"""

import networkx as nx
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.extraction import FeatureConfig, betweenness_csr, extract_node_features
from repro.core.extraction.features import _sampled_closeness
from repro.core.extraction.iddfs import iddfs_dsp_paths
from repro.netlist import CellType, Netlist
from tests.oracles.features import extract_node_features_networkx
from tests.oracles.iddfs import iddfs_dsp_paths_reference


# ----------------------------------------------------------------------
# random-structure strategies
# ----------------------------------------------------------------------

@st.composite
def adjacency(draw, directed: bool):
    """Random sparse adjacency incl. disconnected parts and self-loops."""
    n = draw(st.integers(min_value=2, max_value=24))
    n_edges = draw(st.integers(min_value=0, max_value=3 * n))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    a = np.zeros((n, n))
    for u, v in pairs:
        a[u, v] = 1.0
    if not directed:
        a = np.maximum(a, a.T)
    return sp.csr_matrix(a)


@st.composite
def random_netlist(draw, max_cells: int = 18, dsp_every: int = 3):
    """Small random netlist with DSP/FF/LUT mix and varied-fanout nets."""
    n = draw(st.integers(min_value=2, max_value=max_cells))
    nl = Netlist("hyp")
    for i in range(n):
        if i % dsp_every == 0:
            ctype = CellType.DSP
        elif i % dsp_every == 1:
            ctype = CellType.FF
        else:
            ctype = CellType.LUT
        nl.add_cell(f"c{i}", ctype)
    n_nets = draw(st.integers(min_value=1, max_value=2 * n))
    for j in range(n_nets):
        driver = draw(st.integers(min_value=0, max_value=n - 1))
        sinks = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1).filter(lambda s: s != driver),
                min_size=1,
                max_size=min(n - 1, 6),
                unique=True,
            )
        )
        if sinks:
            nl.add_net(f"n{j}", driver, sinks)
    return nl


# ----------------------------------------------------------------------
# Brandes betweenness vs networkx
# ----------------------------------------------------------------------

class TestBetweennessKernel:
    @settings(max_examples=60, deadline=None)
    @given(adjacency(directed=False), st.booleans())
    def test_undirected_matches_networkx(self, a, normalized):
        g = nx.from_scipy_sparse_array(a, create_using=nx.Graph)
        ref = nx.betweenness_centrality(g, normalized=normalized)
        got = betweenness_csr(a, normalized=normalized, directed=False, block_size=5)
        np.testing.assert_allclose(got, [ref[i] for i in range(a.shape[0])], atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(adjacency(directed=True), st.booleans())
    def test_directed_matches_networkx(self, a, normalized):
        g = nx.from_scipy_sparse_array(a, create_using=nx.DiGraph)
        ref = nx.betweenness_centrality(g, normalized=normalized)
        got = betweenness_csr(a, normalized=normalized, directed=True, block_size=5)
        np.testing.assert_allclose(got, [ref[i] for i in range(a.shape[0])], atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(adjacency(directed=False))
    def test_full_pivot_sampling_matches_networkx(self, a):
        """sources=all-nodes must reproduce nx's k=n sampled rescale."""
        n = a.shape[0]
        g = nx.from_scipy_sparse_array(a, create_using=nx.Graph)
        ref = nx.betweenness_centrality(g, k=n, normalized=True, seed=0)
        got = betweenness_csr(a, sources=np.arange(n), normalized=True, block_size=5)
        np.testing.assert_allclose(got, [ref[i] for i in range(n)], atol=1e-9)

    def test_self_loop_is_inert(self):
        a = np.zeros((4, 4))
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            a[u, v] = a[v, u] = 1.0
        plain = betweenness_csr(sp.csr_matrix(a))
        np.fill_diagonal(a, 1.0)
        looped = betweenness_csr(sp.csr_matrix(a))
        np.testing.assert_allclose(plain, looped, atol=1e-12)


# ----------------------------------------------------------------------
# feature kernels vs the networkx oracle
# ----------------------------------------------------------------------

class TestFeatureBackendEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(random_netlist())
    def test_exact_branch_matches_networkx(self, nl):
        kern = extract_node_features(nl, FeatureConfig())
        ref = extract_node_features_networkx(nl, FeatureConfig())
        np.testing.assert_allclose(kern, ref, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(random_netlist())
    def test_scc_flags_match_networkx(self, nl):
        feats = extract_node_features(nl, FeatureConfig())
        g = nx.DiGraph()
        g.add_nodes_from(range(len(nl)))
        for net in nl.nets:
            for s in net.sinks:
                g.add_edge(net.driver, s)
        expect = np.zeros(len(nl))
        for comp in nx.strongly_connected_components(g):
            if len(comp) > 1:
                for u in comp:
                    expect[u] = 1.0
        np.testing.assert_array_equal(feats[:, 1], expect)


class TestSampledClosenessBias:
    def test_non_pivot_rows_not_discounted(self):
        """Regression for the off-by-one: with pivots ≠ all nodes, a
        non-pivot node's closeness counts every reachable pivot; only pivot
        rows subtract their own zero self-distance."""
        # star: hub 0 at distance 1 from every leaf; pivots = two leaves
        dist = np.array(
            [
                [0.0, 2.0, 2.0, 1.0],  # from pivot 1... rows are pivots
                [2.0, 0.0, 2.0, 1.0],
            ]
        )
        pivots = np.array([0, 1])
        got = _sampled_closeness(dist, pivots, n=4, k=2)
        # node 3 (the hub, not a pivot): 2 reachable pivots / Σd=2 → 1.0
        assert got[3] == pytest.approx(2.0 / 2.0 * (2 / 2))
        # node 0 (a pivot): 1 other pivot / Σd=2 → 0.5
        assert got[0] == pytest.approx(1.0 / 2.0 * (2 / 2))
        # node 2 (non-pivot leaf): 2 pivots at distance 2 each → 2/4
        assert got[2] == pytest.approx(2.0 / 4.0 * (2 / 2))

    def test_sampled_branch_uses_fix(self):
        """End-to-end: every-node-reachable graph, non-pivot nodes must not
        lose one pivot from the numerator."""
        nl = Netlist("ring")
        n = 12
        cells = [nl.add_cell(f"c{i}", CellType.LUT) for i in range(n)]
        for i in range(n):
            nl.add_net(f"e{i}", cells[i], [cells[(i + 1) % n]])
        k = 4
        cfg = FeatureConfig(exact_threshold=1, n_pivots=k, seed=3)
        feats = extract_node_features(nl, cfg)
        pivots = np.random.default_rng(cfg.seed).choice(n, size=k, replace=False)
        dist = np.zeros((k, n))
        for r, p in enumerate(pivots):
            for j in range(n):
                d = abs(p - j) % n
                dist[r, j] = min(d, n - d)
        is_pivot = np.isin(np.arange(n), pivots)
        expect = np.where(
            dist.sum(axis=0) > 0, (k - is_pivot) / dist.sum(axis=0), 0.0
        )
        np.testing.assert_allclose(feats[:, 0], expect, atol=1e-12)


# ----------------------------------------------------------------------
# batched BFS vs pure-Python IDDFS
# ----------------------------------------------------------------------

class TestIDDFSKernelEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(
        random_netlist(max_cells=16),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=5),
    )
    def test_paths_match_reference(self, nl, max_depth, max_fanout):
        bfs = iddfs_dsp_paths(nl, max_depth=max_depth, max_fanout=max_fanout)
        ref = iddfs_dsp_paths_reference(nl, max_depth=max_depth, max_fanout=max_fanout)
        assert [(p.src, p.dst, p.dist, p.n_storage) for p in bfs] == [
            (p.src, p.dst, p.dist, p.n_storage) for p in ref
        ]

    @settings(max_examples=25, deadline=None)
    @given(random_netlist(max_cells=12), st.sampled_from([0, 1, 2]))
    def test_sources_restriction_matches(self, nl, pick):
        dsps = nl.dsp_indices()
        sources = dsps[pick::3]
        bfs = iddfs_dsp_paths(nl, sources=sources)
        ref = iddfs_dsp_paths_reference(nl, sources=sources)
        assert bfs == ref

    def test_min_storage_over_tied_shortest_paths(self):
        """Two same-length routes with different storage counts: both
        engines must deterministically report the minimum."""
        nl = Netlist("tie")
        a = nl.add_cell("a", CellType.DSP)
        f1 = nl.add_cell("f1", CellType.FF)
        f2 = nl.add_cell("f2", CellType.FF)
        l1 = nl.add_cell("l1", CellType.LUT)
        l2 = nl.add_cell("l2", CellType.LUT)
        b = nl.add_cell("b", CellType.DSP)
        nl.add_net("s0", a, [f1, l1])
        nl.add_net("s1", f1, [f2])
        nl.add_net("s2", l1, [l2])
        nl.add_net("s3", f2, [b])
        nl.add_net("s4", l2, [b])
        for engine in (iddfs_dsp_paths, iddfs_dsp_paths_reference):
            (p,) = engine(nl)
            assert (p.src, p.dst, p.dist, p.n_storage) == (a, b, 3, 0), engine.__name__
