"""networkx node features: the oracle of ``extract_node_features``."""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.core.extraction.features import FEATURE_NAMES, FeatureConfig, _sampled_closeness
from repro.netlist.netlist import Netlist
from tests.oracles.graph import netlist_to_digraph


def _unweighted_csr_nx(g, n: int) -> sp.csr_matrix:
    rows, cols = [], []
    for u, v in g.edges:
        rows.append(u)
        cols.append(v)
    data = np.ones(len(rows))
    a = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
    a = a + a.T  # undirected view for distances
    a.data[:] = 1.0
    return a.tocsr()


def extract_node_features_networkx(
    netlist: Netlist, config: FeatureConfig | None = None
) -> np.ndarray:
    """Same inputs and result as ``extract_node_features``, on networkx."""
    config = config or FeatureConfig()
    g = netlist_to_digraph(netlist)
    n = len(netlist.cells)
    feats = np.zeros((n, len(FEATURE_NAMES)))
    if n == 0:
        return feats

    feats[:, 3] = [g.in_degree(i) for i in range(n)]
    feats[:, 4] = [g.out_degree(i) for i in range(n)]

    for comp in nx.strongly_connected_components(g):
        if len(comp) > 1:
            for u in comp:
                feats[u, 1] = 1.0

    dsp_nodes = np.array(netlist.dsp_indices(), dtype=np.int64)
    if n <= config.exact_threshold:
        ug = g.to_undirected(reciprocal=False)
        closeness = nx.closeness_centrality(ug)
        betweenness = nx.betweenness_centrality(ug, normalized=True)
        feats[:, 0] = [closeness[i] for i in range(n)]
        feats[:, 5] = [betweenness[i] for i in range(n)]
        dist = csgraph.shortest_path(_unweighted_csr_nx(g, n), method="D", unweighted=True)
        finite = np.isfinite(dist)
        feats[:, 2] = np.where(finite, dist, 0.0).max(axis=1)
        if dsp_nodes.size:
            dd = dist[np.ix_(dsp_nodes, dsp_nodes)]
            mask = np.isfinite(dd)
            np.fill_diagonal(mask, False)
            sums = np.where(mask, dd, 0.0).sum(axis=1)
            counts = mask.sum(axis=1)
            feats[dsp_nodes, 6] = np.where(
                counts > 0, sums / np.maximum(counts, 1), 0.0
            )
        return feats

    rng = np.random.default_rng(config.seed)
    adj = _unweighted_csr_nx(g, n)
    k = min(config.n_pivots, n)
    pivots = rng.choice(n, size=k, replace=False)
    dist = csgraph.dijkstra(adj, indices=pivots, unweighted=True)
    feats[:, 0] = _sampled_closeness(dist, pivots, n, k)
    feats[:, 2] = np.where(np.isfinite(dist), dist, 0.0).max(axis=0)

    ug = g.to_undirected(reciprocal=False)
    bw = nx.betweenness_centrality(ug, k=min(k, n - 1), normalized=True, seed=int(config.seed))
    feats[:, 5] = [bw[i] for i in range(n)]

    if dsp_nodes.size >= 2:
        kd = min(config.n_pivots, dsp_nodes.size)
        dsp_pivots = rng.choice(dsp_nodes, size=kd, replace=False)
        ddist = csgraph.dijkstra(adj, indices=dsp_pivots, unweighted=True)[:, dsp_nodes]
        dfinite = np.isfinite(ddist)
        dsums = np.where(dfinite, ddist, 0.0).sum(axis=0)
        dcounts = np.maximum(dfinite.sum(axis=0), 1)
        feats[dsp_nodes, 6] = dsums / dcounts
    return feats
