"""networkx graph views of a netlist and the per-net connectivity loop.

The views are the paper's Fig. 3(a)→3(b) graph in its textbook form; the
CSR context (``repro.netlist.csr``) and the feature kernels are pinned to
them. ``connectivity_matrix_loop`` is the oracle of ``connectivity_matrix``.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp

from repro.netlist.netlist import Netlist


def netlist_to_digraph(netlist: Netlist) -> nx.DiGraph:
    """Directed driver→sink multigraph collapsed to a weighted DiGraph.

    Parallel connections accumulate in the edge ``weight``. Node ids are cell
    indices; each node carries its ``ctype``.
    """
    g = nx.DiGraph()
    for cell in netlist.cells:
        g.add_node(cell.index, ctype=cell.ctype, name=cell.name)
    for u, v, w in netlist.iter_edges():
        if g.has_edge(u, v):
            g[u][v]["weight"] += w
        else:
            g.add_edge(u, v, weight=w)
    return g


def netlist_to_graph(netlist: Netlist) -> nx.Graph:
    """Undirected weighted graph view (centralities, shortest paths)."""
    return netlist_to_digraph(netlist).to_undirected(reciprocal=False)


def connectivity_matrix_loop(
    netlist: Netlist, max_clique_degree: int = 32, use_net_weights: bool = True
) -> sp.csr_matrix:
    """Same inputs and result as ``connectivity_matrix``, net by net."""
    n = len(netlist.cells)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    def _connect(a: int, b: int, w: float) -> None:
        rows.append(a)
        cols.append(b)
        vals.append(w)
        rows.append(b)
        cols.append(a)
        vals.append(w)

    for net in netlist.nets:
        pins = net.cells
        d = len(pins)
        if d < 2:
            continue
        w = (net.weight if use_net_weights else 1.0) / (d - 1)
        if d <= max_clique_degree:
            for i in range(d):
                for j in range(i + 1, d):
                    _connect(pins[i], pins[j], w)
        else:
            for sink in net.sinks:
                _connect(net.driver, sink, w)

    mat = sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=np.float64)
    return mat.tocsr()
