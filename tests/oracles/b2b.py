"""Per-net B2B assembly: the oracle of ``b2b_adjacency``."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def b2b_adjacency_reference(
    pin_cell: np.ndarray,
    pin_ptr: np.ndarray,
    pin_net: np.ndarray,
    coords: np.ndarray,
    net_weights: np.ndarray,
    n_cells: int,
    eps: float = 1.0,
) -> sp.csr_matrix:
    """Same inputs and result as ``b2b_adjacency``, built net by net."""
    rows, cols, vals = b2b_edges_reference(pin_cell, pin_ptr, coords, net_weights, eps)
    adj = sp.coo_matrix((vals, (rows, cols)), shape=(n_cells, n_cells)).tocsr()
    return (adj + adj.T).tocsr()


def b2b_edges_reference(
    pin_cell: np.ndarray,
    pin_ptr: np.ndarray,
    coords: np.ndarray,
    net_weights: np.ndarray,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-net loop oracle — same edge multiset as the vectorized engine."""
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for k in range(len(pin_ptr) - 1):
        s, e = int(pin_ptr[k]), int(pin_ptr[k + 1])
        p = e - s
        if p < 2:
            continue
        pins = pin_cell[s:e]
        px = coords[pins]
        lo = int(np.argmin(px))
        hi = int(np.argmax(px))
        scale = 2.0 * float(net_weights[k]) / (p - 1)

        def _add(a: int, b: int) -> None:
            ca, cb = int(pins[a]), int(pins[b])
            if ca == cb:
                return
            d = max(abs(float(px[a]) - float(px[b])), eps)
            rows.append(ca)
            cols.append(cb)
            vals.append(scale / d)

        _add(lo, hi)
        for u in range(p):
            if u != lo and u != hi:
                _add(u, lo)
                _add(u, hi)
    return (
        np.asarray(rows, dtype=np.int64),
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
    )
