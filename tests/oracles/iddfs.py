"""The paper's per-source iterative-deepening DFS: the oracle of
``iddfs_dsp_paths``.

It stops deepening as soon as no node's shortest distance equals the
current limit (the frontier stopped growing, so no deeper path can exist
through an unexplored node).
"""

from __future__ import annotations

from repro.core.extraction.iddfs import DSPPath
from repro.netlist.netlist import Netlist


def iddfs_single_source(
    adj: list[list[int]],
    is_dsp: list[bool],
    is_storage: list[bool],
    src: int,
    max_depth: int,
) -> tuple[dict[int, tuple[int, int]], int]:
    """IDDFS from one source; returns ``(found, deepest_limit_run)``.

    ``found`` maps destination DSPs to the lexicographically minimal
    ``(dist, n_storage)`` label. Deepening stops early once no node's
    shortest distance equals the current limit: every longer path must pass
    through an interior node at exactly the limit depth, so an empty "new at
    the limit" frontier proves deeper limits cannot discover anything.
    """
    found: dict[int, tuple[int, int]] = {}
    limit = 0
    for limit in range(1, max_depth + 1):
        # depth-limited DFS with lexicographic (depth, storage) pruning: a
        # node is re-expanded whenever reached with a strictly better label
        best: dict[int, tuple[int, int]] = {src: (0, 0)}
        stack: list[tuple[int, int, int]] = [(src, 0, 0)]
        while stack:
            node, depth, storage = stack.pop()
            if depth >= limit:
                continue
            for nxt in adj[node]:
                nd = depth + 1
                if is_dsp[nxt]:
                    if nxt != src:
                        label = (nd, storage)
                        prev = found.get(nxt)
                        if prev is None or label < prev:
                            found[nxt] = label
                    continue  # do not pass through DSPs
                label = (nd, storage + (1 if is_storage[nxt] else 0))
                prev = best.get(nxt)
                if prev is not None and prev <= label:
                    continue
                best[nxt] = label
                stack.append((nxt, *label))
        if not any(d == limit for d, _ in best.values()):
            break  # frontier stopped growing; deeper search cannot find more
    return found, limit


def iddfs_dsp_paths_reference(
    netlist: Netlist,
    max_depth: int = 6,
    max_fanout: int = 16,
    sources: list[int] | None = None,
) -> list[DSPPath]:
    """Same inputs and result as ``iddfs_dsp_paths``: one IDDFS per source."""
    adj: list[list[int]] = [[] for _ in netlist.cells]
    for net in netlist.nets:
        if len(net.sinks) > max_fanout:
            continue
        for s in net.sinks:
            adj[net.driver].append(s)

    is_dsp = [c.ctype.is_dsp for c in netlist.cells]
    is_storage = [c.ctype.is_storage for c in netlist.cells]
    dsps = sources if sources is not None else netlist.dsp_indices()

    out: list[DSPPath] = []
    for src in dsps:
        found, _ = iddfs_single_source(adj, is_dsp, is_storage, src, max_depth)
        for dst, (dist, storage) in found.items():
            out.append(DSPPath(src=src, dst=dst, dist=dist, n_storage=storage))
    out.sort(key=lambda p: (p.src, p.dst))
    return out
