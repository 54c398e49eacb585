"""Per-cell legalization loops: the oracle of ``Legalizer``'s batched
single-site and CLB fills."""

from __future__ import annotations

import numpy as np

from repro.placers.legalizer import Legalizer, _spiral


class ReferenceLegalizer(Legalizer):
    """``Legalizer`` that places one cell at a time: a fresh nearest-free
    query per single DSP/BRAM and a spiral probe per CLB cell."""

    def _assign_singles(self, placement, kind, todo, occupied) -> None:
        for idx in todo:
            sid = self._nearest_free(kind, placement.xy[idx], occupied)
            occupied[sid] = True
            placement.assign_site(idx, sid)

    def _fill_clb_batched(self, placement, todo, xys, ci, cols, col_start, load, cap) -> None:
        n_cols = len(cols)
        for pos, idx in enumerate(todo):
            c0 = int(ci[pos])
            y = xys[pos, 1]
            sid = self._clb_probe(c0, y, cols, col_start, load, cap, n_cols)
            load[sid] += 1
            placement.assign_site(idx, sid)

    def _clb_probe(self, c0, y, cols, col_start, load, cap, n_cols) -> int:
        """Find a CLB site with spare capacity, spiralling out from (c0, y)."""
        for dc in _spiral():
            c = c0 + dc
            if c < 0 or c >= n_cols:
                if abs(dc) > n_cols:
                    raise ValueError("CLB legalization ran out of sites")
                continue
            col = cols[c]
            ys = col.ys
            r0 = int(np.clip(np.searchsorted(ys, y), 0, len(ys) - 1))
            base = int(col_start[c])
            for dr in range(len(ys)):
                for r in (r0 - dr, r0 + dr) if dr else (r0,):
                    if 0 <= r < len(ys) and load[base + r] < cap:
                        return base + r
        raise ValueError("unreachable")
