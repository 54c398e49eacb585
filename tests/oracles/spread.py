"""Per-slab spreading loop: the oracle of ``QuadraticGlobalPlacer._spread``."""

from __future__ import annotations

import numpy as np

from repro.fpga.device import Device
from repro.placers.analytical import (
    QuadraticGlobalPlacer,
    _equalize,
    _push_out_of_ps,
    _slab_of,
)


class ReferenceSpreadPlacer(QuadraticGlobalPlacer):
    """``QuadraticGlobalPlacer`` that equalizes y one slab at a time."""

    def _spread(self, pos: np.ndarray, areas: np.ndarray, device: Device) -> np.ndarray:
        cfg = self.config
        w = device.width * cfg.fabric_scale
        h = device.height * cfg.fabric_scale
        out = pos.copy()
        out[:, 0] = _equalize(out[:, 0], areas, 0.0, w, cfg.n_bins)
        slab = _slab_of(out[:, 0], w, cfg.n_slabs)
        for s in range(cfg.n_slabs):
            sel = slab == s
            if sel.sum() > 2:
                out[sel, 1] = _equalize(out[sel, 1], areas[sel], 0.0, h, cfg.n_bins)
        out[:, 0] = np.clip(out[:, 0], 1.0, w - 1.0)
        out[:, 1] = np.clip(out[:, 1], 1.0, h - 1.0)
        if cfg.avoid_ps and device.ps is not None:
            out = _push_out_of_ps(out, device)
        return out
