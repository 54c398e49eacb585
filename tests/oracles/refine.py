"""Per-cell × per-candidate × per-net refinement: the oracle of
``refine_sites``."""

from __future__ import annotations

import numpy as np

from repro.netlist.cell import CellType
from repro.placers.placement import Placement


def _incident_nets(placement: Placement) -> list[list[int]]:
    return placement.netlist.nets_of_cell()


def _nets_cost(placement: Placement, net_ids: list[int]) -> float:
    nl = placement.netlist
    total = 0.0
    for nid in net_ids:
        net = nl.nets[nid]
        pts = placement.xy[list(net.cells)]
        total += net.weight * (
            (pts[:, 0].max() - pts[:, 0].min()) + (pts[:, 1].max() - pts[:, 1].min())
        )
    return total


def refine_sites_reference(
    placement: Placement,
    kinds: tuple[str, ...] = ("DSP", "BRAM"),
    passes: int = 2,
    n_candidates: int = 8,
    movable_mask: np.ndarray | None = None,
    seed: int = 0,
) -> int:
    """Same inputs and result as ``refine_sites``: every candidate of every
    cell is tried with ``assign_site`` and scored net by net."""
    nl, dev = placement.netlist, placement.device
    incident = _incident_nets(placement)
    rng = np.random.default_rng(seed)
    if movable_mask is None:
        movable_mask = np.array([not c.is_fixed for c in nl.cells])

    in_macro: set[int] = set()
    for macro in nl.macros:
        in_macro.update(macro.dsps)

    accepted = 0
    for kind in kinds:
        ctype = CellType.DSP if kind == "DSP" else CellType.BRAM
        cells = [
            c.index
            for c in nl.cells
            if c.ctype is ctype
            and c.index not in in_macro
            and movable_mask[c.index]
            and placement.site[c.index] >= 0
        ]
        if not cells:
            continue
        site_owner = np.full(dev.n_sites(kind), -1, dtype=np.int64)
        for c in nl.cells:
            if c.ctype is ctype and placement.site[c.index] >= 0:
                site_owner[placement.site[c.index]] = c.index

        for _ in range(passes):
            order = rng.permutation(len(cells))
            moved = 0
            for oi in order:
                idx = cells[oi]
                x, y = placement.xy[idx]
                cand = dev.nearest_sites(kind, x, y, k=n_candidates)
                base_nets = incident[idx]
                for sid in cand:
                    sid = int(sid)
                    if sid == placement.site[idx]:
                        continue
                    other = int(site_owner[sid])
                    if other >= 0 and (
                        other in in_macro or not movable_mask[other] or other == idx
                    ):
                        continue
                    nets = base_nets if other < 0 else list(set(base_nets) | set(incident[other]))
                    before = _nets_cost(placement, nets)
                    old_sid = int(placement.site[idx])
                    placement.assign_site(idx, sid)
                    if other >= 0:
                        placement.assign_site(other, old_sid)
                    after = _nets_cost(placement, nets)
                    if after < before - 1e-9:
                        site_owner[sid] = idx
                        site_owner[old_sid] = other if other >= 0 else -1
                        moved += 1
                        break
                    # revert
                    placement.assign_site(idx, old_sid)
                    if other >= 0:
                        placement.assign_site(other, sid)
            accepted += moved
            if moved == 0:
                break
    return accepted
