"""The benchmark's own output check for one placement.

Written against the raw netlist and device data, not against
``Placement.legality_violations``, so a bug in the program's legality code
cannot hide a bad placement from the benchmark. A placement passes when:

- every movable cell sits on a site of its kind, at that site's coordinates;
- DSP and BRAM sites hold one cell each, CLB sites at most ``clb_capacity``;
- each cascade macro occupies consecutive rows of one DSP column, head at
  the bottom;
- fixed cells have not moved;
- the HPWL recomputed from the net pins equals ``placement.hpwl()`` to
  1e-9 relative.
"""

from __future__ import annotations

import numpy as np

#: site capacity per kind; CLB capacity comes from the device
SINGLE_SITE_KINDS = ("DSP", "BRAM")
HPWL_RTOL = 1e-9
XY_ATOL = 1e-9
#: messages kept per rule; the rest are counted
MAX_REPORT = 10


def recompute_hpwl(placement) -> float:
    """Half-perimeter wirelength summed over nets, from ``net.driver`` and
    ``net.sinks`` directly."""
    nets = placement.netlist.nets
    if not nets:
        return 0.0
    sizes = np.fromiter((1 + len(n.sinks) for n in nets), dtype=np.int64, count=len(nets))
    pins = np.fromiter(
        (c for n in nets for c in (n.driver, *n.sinks)), dtype=np.int64, count=int(sizes.sum())
    )
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    x = placement.xy[pins, 0]
    y = placement.xy[pins, 1]
    span_x = np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
    span_y = np.maximum.reduceat(y, starts) - np.minimum.reduceat(y, starts)
    return float(span_x.sum() + span_y.sum())


def placement_problems(placement) -> list[str]:
    """Every way ``placement`` breaks the rules above (empty list: it passes).

    At most :data:`MAX_REPORT` messages per rule are kept, with a count of the
    rest, so a badly broken placement still yields a short report.
    """
    netlist, device = placement.netlist, placement.device
    cells = netlist.cells
    xy = np.asarray(placement.xy, dtype=np.float64)
    site = np.asarray(placement.site, dtype=np.int64)
    problems: list[str] = []

    def report(rule: str, msgs: list[str]) -> None:
        problems.extend(msgs[:MAX_REPORT])
        if len(msgs) > MAX_REPORT:
            problems.append(f"{rule}: {len(msgs) - MAX_REPORT} more")

    if xy.shape != (len(cells), 2) or site.shape != (len(cells),):
        return [f"placement arrays have shapes {xy.shape}, {site.shape} for {len(cells)} cells"]
    if not np.isfinite(xy).all():
        problems.append("placement has non-finite coordinates")

    moved = [
        f"fixed cell {c.name} moved to {tuple(xy[c.index])} from {c.fixed_xy}"
        for c in cells
        if c.fixed_xy is not None
        and not np.allclose(xy[c.index], c.fixed_xy, rtol=0.0, atol=XY_ATOL)
    ]
    report("fixed", moved)

    for kind in ("DSP", "BRAM", "CLB"):
        idx = np.array(
            [c.index for c in cells if c.fixed_xy is None and c.ctype.site_kind == kind],
            dtype=np.int64,
        )
        if idx.size == 0:
            continue
        n_sites = device.n_sites(kind)
        sid = site[idx]
        off = (sid < 0) | (sid >= n_sites)
        report(kind, [f"{cells[i].name}: no {kind} site (site {s})" for i, s in zip(idx[off], sid[off])])
        idx, sid = idx[~off], sid[~off]
        site_xy = device.site_xy(kind)[sid]
        away = ~np.isclose(xy[idx], site_xy, rtol=0.0, atol=XY_ATOL).all(axis=1)
        report(
            kind,
            [f"{cells[i].name}: not at {kind} site {s}" for i, s in zip(idx[away], sid[away])],
        )
        cap = 1 if kind in SINGLE_SITE_KINDS else device.clb_capacity
        counts = np.bincount(sid, minlength=n_sites)
        report(
            kind,
            [f"{kind} site {s} holds {counts[s]} cells (capacity {cap})" for s in np.flatnonzero(counts > cap)],
        )

    dsp_sites = device.sites("DSP")
    n_dsp = len(dsp_sites)
    split = []
    for macro in netlist.macros:
        sids = [int(site[i]) for i in macro.dsps]
        if any(not 0 <= s < n_dsp for s in sids):
            split.append(f"macro {macro.macro_id}: a member has no DSP site")
            continue
        cols = {dsp_sites[s].col for s in sids}
        rows = [dsp_sites[s].row for s in sids]
        if len(cols) != 1 or rows != list(range(rows[0], rows[0] + len(rows))):
            split.append(f"macro {macro.macro_id}: columns {sorted(cols)}, rows {rows}")
    report("cascade", split)

    recomputed = recompute_hpwl(placement)
    claimed = float(placement.hpwl())
    if not np.isclose(recomputed, claimed, rtol=HPWL_RTOL, atol=0.0):
        problems.append(f"HPWL {claimed!r} differs from the recomputed {recomputed!r}")
    return problems
