"""Graph-based static timing analysis (setup checks).

Builds the combinational timing graph once per netlist (sequential cells —
FF/DSP/BRAM/IO/PS — break paths; LUT/CARRY/LUTRAM propagate), then evaluates
arrival times for any placement + routing in topological order. Reports the
paper's Table II metrics: setup WNS and TNS over all endpoint pins, plus the
critical path.

Arrivals propagate level-by-level over flat edge arrays: per-edge Manhattan
distances, detour gathers and cascade-adjacency flags are computed once per
placement, and per-level maxima are ``np.maximum.reduceat`` segment
reductions. Hypothesis tests in ``tests/test_sta_vectorized.py`` and
``tests/test_clock_skew_sta.py`` pin every report field to the per-cell
loop oracle in ``tests/oracles/sta.py``.

Clock skew is delegated to a :class:`~repro.clock.SkewModel`: every setup
check's data arrival picks up ``model.arrival_penalty(placement, launch,
capture)``. The default (``skew_model=None``) is
:class:`~repro.clock.RegionSkew` built from
``delay_model.clock_skew_per_region`` — bitwise-identical to the historical
inline Chebyshev region-step formula — while :class:`~repro.clock.HTreeSkew`
charges the signed per-sink arrival difference of a synthesized clock tree
and :class:`~repro.clock.ZeroSkew` charges nothing. Devices with
``has_cascades=False`` (slot fabrics) have no dedicated cascade spine, so
cascade edges there are priced as ordinary fabric nets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.netlist.netlist import Netlist
from repro.obs import metrics, trace
from repro.placers.placement import Placement
from repro.router.global_router import RoutingResult
from repro.timing.delay_model import DelayModel


@dataclass
class TimingReport:
    """Setup-timing summary for one placement."""

    period_ns: float
    wns_ns: float
    tns_ns: float
    n_endpoints: int
    n_failing: int
    endpoint_slack: np.ndarray
    critical_path: list[int]  # cell indices, start → endpoint
    #: cell index of each endpoint (aligned with endpoint_slack)
    endpoint_cells: np.ndarray | None = None
    #: worst-arrival predecessor of each endpoint / combinational cell,
    #: kept so reports can backtrace any endpoint's critical path
    _end_pred: np.ndarray | None = None
    _best_pred: np.ndarray | None = None
    #: per-cell output-pin slack (only with ``analyze(with_slacks=True)``);
    #: NaN for cells with no downstream timing endpoint
    cell_output_slack: np.ndarray | None = None

    def path_of(self, endpoint_rank: int) -> list[int]:
        """Critical path (start → endpoint) of the k-th worst endpoint."""
        if self.endpoint_cells is None:
            raise ValueError("report carries no endpoint detail")
        order = np.argsort(self.endpoint_slack)
        idx = int(order[endpoint_rank])
        path = [int(self.endpoint_cells[idx])]
        seen = set(path)  # best_pred can cycle on comb-cycle netlists
        u = int(self._end_pred[idx])
        while u >= 0 and u not in seen:
            seen.add(u)
            path.append(u)
            u = int(self._best_pred[u])  # −1 at sequential/unfed cells
        path.reverse()
        return path

    @property
    def met(self) -> bool:
        return self.wns_ns >= 0.0

    @property
    def freq_mhz_limit(self) -> float:
        """Highest frequency this placement could close (from the worst path)."""
        worst_path = self.period_ns - self.wns_ns
        return 1e3 / max(worst_path, 1e-9)


class StaticTimingAnalyzer:
    """Reusable STA engine for one netlist."""

    def __init__(
        self,
        netlist: Netlist,
        delay_model: DelayModel | None = None,
        skew_model=None,
    ) -> None:
        self.netlist = netlist
        self.dm = delay_model or DelayModel()
        if skew_model is None:
            from repro.clock.skew import RegionSkew

            skew_model = RegionSkew(self.dm.clock_skew_per_region)
        self.skew = skew_model
        self._cascade_pairs = set(netlist.cascade_pairs())
        self._seq = np.array([self.dm.is_sequential(c.ctype) for c in netlist.cells])

        # edge lists: (src, dst, net_id); plus per-node fanin adjacency
        self._fanin: list[list[tuple[int, int]]] = [[] for _ in netlist.cells]
        self._fanout: list[list[tuple[int, int]]] = [[] for _ in netlist.cells]
        for net in netlist.nets:
            for s in net.sinks:
                self._fanin[s].append((net.driver, net.index))
                self._fanout[net.driver].append((s, net.index))

        # topological order of combinational cells (Kahn over comb preds)
        n = len(netlist.cells)
        indeg = np.zeros(n, dtype=np.int64)
        for u in range(n):
            if self._seq[u]:
                continue
            indeg[u] = sum(1 for (v, _) in self._fanin[u] if not self._seq[v])
        queue = deque(u for u in range(n) if not self._seq[u] and indeg[u] == 0)
        order: list[int] = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for w, _ in self._fanout[u]:
                if not self._seq[w]:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        queue.append(w)
        n_comb = int((~self._seq).sum())
        self.has_comb_cycles = len(order) < n_comb
        n_dag = len(order)
        if self.has_comb_cycles:
            # break cycles by appending the leftovers in index order; their
            # arrivals are then lower bounds (one relaxation round)
            seen = set(order)
            order.extend(u for u in range(n) if not self._seq[u] and u not in seen)
        self._topo = order
        self._build_arrays(n_dag)

    # ------------------------------------------------------------------
    # one-time flat-array views of the timing graph
    # ------------------------------------------------------------------
    def _build_arrays(self, n_dag: int) -> None:
        nl = self.netlist
        dm = self.dm
        n = len(nl.cells)
        self._prop_arr = np.array([dm.prop.get(c.ctype, 0.0) for c in nl.cells])
        self._clk2q_arr = np.array([dm.clk_to_q.get(c.ctype, 0.0) for c in nl.cells])
        self._setup_arr = np.array([dm.setup.get(c.ctype, 0.0) for c in nl.cells])

        n_sinks = np.array([len(net.sinks) for net in nl.nets], dtype=np.int64)
        n_edges = int(n_sinks.sum())
        self._e_src = np.repeat(
            np.array([net.driver for net in nl.nets], dtype=np.int64), n_sinks
        )
        self._e_dst = np.fromiter(
            (s for net in nl.nets for s in net.sinks), dtype=np.int64, count=n_edges
        )
        self._e_net = np.repeat(np.arange(len(nl.nets), dtype=np.int64), n_sinks)

        # cascade edges (set C of eq. 5) as a mask over the flat edge list
        if self._cascade_pairs:
            keys = self._e_src * n + self._e_dst
            pair_keys = np.array(
                [s * n + d for s, d in self._cascade_pairs], dtype=np.int64
            )
            self._casc_idx = np.flatnonzero(np.isin(keys, pair_keys))
        else:
            self._casc_idx = np.zeros(0, dtype=np.int64)

        # levelization: DAG cells get longest-path levels (all combinational
        # predecessors strictly earlier); cycle leftovers each get their own
        # level in topo order, replicating a sequential per-cell sweep
        level = np.zeros(n, dtype=np.int64)
        for u in self._topo[:n_dag]:
            lv = 0
            for v, _ in self._fanin[u]:
                if not self._seq[v]:
                    lv = max(lv, level[v] + 1)
            level[u] = lv
        nxt = (max((level[u] for u in self._topo[:n_dag]), default=-1)) + 1
        for u in self._topo[n_dag:]:
            level[u] = nxt
            nxt += 1
        self._level = level

        def _segment(edge_idx: np.ndarray, by: np.ndarray, slice_key: np.ndarray | None):
            """Stable-sort edges by (slice_key, by, edge order); return
            (sorted edge ids, segment starts, segment owner, slice ranges)."""
            if slice_key is None:
                perm = np.lexsort((edge_idx, by))
            else:
                perm = np.lexsort((edge_idx, by, slice_key))
            e = edge_idx[perm]
            owner = by[perm]
            if e.size:
                starts = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
            else:
                starts = np.zeros(0, dtype=np.int64)
            seg_owner = owner[starts]
            if slice_key is None:
                slices = [(0, seg_owner.size)] if seg_owner.size else []
            else:
                key = slice_key[perm][starts]
                cut = (
                    np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
                    if key.size
                    else np.zeros(0, dtype=np.int64)
                )
                slices = list(zip(cut, np.r_[cut[1:], key.size]))
            return e, starts, seg_owner, slices

        comb_dst = ~self._seq[self._e_dst]
        comb_src = ~self._seq[self._e_src]
        all_edges = np.arange(n_edges, dtype=np.int64)

        # forward pass: edges into combinational cells, level-grouped by dst
        idx = all_edges[comb_dst]
        self._fwd_e, self._fwd_starts, self._fwd_dst, self._fwd_slices = _segment(
            idx, self._e_dst[idx], level[self._e_dst[idx]]
        )
        # endpoint pass: edges into sequential cells, grouped by dst
        idx = all_edges[~comb_dst]
        self._end_e, self._end_starts, self._end_dst, _ = _segment(
            idx, self._e_dst[idx], None
        )
        # backward pass: comb→comb edges grouped by src, levels descending
        idx = all_edges[comb_dst & comb_src]
        self._bwd_e, self._bwd_starts, self._bwd_src, self._bwd_slices = _segment(
            idx, self._e_src[idx], -level[self._e_src[idx]]
        )
        # backward startpoint pull: seq→comb edges (order-free minimum.at)
        self._sp_e = all_edges[comb_dst & ~comb_src]
        # combinational cells with no fanin at all (arrival = own prop delay)
        fanin_count = np.bincount(self._e_dst, minlength=n)
        self._comb_unfed = np.flatnonzero((~self._seq) & (fanin_count == 0))

    # ------------------------------------------------------------------
    def cascade_adjacent(self, placement: Placement) -> np.ndarray:
        """Dedicated-cascade legality per cascade edge (aligned with the
        flat cascade-edge list), computed with one ``site_col`` fetch.

        A hop is adjacent when predecessor and successor sit on consecutive
        site ids of one DSP column — the per-cell loop re-derived the column
        array via ``device.site_col("DSP")`` twice per cascade edge per pass.
        """
        ci = self._casc_idx
        s = placement.site[self._e_src[ci]]
        d = placement.site[self._e_dst[ci]]
        ok = (s >= 0) & (d == s + 1)
        col = placement.device.site_col("DSP")
        if col.size:
            same_col = col[np.clip(s, 0, col.size - 1)] == col[np.clip(d, 0, col.size - 1)]
            ok &= same_col
        else:
            ok[:] = False
        return ok

    def _edge_delays(self, placement: Placement, detour: np.ndarray | None) -> np.ndarray:
        """Per-edge delays for one placement (all edges, one pass)."""
        xy = placement.xy
        es, ed = self._e_src, self._e_dst
        dist = np.abs(xy[es, 0] - xy[ed, 0]) + np.abs(xy[es, 1] - xy[ed, 1])
        det = detour[self._e_net] if detour is not None else 1.0
        dm = self.dm
        delay = dm.net_base + dm.net_per_um * dist * det
        ci = self._casc_idx
        # devices without a dedicated cascade spine (slot fabrics) price
        # cascade nets as ordinary fabric routing
        if ci.size and getattr(placement.device, "has_cascades", True):
            adjacent = self.cascade_adjacent(placement)
            delay[ci] = np.where(
                adjacent, dm.cascade_fixed, dm.cascade_escape_penalty + delay[ci]
            )
        return delay

    def analyze(
        self,
        placement: Placement,
        routing: RoutingResult | None = None,
        period_ns: float | None = None,
        with_slacks: bool = False,
    ) -> TimingReport:
        """Run setup STA; ``period_ns`` defaults to the netlist's target.

        With ``with_slacks=True`` a backward required-time pass also fills
        ``report.cell_output_slack`` — the slack on every cell's output pin
        (min over all downstream endpoints), which timing-driven placement
        uses for net criticality weighting.
        """
        with trace.span("sta.analyze", with_slacks=with_slacks, skew=self.skew.name) as sp:
            report = self._analyze(placement, routing, period_ns, with_slacks)
            sp.set(wns_ns=report.wns_ns, n_failing=report.n_failing)
        metrics.inc("sta.analyses")
        metrics.gauge("sta.wns_ns", report.wns_ns)
        metrics.gauge("sta.tns_ns", report.tns_ns)
        return report

    # ------------------------------------------------------------------
    def _resolve_period(self, period_ns: float | None) -> float:
        if period_ns is None:
            if not self.netlist.target_freq_mhz:
                raise ValueError("no period given and netlist has no target frequency")
            period_ns = 1e3 / self.netlist.target_freq_mhz
        return period_ns

    @staticmethod
    def _segment_max_first(vals: np.ndarray, starts: np.ndarray):
        """Per-segment (max, first index attaining it) — a per-cell loop's
        strict ``a > best`` scan keeps the earliest maximum, so ties must
        resolve to the first position."""
        m = np.maximum.reduceat(vals, starts)
        counts = np.diff(np.r_[starts, vals.size])
        is_max = vals == np.repeat(m, counts)
        pos = np.where(is_max, np.arange(vals.size), vals.size)
        first = np.minimum.reduceat(pos, starts)
        return m, first

    def _analyze(
        self,
        placement: Placement,
        routing: RoutingResult | None,
        period_ns: float | None,
        with_slacks: bool,
    ) -> TimingReport:
        nl = self.netlist
        period_ns = self._resolve_period(period_ns)
        detour = routing.net_detour if routing is not None else None
        n = len(nl.cells)
        es, ed = self._e_src, self._e_dst
        delay = self._edge_delays(placement, detour)

        arrival = np.zeros(n)
        arrival[self._seq] = self._clk2q_arr[self._seq]
        arrival[self._comb_unfed] = self._prop_arr[self._comb_unfed]
        best_pred = np.full(n, -1, dtype=np.int64)
        launch = np.arange(n, dtype=np.int64)  # launch register of worst path

        fe, fstarts = self._fwd_e, self._fwd_starts
        for slo, shi in self._fwd_slices:
            elo = fstarts[slo]
            ehi = fstarts[shi] if shi < fstarts.size else fe.size
            e = fe[elo:ehi]
            a = arrival[es[e]] + delay[e]
            m, first = self._segment_max_first(a, fstarts[slo:shi] - elo)
            d = self._fwd_dst[slo:shi]
            pred = np.where(m > 0.0, es[e[np.minimum(first, e.size - 1)]], -1)
            arrival[d] = np.where(m > 0.0, m, 0.0) + self._prop_arr[d]
            best_pred[d] = pred
            launch[d] = np.where(pred >= 0, launch[np.maximum(pred, 0)], d)

        # endpoints: every sequential cell with fanin
        ee = self._end_e
        skew_term: np.ndarray | float = 0.0
        if ee.size:
            a = arrival[es[ee]] + delay[ee]
            skew_term = self.skew.arrival_penalty(placement, launch[es[ee]], ed[ee])
            if isinstance(skew_term, np.ndarray) or skew_term:
                a = a + skew_term
            worst, first = self._segment_max_first(a, self._end_starts)
            ends = self._end_dst
            end_pred = es[ee[first]]
            slack_arr = (period_ns - self._setup_arr[ends]) - worst
        else:
            ends = np.zeros(0, dtype=np.int64)
            end_pred = np.zeros(0, dtype=np.int64)
            slack_arr = np.zeros(0)

        has_endpoints = slack_arr.size > 0
        if not has_endpoints:
            slack_arr = np.array([period_ns])
        wns = float(slack_arr.min())
        tns = float(np.minimum(slack_arr, 0.0).sum())
        worst_i = int(np.argmin(slack_arr)) if has_endpoints else 0

        crit: list[int] = []
        if has_endpoints:
            crit = [int(ends[worst_i])]
            seen = set(crit)  # best_pred can cycle on comb-cycle netlists
            u = int(end_pred[worst_i])
            while u >= 0 and u not in seen:
                seen.add(u)
                crit.append(u)
                if self._seq[u]:
                    break
                u = int(best_pred[u])
            crit.reverse()

        cell_slack = None
        if with_slacks:
            required = np.full(n, np.inf)
            if ee.size:
                r = (period_ns - self._setup_arr[ed[ee]]) - delay[ee]
                if isinstance(skew_term, np.ndarray) or skew_term:
                    r = r - skew_term
                np.minimum.at(required, es[ee], r)
            be, bstarts = self._bwd_e, self._bwd_starts
            for slo, shi in self._bwd_slices:
                elo = bstarts[slo]
                ehi = bstarts[shi] if shi < bstarts.size else be.size
                e = be[elo:ehi]
                r = (required[ed[e]] - self._prop_arr[ed[e]]) - delay[e]
                m = np.minimum.reduceat(r, bstarts[slo:shi] - elo)
                s = self._bwd_src[slo:shi]
                required[s] = np.minimum(required[s], m)
            sp_e = self._sp_e
            if sp_e.size:
                r = (required[ed[sp_e]] - self._prop_arr[ed[sp_e]]) - delay[sp_e]
                np.minimum.at(required, es[sp_e], r)
            with np.errstate(invalid="ignore"):
                cell_slack = required - arrival
            cell_slack[~np.isfinite(required)] = np.nan  # no downstream endpoint

        return TimingReport(
            period_ns=float(period_ns),
            wns_ns=wns,
            tns_ns=tns,
            n_endpoints=int(ends.size),
            n_failing=int((slack_arr < 0).sum()),
            endpoint_slack=slack_arr,
            critical_path=crit,
            endpoint_cells=ends.copy() if has_endpoints else None,
            _end_pred=end_pred.copy() if has_endpoints else None,
            _best_pred=best_pred,
            cell_output_slack=cell_slack,
        )


def max_frequency(
    sta: StaticTimingAnalyzer,
    placement: Placement,
    routing: RoutingResult | None = None,
    lo_mhz: float = 10.0,
    hi_mhz: float = 1000.0,
) -> float:
    """Highest clock frequency (MHz) with non-negative WNS.

    One STA pass suffices: the worst path delay is period-independent, so
    f_max = 1 / (worst path delay).
    """
    report = sta.analyze(placement, routing, period_ns=1e3 / lo_mhz)
    return float(np.clip(report.freq_mhz_limit, lo_mhz, hi_mhz))
