"""Per-cell loop STA: the oracle of ``StaticTimingAnalyzer._analyze``."""

from __future__ import annotations

import numpy as np

from repro.placers.placement import Placement
from repro.router.global_router import RoutingResult
from repro.timing.sta import StaticTimingAnalyzer, TimingReport


class ReferenceSTA(StaticTimingAnalyzer):
    """``StaticTimingAnalyzer`` whose analysis walks cells and fanin lists
    one at a time in topological order, pricing every edge on its own."""

    def _edge_delay(
        self,
        src: int,
        dst: int,
        net_id: int,
        placement: Placement,
        detour: np.ndarray | None,
    ) -> float:
        dxy = placement.xy[src] - placement.xy[dst]
        dist = abs(float(dxy[0])) + abs(float(dxy[1]))
        det = float(detour[net_id]) if detour is not None else 1.0
        if (src, dst) in self._cascade_pairs and getattr(
            placement.device, "has_cascades", True
        ):
            site_s = int(placement.site[src])
            site_d = int(placement.site[dst])
            adjacent = (
                site_s >= 0
                and site_d == site_s + 1
                and placement.device.site_col("DSP")[site_s]
                == placement.device.site_col("DSP")[site_d]
            )
            return self.dm.cascade_delay(adjacent, dist, det)
        return self.dm.net_delay(dist, det)

    def _skew_penalty_scalar(
        self, placement: Placement, launch_cell: int, capture_cell: int
    ) -> float:
        """One (launch, capture) skew charge."""
        p = self.skew.arrival_penalty(
            placement,
            np.array([launch_cell], dtype=np.int64),
            np.array([capture_cell], dtype=np.int64),
        )
        return float(p[0]) if isinstance(p, np.ndarray) else float(p)

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
        dm = self.dm

        n = len(nl.cells)
        arrival = np.zeros(n)
        best_pred = np.full(n, -1, dtype=np.int64)
        launch = np.arange(n, dtype=np.int64)  # launch register of worst path
        for u in range(n):
            if self._seq[u]:
                arrival[u] = dm.clk_to_q[nl.cells[u].ctype]

        for u in self._topo:
            best = 0.0
            pred = -1
            for v, nid in self._fanin[u]:
                a = arrival[v] + self._edge_delay(v, u, nid, placement, detour)
                if a > best:
                    best = a
                    pred = v
            arrival[u] = best + dm.prop.get(nl.cells[u].ctype, 0.0)
            best_pred[u] = pred
            if pred >= 0:
                launch[u] = launch[pred]

        # endpoints: every sequential cell with fanin
        slacks: list[float] = []
        ends: list[int] = []
        end_pred: list[int] = []
        for u in range(n):
            if not self._seq[u] or not self._fanin[u]:
                continue
            worst = None
            wpred = -1
            for v, nid in self._fanin[u]:
                a = arrival[v] + self._edge_delay(v, u, nid, placement, detour)
                a += self._skew_penalty_scalar(placement, int(launch[v]), u)
                if worst is None or a > worst:
                    worst = a
                    wpred = v
            slack = period_ns - dm.setup[nl.cells[u].ctype] - worst
            slacks.append(slack)
            ends.append(u)
            end_pred.append(wpred)

        slack_arr = np.array(slacks) if slacks else np.array([period_ns])
        wns = float(slack_arr.min())
        tns = float(np.minimum(slack_arr, 0.0).sum())
        worst_i = int(np.argmin(slack_arr)) if slacks else 0

        crit: list[int] = []
        if slacks:
            crit = [ends[worst_i]]
            seen = set(crit)  # best_pred can cycle on comb-cycle netlists
            u = end_pred[worst_i]
            while u >= 0 and u not in seen:
                seen.add(u)
                crit.append(u)
                if self._seq[u]:
                    break
                u = int(best_pred[u])
            crit.reverse()

        cell_slack = None
        if with_slacks:
            # backward pass: required time at each cell's output pin
            required = np.full(n, np.inf)
            for u in range(n):
                if not self._seq[u]:
                    continue
                for v, nid in self._fanin[u]:
                    r = (
                        period_ns
                        - dm.setup[nl.cells[u].ctype]
                        - self._edge_delay(v, u, nid, placement, detour)
                    )
                    r -= self._skew_penalty_scalar(placement, int(launch[v]), u)
                    required[v] = min(required[v], r)
            for u in reversed(self._topo):
                for w, nid in self._fanout[u]:
                    if self._seq[w]:
                        continue  # handled above via w's fanin
                    r = (
                        required[w]
                        - dm.prop.get(nl.cells[w].ctype, 0.0)
                        - self._edge_delay(u, w, nid, placement, detour)
                    )
                    required[u] = min(required[u], r)
            # sequential startpoints: pull required back through their
            # combinational fanout (all comb required times are final now)
            for u in range(n):
                if not self._seq[u]:
                    continue
                for w, nid in self._fanout[u]:
                    if self._seq[w]:
                        continue
                    r = (
                        required[w]
                        - dm.prop.get(nl.cells[w].ctype, 0.0)
                        - self._edge_delay(u, w, nid, placement, detour)
                    )
                    required[u] = min(required[u], r)
            with np.errstate(invalid="ignore"):
                cell_slack = required - arrival
            cell_slack[~np.isfinite(required)] = np.nan  # no downstream endpoint

        return TimingReport(
            period_ns=float(period_ns),
            wns_ns=wns,
            tns_ns=tns,
            n_endpoints=len(slacks),
            n_failing=int((slack_arr < 0).sum()),
            endpoint_slack=slack_arr,
            critical_path=crit,
            endpoint_cells=np.array(ends, dtype=np.int64) if ends else None,
            _end_pred=np.array(end_pred, dtype=np.int64) if ends else None,
            _best_pred=best_pred,
            cell_output_slack=cell_slack,
        )
