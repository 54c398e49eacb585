"""Per-connection negotiation: the oracle of ``PatternRouter._negotiate``."""

from __future__ import annotations

import numpy as np

from repro.router.pattern_router import PatternRouter


def candidate_paths(bx0: int, by0: int, bx1: int, by1: int) -> list[list[tuple[str, int, int]]]:
    """Deduplicated L/Z candidate edge paths between two bins.

    Every path is a list of ``(kind, i, j)`` edges (``kind`` ``"h"`` or
    ``"v"``). Degenerate candidates are skipped: for straight (same-row or
    same-column) connections both L patterns — and any Z pattern — collapse
    onto the identical path, so only the first is emitted (historically the
    duplicate was cost-evaluated once more per connection per round). A
    same-bin connection yields a single empty path.
    """

    def h_run(y: int, xa: int, xb: int) -> list[tuple[str, int, int]]:
        lo, hi = sorted((xa, xb))
        return [("h", x, y) for x in range(lo, hi)]

    def v_run(x: int, ya: int, yb: int) -> list[tuple[str, int, int]]:
        lo, hi = sorted((ya, yb))
        return [("v", x, y) for y in range(lo, hi)]

    dx = bx1 - bx0
    dy = by1 - by0
    outs = [h_run(by0, bx0, bx1) + v_run(bx1, by0, by1)]  # L: x then y
    if dx != 0 and dy != 0:
        outs.append(v_run(bx0, by0, by1) + h_run(by1, bx0, bx1))  # L: y then x
    if abs(dx) >= 2 and dy != 0:  # Z with a horizontal middle leg
        xm = (bx0 + bx1) // 2
        outs.append(h_run(by0, bx0, xm) + v_run(xm, by0, by1) + h_run(by1, xm, bx1))
    if abs(dy) >= 2 and dx != 0:  # Z with a vertical middle leg
        ym = (by0 + by1) // 2
        outs.append(v_run(bx0, by0, ym) + h_run(ym, bx0, bx1) + v_run(bx1, ym, by1))
    return outs


class ReferencePatternRouter(PatternRouter):
    """``PatternRouter`` that scores every connection's candidate paths
    edge by edge against the round-start usage grids."""

    def _negotiate(self, batch):
        """Per-connection loop with the same frozen-round semantics."""
        gx, gy = self.grid
        cap = self.capacity_per_edge
        usage_h = np.zeros((gx - 1, gy))
        usage_v = np.zeros((gx, gy - 1))
        history_h = np.zeros_like(usage_h)
        history_v = np.zeros_like(usage_v)
        cands = [
            candidate_paths(
                int(batch.x0[c]), int(batch.y0[c]), int(batch.x1[c]), int(batch.y1[c])
            )
            for c in range(batch.n)
        ]
        routes: dict[int, list[tuple[str, int, int]]] = {}

        for rnd in range(self.n_rounds):
            base_h = usage_h.copy()
            base_v = usage_v.copy()

            def edge_cost(kind: str, i: int, j: int, own: set) -> float:
                rip = 1.0 if (kind, i, j) in own else 0.0
                if kind == "h":
                    over = max(0.0, base_h[i, j] - rip + 1.0 - cap)
                    return 1.0 + history_h[i, j] + over
                over = max(0.0, base_v[i, j] - rip + 1.0 - cap)
                return 1.0 + history_v[i, j] + over

            new_routes: dict[int, list[tuple[str, int, int]]] = {}
            for ci in range(batch.n):
                own = set(routes.get(ci, ()))
                best_path: list[tuple[str, int, int]] | None = None
                best_cost = np.inf
                for path in cands[ci]:
                    c = sum(edge_cost(k, i, j, own) for k, i, j in path)
                    if c < best_cost:
                        best_cost = c
                        best_path = path
                new_routes[ci] = best_path if best_path is not None else []
            routes = new_routes
            usage_h[:] = 0.0
            usage_v[:] = 0.0
            for path in routes.values():
                for kind, i, j in path:
                    if kind == "h":
                        usage_h[i, j] += 1.0
                    else:
                        usage_v[i, j] += 1.0
            history_h += self.history_cost * np.maximum(0.0, usage_h - cap) / max(cap, 1.0)
            history_v += self.history_cost * np.maximum(0.0, usage_v - cap) / max(cap, 1.0)
            if usage_h.max(initial=0.0) <= cap and usage_v.max(initial=0.0) <= cap:
                break
        return usage_h, usage_v
