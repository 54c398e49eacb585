"""PR 3 assignment-loop tests: vectorization equivalence + correctness fixes.

The vectorized ``cost_matrix``/``objective`` are checked against
loop-reference implementations (the pre-vectorization code, kept here as
the ground truth) to 1e-9 on seeded instances, the per-iterate MCF solve is
checked to produce *identical assignments* before/after vectorization, and
the `AssignmentConfig` validation plus the DSP–DSP half-counting fix get
dedicated regressions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.extraction import build_dsp_graph, iddfs_dsp_paths, prune_control_dsps
from repro.core.placement import AssignmentConfig, DatapathDSPAssigner
from repro.errors import ConfigurationError
from repro.netlist import CellType, Netlist
from repro.placers import Placement
from tests.oracles.mcf import min_cost_assignment_ssp


# ----------------------------------------------------------------------
# loop references: the pre-vectorization implementations
# ----------------------------------------------------------------------
def cost_matrix_ref(a: DatapathDSPAssigner, placement, prev_sites):
    """Per-row loop implementation of eq. 9 (pre-PR-3 ``cost_matrix``)."""
    cfg = a.config
    n = len(a.dsps)
    m = a.site_xy.shape[0]
    cost = np.empty((n, m))
    for k in range(n):
        idx, val = a._neighbors[k]
        if idx.size:
            pts = placement.xy[idx]
            w_sum = float(val.sum())
            mvec = (val[:, None] * pts).sum(axis=0)
            q = float((val * (pts**2).sum(axis=1)).sum())
            wl = w_sum * a._site_sq - 2.0 * (a.site_xy @ mvec) + q
        else:
            wl = np.zeros(m)
        cost[k] = cfg.wl_scale * wl
    cost += a._angle_coef[:, None] * a._site_cos[None, :]
    if cfg.congestion_weight > 0 and a._site_congestion is not None:
        cost += cfg.congestion_weight * a._site_congestion[None, :]
    if prev_sites is not None and cfg.eta > 0:
        for k in range(n):
            for partner, offset in a._partners[k]:
                ps = prev_sites[partner]
                if ps < 0:
                    continue
                target = ps + offset
                cost[k] += cfg.eta
                if 0 <= target < m and a._site_col[target] == a._site_col[ps]:
                    cost[k, target] -= cfg.eta
    return cost


def objective_ref(a: DatapathDSPAssigner, sites, placement):
    """Loop implementation of the true eq. 7 objective with the canonical
    pair accounting (each DSP–DSP pair counted exactly once, weight = mean
    of the neighbour-list sides that survived top-K truncation)."""
    cfg = a.config
    new_xy = {cell: a.site_xy[sites[k]] for k, cell in enumerate(a.dsps)}
    in_dsps = {d: k for k, d in enumerate(a.dsps)}
    total = 0.0
    pair_acc: dict[tuple[int, int], tuple[float, int]] = {}
    for k, cell in enumerate(a.dsps):
        idx, val = a._neighbors[k]
        p0 = new_xy[cell]
        for j, w in zip(idx, val):
            j = int(j)
            kj = in_dsps.get(j)
            if kj is None:
                d = p0 - placement.xy[j]
                total += w * float(d @ d)
            elif kj != k:
                key = (k, kj) if k < kj else (kj, k)
                acc, cnt = pair_acc.get(key, (0.0, 0))
                pair_acc[key] = (acc + w, cnt + 1)
    for (ka, kb), (acc, cnt) in pair_acc.items():
        d = a.site_xy[sites[ka]] - a.site_xy[sites[kb]]
        total += (acc / cnt) * float(d @ d)
    total *= cfg.wl_scale
    for k in range(len(a.dsps)):
        total += a._angle_coef[k] * a._site_cos[sites[k]]
    if cfg.eta > 0:
        for kp, ks in a._pairs:
            adjacent = (
                sites[ks] == sites[kp] + 1
                and a._site_col[sites[ks]] == a._site_col[sites[kp]]
            )
            if not adjacent:
                total += cfg.eta
    return total


def objective_ref_halved(a: DatapathDSPAssigner, sites, placement):
    """The pre-PR-3 objective: every DSP–DSP term halved unconditionally.

    Agrees with the fixed accounting exactly when every DSP–DSP edge
    survives truncation on both sides.
    """
    cfg = a.config
    pos = placement.xy
    new_xy = {cell: a.site_xy[sites[k]] for k, cell in enumerate(a.dsps)}
    in_dsps = {d: k for k, d in enumerate(a.dsps)}
    total = 0.0
    for k, cell in enumerate(a.dsps):
        idx, val = a._neighbors[k]
        p0 = new_xy[cell]
        for j, w in zip(idx, val):
            j = int(j)
            d = p0 - (new_xy[j] if j in in_dsps else pos[j])
            term = w * float(d @ d)
            total += term / 2.0 if j in in_dsps else term
    total *= cfg.wl_scale
    for k in range(len(a.dsps)):
        total += a._angle_coef[k] * a._site_cos[sites[k]]
    if cfg.eta > 0:
        for kp, ks in a._pairs:
            adjacent = (
                sites[ks] == sites[kp] + 1
                and a._site_col[sites[ks]] == a._site_col[sites[kp]]
            )
            if not adjacent:
                total += cfg.eta
    return total


@pytest.fixture(scope="module")
def assigner(mini_accel, small_dev):
    paths = iddfs_dsp_paths(mini_accel)
    graph = build_dsp_graph(mini_accel, paths)
    flags = {i: bool(mini_accel.cells[i].is_datapath) for i in mini_accel.dsp_indices()}
    dgraph = prune_control_dsps(graph, flags)
    dsps = sorted(dgraph.nodes)
    return DatapathDSPAssigner(
        mini_accel, small_dev, dgraph, dsps, AssignmentConfig(max_iterations=6)
    )


def _seeded_instances(assigner, mini_accel, small_dev, n_seeds=4):
    """Randomised (placement, prev_sites) pairs over the mini accelerator."""
    m = assigner.site_xy.shape[0]
    n = len(assigner.dsps)
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        place = Placement(mini_accel, small_dev)
        place.xy += rng.uniform(0.0, 500.0, size=place.xy.shape)
        prev = rng.integers(0, m, size=n)
        prev[rng.random(n) < 0.3] = -1  # some DSPs had no previous site
        yield place, prev


class TestVectorizedEquivalence:
    def test_cost_matrix_matches_loop_reference(self, assigner, mini_accel, small_dev):
        for place, prev in _seeded_instances(assigner, mini_accel, small_dev):
            for prev_sites in (None, prev):
                got = assigner.cost_matrix(place, prev_sites)
                ref = cost_matrix_ref(assigner, place, prev_sites)
                np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)

    def test_objective_matches_loop_reference(self, assigner, mini_accel, small_dev):
        m = assigner.site_xy.shape[0]
        n = len(assigner.dsps)
        for seed, (place, _) in enumerate(
            _seeded_instances(assigner, mini_accel, small_dev)
        ):
            rng = np.random.default_rng(2000 + seed)
            sites = rng.choice(m, size=n, replace=False)
            got = assigner.objective(sites, place)
            ref = objective_ref(assigner, sites, place)
            assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_objective_matches_old_halving_when_symmetric(self, mini_accel, small_dev):
        """Without truncation every DSP–DSP edge is present on both sides,
        where the canonical accounting equals the old halved one."""
        paths = iddfs_dsp_paths(mini_accel)
        graph = build_dsp_graph(mini_accel, paths)
        dsps = sorted(
            d for d in graph.nodes if mini_accel.cells[d].is_datapath
        )
        a = DatapathDSPAssigner(
            mini_accel,
            small_dev,
            graph,
            dsps,
            AssignmentConfig(max_neighbors=10_000),  # no truncation
        )
        m = a.site_xy.shape[0]
        rng = np.random.default_rng(7)
        place = Placement(mini_accel, small_dev)
        place.xy += rng.uniform(0.0, 300.0, size=place.xy.shape)
        sites = rng.choice(m, size=len(dsps), replace=False)
        assert a.objective(sites, place) == pytest.approx(
            objective_ref_halved(a, sites, place), rel=1e-9, abs=1e-9
        )

    def test_criticality_rescale_keeps_equivalence(self, mini_accel, small_dev):
        """set_criticality rebuilds the padded arrays; the vectorized cost
        must track the rescaled neighbour weights."""
        paths = iddfs_dsp_paths(mini_accel)
        graph = build_dsp_graph(mini_accel, paths)
        dsps = sorted(d for d in graph.nodes if mini_accel.cells[d].is_datapath)
        a = DatapathDSPAssigner(mini_accel, small_dev, graph, dsps)
        rng = np.random.default_rng(42)
        slack = rng.uniform(-2.0, 8.0, size=len(mini_accel.cells))
        a.set_criticality(slack, period_ns=8.0)
        place = Placement(mini_accel, small_dev)
        place.xy += rng.uniform(0.0, 200.0, size=place.xy.shape)
        np.testing.assert_allclose(
            a.cost_matrix(place, None),
            cost_matrix_ref(a, place, None),
            rtol=1e-9,
            atol=1e-9,
        )
        a.clear_criticality()
        np.testing.assert_allclose(
            a.cost_matrix(place, None),
            cost_matrix_ref(a, place, None),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_identical_assignments_before_after(self, assigner, mini_accel, small_dev):
        """The vectorized candidate/arc path must pick the same assignment
        as the pre-PR tuple-loop + successive-shortest-paths path.

        A deterministic jitter makes every optimum unique so the check is
        exact rather than cost-equal-only.
        """
        cfg = assigner.config
        n = len(assigner.dsps)
        m = assigner.site_xy.shape[0]
        k = min(cfg.candidate_k, m)
        for inst, (place, prev) in enumerate(
            _seeded_instances(assigner, mini_accel, small_dev)
        ):
            rng = np.random.default_rng(3000 + inst)
            for prev_sites in (None, prev):
                cost = assigner.cost_matrix(place, prev_sites)
                cost = cost + rng.uniform(0.0, 1e-6, size=cost.shape)
                # pre-PR arc construction: per-row python loops, first-wins
                # duplicates resolved by the (now min-cost) dedupe
                arcs = []
                for i in range(n):
                    cand = np.argpartition(cost[i], k - 1)[:k]
                    for j in cand:
                        arcs.append((i, int(j), float(cost[i, j])))
                    if prev_sites is not None and prev_sites[i] >= 0:
                        arcs.append(
                            (i, int(prev_sites[i]), float(cost[i, prev_sites[i]]))
                        )
                ref = min_cost_assignment_ssp(n, m, arcs)
                assigner._cand_cache.clear()
                got = assigner._solve_engine("mcf", cost, prev_sites)
                assert {i: int(s) for i, s in enumerate(got)} == ref


class TestCandidateCache:
    def test_unchanged_rows_hit_cache(self, assigner, mini_accel, small_dev):
        place, _ = next(_seeded_instances(assigner, mini_accel, small_dev))
        cost = assigner.cost_matrix(place, None)
        assigner._cand_cache.clear()
        with obs.observe() as ob:
            first = assigner._solve_engine("mcf", cost, None)
            second = assigner._solve_engine("mcf", cost, None)
        counters = ob.metrics.to_dict()["counters"]
        n = len(assigner.dsps)
        assert counters["assignment.cand_cache.misses"] == n
        assert counters["assignment.cand_cache.hits"] == n
        assert np.array_equal(first, second)

    def test_changed_row_recomputed(self, assigner, mini_accel, small_dev):
        place, _ = next(_seeded_instances(assigner, mini_accel, small_dev))
        cost = assigner.cost_matrix(place, None)
        assigner._cand_cache.clear()
        assigner._solve_engine("mcf", cost, None)
        bumped = cost.copy()
        bumped[0] += 1.0
        with obs.observe() as ob:
            assigner._solve_engine("mcf", bumped, None)
        counters = ob.metrics.to_dict()["counters"]
        assert counters["assignment.cand_cache.misses"] == 1
        assert counters["assignment.cand_cache.hits"] == len(assigner.dsps) - 1


class TestHalfCountingFix:
    def test_one_sided_truncated_edge_counts_fully(self, small_dev):
        """A DSP–DSP edge truncated off one side must contribute its full
        weight (pre-PR-3 it was halved as if both sides kept it)."""
        nl = Netlist("trunc")
        anchor = nl.add_cell("pad", CellType.IO, fixed_xy=(0.0, 0.0))
        d0 = nl.add_cell("d0", CellType.DSP, is_datapath=True)
        d1 = nl.add_cell("d1", CellType.DSP, is_datapath=True)
        lut = nl.add_cell("l0", CellType.LUT)
        # d0's strongest neighbour is the LUT (w=3 via parallel nets), its
        # edge to d1 has w=1; with max_neighbors=1, d0 keeps only the LUT
        # while d1 (sole neighbour: d0) keeps the d0 edge — one-sided.
        nl.add_net("a0", anchor, [d0])
        nl.add_net("a1", anchor, [lut])
        for i in range(3):
            nl.add_net(f"dl{i}", d0, [lut])
        nl.add_net("dd", d0, [d1])
        graph = build_dsp_graph(nl)
        cfg = AssignmentConfig(
            lam=0.0, eta=0.0, wl_scale=1.0, max_neighbors=1, max_iterations=2
        )
        a = DatapathDSPAssigner(nl, small_dev, graph, [d0, d1], cfg)
        # the d0–d1 edge must live on exactly one side of the neighbour lists
        sides = sum(
            1
            for k, cell in enumerate([d0, d1])
            for j in a._neighbors[k][0]
            if int(j) in (d0, d1) and int(j) != cell
        )
        assert sides == 1
        place = Placement(nl, small_dev)
        sites = np.array([0, 5])
        d = a.site_xy[sites[0]] - a.site_xy[sites[1]]
        dd_term = float(d @ d)  # full weight-1 contribution, not half
        expected_dd = a.objective(sites, place) - objective_ref(a, sites, place) + dd_term
        assert expected_dd == pytest.approx(dd_term)
        # and the canonical pair list carries the full weight once
        assert a._dd_w.tolist() == [1.0]


class TestConfigValidation:
    @pytest.mark.parametrize("bad", [0, -1, -50])
    def test_max_iterations_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="max_iterations"):
            AssignmentConfig(max_iterations=bad)

    def test_other_knobs_rejected(self):
        with pytest.raises(ConfigurationError, match="patience"):
            AssignmentConfig(patience=0)
        with pytest.raises(ConfigurationError, match="candidate_k"):
            AssignmentConfig(candidate_k=0)
        with pytest.raises(ConfigurationError, match="max_neighbors"):
            AssignmentConfig(max_neighbors=0)

    @pytest.mark.parametrize("bad", ["banana", "auto", ""])
    def test_unknown_engine_rejected(self, bad):
        # "auto" is resolved by DSPlacer before it builds an AssignmentConfig
        with pytest.raises(ConfigurationError, match="assignment engine"):
            AssignmentConfig(engine=bad)

    def test_valid_config_still_solves(self, assigner, mini_accel, small_dev):
        place = Placement(mini_accel, small_dev)
        result, iters = assigner.solve(place.copy())
        assert set(result) == set(assigner.dsps)
        assert iters >= 1

    def test_solve_with_one_iteration_allowed(self, mini_accel, small_dev):
        paths = iddfs_dsp_paths(mini_accel)
        graph = build_dsp_graph(mini_accel, paths)
        dsps = sorted(d for d in graph.nodes if mini_accel.cells[d].is_datapath)
        a = DatapathDSPAssigner(
            mini_accel, small_dev, graph, dsps, AssignmentConfig(max_iterations=1)
        )
        result, iters = a.solve(Placement(mini_accel, small_dev))
        assert iters == 1
        assert len(result) == len(dsps)
