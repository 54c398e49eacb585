"""Quadratic global placement tests."""

import numpy as np
import pytest

from repro import obs
from repro.netlist.csr import get_csr
from repro.placers import GlobalPlaceConfig, Legalizer, Placement, QuadraticGlobalPlacer
from repro.placers.analytical import (
    _AREA_BY_CODE,
    CELL_AREA,
    _equalize,
    _push_out_of_ps,
)


class TestEqualize:
    def test_uniform_unchanged_roughly(self, rng):
        x = rng.uniform(0, 100, 2000)
        out = _equalize(x, np.ones_like(x), 0, 100, 20)
        assert abs(out.mean() - 50) < 5

    def test_clustered_spread_out(self, rng):
        x = rng.normal(50, 2, 2000).clip(0, 100)
        out = _equalize(x, np.ones_like(x), 0, 100, 20)
        assert out.std() > x.std() * 2

    def test_monotone_mapping(self, rng):
        x = np.sort(rng.uniform(0, 100, 200))
        out = _equalize(x, np.ones_like(x), 0, 100, 16)
        assert np.all(np.diff(out) >= -1e-9)

    def test_empty(self):
        out = _equalize(np.array([]), np.array([]), 0, 1, 4)
        assert out.size == 0


class TestPushOutOfPS:
    def test_inside_points_moved_out(self, small_dev):
        ps = small_dev.ps
        pts = np.array([[ps.x0 + 1.0, ps.y0 + 1.0], [ps.x1 - 1.0, ps.y1 - 1.0]])
        out = _push_out_of_ps(pts, small_dev)
        for x, y in out:
            assert not ps.contains(x, y)

    def test_outside_points_untouched(self, small_dev):
        pts = np.array([[small_dev.width - 1.0, small_dev.height - 1.0]])
        out = _push_out_of_ps(pts, small_dev)
        assert np.array_equal(out, pts)


class TestGlobalPlacer:
    def test_connected_cells_near_fixed_anchor(self, tiny_netlist, small_dev):
        placer = QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=2))
        place = placer.place(tiny_netlist, small_dev)
        # lut0 is driven by the PS; it should sit closer to the PS than the
        # far IO pad on average
        lut0 = tiny_netlist.cell_by_name("lut0").index
        ps_xy = np.array(tiny_netlist.cell_by_name("ps").fixed_xy)
        io_xy = np.array(tiny_netlist.cell_by_name("pad").fixed_xy)
        d_ps = np.abs(place.xy[lut0] - ps_xy).sum()
        d_io = np.abs(place.xy[lut0] - io_xy).sum()
        assert d_ps < d_io

    def test_coordinates_inside_fabric(self, mini_accel, small_dev):
        place = QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=2)).place(
            mini_accel, small_dev
        )
        mov = mini_accel.movable_indices()
        assert np.all(place.xy[mov, 0] >= 0) and np.all(place.xy[mov, 0] <= small_dev.width)
        assert np.all(place.xy[mov, 1] >= 0) and np.all(place.xy[mov, 1] <= small_dev.height)

    def test_ps_keepout_respected(self, mini_accel, small_dev):
        place = QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=2, avoid_ps=True)).place(
            mini_accel, small_dev
        )
        ps = small_dev.ps
        for i in mini_accel.movable_indices():
            assert not ps.contains(place.xy[i, 0], place.xy[i, 1])

    def test_movable_mask_freezes_cells(self, mini_accel, small_dev):
        base = Placement(mini_accel, small_dev)
        frozen = mini_accel.dsp_indices()
        base.xy[frozen] = (123.0, 321.0)
        mask = np.array([not c.is_fixed for c in mini_accel.cells])
        mask[frozen] = False
        place = QuadraticGlobalPlacer(GlobalPlaceConfig(n_iterations=1)).place(
            mini_accel, small_dev, placement=base, movable_mask=mask
        )
        for i in frozen:
            assert tuple(place.xy[i]) == (123.0, 321.0)

    def test_spreading_reduces_overlap(self, mini_accel, small_dev):
        cfg0 = GlobalPlaceConfig(n_iterations=0)
        cfg4 = GlobalPlaceConfig(n_iterations=4)
        p0 = QuadraticGlobalPlacer(cfg0).place(mini_accel, small_dev)
        p4 = QuadraticGlobalPlacer(cfg4).place(mini_accel, small_dev)
        mov = mini_accel.movable_indices()
        # spread std should grow with iterations
        assert p4.xy[mov, 0].std() >= p0.xy[mov, 0].std() * 0.9

    def test_fabric_scale_overshoots(self, mini_accel, small_dev):
        cfg = GlobalPlaceConfig(n_iterations=2, fabric_scale=1.5, avoid_ps=False)
        place = QuadraticGlobalPlacer(cfg).place(mini_accel, small_dev)
        mov = mini_accel.movable_indices()
        # with a 1.5x virtual fabric some cells land beyond the real device
        assert place.xy[mov, 0].max() > small_dev.width


class TestWarmStart:
    """A given placement replaces the unanchored bootstrap solve."""

    @staticmethod
    def _traced_place(netlist, dev, **kw):
        cfg = GlobalPlaceConfig(n_iterations=2)
        with obs.observe() as ob:
            out = QuadraticGlobalPlacer(cfg).place(netlist, dev, **kw)
        solves = ob.tracer.find("global_place.solve")
        (gp,) = ob.tracer.find("global_place")
        return out, gp, solves

    def test_cold_start_bootstraps_once(self, mini_accel, small_dev):
        _, gp, solves = self._traced_place(mini_accel, small_dev)
        assert gp.attrs["warm_start"] is False
        assert [s.attrs.get("bootstrap", False) for s in solves] == [True, False, False]

    def test_warm_start_skips_bootstrap(self, mini_accel, small_dev):
        cold, _, _ = self._traced_place(mini_accel, small_dev)
        Legalizer(small_dev).legalize(cold)
        out, gp, solves = self._traced_place(mini_accel, small_dev, placement=cold)
        assert gp.attrs["warm_start"] is True
        assert len(solves) == 2
        assert not any(s.attrs.get("bootstrap") for s in solves)
        mov = mini_accel.movable_indices()
        assert np.isfinite(out.xy[mov]).all()


class TestCellAreaGather:
    def test_area_by_code_matches_cell_area_lookup(self, mini_accel, tiny_netlist):
        for nl in (mini_accel, tiny_netlist):
            expected = np.array(
                [CELL_AREA.get(c.ctype.value, 1.0) for c in nl.cells]
            )
            got = _AREA_BY_CODE[get_csr(nl).ctype_code]
            assert np.array_equal(got, expected)
