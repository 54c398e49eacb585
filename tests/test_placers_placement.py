"""Placement container tests: HPWL, legality checks."""

import numpy as np
import pytest

from repro.placers import Legalizer, Placement


@pytest.fixture()
def place(tiny_netlist, small_dev):
    return Placement(tiny_netlist, small_dev)


class TestInit:
    def test_fixed_cells_pinned(self, place, tiny_netlist):
        ps = tiny_netlist.cell_by_name("ps")
        assert tuple(place.xy[ps.index]) == ps.fixed_xy

    def test_movable_start_at_center(self, place, small_dev, tiny_netlist):
        lut = tiny_netlist.cell_by_name("lut0")
        assert tuple(place.xy[lut.index]) == (small_dev.width / 2, small_dev.height / 2)

    def test_no_sites_assigned(self, place):
        movable = place.netlist.movable_indices()
        assert all(place.site[i] == -1 for i in movable)


class TestHPWL:
    def test_zero_when_collocated(self, place):
        # all movable at one point; fixed cells contribute their spans
        base = place.hpwl()
        assert base > 0  # PS/IO pull nets open

    def test_hpwl_manual(self, tiny_netlist, small_dev):
        p = Placement(tiny_netlist, small_dev)
        p.xy[:] = 0.0
        a = tiny_netlist.cell_by_name("dsp0").index
        b = tiny_netlist.cell_by_name("dsp1").index
        p.xy[a] = (0.0, 0.0)
        p.xy[b] = (30.0, 40.0)
        # dsp1 sits on nets c01 and c12, each spanning (30 + 40)
        assert p.hpwl() == pytest.approx(140.0)

    def test_weighted_hpwl_uses_net_weights(self, tiny_netlist, small_dev):
        for net in tiny_netlist.nets:
            if net.name == "c01":
                net.weight = 5.0
        p = Placement(tiny_netlist, small_dev)
        p.xy[:] = 0.0
        b = tiny_netlist.cell_by_name("dsp1").index
        p.xy[b] = (10.0, 0.0)
        assert p.hpwl(weighted=True) == pytest.approx(5 * 10.0 + 10.0)
        # dsp1 is on c01 (w=5) and c12 (w=1)

    def test_weighted_hpwl_tracks_live_weight_mutation(self, tiny_netlist, small_dev):
        """Regression: the per-net weights used to be cached on the first
        weighted query, so timing-driven reweighting (which mutates
        ``net.weight`` in place between rounds) silently kept scoring the
        stale weights."""
        p = Placement(tiny_netlist, small_dev)
        p.xy[:] = 0.0
        b = tiny_netlist.cell_by_name("dsp1").index
        p.xy[b] = (10.0, 0.0)
        before = p.hpwl(weighted=True)
        assert before == pytest.approx(20.0)  # c01 + c12, both w=1
        for net in tiny_netlist.nets:
            if net.name == "c01":
                net.weight = 7.0
        assert p.hpwl(weighted=True) == pytest.approx(before + 6 * 10.0)

    def test_hpwl_translation_invariant(self, place, rng):
        movable = place.netlist.movable_indices()
        place.xy[movable] = rng.uniform(0, 300, (len(movable), 2))
        h1 = place.hpwl()
        # translating *everything* (fixed included) keeps HPWL
        p2 = place.copy()
        p2.xy = p2.xy + 7.0
        assert p2.hpwl() == pytest.approx(h1)

    def test_copy_independent(self, place):
        c = place.copy()
        c.xy[0, 0] += 1
        assert place.xy[0, 0] != c.xy[0, 0]


class TestLegality:
    def test_unplaced_cells_reported(self, place):
        v = place.legality_violations()
        assert any("no legal" in s for s in v)

    def test_assign_site_syncs_xy(self, place, small_dev, tiny_netlist):
        d = tiny_netlist.cell_by_name("dsp0").index
        place.assign_site(d, 3)
        assert tuple(place.xy[d]) == tuple(small_dev.site_xy("DSP")[3])

    def test_double_occupancy_detected(self, place, tiny_netlist):
        a = tiny_netlist.cell_by_name("dsp0").index
        b = tiny_netlist.cell_by_name("dsp1").index
        place.assign_site(a, 0)
        place.assign_site(b, 0)
        v = place.legality_violations()
        assert any("holds 2 cells" in s for s in v)

    def test_macro_split_column_detected(self, place, tiny_netlist, small_dev):
        col0 = small_dev.column_site_ids("DSP", 0)
        col1 = small_dev.column_site_ids("DSP", 1)
        names = ["dsp0", "dsp1", "dsp2"]
        sites = [col0[0], col0[1], col1[0]]
        for n, s in zip(names, sites):
            place.assign_site(tiny_netlist.cell_by_name(n).index, s)
        v = place.legality_violations()
        assert any("spans columns" in s for s in v)

    def test_macro_gap_detected(self, place, tiny_netlist, small_dev):
        col0 = small_dev.column_site_ids("DSP", 0)
        for n, s in zip(["dsp0", "dsp1", "dsp2"], [col0[0], col0[1], col0[3]]):
            place.assign_site(tiny_netlist.cell_by_name(n).index, s)
        v = place.legality_violations()
        assert any("not consecutive" in s for s in v)

    def test_moved_fixed_cell_detected(self, place, tiny_netlist):
        ps = tiny_netlist.cell_by_name("ps").index
        place.xy[ps] = (999.0, 999.0)
        assert any("fixed" in s for s in place.legality_violations())


class TestSeededViolationMessages:
    """``legality_violations`` reads its structure from the shared CSR
    gathers; every seeded violation must still come out with its exact
    message, per-cell ones in cell order, then site over-capacity, then
    cascade breaks."""

    @pytest.fixture()
    def legal(self, tiny_netlist, small_dev):
        p = Legalizer(small_dev).legalize(Placement(tiny_netlist, small_dev))
        assert p.legality_violations() == []
        return p

    def test_each_seeded_violation_reported_verbatim(self, legal, tiny_netlist, small_dev):
        cell = tiny_netlist.cell_by_name
        ps, d0, d4, d5 = (cell(n).index for n in ("ps", "dsp0", "dsp4", "dsp5"))
        sites = small_dev.sites("DSP")
        # moved fixed cell
        legal.xy[ps] = (999.0, 999.0)
        # double-booked DSP site: the single control DSP onto dsp0's site
        shared = int(legal.site[d0])
        legal.assign_site(d5, shared)
        # broken cascade: macro 1's tail leaves its column
        d3_site = sites[int(legal.site[cell("dsp3").index])]
        free = set(range(len(sites))) - set(legal.site[legal.site >= 0].tolist())
        other = min(s for s in free if sites[s].col != d3_site.col)
        legal.assign_site(d4, other)
        assert legal.legality_violations() == [
            "fixed cell ps moved",
            f"DSP site {shared} holds 2 cells (cap 1)",
            f"macro 1 spans columns {sorted({d3_site.col, sites[other].col})}",
        ]
        assert not legal.is_legal()

    def test_rows_gap_and_unsited_cell_messages(self, legal, tiny_netlist, small_dev):
        cell = tiny_netlist.cell_by_name
        d2, lut = (cell(n).index for n in ("dsp2", "lut3"))
        sites = small_dev.sites("DSP")
        col = sites[int(legal.site[d2])].col
        col_ids = small_dev.column_site_ids("DSP", col)
        used = set(legal.site[legal.site >= 0].tolist())
        row2 = sites[int(legal.site[d2])].row
        gap = min(
            int(s) for s in col_ids if int(s) not in used and sites[int(s)].row > row2 + 1
        )
        legal.assign_site(d2, gap)
        legal.site[lut] = -1
        rows = [sites[int(legal.site[cell(n).index])].row for n in ("dsp0", "dsp1", "dsp2")]
        assert legal.legality_violations() == [
            "lut3: no legal CLB site",
            f"macro 0 rows not consecutive: {rows}",
        ]
