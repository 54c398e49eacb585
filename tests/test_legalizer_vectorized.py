"""Batched legalizer vs the per-cell loop oracle, plus the saturation paths.

The legalizer batches the single-DSP/BRAM nearest-site queries and the CLB
row fill; all assignment decisions (greedy order, spiral search, row
tie-breaks, escalation) must match ``tests.oracles.legalizer`` site-for-site.
The saturation tests cover the escalating ``_nearest_free`` suffix scan and
the dense-packing fallback for near-full cascade loads.
"""

import numpy as np
import pytest

from repro.netlist import CellType, Netlist
from repro.placers import (
    GlobalPlaceConfig,
    Legalizer,
    Placement,
    QuadraticGlobalPlacer,
)
from tests.oracles.legalizer import ReferenceLegalizer


@pytest.fixture(scope="module")
def spread(request):
    mini = request.getfixturevalue("mini_accel")
    dev = request.getfixturevalue("small_dev")
    return QuadraticGlobalPlacer(GlobalPlaceConfig(seed=0)).place(mini, dev)


class TestEquivalence:
    def test_identical_assignments(self, spread, small_dev):
        p_ref = ReferenceLegalizer(small_dev).legalize(spread.copy())
        p_vec = Legalizer(small_dev).legalize(spread.copy())
        np.testing.assert_array_equal(p_vec.site, p_ref.site)
        np.testing.assert_array_equal(p_vec.xy, p_ref.xy)
        assert p_vec.is_legal()

    def test_identical_under_jitter(self, spread, small_dev):
        """Perturbed targets reshuffle the greedy order and spiral probes."""
        for seed in (11, 12, 13):
            base = spread.copy()
            r = np.random.default_rng(seed)
            mov = np.flatnonzero(
                np.array([not c.is_fixed for c in base.netlist.cells])
            )
            base.xy[mov] += r.uniform(-40.0, 40.0, (mov.size, 2))
            p_ref = ReferenceLegalizer(small_dev).legalize(base.copy())
            p_vec = Legalizer(small_dev).legalize(base.copy())
            np.testing.assert_array_equal(p_vec.site, p_ref.site)


def _dsp_only_netlist(n_singles: int = 0, macro_lens: tuple[int, ...] = ()):
    nl = Netlist("sat")
    macros = []
    for m, length in enumerate(macro_lens):
        chain = [nl.add_cell(f"m{m}_{k}", CellType.DSP) for k in range(length)]
        nl.add_macro(chain)
        macros.append(chain)
    singles = [nl.add_cell(f"s{i}", CellType.DSP) for i in range(n_singles)]
    return nl, macros, singles


class TestNearestFreeEscalation:
    """High occupancy forces ``_nearest_free`` past its first candidate
    window; the escalating query must scan only the newly revealed suffix
    and still find the nearest free site."""

    def test_single_free_site_found(self, small_dev):
        n = small_dev.n_sites("DSP")
        nl, _, singles = _dsp_only_netlist(n_singles=1)
        place = Placement(nl, small_dev)
        place.xy[singles[0]] = (0.0, 0.0)
        leg = Legalizer(small_dev)
        # only the site farthest from the query is free — deeper than any
        # initial candidate window
        order = small_dev.nearest_sites("DSP", 0.0, 0.0, k=n)
        occupied = np.ones(n, dtype=bool)
        occupied[order[-1]] = False
        sid = leg._nearest_free("DSP", place.xy[singles[0]], occupied)
        assert sid == int(order[-1])

    def test_skip_prefix_not_rescanned(self, small_dev, monkeypatch):
        """With ``skip`` known-occupied candidates, the escalated query must
        start scanning after the prefix (the pre-fix code rescanned it)."""
        n = small_dev.n_sites("DSP")
        leg = Legalizer(small_dev)
        order = small_dev.nearest_sites("DSP", 0.0, 0.0, k=n)
        occupied = np.ones(n, dtype=bool)
        occupied[order[-1]] = False
        seen: list[int] = []
        orig = type(small_dev).nearest_sites

        def spy(self, kind, x, y, k):
            seen.append(k)
            return orig(self, kind, x, y, k)

        monkeypatch.setattr(type(small_dev), "nearest_sites", spy)
        sid = leg._nearest_free("DSP", np.array([0.0, 0.0]), occupied, skip=32)
        assert sid == int(order[-1])
        # escalation starts from the skipped prefix, never back at k=32
        assert min(seen) > 32

    def test_all_occupied_raises(self, small_dev):
        n = small_dev.n_sites("DSP")
        leg = Legalizer(small_dev)
        with pytest.raises(ValueError, match="no free DSP site left"):
            leg._nearest_free("DSP", np.array([0.0, 0.0]), np.ones(n, dtype=bool))

    def test_engines_agree_at_saturation(self, small_dev):
        """Fill all but two DSP sites — the batched engine's per-cell
        fallback must make the same picks as the reference loop."""
        n = small_dev.n_sites("DSP")
        nl, _, singles = _dsp_only_netlist(n_singles=n - 2)
        rng = np.random.default_rng(7)
        results = []
        for engine in (ReferenceLegalizer, Legalizer):
            place = Placement(nl, small_dev)
            place.xy[:] = rng.uniform(
                0.0, [small_dev.width, small_dev.height], (len(nl.cells), 2)
            )
            rng = np.random.default_rng(7)  # same targets for both engines
            engine(small_dev).legalize_dsps(
                place, np.ones(len(nl.cells), dtype=bool)
            )
            results.append(place.site.copy())
        np.testing.assert_array_equal(results[0], results[1])
        assert len(set(results[0].tolist())) == n - 2  # all distinct


class TestDensePacking:
    def test_dense_pack_saturating_macros(self, small_dev):
        """Six 5-chains saturate the per-column capacity of the 3×12 DSP
        fabric (two chains per column); dense packing must fit them all,
        column-aligned and contiguous."""
        nl, macros, _ = _dsp_only_netlist(macro_lens=(5,) * 6)
        place = Placement(nl, small_dev)
        leg = Legalizer(small_dev)
        occupied = np.zeros(small_dev.n_sites("DSP"), dtype=bool)
        leg._dense_pack_macros(place, occupied, list(nl.macros))
        col = small_dev.site_col("DSP")
        for chain in macros:
            sites = place.site[chain]
            assert (sites >= 0).all()
            assert len(set(col[sites].tolist())) == 1  # one column
            assert (np.diff(sites) == 1).all()  # consecutive rows
        assert int(occupied.sum()) == 30

    def test_overfull_macros_raise_even_densely_packed(self, small_dev):
        """Seven 5-chains need 35 of 36 sites but only two chains fit per
        12-row column; the dense fallback must report the failure."""
        nl, _, _ = _dsp_only_netlist(macro_lens=(5,) * 7)
        place = Placement(nl, small_dev)
        leg = Legalizer(small_dev)
        with pytest.raises(ValueError, match="even densely packed"):
            leg.legalize_dsps(place, np.ones(len(nl.cells), dtype=bool))

    def test_legalize_recovers_via_dense_fallback(self, small_dev):
        """Six saturating chains through the public path: whether or not the
        proximity packer fragments, legalization must end fully legal."""
        nl, macros, _ = _dsp_only_netlist(macro_lens=(5,) * 6)
        place = Placement(nl, small_dev)
        rng = np.random.default_rng(3)
        place.xy[:] = rng.uniform(
            0.0, [small_dev.width, small_dev.height], (len(nl.cells), 2)
        )
        Legalizer(small_dev).legalize_dsps(place, np.ones(len(nl.cells), dtype=bool))
        col = small_dev.site_col("DSP")
        for chain in macros:
            sites = place.site[chain]
            assert (sites >= 0).all()
            assert len(set(col[sites].tolist())) == 1
            assert (np.diff(sites) == 1).all()
