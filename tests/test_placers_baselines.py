"""Baseline placer flows: Vivado-like, AMF-like, refine."""

import numpy as np

from repro.placers import (
    AMFLikePlacer,
    Legalizer,
    Placement,
    VivadoLikePlacer,
    refine_sites,
)


class TestVivadoLike:
    def test_produces_legal_placement(self, mini_accel, small_dev):
        p = VivadoLikePlacer(seed=1, device=small_dev).place(mini_accel)
        assert p.is_legal(), p.legality_violations()[:5]

    def test_deterministic(self, mini_accel, small_dev):
        p1 = VivadoLikePlacer(seed=2, device=small_dev).place(mini_accel)
        p2 = VivadoLikePlacer(seed=2, device=small_dev).place(mini_accel)
        assert np.array_equal(p1.xy, p2.xy)

    def test_beats_random_start(self, mini_accel, small_dev, rng):
        placed = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        random_p = Placement(mini_accel, small_dev)
        mov = mini_accel.movable_indices()
        random_p.xy[mov] = rng.uniform(
            [0, 0], [small_dev.width, small_dev.height], (len(mov), 2)
        )
        Legalizer(small_dev).legalize(random_p)
        assert placed.hpwl() < random_p.hpwl()

    def test_respects_movable_mask(self, mini_accel, small_dev):
        base = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        frozen = mini_accel.dsp_indices()
        mask = np.array([not c.is_fixed for c in mini_accel.cells])
        mask[frozen] = False
        p2 = VivadoLikePlacer(seed=1, device=small_dev).place(mini_accel, placement=base, movable_mask=mask)
        assert np.array_equal(p2.site[frozen], base.site[frozen])
        assert p2.is_legal()


class TestAMFLike:
    def test_produces_legal_placement(self, mini_accel, small_dev):
        p = AMFLikePlacer(seed=1, device=small_dev).place(mini_accel)
        assert p.is_legal(), p.legality_violations()[:5]

    def test_macros_compact(self, mini_accel, small_dev):
        """Centroid collapse ⇒ every macro lands minimal-height (it must:
        legal cascades are consecutive), and near its centroid column."""
        p = AMFLikePlacer(seed=1, device=small_dev).place(mini_accel)
        assert p.is_legal()

    def test_worse_or_equal_wirelength_than_vivado(self, mini_accel, small_dev):
        """The VCU108-tuned flow should not beat the calibrated one."""
        hv = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel).hpwl()
        ha = AMFLikePlacer(seed=0, device=small_dev).place(mini_accel).hpwl()
        assert ha >= hv * 0.95  # allow a little noise on tiny designs


class TestRefineSites:
    def test_refine_never_degrades(self, mini_accel, small_dev):
        p = VivadoLikePlacer(seed=3, refine_passes=0, device=small_dev).place(mini_accel)
        before = p.hpwl(weighted=True)
        refine_sites(p, passes=2)
        assert p.hpwl(weighted=True) <= before + 1e-6
        assert p.is_legal()

    def test_refine_reports_moves(self, mini_accel, small_dev, rng):
        p = Placement(mini_accel, small_dev)
        mov = mini_accel.movable_indices()
        p.xy[mov] = rng.uniform([0, 0], [small_dev.width, small_dev.height], (len(mov), 2))
        Legalizer(small_dev).legalize(p)
        moves = refine_sites(p, passes=3)
        assert moves >= 0
        assert p.is_legal()
