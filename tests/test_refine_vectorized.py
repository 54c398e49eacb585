"""Batched ``refine_sites`` vs the per-cell loop oracle.

``refine_sites`` precomputes rest extremes, candidate verdicts, and owner
runs at pass start, and falls back to live recomputation when moves
invalidate them — all accept decisions must stay bitwise-identical to
``tests.oracles.refine``, so at a fixed seed both visit the same cells,
accept the same moves/swaps, and land every cell on the same site.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placers import (
    GlobalPlaceConfig,
    Legalizer,
    Placement,
    QuadraticGlobalPlacer,
    refine_sites,
)
from tests.oracles.refine import refine_sites_reference


@pytest.fixture(scope="module")
def legalized(request):
    """A legalized mini accelerator placement both engines can start from."""
    mini = request.getfixturevalue("mini_accel")
    dev = request.getfixturevalue("small_dev")
    place = QuadraticGlobalPlacer(GlobalPlaceConfig(seed=0)).place(mini, dev)
    Legalizer(dev).legalize(place)
    return place


def _run(base: Placement, method: str, **kw):
    engine = {"reference": refine_sites_reference, "vectorized": refine_sites}[method]
    p = base.copy()
    accepted = engine(p, **kw)
    return accepted, p


class TestEquivalence:
    @pytest.mark.parametrize(
        "passes,k", [(1, 4), (2, 8), (4, 16)], ids=["1x4", "2x8", "4x16"]
    )
    def test_identical_sites_and_accept_count(self, legalized, passes, k):
        a_ref, p_ref = _run(legalized, "reference", passes=passes,
                            n_candidates=k, seed=0)
        a_vec, p_vec = _run(legalized, "vectorized", passes=passes,
                            n_candidates=k, seed=0)
        assert a_vec == a_ref
        np.testing.assert_array_equal(p_vec.site, p_ref.site)
        np.testing.assert_array_equal(p_vec.xy, p_ref.xy)

    def test_refinement_not_a_noop(self, legalized):
        a_vec, p_vec = _run(legalized, "vectorized", passes=2,
                            n_candidates=8, seed=0)
        assert a_vec > 0
        assert p_vec.hpwl() < legalized.hpwl()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(2, 12))
    def test_random_seeds_and_jitter(self, legalized, seed, passes, k):
        """Jittered logic positions reshape every net bbox (and thus every
        accept decision) without breaking DSP/BRAM site legality."""
        from repro.netlist.csr import SITE_KIND_CODES, get_csr

        base = legalized.copy()
        rng = np.random.default_rng(seed)
        ctx = get_csr(base.netlist)
        is_bram = ctx.site_code == SITE_KIND_CODES.index("BRAM")
        logic = np.flatnonzero(~ctx.is_dsp & ~is_bram & ~ctx.is_fixed)
        base.xy[logic] += rng.uniform(-15.0, 15.0, (logic.size, 2))
        a_ref, p_ref = _run(base, "reference", passes=passes,
                            n_candidates=k, seed=seed)
        a_vec, p_vec = _run(base, "vectorized", passes=passes,
                            n_candidates=k, seed=seed)
        assert a_vec == a_ref
        np.testing.assert_array_equal(p_vec.site, p_ref.site)

    def test_movable_mask_respected(self, legalized):
        mask = np.zeros(len(legalized.netlist.cells), dtype=bool)
        a_ref, p_ref = _run(legalized, "reference", passes=2,
                            n_candidates=8, seed=0, movable_mask=mask)
        a_vec, p_vec = _run(legalized, "vectorized", passes=2,
                            n_candidates=8, seed=0, movable_mask=mask)
        assert a_ref == a_vec == 0
        np.testing.assert_array_equal(p_vec.site, legalized.site)
