"""Grouped-vs-loop spreading equivalence + slab-boundary regression.

``_spread`` historically selected slab members with ``>= edge[s] & <
edge[s+1]`` scans, so a cell sitting at (or, via the ``_equalize``
monotonicity epsilon, just above) the last slab edge matched no slab and
its y coordinate was never equalized. The placer and its per-slab loop
oracle (``tests.oracles.spread``) now share clipped ``np.digitize``
membership; the grouped equalization must match the oracle to 1e-9.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga import small_device
from repro.placers import GlobalPlaceConfig, QuadraticGlobalPlacer
from repro.placers.analytical import _equalize, _equalize_grouped, _slab_of
from tests.oracles.spread import ReferenceSpreadPlacer

#: the production placer and its per-slab oracle, by the parametrize ids in use
SPREAD_ENGINES = {"vectorized": QuadraticGlobalPlacer, "reference": ReferenceSpreadPlacer}

DEV = small_device(n_dsp_cols=3, dsp_rows=12)


@st.composite
def spread_case(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n = draw(st.integers(0, 300))
    # include out-of-fabric positions: the solver can overshoot before clipping
    pos = np.column_stack(
        [
            rng.uniform(-10.0, DEV.width + 10.0, n),
            rng.uniform(-10.0, DEV.height + 10.0, n),
        ]
    )
    areas = rng.uniform(0.5, 12.0, n)
    n_slabs = draw(st.integers(1, 6))
    n_bins = draw(st.integers(2, 40))
    return pos, areas, n_slabs, n_bins


class TestVectorizedEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(spread_case())
    def test_spread_matches_reference(self, case):
        pos, areas, n_slabs, n_bins = case
        cfg = GlobalPlaceConfig(n_slabs=n_slabs, n_bins=n_bins)
        a = QuadraticGlobalPlacer(cfg)._spread(pos, areas, DEV)
        b = ReferenceSpreadPlacer(cfg)._spread(pos, areas, DEV)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(spread_case())
    def test_grouped_equalize_matches_per_group(self, case):
        pos, areas, n_slabs, n_bins = case
        y = pos[:, 1]
        group = _slab_of(pos[:, 0], DEV.width, n_slabs)
        got = _equalize_grouped(y, areas, group, n_slabs, 0.0, DEV.height, n_bins)
        expect = y.copy()
        for g in range(n_slabs):
            sel = group == g
            if sel.sum() > 2:
                expect[sel] = _equalize(y[sel], areas[sel], 0.0, DEV.height, n_bins)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-9)


class TestSlabBoundaryRegression:
    def test_every_x_gets_a_slab(self):
        w = DEV.width
        x = np.array([-1.0, 0.0, w / 2, w - 1e-9, w, w + 1e-6])
        s = _slab_of(x, w, 4)
        assert s.min() >= 0 and s.max() <= 3
        # the old >=/< scan left x >= w unmatched; digitize maps it last
        assert s[-2] == 3 and s[-1] == 3

    @pytest.mark.parametrize("method", ["vectorized", "reference"])
    def test_max_x_cell_is_equalized(self, method):
        """The x-equalization epsilon pushes the max-x cell just past the
        fabric edge; its y must still be spread with its slab."""
        n = 50
        rng = np.random.default_rng(3)
        pos = np.column_stack(
            [np.linspace(0.0, DEV.width, n), np.full(n, DEV.height / 2)]
        )
        areas = rng.uniform(1.0, 4.0, n)
        placer = SPREAD_ENGINES[method](
            GlobalPlaceConfig(n_slabs=4, n_bins=32, avoid_ps=False)
        )
        out = placer._spread(pos, areas, DEV)
        top = int(np.argmax(out[:, 0]))
        assert out[top, 0] >= DEV.width - 1.5  # still the edge cell
        # all cells started at y = h/2; equalization moves the slab's
        # marginal, so the boundary cell's y may no longer sit there
        assert out[top, 1] != pytest.approx(DEV.height / 2, abs=1e-12)
