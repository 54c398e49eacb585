"""Skew models through the STA and its loop oracle + the skew-aware assignment term.

Pins three contracts:

- the STA and its per-cell loop oracle agree to 1e-9 under **all three**
  :class:`~repro.clock.SkewModel` implementations over jittered placements;
- the default :class:`~repro.clock.RegionSkew` reproduces the historical
  inline region-step formula bitwise (reports must not move on default
  configs);
- ``has_cascades=False`` fabrics price cascade edges as plain routed nets,
  and the opt-in assignment skew term behaves (masked, monotone in weight).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import (
    HTreeConfig,
    HTreeSkew,
    RegionSkew,
    ZeroSkew,
    get_skew_model,
    synthesize_htree,
)
from repro.errors import ConfigurationError
from repro.fpga import slot_fabric, small_device
from repro.netlist import CellType, Netlist
from repro.placers import Placement
from repro.timing import DelayModel, StaticTimingAnalyzer
from tests.oracles.sta import ReferenceSTA

#: the production STA and its loop oracle, by the parametrize ids in use
STA_ENGINES = {"vectorized": StaticTimingAnalyzer, "reference": ReferenceSTA}

DEV = small_device(n_dsp_cols=3, dsp_rows=12)
TREE = synthesize_htree(DEV, HTreeConfig(depth=2, jitter_ns=0.02, seed=5))


def _models():
    return [
        RegionSkew(0.03),
        HTreeSkew(TREE),
        ZeroSkew(),
    ]


@st.composite
def skew_case(draw):
    """Random netlist + jittered placement (same shape as test_sta_vectorized)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_seq = draw(st.integers(1, 8))
    n_comb = draw(st.integers(0, 10))
    n_dsp = draw(st.integers(0, 4))
    nl = Netlist("h")
    nl.target_freq_mhz = 200.0
    seq_kinds = [CellType.FF, CellType.BRAM]
    cells = [nl.add_cell(f"s{i}", seq_kinds[i % 2]) for i in range(n_seq)]
    cells += [nl.add_cell(f"c{i}", CellType.LUT) for i in range(n_comb)]
    dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(n_dsp)]
    if n_dsp >= 2:
        nl.add_macro(dsps)
    cells += dsps
    n = len(cells)
    for k in range(draw(st.integers(1, 2 * n))):
        driver = int(rng.integers(0, n))
        sinks = [int(s) for s in rng.integers(0, n, int(rng.integers(1, 4)))
                 if int(s) != driver]
        if sinks:
            nl.add_net(f"n{k}", driver, sinks)
    for i in range(1, n_dsp):
        nl.add_net(f"casc{i}", dsps[i - 1], [dsps[i]])
    place = Placement(nl, DEV)
    place.xy[:] = rng.uniform(0.0, [DEV.width, DEV.height], (n, 2))
    model_i = draw(st.integers(0, 2))
    return nl, place, model_i


def _assert_reports_match(a, b):
    assert a.wns_ns == pytest.approx(b.wns_ns, abs=1e-9)
    assert a.tns_ns == pytest.approx(b.tns_ns, abs=1e-9)
    assert a.n_endpoints == b.n_endpoints
    assert a.n_failing == b.n_failing
    np.testing.assert_allclose(a.endpoint_slack, b.endpoint_slack, rtol=0, atol=1e-9)
    assert a.critical_path == b.critical_path
    if a.cell_output_slack is not None:
        np.testing.assert_allclose(
            a.cell_output_slack, b.cell_output_slack, rtol=0, atol=1e-9
        )


class TestEngineEquivalenceUnderSkewModels:
    @settings(max_examples=60, deadline=None)
    @given(skew_case(), st.booleans())
    def test_vectorized_matches_reference(self, case, with_slacks):
        nl, place, model_i = case
        model = _models()[model_i]
        a = ReferenceSTA(nl, skew_model=model).analyze(
            place, with_slacks=with_slacks
        )
        b = StaticTimingAnalyzer(nl, skew_model=model).analyze(
            place, with_slacks=with_slacks
        )
        _assert_reports_match(a, b)

    @pytest.mark.parametrize("model", _models(), ids=lambda m: m.name)
    def test_generated_suite_matches(self, mini_accel, model):
        place = Placement(mini_accel, DEV)
        rng = np.random.default_rng(11)
        place.xy[:] = rng.uniform(0.0, [DEV.width, DEV.height], (len(mini_accel), 2))
        a = ReferenceSTA(mini_accel, skew_model=model).analyze(place, with_slacks=True)
        b = StaticTimingAnalyzer(mini_accel, skew_model=model).analyze(
            place, with_slacks=True
        )
        _assert_reports_match(a, b)


class TestRegionSkewBitwiseCompatibility:
    """RegionSkew must reproduce the historical inline formula exactly."""

    def _historical(self, dm, placement, launch, capture):
        dev = placement.device
        ncx, ncy = dev.clock_region_shape
        region_x = np.clip(
            (placement.xy[:, 0] / max(dev.width, 1e-9) * ncx).astype(np.int64),
            0, ncx - 1,
        )
        region_y = np.clip(
            (placement.xy[:, 1] / max(dev.height, 1e-9) * ncy).astype(np.int64),
            0, ncy - 1,
        )
        cheb = np.maximum(
            np.abs(region_x[launch] - region_x[capture]),
            np.abs(region_y[launch] - region_y[capture]),
        )
        return dm.clock_skew_per_region * cheb

    def test_penalty_bitwise_equal(self, mini_accel, rng):
        dm = DelayModel()
        place = Placement(mini_accel, DEV)
        place.xy[:] = rng.uniform(0.0, [DEV.width, DEV.height], (len(mini_accel), 2))
        n = len(mini_accel)
        launch = rng.integers(0, n, 300)
        capture = rng.integers(0, n, 300)
        got = RegionSkew(dm.clock_skew_per_region).arrival_penalty(
            place, launch, capture
        )
        want = self._historical(dm, place, launch, capture)
        np.testing.assert_array_equal(got, want)

    def test_default_sta_uses_region_skew(self, mini_accel):
        sta = StaticTimingAnalyzer(mini_accel)
        assert isinstance(sta.skew, RegionSkew)
        assert sta.skew.skew_per_region == DelayModel().clock_skew_per_region

    def test_default_report_equals_explicit_region_model(self, mini_accel, rng):
        place = Placement(mini_accel, DEV)
        place.xy[:] = rng.uniform(0.0, [DEV.width, DEV.height], (len(mini_accel), 2))
        a = StaticTimingAnalyzer(mini_accel).analyze(place, with_slacks=True)
        b = StaticTimingAnalyzer(
            mini_accel, skew_model=RegionSkew(0.03)
        ).analyze(place, with_slacks=True)
        assert a.wns_ns == b.wns_ns and a.tns_ns == b.tns_ns
        np.testing.assert_array_equal(a.endpoint_slack, b.endpoint_slack)
        np.testing.assert_array_equal(a.cell_output_slack, b.cell_output_slack)

    def test_zero_skew_equals_region_zero(self, mini_accel, rng):
        place = Placement(mini_accel, DEV)
        place.xy[:] = rng.uniform(0.0, [DEV.width, DEV.height], (len(mini_accel), 2))
        a = StaticTimingAnalyzer(mini_accel, skew_model=ZeroSkew()).analyze(place)
        b = StaticTimingAnalyzer(mini_accel, skew_model=RegionSkew(0.0)).analyze(place)
        assert a.wns_ns == b.wns_ns
        np.testing.assert_array_equal(a.endpoint_slack, b.endpoint_slack)


class TestHTreeSkewSemantics:
    def test_signed_penalty(self, rng):
        nl = Netlist("pair")
        nl.target_freq_mhz = 100.0
        f0 = nl.add_cell("f0", CellType.FF)
        f1 = nl.add_cell("f1", CellType.FF)
        nl.add_net("n", f0, [f1])
        place = Placement(nl, DEV)
        place.xy[:] = rng.uniform(0.0, [DEV.width, DEV.height], (2, 2))
        model = HTreeSkew(TREE)
        p = model.arrival_penalty(
            place, np.array([0], dtype=np.int64), np.array([1], dtype=np.int64)
        )
        a = TREE.skew_at(place.xy[:, 0], place.xy[:, 1])
        assert p[0] == pytest.approx(a[0] - a[1], abs=0)
        # a late capture clock buys slack: penalty flips sign when swapped
        q = model.arrival_penalty(
            place, np.array([1], dtype=np.int64), np.array([0], dtype=np.int64)
        )
        assert q[0] == pytest.approx(-p[0], abs=0)

    def test_factory(self):
        dev = slot_fabric(0.05)
        m = get_skew_model("htree", dev)
        assert isinstance(m, HTreeSkew)
        assert m.tree is dev.clock_tree  # reuses the attached tree
        m2 = get_skew_model("htree", DEV)  # no attached tree: synthesizes
        assert isinstance(m2, HTreeSkew) and m2.tree.n_taps > 0
        assert isinstance(get_skew_model("region", DEV), RegionSkew)
        assert isinstance(get_skew_model("zero", DEV), ZeroSkew)
        with pytest.raises(ConfigurationError, match="skew model"):
            get_skew_model("banana", DEV)

    def test_region_skew_validates(self):
        with pytest.raises(ConfigurationError, match="skew_per_region"):
            RegionSkew(-0.1)


class TestSlotFabricCascadePricing:
    """``has_cascades=False`` prices cascade edges as ordinary fabric nets."""

    def _cascade_pair(self, device):
        nl = Netlist("casc2")
        nl.target_freq_mhz = 200.0
        dsps = [nl.add_cell(f"d{i}", CellType.DSP) for i in range(2)]
        nl.add_macro(dsps)
        nl.add_net("c", dsps[0], [dsps[1]])
        place = Placement(nl, device)
        ids = device.column_site_ids("DSP", 0)
        place.assign_site(0, ids[0])
        place.assign_site(1, ids[1])  # consecutive rows: a legal cascade hop
        return nl, place

    @pytest.mark.parametrize("method", ["vectorized", "reference"])
    def test_slot_fabric_charges_net_delay(self, method):
        dev = slot_fabric(0.05)
        assert not dev.has_cascades
        nl, place = self._cascade_pair(dev)
        dm = DelayModel()
        rep = STA_ENGINES[method](nl, dm).analyze(
            place, period_ns=10.0
        )
        dist = float(np.abs(place.xy[0] - place.xy[1]).sum())
        expect = (
            10.0 - dm.setup[CellType.DSP] - dm.clk_to_q[CellType.DSP]
            - dm.net_delay(dist)
        )
        assert rep.wns_ns == pytest.approx(expect, abs=1e-9)

    @pytest.mark.parametrize("method", ["vectorized", "reference"])
    def test_cascade_fabric_charges_fixed_hop(self, method):
        dev = small_device(n_dsp_cols=2, dsp_rows=8, with_ps=False, name="cascdev")
        assert dev.has_cascades
        nl, place = self._cascade_pair(dev)
        dm = DelayModel()
        rep = STA_ENGINES[method](nl, dm).analyze(
            place, period_ns=10.0
        )
        expect = (
            10.0 - dm.setup[CellType.DSP] - dm.clk_to_q[CellType.DSP]
            - dm.cascade_fixed
        )
        assert rep.wns_ns == pytest.approx(expect, abs=1e-9)


class TestDelayModelValidation:
    def test_negative_setup_rejected(self):
        with pytest.raises(ConfigurationError, match="setup"):
            DelayModel(setup={CellType.FF: -0.01})

    def test_negative_prop_rejected(self):
        with pytest.raises(ConfigurationError, match="prop"):
            DelayModel(prop={CellType.LUT: -1.0})

    def test_negative_clk_to_q_rejected(self):
        with pytest.raises(ConfigurationError, match="clk_to_q"):
            DelayModel(clk_to_q={CellType.FF: -0.1})

    @pytest.mark.parametrize(
        "knob", ["net_base", "net_per_um", "cascade_fixed",
                 "cascade_escape_penalty", "clock_skew_per_region"]
    )
    def test_negative_scalar_knob_rejected(self, knob):
        with pytest.raises(ConfigurationError, match=knob):
            DelayModel(**{knob: -0.5})

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError, match="net_base"):
            DelayModel(net_base=float("nan"))

    def test_defaults_still_construct(self):
        DelayModel()
        DelayModel(clock_skew_per_region=0.0)


class TestAssignmentSkewTerm:
    def _assigner(self, device, skew_weight, model):
        from repro.core.extraction import (
            build_dsp_graph,
            iddfs_dsp_paths,
            prune_control_dsps,
        )
        from repro.core.placement.assignment import (
            AssignmentConfig,
            DatapathDSPAssigner,
        )

        nl = Netlist("asg")
        nl.target_freq_mhz = 100.0
        ffs = [nl.add_cell(f"f{i}", CellType.FF) for i in range(4)]
        dsps = [nl.add_cell(f"d{i}", CellType.DSP, is_datapath=True) for i in range(3)]
        for i, d in enumerate(dsps):
            nl.add_net(f"in{i}", ffs[i], [d])
            nl.add_net(f"out{i}", d, [ffs[(i + 1) % 4]])
        nl.add_net("chain0", dsps[0], [dsps[1]])
        nl.add_net("chain1", dsps[1], [dsps[2]])
        graph = prune_control_dsps(
            build_dsp_graph(nl, iddfs_dsp_paths(nl)),
            {i: True for i in nl.dsp_indices()},
        )
        place = Placement(nl, device)
        rng = np.random.default_rng(0)
        place.xy[:] = rng.uniform(
            0.0, [device.width, device.height], (len(nl.cells), 2)
        )
        asg = DatapathDSPAssigner(
            nl,
            device,
            graph,
            sorted(graph.nodes),
            AssignmentConfig(skew_weight=skew_weight),
            skew_model=model,
        )
        return asg, place

    def test_invalid_weight_rejected(self):
        from repro.core.placement.assignment import AssignmentConfig

        with pytest.raises(ConfigurationError, match="skew_weight"):
            AssignmentConfig(skew_weight=-1.0)
        with pytest.raises(ConfigurationError, match="skew_weight"):
            AssignmentConfig(skew_weight=float("inf"))

    def test_off_by_default(self):
        dev = slot_fabric(0.05)
        asg, place = self._assigner(dev, 0.0, HTreeSkew(dev.clock_tree))
        assert asg._site_skew is None

    def test_region_model_has_no_term(self):
        dev = slot_fabric(0.05)
        asg, place = self._assigner(dev, 5.0, RegionSkew(0.03))
        assert asg._site_skew is None  # no per-point arrivals → term inert
        asg0, _ = self._assigner(dev, 0.0, RegionSkew(0.03))
        np.testing.assert_array_equal(
            asg.cost_matrix(place, None), asg0.cost_matrix(place, None)
        )

    def test_htree_term_changes_costs_monotonically(self):
        dev = slot_fabric(0.05)
        model = HTreeSkew(dev.clock_tree)
        asg0, place = self._assigner(dev, 0.0, model)
        asg1, _ = self._assigner(dev, 10.0, model)
        asg2, _ = self._assigner(dev, 20.0, model)
        c0 = asg0.cost_matrix(place, None)
        c1 = asg1.cost_matrix(place, None)
        c2 = asg2.cost_matrix(place, None)
        d1, d2 = c1 - c0, c2 - c0
        assert (d1 >= -1e-12).all()
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-9)
        assert float(d1.max()) > 0.0

    def test_dsplacer_end_to_end_with_skew(self):
        from repro.accelgen import generate_suite
        from repro.core import DSPlacer
        from repro.core.dsplacer import DSPlacerConfig

        dev = slot_fabric(0.05)
        nl = generate_suite("skynet", scale=0.02, device=dev, seed=0)
        cfg = DSPlacerConfig(skew_model="htree", skew_weight=5.0, outer_iterations=1)
        result = DSPlacer(dev, cfg).place(nl)
        assert result.placement.is_legal()

    def test_skew_weighted_run_escapes_hpwl_rollback(self, monkeypatch):
        """The wirelength rollback guard must not veto skew-aware trades.

        The Fig. 6 re-place is stubbed to return a legal placement whose
        HPWL is far above the prototype's (the CLB cells' sites are
        shuffled among themselves, so every site keeps its load): the
        skew-blind flow rolls back to the prototype, the skew-weighted flow
        keeps its last legal iterate.
        """
        import repro.core.dsplacer as dsplacer_mod
        from repro.accelgen import generate_suite
        from repro.core import DSPlacer
        from repro.core.dsplacer import DSPlacerConfig
        from repro.netlist.csr import SITE_KIND_CODES, get_csr

        def scrambled_replace(netlist, device, placement, frozen_dsps, **_):
            out = placement.copy()
            ctx = get_csr(netlist)
            clb = np.flatnonzero(
                (ctx.site_code == SITE_KIND_CODES.index("CLB")) & ~ctx.is_fixed
            )
            sites = np.random.default_rng(0).permutation(out.site[clb])
            out.site[clb] = sites
            out.xy[clb] = device.site_xy("CLB")[sites]
            assert out.is_legal()
            assert out.hpwl() > placement.hpwl()
            return out

        monkeypatch.setattr(dsplacer_mod, "replace_other_components", scrambled_replace)
        dev = slot_fabric(0.05)
        nl = generate_suite("skynet", scale=0.05, device=dev, seed=0)
        blind = DSPlacer(
            dev, DSPlacerConfig(seed=0, skew_model="htree", skew_weight=0.0)
        ).place(nl)
        events = [e["detail"] for e in blind.health.to_dict()["events"]]
        assert any("regressed past" in d for d in events), events
        aware = DSPlacer(
            dev, DSPlacerConfig(seed=0, skew_model="htree", skew_weight=5.0)
        ).place(nl)
        assert aware.placement.is_legal()
        events = [e["detail"] for e in aware.health.to_dict()["events"]]
        assert not any("regressed past" in d for d in events), events

    def test_dsplacer_rejects_unknown_skew_model(self):
        from repro.accelgen import generate_suite
        from repro.core import DSPlacer
        from repro.core.dsplacer import DSPlacerConfig

        dev = slot_fabric(0.05)
        nl = generate_suite("skynet", scale=0.02, device=dev, seed=0)
        cfg = DSPlacerConfig(skew_model="banana")
        with pytest.raises(ConfigurationError, match="skew model"):
            DSPlacer(dev, cfg).place(nl)
