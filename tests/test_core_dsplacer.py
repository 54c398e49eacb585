"""DSPlacer facade end-to-end tests on a small device."""

import numpy as np
import pytest

from repro.core import DSPlacer, DSPlacerConfig
from repro.core.extraction import DatapathIdentifier, build_graph_sample
from repro.core.placement import replace_other_components
from repro.errors import ConfigurationError
from repro.placers import VivadoLikePlacer
from repro.router import GlobalRouter
from repro.timing import StaticTimingAnalyzer


@pytest.fixture(scope="module")
def result(mini_accel, small_dev):
    placer = DSPlacer(small_dev, DSPlacerConfig(identification="oracle", mcf_iterations=6, seed=0))
    return placer.place(mini_accel)


class TestDSPlacerFlow:
    def test_placement_is_legal(self, result):
        assert result.placement.is_legal(), result.placement.legality_violations()[:5]

    def test_identification_ran(self, result):
        assert result.identification.method == "oracle"
        assert result.identification.accuracy == 1.0

    def test_datapath_dsps_found(self, result, mini_accel):
        truth = sum(1 for c in mini_accel.cells if c.ctype.is_dsp and c.is_datapath)
        assert result.n_datapath_dsps == truth

    def test_dsp_graph_nontrivial(self, result):
        assert result.dsp_graph_nodes > 0
        assert result.dsp_graph_edges > 0

    def test_phases_recorded(self, result):
        expected = {
            "prototype_placement",
            "datapath_extraction",
            "dsp_placement",
            "other_placement",
        }
        assert expected <= set(result.phase_seconds)
        assert result.total_seconds > 0

    def test_mcf_iterations_recorded(self, result):
        assert len(result.mcf_iterations_used) == 2  # outer_iterations default
        assert all(i >= 1 for i in result.mcf_iterations_used)

    def test_cascades_all_adjacent(self, result, mini_accel, small_dev):
        sites = small_dev.sites("DSP")
        p = result.placement
        for pred, succ in mini_accel.cascade_pairs():
            sp, ss = int(p.site[pred]), int(p.site[succ])
            assert ss == sp + 1
            assert sites[sp].col == sites[ss].col


class TestDSPlacerQuality:
    def test_timing_not_worse_than_baseline(self, result, mini_accel, small_dev):
        base = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        sta = StaticTimingAnalyzer(mini_accel)
        router = GlobalRouter(grid=(16, 16))
        wns_base = sta.analyze(base, router.route(base), period_ns=8.0).wns_ns
        wns_dsp = sta.analyze(
            result.placement, router.route(result.placement), period_ns=8.0
        ).wns_ns
        assert wns_dsp >= wns_base - 0.15  # never catastrophically worse

    def test_heuristic_identification_flow(self, mini_accel, small_dev):
        placer = DSPlacer(small_dev, DSPlacerConfig(identification="heuristic", mcf_iterations=3))
        res = placer.place(mini_accel)
        assert res.placement.is_legal()

    def test_initial_placement_reused(self, mini_accel, small_dev):
        base = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        placer = DSPlacer(small_dev, DSPlacerConfig(identification="oracle", mcf_iterations=3))
        res = placer.place(mini_accel, initial_placement=base)
        assert res.phase_seconds["prototype_placement"] < 0.2
        assert res.placement.is_legal()

    def test_trained_identifier_flow(self, mini_accel, small_dev):
        sample = build_graph_sample(mini_accel)
        ident = DatapathIdentifier(method="gcn", epochs=30).fit([sample])
        placer = DSPlacer(small_dev, DSPlacerConfig(mcf_iterations=3), identifier=ident)
        res = placer.place(mini_accel, sample=sample)
        assert res.placement.is_legal()
        assert res.identification.method == "gcn"


class TestConfigValidation:
    def test_untrained_gcn_rejected_at_construction(self, small_dev):
        with pytest.raises(ValueError, match="trained"):
            DSPlacer(small_dev, DSPlacerConfig(identification="gcn"))

    def test_bad_base_placer(self, small_dev, mini_accel):
        placer = DSPlacer(small_dev, DSPlacerConfig(identification="oracle", base_placer="quartus"))
        with pytest.raises(ValueError, match="base placer"):
            placer.place(mini_accel)

    def test_amf_base_placer(self, small_dev, mini_accel):
        placer = DSPlacer(
            small_dev,
            DSPlacerConfig(identification="oracle", base_placer="amf", mcf_iterations=2),
        )
        assert placer.place(mini_accel).placement.is_legal()

    def test_unknown_engine_rejected_from_dict(self):
        """``--config`` input: an unknown engine used to be accepted and then
        fail every outer iteration, leaving a degraded prototype placement."""
        with pytest.raises(ConfigurationError, match="assignment engine 'banana'"):
            DSPlacerConfig.from_dict({"assignment_engine": "banana"})

    @pytest.mark.parametrize("bad", [0, -1])
    def test_outer_iterations_rejected_from_dict(self, bad):
        """Zero or negative outer iterations used to return the prototype
        placement undegraded, with no DSP placement at all."""
        with pytest.raises(ConfigurationError, match="outer_iterations"):
            DSPlacerConfig.from_dict({"outer_iterations": bad})

    @pytest.mark.parametrize("engine", ["auto", "mcf", "lsa", "auction"])
    def test_known_engines_accepted(self, engine):
        cfg = DSPlacerConfig.from_dict({"assignment_engine": engine, "outer_iterations": 1})
        assert cfg.assignment_engine == engine


class TestIncrementalReplace:
    def test_frozen_dsps_stay(self, mini_accel, small_dev):
        base = VivadoLikePlacer(seed=0, device=small_dev).place(mini_accel)
        frozen = [c.index for c in mini_accel.cells if c.ctype.is_dsp and c.is_datapath]
        before = base.site[frozen].copy()
        out = replace_other_components(mini_accel, small_dev, base, frozen)
        assert np.array_equal(out.site[frozen], before)
        assert out.is_legal()

    def test_warm_started_replace_on_generated_suite(self):
        """skynet@0.05 on the ZCU104: the warm-started re-place (no
        bootstrap solve) still returns a legal placement around the frozen
        datapath DSPs."""
        from repro import obs
        from repro.accelgen import generate_suite
        from repro.fpga import zcu104

        dev = zcu104()
        nl = generate_suite("skynet", scale=0.05, device=dev, seed=0)
        base = VivadoLikePlacer(seed=0, device=dev).place(nl)
        frozen = [c.index for c in nl.cells if c.ctype.is_dsp and c.is_datapath]
        assert frozen
        before = base.site[frozen].copy()
        with obs.observe() as ob:
            out = replace_other_components(nl, dev, base, frozen)
        assert out.is_legal(), out.legality_violations()[:5]
        assert np.array_equal(out.site[frozen], before)
        (gp,) = ob.tracer.find("global_place")
        assert gp.attrs["warm_start"] is True
        assert not any(
            s.attrs.get("bootstrap") for s in ob.tracer.find("global_place.solve")
        )
