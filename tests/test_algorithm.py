"""Tests for Algorithm 1: the iterative isolation driver."""

import pytest

from repro.core.cost import CostWeights
from repro.errors import IsolationError
from repro.opt import IsolationConfig, isolate_design
from repro.sim.stimulus import ControlStream, random_stimulus
from repro.verify import check_observable_equivalence


def d1_stimulus(design, en=ControlStream(0.2, 0.1), seed=7):
    def make():
        return random_stimulus(
            design, seed=seed, control_probability=0.35, overrides={"EN": en}
        )

    return make


class TestIsolationConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"style": "bogus"},
            {"cycles": 0},
            {"cycles": -3},
            {"cycles": 1},
            {"warmup": -2},
            {"period_margin": 0},
            {"period_margin": -1.0},
            {"clock_period": 0.0},
            {"clock_period": -2.5},
            {"lookahead_depth": -1},
            {"max_iterations": -1},
            {"engine": "verilator"},
        ],
    )
    def test_rejects_values_that_give_wrong_results(self, bad):
        with pytest.raises(IsolationError):
            IsolationConfig(**bad)

    def test_edge_values_stay_valid(self):
        IsolationConfig(workers=1)
        IsolationConfig(style="auto", cycles=2, warmup=0, max_iterations=0)
        IsolationConfig(clock_period=5.0, lookahead_depth=0)


class TestAlgorithmBehaviour:
    def test_isolates_idle_multipliers(self, d1):
        result = isolate_design(
            d1, d1_stimulus(d1), IsolationConfig(cycles=600)
        )
        assert {"mul0", "mul1"} <= set(result.isolated_names)
        assert result.power_reduction > 0.2

    def test_leaves_original_untouched(self, d1):
        before = d1.stats()
        isolate_design(d1, d1_stimulus(d1), IsolationConfig(cycles=300))
        assert d1.stats() == before

    def test_transform_is_observably_equivalent(self, d1):
        result = isolate_design(d1, d1_stimulus(d1), IsolationConfig(cycles=400))
        report = check_observable_equivalence(
            d1, result.design, d1_stimulus(d1)(), 1500
        )
        assert report.equivalent

    def test_one_candidate_per_block_per_iteration(self, d1):
        result = isolate_design(d1, d1_stimulus(d1), IsolationConfig(cycles=400))
        for record in result.iterations:
            blocks_hit = set()
            isolated = [t.target for t in record.applied]
            for name in isolated:
                instance = next(
                    t.instance for t in result.transforms if t.target == name
                )
                # Block identity isn't stored on instances; re-derive via
                # the names isolated in one iteration being distinct.
                blocks_hit.add(name)
            assert len(blocks_hit) == len(isolated)

    def test_terminates_when_no_candidate_clears_threshold(self, d1):
        config = IsolationConfig(
            cycles=300, weights=CostWeights(omega_p=1.0, omega_a=0.25, h_min=10.0)
        )
        result = isolate_design(d1, d1_stimulus(d1), config)
        assert result.isolated_names == []
        assert result.power_reduction == pytest.approx(0.0, abs=0.02)

    def test_busy_design_gets_no_isolation_benefit(self, d1):
        """With EN always high the multipliers never idle."""
        result = isolate_design(
            d1,
            d1_stimulus(d1, en=ControlStream(1.0)),
            IsolationConfig(cycles=400),
        )
        assert "mul0" not in result.isolated_names
        assert "mul1" not in result.isolated_names

    def test_slack_threshold_rejects_critical_path_candidates(self, d1):
        """At a zero-slack clock the multipliers (critical path) must be
        rejected; off-critical adders may still be isolated."""
        from repro.power.library import default_library
        from repro.timing.sta import analyze_timing

        natural = analyze_timing(d1, default_library()).clock_period
        config = IsolationConfig(cycles=300, clock_period=natural)
        result = isolate_design(d1, d1_stimulus(d1), config)
        assert {"mul0", "mul1"} <= set(result.iterations[0].rejected["isolation"])
        assert "mul0" not in result.isolated_names
        assert "mul1" not in result.isolated_names

    def test_metrics_recorded(self, d1):
        result = isolate_design(d1, d1_stimulus(d1), IsolationConfig(cycles=400))
        assert result.baseline.power_mw > result.final.power_mw
        assert result.final.area > result.baseline.area
        assert result.final.worst_slack <= result.baseline.worst_slack
        assert result.baseline.clock_period == result.final.clock_period

    def test_summary_mentions_modules(self, d1):
        result = isolate_design(d1, d1_stimulus(d1), IsolationConfig(cycles=400))
        text = result.summary()
        assert "mul0" in text and "power" in text

    def test_stimulus_object_accepted_directly(self, d1):
        stim = d1_stimulus(d1)()
        result = isolate_design(d1, stim, IsolationConfig(cycles=300))
        assert result.baseline.power_mw > 0

    def test_stimulus_factory_is_called_once_per_call(self, d1):
        make = d1_stimulus(d1)
        calls = []

        def factory():
            calls.append(None)
            return make()

        result = isolate_design(d1, factory, IsolationConfig(cycles=300))
        assert result.timings.simulations > 2
        assert len(calls) == 1

    def test_stimulus_object_is_left_unadvanced(self, d1):
        stim = random_stimulus(d1, seed=7)
        config = IsolationConfig(cycles=300)
        from_object = isolate_design(d1, stim, config)
        from_factory = isolate_design(d1, lambda: random_stimulus(d1, seed=7), config)
        fresh = random_stimulus(d1, seed=7)
        # values() hands out one dict it refills per cycle: copy each.
        assert [dict(stim.values(c)) for c in range(3)] == [
            dict(fresh.values(c)) for c in range(3)
        ]
        assert from_object.isolated_names == from_factory.isolated_names
        assert from_object.final.power_mw == from_factory.final.power_mw

    @pytest.mark.parametrize("style", ["and", "or", "latch"])
    def test_all_styles_equivalent_and_beneficial(self, d1, style):
        result = isolate_design(
            d1,
            d1_stimulus(d1, en=ControlStream(0.15, 0.05)),
            IsolationConfig(style=style, cycles=500),
        )
        assert result.power_reduction > 0.3
        report = check_observable_equivalence(
            d1, result.design, d1_stimulus(d1)(), 1000
        )
        assert report.equivalent

    def test_auto_style_matches_or_beats_fixed(self, d2):
        def stim():
            return random_stimulus(d2, seed=11)

        results = {
            style: isolate_design(d2, stim, IsolationConfig(style=style, cycles=600))
            for style in ("and", "latch", "auto")
        }
        auto = results["auto"].power_reduction
        assert auto >= max(
            results["and"].power_reduction, results["latch"].power_reduction
        ) - 0.03
        # Auto actually exercises per-candidate choice on design2.
        styles_used = {t.instance.style for t in results["auto"].transforms}
        assert len(styles_used) >= 1
        report = check_observable_equivalence(
            d2, results["auto"].design, stim(), 1000
        )
        assert report.equivalent

    def test_auto_style_records_chosen_styles(self, d1):
        result = isolate_design(
            d1, d1_stimulus(d1), IsolationConfig(style="auto", cycles=400)
        )
        for transform in result.transforms:
            assert transform.instance.style in ("and", "or", "latch")

    def test_max_iterations_bound(self, d1):
        config = IsolationConfig(cycles=300, max_iterations=1)
        result = isolate_design(d1, d1_stimulus(d1), config)
        assert len(result.iterations) <= 1

    def test_design2_reduction_in_paper_ballpark(self, d2):
        """The paper reports ≈32 % on its internally-controlled design."""
        result = isolate_design(
            d2,
            lambda: random_stimulus(d2, seed=11),
            IsolationConfig(cycles=800),
        )
        assert 0.2 <= result.power_reduction <= 0.55
