"""The shared RunConfig and the deprecated per-call kwarg shims."""

from __future__ import annotations

import warnings

import pytest

import repro.designs as designs
from repro.core.algorithm import IsolationConfig, isolate_design
from repro.core.explore import rank_candidates
from repro.core.report import compare_styles
from repro.errors import ReproError
from repro.opt import optimize
from repro.power import estimate_power
from repro.runconfig import ENGINES, RunConfig, resolve_run_config
from repro.sim.stimulus import random_stimulus


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.cycles == 2000
        assert cfg.warmup == 16
        assert cfg.seed == 0
        assert cfg.engine == "python"

    def test_replace(self):
        cfg = RunConfig().replace(engine="compiled", cycles=10)
        assert (cfg.engine, cfg.cycles) == ("compiled", 10)

    @pytest.mark.parametrize("bad", [{"engine": "verilator"}, {"cycles": -1}, {"warmup": -2}])
    def test_validation(self, bad):
        with pytest.raises(ReproError):
            RunConfig(**bad)

    def test_engines_constant(self):
        assert ENGINES == ("python", "compiled", "bitslice", "checked")


class TestResolveRunConfig:
    def test_no_legacy_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = resolve_run_config(RunConfig(cycles=5))
        assert cfg.cycles == 5

    def test_legacy_kwargs_warn_and_override(self):
        with pytest.warns(DeprecationWarning, match="cycles, warmup"):
            cfg = resolve_run_config(None, cycles=7, warmup=3)
        assert (cfg.cycles, cfg.warmup) == (7, 3)

    def test_engine_is_first_class(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = resolve_run_config(None, engine="compiled")
        assert cfg.engine == "compiled"

    def test_defaults_fallback(self):
        cfg = resolve_run_config(None, defaults=RunConfig(warmup=99))
        assert cfg.warmup == 99


class TestEntryPointShims:
    def test_estimate_power_positional_cycles_warns(self, d1):
        with pytest.warns(DeprecationWarning):
            breakdown = estimate_power(d1, random_stimulus(d1, seed=1), 200)
        assert breakdown.total_power_mw > 0

    def test_estimate_power_run_config_is_silent(self, d1):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            estimate_power(
                d1, random_stimulus(d1, seed=1), run=RunConfig(cycles=200)
            )

    def test_estimate_power_shim_matches_run_config(self, d1):
        with pytest.warns(DeprecationWarning):
            legacy = estimate_power(
                d1, random_stimulus(d1, seed=1), 300, warmup=8
            )
        modern = estimate_power(
            d1,
            random_stimulus(d1, seed=1),
            run=RunConfig(cycles=300, warmup=8),
        )
        assert legacy.total_power_mw == modern.total_power_mw

    def test_rank_candidates_cycles_warns(self, d1):
        with pytest.warns(DeprecationWarning):
            ranked = rank_candidates(d1, random_stimulus(d1, seed=1), cycles=200)
        assert ranked

    def test_rank_candidates_run_matches_legacy(self, d1):
        with pytest.warns(DeprecationWarning):
            legacy = rank_candidates(d1, random_stimulus(d1, seed=1), cycles=200)
        modern = rank_candidates(
            d1, random_stimulus(d1, seed=1), run=RunConfig(cycles=200)
        )
        assert [(r.name, r.h) for r in legacy] == [(r.name, r.h) for r in modern]

    def test_isolate_design_cycles_warns(self, d1):
        def stim():
            return random_stimulus(d1, seed=1)

        with pytest.warns(DeprecationWarning):
            result = isolate_design(d1, stim, cycles=200, warmup=4)
        assert result.config.cycles == 200
        assert result.config.warmup == 4

    def test_isolate_design_run_overrides_config(self, d1):
        def stim():
            return random_stimulus(d1, seed=1)

        result = isolate_design(
            d1,
            stim,
            IsolationConfig(cycles=999),
            run=RunConfig(cycles=150, warmup=2, engine="compiled"),
        )
        assert result.config.cycles == 150
        assert result.config.engine == "compiled"
        assert result.timings.engine == "compiled"

    def test_run_overrides_workers_too(self, d1):
        def stim():
            return random_stimulus(d1, seed=1)

        config = IsolationConfig(cycles=999, workers=2)
        run = RunConfig(cycles=120, engine="compiled", workers=1)
        result = isolate_design(d1, stim, config, run=run)
        assert (result.config.cycles, result.config.workers) == (120, 1)
        comparison = compare_styles(d1, stim, config, styles=["and"], run=run)
        assert comparison.results["and"].config.workers == 1
        optimized = optimize(d1, stim, ["isolation"], config, run=run)
        assert (optimized.config.cycles, optimized.config.workers) == (120, 1)
        assert config.with_run(RunConfig(workers=3)).workers == 3

    def test_compare_styles_cycles_warns(self, fig1):
        def stim():
            return random_stimulus(fig1, seed=1)

        with pytest.warns(DeprecationWarning):
            comparison = compare_styles(fig1, stim, styles=["and"], cycles=150)
        assert comparison.results["and"].config.cycles == 150

    def test_compare_styles_engine_kwarg(self, fig1):
        def stim():
            return random_stimulus(fig1, seed=1)

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            comparison = compare_styles(
                fig1, stim, styles=["and"], engine="compiled"
            )
        assert comparison.results["and"].config.engine == "compiled"


class TestStageTimings:
    def test_timings_populated(self, d1):
        def stim():
            return random_stimulus(d1, seed=1)

        result = isolate_design(d1, stim, IsolationConfig(cycles=200))
        timings = result.timings
        assert timings.simulations >= 2  # baseline + final at minimum
        assert timings.simulate_s > 0
        assert timings.score_s >= 0
        assert timings.transform_s >= 0
        assert timings.total_s == pytest.approx(
            timings.simulate_s + timings.score_s + timings.transform_s
        )

    def test_timings_in_summary_and_dict(self, d1):
        def stim():
            return random_stimulus(d1, seed=1)

        result = isolate_design(d1, stim, IsolationConfig(cycles=200))
        assert "stages" in result.summary()
        payload = result.to_dict()["timings"]
        expected = {
            "simulate_s", "score_s", "transform_s", "total_s",
            "simulations", "engine", "workers",
        }
        if payload["workers"] > 1:  # REPRO_WORKERS may pool the scoring
            expected |= {"parallel"}
        assert set(payload) - {"pool_fallback_reason"} == expected

class TestWarningAttribution:
    """Deprecation warnings must point at the *caller's* line, not at the
    shim machinery (or, worse, the interpreter's own frames)."""

    def test_direct_resolve_points_at_caller(self):
        with pytest.warns(DeprecationWarning) as record:
            resolve_run_config(None, cycles=7)
        assert record[0].filename == __file__

    def test_estimate_power_points_at_caller(self, d1):
        with pytest.warns(DeprecationWarning) as record:
            estimate_power(d1, random_stimulus(d1, seed=1), 150)
        assert record[0].filename == __file__

    def test_rank_candidates_points_at_caller(self, d1):
        with pytest.warns(DeprecationWarning) as record:
            rank_candidates(d1, random_stimulus(d1, seed=1), cycles=150)
        assert record[0].filename == __file__

    def test_isolate_design_points_at_caller(self, d1):
        with pytest.warns(DeprecationWarning) as record:
            isolate_design(
                d1, lambda: random_stimulus(d1, seed=1), cycles=150, warmup=4
            )
        assert record[0].filename == __file__

    def test_compare_styles_points_at_caller(self, fig1):
        with pytest.warns(DeprecationWarning) as record:
            compare_styles(
                fig1,
                lambda: random_stimulus(fig1, seed=1),
                styles=["and"],
                cycles=150,
            )
        assert record[0].filename == __file__
