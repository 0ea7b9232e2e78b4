"""The shared RunConfig: the one per-call run override of every entry point."""

from __future__ import annotations

import warnings

import pytest

from repro.cli import main
from repro.core.explore import rank_candidates
from repro.core.report import compare_styles
from repro.errors import IsolationError, ReproError, SweepError
from repro.opt import IsolationConfig, isolate_design, optimize
from repro.power import estimate_power
from repro.runconfig import ENGINES, RunConfig
from repro.sim.stimulus import random_stimulus
from repro.sweep import SweepSpec


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

    def test_isolation_config_takes_the_run_defaults(self):
        # One default per field: the CLI (IsolationConfig) and serve
        # (RunConfig) must run one request with the same settings.
        config, run = IsolationConfig(workers=1), RunConfig(workers=1)
        assert (config.cycles, config.warmup, config.engine) == (
            run.cycles,
            run.warmup,
            run.engine,
        )

    def test_engines_constant(self):
        assert ENGINES == ("python", "compiled", "bitslice", "checked")


class TestFewerThanTwoCycles:
    """A toggle rate needs two observed cycles: shorter runs are refused
    at every entry point instead of reporting leakage-only power."""

    @pytest.mark.parametrize("cycles", [0, 1])
    def test_runconfig_rejects_with_the_isolation_message(self, cycles):
        with pytest.raises(ReproError) as run_error:
            RunConfig(cycles=cycles)
        with pytest.raises(IsolationError) as config_error:
            IsolationConfig(cycles=cycles)
        assert "cycles must be >= 2" in str(run_error.value)
        assert str(run_error.value) == str(config_error.value)

    @pytest.mark.parametrize("command", ["report", "rank"])
    def test_cli_exits_2(self, command, capsys):
        assert main([command, "--builtin", "design1", "--cycles", "1"]) == 2
        assert "cycles must be >= 2" in capsys.readouterr().err

    def test_sweep_spec_raises_sweep_error(self):
        with pytest.raises(SweepError, match="cycles must be >= 2"):
            SweepSpec.from_dict({"designs": ["design1"], "run": {"cycles": 1}})


class TestEntryPointShims:
    def test_estimate_power_run_config_is_silent(self, d1):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            estimate_power(
                d1, random_stimulus(d1, seed=1), run=RunConfig(cycles=200)
            )

    def test_stale_positional_run_control_is_a_type_error(self, d1, fig1):
        # run= is the one override; a positional cycles count no longer
        # binds to the next parameter (library, weights) silently.
        with pytest.raises(TypeError):
            estimate_power(d1, random_stimulus(d1, seed=1), 200)
        with pytest.raises(TypeError):
            rank_candidates(d1, random_stimulus(d1, seed=1), "and", 200)
        with pytest.raises(TypeError):
            compare_styles(
                fig1, lambda: random_stimulus(fig1, seed=1), None, None,
                ["and"], None, ["isolation"],
            )
        for call in (estimate_power, rank_candidates):
            with pytest.raises(TypeError):
                call(d1, random_stimulus(d1, seed=1), cycles=200)
        with pytest.raises(TypeError):
            isolate_design(d1, lambda: random_stimulus(d1, seed=1), engine="compiled")

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
            "simulations", "engine",
        }
        assert set(payload) == expected
