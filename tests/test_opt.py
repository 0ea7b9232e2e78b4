"""The pluggable pass framework (`repro.opt`) and the clock-gating pass."""

from __future__ import annotations

import json

import pytest

from repro import api, obs
from repro.baselines import clock_gate_registers
from repro.core.cost import CostWeights
from repro.designs import soc_datapath
from repro.errors import IsolationError, ReproError
from repro.opt import (
    ClockGatingPass,
    IsolationConfig,
    IsolationPass,
    OptimizeResult,
    StageTimings,
    available_passes,
    isolate_design,
    optimize,
    resolve_passes,
)
from repro.runconfig import RunConfig
from repro.sim import ControlStream, random_stimulus
from repro.verify import check_observable_equivalence


def d1_stim(design, en=0.2, seed=6):
    toggle = 0.0 if en in (0.0, 1.0) else 0.1
    return random_stimulus(
        design,
        seed=seed,
        control_probability=0.3,
        overrides={"EN": ControlStream(en, toggle)},
    )


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class TestRegistry:
    def test_builtin_passes_registered(self):
        assert set(available_passes()) >= {"isolation", "clock_gating"}

    def test_resolve_preserves_order(self):
        passes = resolve_passes(["clock_gating", "isolation"])
        assert [p.name for p in passes] == ["clock_gating", "isolation"]
        assert isinstance(passes[0], ClockGatingPass)
        assert isinstance(passes[1], IsolationPass)

    def test_resolve_accepts_comma_string(self):
        passes = resolve_passes("isolation,clock_gating")
        assert [p.name for p in passes] == ["isolation", "clock_gating"]

    @pytest.mark.parametrize(
        "bad", [[], ["warp_drive"], ["isolation", "isolation"]]
    )
    def test_resolve_rejects_bad_lists(self, bad):
        with pytest.raises(IsolationError):
            resolve_passes(bad)

    def test_optimize_config_is_isolation_config(self):
        # One config type drives every pass combination; the package
        # exports no second name for it.
        import repro.opt

        assert not hasattr(repro.opt, "OptimizeConfig")
        assert repro.opt.IsolationConfig is IsolationConfig


class TestClockGatingTransform:
    """The refactored baselines.clock_gate_registers."""

    def test_subset_gates_only_named_registers(self, d1):
        result = clock_gate_registers(d1, registers=["r0", "acc"])
        assert sorted(result.gated_registers) == ["acc", "r0"]
        gated = {r.name for r in result.design.registers
                 if getattr(r, "clock_gated", False)}
        assert gated == {"acc", "r0"}

    def test_in_place_mutates_the_argument(self, d1):
        working = d1.copy("scratch")
        result = clock_gate_registers(working, registers=["r1"], in_place=True)
        assert result.design is working
        assert getattr(working.cell("r1"), "clock_gated", False)

    def test_unknown_register_raises(self, d1):
        with pytest.raises(ReproError, match="no such register"):
            clock_gate_registers(d1, registers=["r0", "warp"])

    def test_free_running_register_raises_when_named(self, d1):
        with pytest.raises(ReproError, match="free-running"):
            clock_gate_registers(d1, registers=["r_tag"])

    def test_timings_populated(self, d1):
        # The transform's wall time lives in its clock.gate span.
        with obs.use(obs.Recorder()) as recorder:
            clock_gate_registers(d1)
        (span,) = obs.find_spans(recorder.tracer.roots, "clock.gate")
        assert span.duration_s > 0
        assert not obs.find_spans(recorder.tracer.roots, "power.estimate")

    def test_transform_emits_span_and_counter(self, d1):
        with obs.use(obs.Recorder()) as recorder:
            clock_gate_registers(d1)
        spans = obs.find_spans(recorder.tracer.roots, "clock.gate")
        assert len(spans) == 1
        assert spans[0].attrs["gated"] == 4
        metrics = recorder.metrics.to_dict()
        assert metrics["registers.gated"]["value"] == 4.0

    def test_from_spans_counts_clock_gate_as_transform(self, d1):
        # from_spans reads optimize roots; clock gating inside one counts
        # as transform time.
        with obs.use(obs.Recorder()) as recorder:
            optimize(
                d1, lambda: d1_stim(d1), ["clock_gating"],
                config=IsolationConfig(cycles=300),
            )
        gates = obs.find_spans(recorder.tracer.roots, "clock.gate")
        timings = StageTimings.from_spans(recorder.tracer.roots)
        assert gates and timings.transform_s > 0
        assert timings.transform_s == pytest.approx(
            sum(s.duration_s for s in gates)
        )


class TestClockGatingPass:
    def test_gates_idle_enabled_registers(self, d1):
        result = optimize(
            d1, lambda: d1_stim(d1), ["clock_gating"],
            config=IsolationConfig(cycles=600),
        )
        assert sorted(result.gated_registers) == ["acc", "r0", "r1", "r2"]
        assert result.isolated_names == []
        assert result.final.power_mw < result.baseline.power_mw
        # One ICG per gated register in the area model.
        icg_area = 22.0 * 4
        assert result.final.area == pytest.approx(
            result.baseline.area + icg_area
        )

    def test_free_running_register_reported_once(self, d1):
        result = optimize(
            d1, lambda: d1_stim(d1), ["clock_gating"],
            config=IsolationConfig(cycles=400),
        )
        rejections = [
            name
            for record in result.iterations
            for name in record.rejected.get("clock_gating", [])
        ]
        assert rejections == ["r_tag"]

    def test_always_enabled_registers_not_worth_gating(self, d1):
        # EN ~ 1.0 pins r0/r1 (enabled directly by EN) active every
        # cycle: their standing clock energy is all spent anyway and the
        # ICG overhead makes them net-negative. r2/acc hang off GA/GB
        # and stay worthwhile.
        result = optimize(
            d1, lambda: d1_stim(d1, en=1.0), ["clock_gating"],
            config=IsolationConfig(cycles=400),
        )
        assert sorted(result.gated_registers) == ["acc", "r2"]
        scores = result.iterations[0].scores["clock_gating"]
        by_register = {s.register.name: s for s in scores}
        assert by_register["r0"].net_mw < 0
        assert by_register["r1"].net_mw < 0
        assert by_register["r0"].enable_probability == pytest.approx(1.0)

    def test_score_model_matches_estimator(self, d1):
        """Predicted net savings track the estimator's measured delta."""
        result = optimize(
            d1, lambda: d1_stim(d1), ["clock_gating"],
            config=IsolationConfig(cycles=1500),
        )
        predicted = sum(t.estimated_net_mw for t in result.transforms)
        measured = result.baseline.power_mw - result.final.power_mw
        assert predicted == pytest.approx(measured, rel=0.2)

    def test_behaviour_unchanged(self, d1):
        result = optimize(
            d1, lambda: d1_stim(d1), ["clock_gating"],
            config=IsolationConfig(cycles=400),
        )
        report = check_observable_equivalence(
            d1, result.design, d1_stim(d1), 1000
        )
        assert report.equivalent

    def test_serialized_scores_in_to_dict(self, d1):
        result = optimize(
            d1, lambda: d1_stim(d1), ["clock_gating"],
            config=IsolationConfig(cycles=400),
        )
        scores = result.to_dict()["iterations"][0]["scores"]["clock_gating"]
        assert {s["register"] for s in scores} == {"acc", "r0", "r1", "r2"}
        for s in scores:
            assert set(s) == {
                "register", "condition", "h", "net_mw", "idle_probability"
            }


class TestJointSelection:
    def test_passes_share_one_budget(self, d1):
        """A large h_min suppresses both families, not just one."""
        config = IsolationConfig(cycles=400, weights=CostWeights(h_min=10.0))
        result = optimize(
            d1, lambda: d1_stim(d1), ["isolation", "clock_gating"], config=config
        )
        assert result.transforms == []
        assert result.final.power_mw == pytest.approx(result.baseline.power_mw)

    def test_per_pass_attribution(self, d1):
        result = optimize(
            d1, lambda: d1_stim(d1), ["isolation", "clock_gating"],
            config=IsolationConfig(cycles=600),
        )
        per_pass = result.per_pass_net_mw()
        assert set(per_pass) == {"isolation", "clock_gating"}
        assert per_pass["isolation"] > per_pass["clock_gating"] > 0

    def test_order_does_not_change_the_result(self, d1):
        """Documented composition semantics: the pass list order affects
        only within-iteration application order, never the final design
        (candidate spaces are disjoint and scores come from the shared
        pre-transform measurement)."""
        config = IsolationConfig(cycles=500)
        fwd = optimize(
            d1, lambda: d1_stim(d1), ["isolation", "clock_gating"], config=config
        )
        rev = optimize(
            d1, lambda: d1_stim(d1), ["clock_gating", "isolation"], config=config
        )
        assert fwd.final.power_mw == rev.final.power_mw
        assert fwd.final.area == rev.final.area
        assert fwd.final.worst_slack == rev.final.worst_slack
        assert sorted(
            (t.pass_name, t.target) for t in fwd.transforms
        ) == sorted((t.pass_name, t.target) for t in rev.transforms)


class TestOptimizeResult:
    def test_to_dict_shape(self, d1):
        result = optimize(
            d1, lambda: d1_stim(d1), ["isolation", "clock_gating"],
            config=IsolationConfig(cycles=400),
        )
        payload = result.to_dict()
        assert payload["passes"] == ["isolation", "clock_gating"]
        assert {t["pass"] for t in payload["applied"]} == {
            "isolation", "clock_gating"
        }
        assert set(payload["per_pass_net_mw"]) == {"isolation", "clock_gating"}
        json.dumps(payload)  # must be serialisable as-is

    def test_summary_names_every_pass(self, d1):
        result = optimize(
            d1, lambda: d1_stim(d1), ["isolation", "clock_gating"],
            config=IsolationConfig(cycles=400),
        )
        summary = result.summary()
        assert "isolation" in summary and "clock_gating" in summary
        assert "power" in summary

    def test_run_config_override(self, d1):
        result = optimize(
            d1,
            lambda: d1_stim(d1),
            ["clock_gating"],
            config=IsolationConfig(cycles=999),
            run=RunConfig(cycles=150, engine="compiled"),
        )
        assert result.config.cycles == 150
        assert result.config.engine == "compiled"
        assert result.timings.engine == "compiled"


class TestSessionOptimize:
    def test_default_passes_apply_both_families(self, d1):
        session = api.Session(
            d1, stimulus=lambda: d1_stim(d1), run=RunConfig(cycles=500)
        )
        result = session.optimize()
        assert isinstance(result, OptimizeResult)
        assert result.isolated_names and result.gated_registers

    def test_isolation_only_matches_legacy_isolate(self, d1):
        session = api.Session(
            d1, stimulus=lambda: d1_stim(d1), run=RunConfig(cycles=300)
        )
        modern = session.optimize(passes=["isolation"])
        legacy = session.isolate()
        modern_payload = modern.to_dict()
        legacy_payload = legacy.to_dict()
        modern_payload.pop("timings")
        legacy_payload.pop("timings")
        # Both spellings are one run: same working copy, same payload.
        assert modern.design.name == "design1_opt"
        assert legacy.design.name == "design1_opt"
        assert canon(modern_payload) == canon(legacy_payload)

    def test_isolate_spellings_return_one_payload(self, d1):
        config = IsolationConfig(cycles=300, warmup=32, engine="compiled", workers=1)
        run = RunConfig(cycles=300, warmup=32, engine="compiled", workers=1)

        def stim():
            return d1_stim(d1)

        results = [
            isolate_design(d1, stim, config),
            api.Session(d1, stimulus=stim, run=run).isolate(),
            optimize(d1, stim, passes=("isolation",), config=config),
        ]
        payloads = []
        for result in results:
            assert isinstance(result, OptimizeResult)
            assert result.design.name == "design1_opt"
            assert result.summary().startswith(
                "Low-power optimization of 'design1' (passes=isolation;"
            )
            payload = result.to_dict()
            payload.pop("timings")
            assert set(payload["iterations"][0]["scores"]) == {"isolation"}
            assert set(payload["iterations"][0]["rejected"]) == {"isolation"}
            assert {t["pass"] for t in payload["applied"]} == {"isolation"}
            payloads.append(canon(payload))
        assert payloads[0] == payloads[1] == payloads[2]

    def test_summary_reports_pool_utilization(self, d1):
        result = optimize(
            d1, lambda: d1_stim(d1), ["isolation"],
            config=IsolationConfig(cycles=200, engine="compiled", workers=2),
        )
        tasks = result.timings.parallel_tasks
        assert tasks > 0
        assert f"pool   : {tasks} tasks, " in result.summary()

    def test_traced_session_records_optimize_spans(self, d1):
        session = api.Session(
            d1,
            stimulus=lambda: d1_stim(d1),
            run=RunConfig(cycles=300, trace=True),
        )
        session.optimize(passes=["isolation", "clock_gating"])
        names = {span.name for span in obs.iter_spans(session.trace())}
        assert {"optimize", "optimize.iteration", "power.estimate"} <= names
        assert "clock.gate" in names or "bank.insert" in names
        timings = StageTimings.from_spans(session.trace())
        assert timings.simulations >= 2
        assert timings.engine == "python"

    def test_soc_smoke(self):
        soc = soc_datapath()
        session = api.Session(
            soc,
            stimulus=lambda: random_stimulus(
                soc, seed=3, control_probability=0.3,
                overrides={"SYS_EN": ControlStream(0.25, 0.1)},
            ),
            run=RunConfig(cycles=300),
        )
        result = session.optimize()
        assert result.power_reduction > 0.1
        assert result.gated_registers  # SYS_EN drives dp/rot enables
