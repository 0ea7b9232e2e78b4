"""Tests for the clock-gating model and its composition with isolation."""

import pytest

from repro.baselines import clock_gate_registers
from repro.netlist import textio
from repro.opt import IsolationConfig, isolate_design
from repro.power.estimator import PowerEstimator, estimate_power
from repro.power.library import default_library
from repro.runconfig import RunConfig
from repro.sim import ControlStream, random_stimulus
from repro.sim.engine import Simulator
from repro.sim.monitor import ToggleMonitor
from repro.verify import check_observable_equivalence


def d1_stim(design, seed=6):
    return random_stimulus(
        design,
        seed=seed,
        control_probability=0.3,
        overrides={"EN": ControlStream(0.2, 0.1)},
    )


class TestTransform:
    def test_gates_enabled_registers_only(self, d1):
        result = clock_gate_registers(d1)
        assert set(result.gated_registers) == {"r0", "r1", "r2", "acc"}
        assert "r_tag" in result.skipped_free_running

    def test_original_untouched(self, d1):
        clock_gate_registers(d1)
        assert not any(getattr(r, "clock_gated", False) for r in d1.registers)

    def test_behaviour_unchanged(self, d1):
        result = clock_gate_registers(d1)
        report = check_observable_equivalence(
            d1, result.design, d1_stim(d1), 1000
        )
        assert report.equivalent

    def test_textio_round_trip_keeps_flag(self, d1):
        result = clock_gate_registers(d1)
        reloaded = textio.loads(textio.dumps(result.design))
        reg = reloaded.cell("r0")
        assert getattr(reg, "clock_gated", False)


class TestPowerModel:
    def test_clock_gating_saves_register_power(self, d1):
        gated = clock_gate_registers(d1).design
        base = estimate_power(
            d1, d1_stim(d1), run=RunConfig(cycles=1500)
        ).total_power_mw
        after = estimate_power(
            gated, d1_stim(gated), run=RunConfig(cycles=1500)
        ).total_power_mw
        assert after < base

    def test_savings_scale_with_idle_enable(self, d1):
        gated = clock_gate_registers(d1).design

        def reduction(en_prob):
            overrides = {"EN": ControlStream(en_prob, 0.1)}
            stim = lambda d: random_stimulus(
                d, seed=6, control_probability=en_prob, overrides=overrides
            )
            base = estimate_power(
                d1, stim(d1), run=RunConfig(cycles=1200)
            ).total_power_mw
            after = estimate_power(
                gated, stim(gated), run=RunConfig(cycles=1200)
            ).total_power_mw
            return 1 - after / base

        assert reduction(0.1) > reduction(0.8)

    def test_icg_area_accounted(self, d1, library):
        gated = clock_gate_registers(d1).design
        assert library.total_area(gated) > library.total_area(d1)

    def test_one_probability_measurement(self, d1):
        monitor = ToggleMonitor()
        Simulator(d1).run(d1_stim(d1), 2000, monitors=[monitor], warmup=16)
        pr = monitor.one_probability(d1.net("EN"))
        assert pr == pytest.approx(0.2, abs=0.05)


class TestComposition:
    def test_isolation_and_clock_gating_compose(self, d1):
        """Both applied saves more than either alone (disjoint targets)."""
        stim = lambda d: d1_stim(d)
        base = estimate_power(d1, stim(d1), run=RunConfig(cycles=1200)).total_power_mw

        cg_only = clock_gate_registers(d1).design
        cg_power = estimate_power(
            cg_only, stim(cg_only), run=RunConfig(cycles=1200)
        ).total_power_mw

        iso = isolate_design(d1, lambda: stim(d1), IsolationConfig(cycles=600))
        iso_power = estimate_power(
            iso.design, stim(iso.design), run=RunConfig(cycles=1200)
        ).total_power_mw

        both = clock_gate_registers(iso.design).design
        both_power = estimate_power(
            both, stim(both), run=RunConfig(cycles=1200)
        ).total_power_mw

        assert cg_power < base
        assert iso_power < cg_power  # datapath dominates this design
        assert both_power < iso_power
