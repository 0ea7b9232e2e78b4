"""Tests for the Section 2 baseline techniques."""

import pytest

from repro.baselines.enable_gating import enable_gating
from repro.baselines.guarded import control_function, guarded_evaluation
from repro.baselines.manual import manual_mux_isolation
from repro.boolean.bdd import BddManager
from repro.boolean.expr import and_, not_, or_, var
from repro.power.estimator import estimate_power
from repro.runconfig import RunConfig
from repro.sim.stimulus import ControlStream, random_stimulus
from repro.verify import check_observable_equivalence


def equivalent_under(design, variant, seed=3, cycles=800, overrides=None):
    stim = random_stimulus(
        design, seed=seed, control_probability=0.3, overrides=overrides
    )
    return check_observable_equivalence(design, variant, stim, cycles).equivalent


class TestManualMuxIsolation:
    def test_isolates_only_mux_fed_modules(self, fig1):
        result = manual_mux_isolation(fig1)
        # a1 feeds muxes m0 and m2 exclusively; a0 feeds a register.
        assert result.isolated_names == ["a1"]

    def test_activation_is_local_select_or(self, fig1):
        result = manual_mux_isolation(fig1)
        instance = result.instances[0]
        manager = BddManager()
        # Local rule: selected by m0 (S0=0) OR by m2 (S2=1) — no enables.
        expected = or_(not_(var("S0")), var("S2"))
        assert manager.equivalent(instance.activation, expected)

    def test_weaker_than_full_activation(self, fig1):
        """The local rule over-approximates the true activation."""
        from repro.core import derive_activation_functions

        result = manual_mux_isolation(fig1)
        full = derive_activation_functions(fig1).of_module(fig1.cell("a1"))
        manager = BddManager()
        assert manager.implies(full, result.instances[0].activation)
        assert not manager.equivalent(full, result.instances[0].activation)

    def test_observably_equivalent(self, fig1):
        result = manual_mux_isolation(fig1)
        assert equivalent_under(fig1, result.design)

    def test_nothing_on_register_fed_design(self, bus):
        result = manual_mux_isolation(bus)
        assert result.isolated_names == []


class TestGuardedEvaluation:
    def test_finds_phase_strobes_in_design2(self, d2):
        result = guarded_evaluation(d2)
        assert "mul0" in result.guards
        # The found guard must be the module's own phase strobe.
        assert result.guards["mul0"].startswith("ph")

    def test_unguardable_without_existing_signal(self, fir):
        """FIR activation is ¬BYP; no existing net equals it."""
        result = guarded_evaluation(fir)
        assert result.isolated_names == []
        assert "fmul0" in result.unguardable

    def test_guard_is_safe(self, d2):
        """Every chosen guard satisfies f_c → g."""
        from repro.core import derive_activation_functions

        result = guarded_evaluation(d2)
        analysis = derive_activation_functions(d2)
        manager = BddManager()
        for module_name, guard_name in result.guards.items():
            f = analysis.of_module(d2.cell(module_name))
            from repro.baselines.guarded import _ground

            grounded_f = _ground(d2, f)
            grounded_g = _ground(d2, control_function(d2.net(guard_name)))
            assert manager.implies(grounded_f, grounded_g)

    def test_observably_equivalent(self, d2, bus):
        for design in (d2, bus):
            result = guarded_evaluation(design)
            assert equivalent_under(design, result.design)

    def test_control_function_expansion(self, alu):
        """Structural expansion sees through the FSM's gate logic."""
        f = control_function(alu.net("advance"))
        assert "is_idle" in f.support() or "GO" in f.support()


class TestEnableGating:
    def test_skips_shared_registers(self, bus):
        result = enable_gating(bus)
        assert result.gated == []
        assert result.skipped_shared or result.skipped_pi_fed

    def test_skips_pi_fed_operands(self, d1):
        result = enable_gating(d1)
        gated_modules = {module for _reg, module in result.gated}
        assert "mul0" not in gated_modules  # fed straight from PIs
        assert result.skipped_pi_fed

    def test_gates_exclusive_registers_in_fir(self, fir):
        result = enable_gating(fir)
        assert ("dly3", "fmul3") in result.gated

    def test_observably_equivalent(self, fir, d2):
        for design in (fir, d2):
            result = enable_gating(design)
            assert equivalent_under(design, result.design)

    def test_saves_less_than_operand_isolation_on_fir(self, fir):
        from repro.opt import IsolationConfig, isolate_design

        overrides = {"BYP": ControlStream(0.9, 0.05)}

        def stim():
            return random_stimulus(fir, seed=4, overrides=overrides)

        base = estimate_power(fir, stim(), run=RunConfig(cycles=1000)).total_power_mw
        gated = estimate_power(
            enable_gating(fir).design, stim(), run=RunConfig(cycles=1000)
        ).total_power_mw
        ours = isolate_design(fir, stim, IsolationConfig(cycles=500)).final.power_mw
        assert ours < gated < base * 1.02
