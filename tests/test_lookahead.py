"""Tests for the one-cycle look-ahead activation extension."""

import pytest

from repro.boolean.bdd import BddManager
from repro.boolean.expr import TRUE, and_, not_, or_, var
from repro.core import derive_activation_functions
from repro.core.isolate import isolate_candidate
from repro.core.lookahead import (
    Unpredictable,
    derive_with_lookahead,
    predict_next,
    register_lookahead_functions,
)
from repro.designs import design1, lookahead_pipeline
from repro.opt import IsolationConfig, isolate_design
from repro.sim import ControlStream, random_stimulus
from repro.verify import check_observable_equivalence


def pipeline_stimulus(design, seed=3):
    return random_stimulus(
        design,
        seed=seed,
        control_probability=0.25,
        overrides={
            "SEL_IN": ControlStream(0.3, 0.2),
            "G_IN": ControlStream(0.3, 0.2),
        },
    )


class TestPrediction:
    def test_free_running_register_predicts_to_d_input(self):
        design = lookahead_pipeline()
        # r_sel's Q next cycle == SEL_IN now.
        predicted = predict_next(design, var("r_sel"))
        assert predicted == var("SEL_IN")

    def test_constant_predicts_to_itself(self):
        from repro.designs import design2

        design = design2()
        # c_ph0 drives a constant net; predicting its bits gives constants.
        predicted = predict_next(design, var("cnt_q[0]"))
        # cnt_q is a free register: next value = current cnt_inc output bit,
        # which is a module output -> the module-output bit is the atom.
        assert "cnt_inc[0]" in predicted.support()

    def test_pi_is_unpredictable(self):
        design = lookahead_pipeline()
        with pytest.raises(Unpredictable):
            predict_next(design, var("G_IN"))

    def test_enabled_register_prediction_muxes_on_enable(self, d1):
        # acc has an enable GB: next = GB·D + !GB·Q (bitwise on bit 0).
        predicted = predict_next(design1(), var("acc_q[0]"))
        assert "GB" in predicted.support()


class TestDerivation:
    def test_baseline_blind_on_pipeline(self):
        design = lookahead_pipeline()
        baseline = derive_activation_functions(design)
        assert baseline.of_module(design.cell("pmul")) == TRUE

    def test_lookahead_finds_consumption_window(self):
        design = lookahead_pipeline()
        analysis = derive_with_lookahead(design, depth=1)
        expected = and_(var("SEL_IN"), var("G_IN"))
        assert BddManager().equivalent(
            analysis.of_module(design.cell("pmul")), expected
        )

    def test_depth_zero_is_baseline(self):
        design = lookahead_pipeline()
        analysis = derive_with_lookahead(design, depth=0)
        assert analysis.of_module(design.cell("pmul")) == TRUE

    def test_enabled_registers_keep_constant_one(self, d1):
        functions = register_lookahead_functions(
            d1, derive_activation_functions(d1)
        )
        enabled = {r for r in d1.registers if r.has_enable}
        assert not (set(functions) & enabled)

    def test_lookahead_never_weakens_baseline(self, d1, d2):
        """Look-ahead can only strengthen (restrict) activation windows."""
        manager = BddManager()
        for design in (d1, d2):
            base = derive_activation_functions(design)
            ahead = derive_with_lookahead(design, depth=2)
            for module in design.datapath_modules:
                assert manager.implies(
                    ahead.of_module(module), base.of_module(module)
                )


class TestIsolationWithLookahead:
    @pytest.mark.parametrize("style", ["and", "or", "latch"])
    def test_outputs_equivalent(self, style):
        design = lookahead_pipeline()
        working = design.copy()
        analysis = derive_with_lookahead(working, depth=1)
        isolate_candidate(
            working,
            working.cell("pmul"),
            analysis.of_module(working.cell("pmul")),
            style,
        )
        report = check_observable_equivalence(
            design, working, pipeline_stimulus(design), 4000,
            compare_registers=False,
        )
        assert report.equivalent, report.mismatches[:3]

    def test_algorithm_with_lookahead_saves_power(self):
        design = lookahead_pipeline()

        def stim():
            return pipeline_stimulus(design)

        blind = isolate_design(
            design, stim, IsolationConfig(cycles=600, lookahead_depth=0)
        )
        sighted = isolate_design(
            design, stim, IsolationConfig(cycles=600, lookahead_depth=1)
        )
        assert "pmul" not in blind.isolated_names
        assert "pmul" in sighted.isolated_names
        assert sighted.power_reduction > blind.power_reduction + 0.3

        report = check_observable_equivalence(
            design, sighted.design, stim(), 3000, compare_registers=False
        )
        assert report.equivalent
