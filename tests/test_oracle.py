"""Tests for the oracle (upper-bound) savings analysis."""

import pytest

from repro.core.oracle import potential_savings
from repro.opt import IsolationConfig, isolate_design
from repro.sim import ControlStream, random_stimulus


def d1_stim(design, seed=6):
    return random_stimulus(
        design,
        seed=seed,
        control_probability=0.3,
        overrides={"EN": ControlStream(0.2, 0.1)},
    )


class TestOracle:
    def test_idle_energy_per_module(self, d1):
        report = potential_savings(d1, d1_stim(d1), cycles=1500)
        assert report.idle_power_mw["mul0"] > report.idle_power_mw["add0"]
        assert report.total_power_mw > report.oracle_savings_mw > 0

    def test_always_active_modules_have_zero_bound(self, d1):
        """The counter/utility paths cannot be saved by any isolation."""
        from repro.designs import design2

        d2 = design2()
        report = potential_savings(d2, random_stimulus(d2, seed=3), cycles=800)
        assert report.idle_power_mw["cnt_inc"] == 0.0

    def test_oracle_fraction_bounded(self, d1):
        report = potential_savings(d1, d1_stim(d1), cycles=800)
        assert 0.0 < report.oracle_fraction < 1.0

    def test_busy_design_has_small_bound(self, d1):
        busy = random_stimulus(
            d1, seed=6, control_probability=0.9,
            overrides={"EN": ControlStream(1.0)},
        )
        report = potential_savings(d1, busy, cycles=800)
        idle = potential_savings(d1, d1_stim(d1), cycles=800)
        assert report.oracle_savings_mw < idle.oracle_savings_mw

    def test_algorithm_approaches_oracle(self, d1):
        """Algorithm 1 should realise most of the theoretical bound."""
        oracle = potential_savings(d1, d1_stim(d1), cycles=2000)
        result = isolate_design(
            d1, lambda: d1_stim(d1), IsolationConfig(cycles=1000)
        )
        measured = result.baseline.power_mw - result.final.power_mw
        fraction = oracle.achieved_fraction(measured)
        assert fraction > 0.6, f"only {fraction:.0%} of the oracle realised"
        # And never more than the bound plus secondary/fanout effects.
        assert measured < oracle.oracle_savings_mw * 1.5

    def test_achieved_fraction_degenerate(self):
        from repro.core.oracle import OracleReport

        empty = OracleReport(total_power_mw=1.0)
        assert empty.oracle_fraction == 0.0
        assert empty.achieved_fraction(0.5) == 1.0
