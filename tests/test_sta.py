"""Unit tests for static timing analysis."""

import math

import pytest

from repro.netlist.builder import DesignBuilder
from repro.timing.sta import analyze_timing


def chain_design(n_adders=3, width=8):
    """A chain of adders between two registers."""
    b = DesignBuilder("chain")
    x = b.input("X", width)
    y = b.input("Y", width)
    current = x
    for i in range(n_adders):
        current = b.add(current, y, name=f"a{i}")
    b.output(b.register(current, name="r_out"), "OUT")
    return b.build()


class TestArrivalTimes:
    def test_arrival_accumulates_along_chain(self, library):
        d = chain_design(3)
        report = analyze_timing(d, library)
        a0 = d.cell("a0").net("Y")
        a2 = d.cell("a2").net("Y")
        assert report.arrival[a2] > report.arrival[a0] > 0

    def test_boundary_nets_arrive_at_zero(self, library):
        d = chain_design(1)
        report = analyze_timing(d, library)
        assert report.arrival[d.net("X")] == 0.0

    def test_default_period_gives_zero_worst_slack(self, library):
        d = chain_design(3)
        report = analyze_timing(d, library)
        assert report.worst_slack == pytest.approx(0.0, abs=1e-9)

    def test_longer_chain_longer_period(self, library):
        short = analyze_timing(chain_design(1), library)
        long = analyze_timing(chain_design(5), library)
        assert long.clock_period > short.clock_period


class TestSlack:
    def test_explicit_period_slack(self, library):
        d = chain_design(2)
        natural = analyze_timing(d, library).clock_period
        relaxed = analyze_timing(d, library, clock_period=natural + 1.0)
        assert relaxed.worst_slack == pytest.approx(1.0, abs=1e-9)
        assert relaxed.meets_timing

    def test_overconstrained_slack_negative(self, library):
        d = chain_design(2)
        natural = analyze_timing(d, library).clock_period
        tight = analyze_timing(d, library, clock_period=natural / 2)
        assert tight.worst_slack < 0
        assert not tight.meets_timing

    def test_off_critical_nets_have_more_slack(self, library):
        d = chain_design(3)
        report = analyze_timing(d, library)
        first = d.cell("a0").net("Y")
        last = d.cell("a2").net("Y")
        assert report.slack(last) <= report.slack(first) + 1e-9

    def test_slack_of_unconstrained_net_is_inf(self, library, tiny_design):
        report = analyze_timing(tiny_design, library)
        # Control input S drives only a mux select with required time.
        assert report.slack(tiny_design.net("S")) < math.inf


class TestCriticalPath:
    def test_critical_path_follows_chain(self, library):
        d = chain_design(3)
        report = analyze_timing(d, library)
        assert report.critical_path[-1] == "a2"
        assert "a0" in report.critical_path

    def test_multi_block_designs_analyze(self, d1, d2, alu, library):
        for design in (d1, d2, alu):
            report = analyze_timing(design, library)
            assert report.clock_period > 0
            assert report.worst_slack == pytest.approx(0.0, abs=1e-9)

    def test_isolation_reduces_slack(self, d1, library):
        from repro.opt import IsolationConfig, isolate_design
        from repro.sim import random_stimulus

        baseline = analyze_timing(d1, library)
        period = baseline.clock_period * 1.3
        result = isolate_design(
            d1,
            lambda: random_stimulus(d1, seed=1, control_probability=0.2),
            IsolationConfig(cycles=300, clock_period=period),
        )
        before = analyze_timing(d1, library, clock_period=period)
        after = analyze_timing(result.design, library, clock_period=period)
        assert after.worst_slack <= before.worst_slack
