"""Edge-case coverage across the pipeline: degenerate designs, unusual
configurations, boundary behaviours."""

import pytest

from repro.core import compare_styles
from repro.core.explore import rank_candidates
from repro.netlist.builder import DesignBuilder
from repro.opt import IsolationConfig, isolate_design
from repro.runconfig import RunConfig
from repro.sim import SequenceStimulus, random_stimulus


def moduleless_design():
    """Pure glue logic: no isolation candidates at all."""
    b = DesignBuilder("glue")
    x = b.input("X", 8)
    y = b.input("Y", 8)
    g = b.input("G", 1)
    masked = b.and_(x, y)
    q = b.register(masked, enable=g, name="r0")
    b.output(q, "OUT")
    return b.build()


def po_only_module():
    """A candidate feeding a primary output directly: always active."""
    b = DesignBuilder("po_only")
    x = b.input("X", 8)
    y = b.input("Y", 8)
    b.output(b.add(x, y, name="a0"), "OUT")
    return b.build()


class TestDegenerateDesigns:
    def test_no_candidates_is_a_clean_noop(self):
        design = moduleless_design()
        result = isolate_design(
            design,
            lambda: random_stimulus(design, seed=1),
            IsolationConfig(cycles=100),
        )
        assert result.isolated_names == []
        assert result.final.power_mw == pytest.approx(
            result.baseline.power_mw, rel=0.01
        )

    def test_always_active_candidate_never_isolated(self):
        design = po_only_module()
        result = isolate_design(
            design,
            lambda: random_stimulus(design, seed=1),
            IsolationConfig(cycles=100),
        )
        assert result.isolated_names == []

    def test_rank_handles_no_candidates(self):
        design = moduleless_design()
        ranked = rank_candidates(
            design, random_stimulus(design, seed=1), run=RunConfig(cycles=100)
        )
        assert ranked == []

    def test_semantic_tautology_pruned(self):
        """f = S + S̄ (full mux decode) is semantically always active."""
        b = DesignBuilder("taut")
        x = b.input("X", 8)
        y = b.input("Y", 8)
        s = b.input("S", 1)
        total = b.add(x, y, name="a0")
        routed = b.mux(s, total, total, name="m0")  # both legs!
        b.output(b.register(routed, name="r0"), "OUT")
        design = b.build()
        result = isolate_design(
            design,
            lambda: random_stimulus(design, seed=1),
            IsolationConfig(cycles=100),
        )
        assert result.isolated_names == []


class TestConfigurationEdges:
    def test_compare_styles_subset(self, d1):
        stim = lambda: random_stimulus(d1, seed=1, control_probability=0.2)
        comparison = compare_styles(
            d1, stim, IsolationConfig(cycles=200), styles=["or"]
        )
        labels = [row.label for row in comparison.rows]
        assert labels == ["non-isolated", "OR-isolated"]

    def test_zero_warmup(self, tiny_design):
        stim = SequenceStimulus([{"A": 1, "C": 2, "S": 0, "G": 1}])
        from repro.power import estimate_power

        breakdown = estimate_power(
            tiny_design, stim, run=RunConfig(cycles=10, warmup=0)
        )
        assert breakdown.total_power_mw >= 0

    def test_one_cycle_simulation(self, tiny_design):
        from repro.sim import Simulator, ToggleMonitor

        monitor = ToggleMonitor()
        Simulator(tiny_design).run(
            SequenceStimulus([{"A": 1, "C": 2, "S": 0, "G": 1}]),
            1,
            monitors=[monitor],
        )
        assert monitor.cycles == 1
        assert all(rate == 0.0 for rate in monitor.toggle_rates().values())

    def test_stimulus_with_extra_keys_tolerated(self, tiny_design):
        from repro.sim import Simulator

        sim = Simulator(tiny_design)
        sim.step({"A": 1, "C": 2, "S": 0, "G": 1, "GHOST": 99})

    def test_result_summary_with_no_isolation(self):
        design = moduleless_design()
        result = isolate_design(
            design,
            lambda: random_stimulus(design, seed=1),
            IsolationConfig(cycles=100),
        )
        assert "(none)" in result.summary()

    def test_width_one_datapath(self):
        """One-bit 'datapath' modules still work end to end."""
        b = DesignBuilder("w1")
        x = b.input("X", 1)
        y = b.input("Y", 1)
        g = b.input("G", 1)
        total = b.add(x, y, name="a0")
        b.output(b.register(total, enable=g, name="r0"), "OUT")
        design = b.build()
        result = isolate_design(
            design,
            lambda: random_stimulus(design, seed=2, control_probability=0.2),
            IsolationConfig(cycles=300),
        )
        from repro.verify import check_observable_equivalence

        report = check_observable_equivalence(
            design, result.design,
            random_stimulus(design, seed=2, control_probability=0.2), 500,
        )
        assert report.equivalent
