"""Unit tests for the simulation-driven power estimator."""

import pytest

from repro.power.estimator import PowerEstimator, estimate_power
from repro.power.report import format_power_report
from repro.runconfig import RunConfig
from repro.sim.stimulus import ConstantStream, SequenceStimulus, random_stimulus


class TestEstimation:
    def test_zero_activity_means_zero_dynamic_power(self, tiny_design):
        stim = SequenceStimulus([{"A": 0, "C": 0, "S": 0, "G": 0}])
        breakdown = estimate_power(tiny_design, stim, run=RunConfig(cycles=100))
        # Only static energy (registers) remains.
        lib = breakdown.library
        static = sum(lib.static_energy(c) for c in tiny_design.cells)
        assert breakdown.total_energy == pytest.approx(static)

    def test_activity_increases_power(self, tiny_design):
        quiet = estimate_power(
            tiny_design,
            random_stimulus(tiny_design, seed=0, data_toggle_density=0.05),
            run=RunConfig(cycles=500),
        )
        busy = estimate_power(
            tiny_design,
            random_stimulus(tiny_design, seed=0, data_toggle_density=0.5),
            run=RunConfig(cycles=500),
        )
        assert busy.total_power_mw > quiet.total_power_mw

    def test_module_power_dominates_glue(self, d1):
        breakdown = estimate_power(
            d1, random_stimulus(d1, seed=1), run=RunConfig(cycles=500)
        )
        module_power = sum(breakdown.module_power_mw().values())
        assert module_power > 0.5 * breakdown.total_power_mw

    def test_breakdown_covers_every_cell(self, tiny_design):
        breakdown = estimate_power(
            tiny_design, random_stimulus(tiny_design, seed=0), run=RunConfig(cycles=200)
        )
        assert set(breakdown.energy_per_cell) == set(tiny_design.cells)

    def test_group_power_roles(self, d1):
        from repro.opt import IsolationConfig, isolate_design

        result = isolate_design(
            d1,
            lambda: random_stimulus(d1, seed=1, control_probability=0.2),
            IsolationConfig(cycles=300),
        )
        breakdown = estimate_power(
            result.design,
            random_stimulus(result.design, seed=1),
            run=RunConfig(cycles=300),
        )
        assert breakdown.group_power_mw("bank") > 0
        assert breakdown.overhead_power_mw < breakdown.total_power_mw

    def test_total_power_is_sum_of_cells(self, tiny_design):
        breakdown = estimate_power(
            tiny_design, random_stimulus(tiny_design, seed=0), run=RunConfig(cycles=200)
        )
        assert breakdown.total_power_mw == pytest.approx(
            sum(breakdown.cell_power_mw(c) for c in tiny_design.cells)
        )

    def test_report_formatting(self, d1):
        breakdown = estimate_power(
            d1, random_stimulus(d1, seed=1), run=RunConfig(cycles=200)
        )
        text = format_power_report(d1, breakdown)
        assert "total power" in text
        assert "mul0" in text  # hottest cells listed


class TestAreaReport:
    def test_groups_by_kind(self, d1, library):
        from repro.power import format_area_report

        text = format_area_report(d1, library)
        assert "total area" in text
        assert "mul" in text and "reg" in text

    def test_overhead_section_after_isolation(self, d1, library):
        from repro.opt import IsolationConfig, isolate_design
        from repro.power import format_area_report

        result = isolate_design(
            d1,
            lambda: random_stimulus(d1, seed=1, control_probability=0.2),
            IsolationConfig(cycles=300),
        )
        text = format_area_report(result.design, library)
        assert "isolation overhead" in text
        assert "bank" in text


class TestGlitchModel:
    def run_both(self, design):
        from repro.power.estimator import PowerEstimator
        from repro.sim.engine import Simulator
        from repro.sim.monitor import ToggleMonitor

        monitor = ToggleMonitor()
        Simulator(design).run(
            random_stimulus(design, seed=2), 300, monitors=[monitor]
        )
        plain = PowerEstimator().breakdown(design, monitor)
        glitchy = PowerEstimator(glitch_model=True).breakdown(design, monitor)
        return plain, glitchy

    def test_glitch_model_adds_power(self, d1):
        plain, glitchy = self.run_both(d1)
        assert glitchy.total_power_mw > plain.total_power_mw

    def test_depth_one_cells_unchanged(self, d1):
        from repro.netlist.traversal import logic_depths

        plain, glitchy = self.run_both(d1)
        depths = logic_depths(d1)
        for cell, depth in depths.items():
            if depth == 1:
                assert glitchy.energy_per_cell[cell] == pytest.approx(
                    plain.energy_per_cell[cell]
                )

    def test_sequential_cells_never_scaled(self, d1):
        plain, glitchy = self.run_both(d1)
        for cell in d1.registers:
            assert glitchy.energy_per_cell[cell] == pytest.approx(
                plain.energy_per_cell[cell]
            )


class TestLogicDepths:
    def test_depths_follow_topology(self, fig1):
        from repro.netlist.traversal import logic_depths

        depths = logic_depths(fig1)
        assert depths[fig1.cell("a1")] == 1  # fed by PIs
        assert depths[fig1.cell("m0")] == 2  # behind a1
        assert depths[fig1.cell("m1")] == 3
        assert depths[fig1.cell("a0")] == 4

    def test_only_combinational_cells(self, fig1):
        from repro.netlist.traversal import logic_depths

        depths = logic_depths(fig1)
        assert set(depths) == set(fig1.combinational_cells)
