"""Tests for windowed power profiling."""

import pytest

from repro.power.estimator import estimate_power
from repro.power.profile import PowerProfileMonitor
from repro.runconfig import RunConfig
from repro.sim.engine import simulate
from repro.sim.stimulus import ControlStream, SequenceStimulus, random_stimulus


class TestPowerProfile:
    def test_window_count(self, tiny_design):
        monitor = PowerProfileMonitor(window=10)
        stim = random_stimulus(tiny_design, seed=0)
        simulate(tiny_design, stim, 100, monitors=[monitor])
        assert len(monitor.windows_mw) == 10

    def test_partial_final_window_flushed(self, tiny_design):
        monitor = PowerProfileMonitor(window=8)
        stim = random_stimulus(tiny_design, seed=0)
        simulate(tiny_design, stim, 20, monitors=[monitor])
        assert len(monitor.windows_mw) == 3  # 19 transitions: 8 + 8 + 3

    def test_mean_close_to_average_estimator(self, d1):
        """Windowed mean must agree with the standard estimator."""
        monitor = PowerProfileMonitor(window=25)
        stim = random_stimulus(d1, seed=3)
        simulate(d1, stim, 500, monitors=[monitor])
        average = estimate_power(
            d1, random_stimulus(d1, seed=3), run=RunConfig(cycles=500, warmup=0)
        ).total_power_mw
        assert monitor.mean_mw == pytest.approx(average, rel=0.05)

    def test_quiet_input_means_static_only(self, tiny_design):
        monitor = PowerProfileMonitor(window=5)
        stim = SequenceStimulus([{"A": 0, "C": 0, "S": 0, "G": 0}])
        simulate(tiny_design, stim, 20, monitors=[monitor])
        # After the first window, only static energy remains.
        assert monitor.windows_mw[-1] == pytest.approx(
            monitor.library.power_mw(monitor._static)
        )

    def test_profile_tracks_activity_bursts(self, d1):
        """Windows during idle EN stretches burn less in the isolated design."""
        from repro.opt import IsolationConfig, isolate_design

        def stim():
            return random_stimulus(
                d1, seed=13, control_probability=0.4,
                overrides={"EN": ControlStream(0.4, 0.02)},
            )

        result = isolate_design(d1, stim, IsolationConfig(cycles=600))
        monitor = PowerProfileMonitor(window=16)
        simulate(result.design, stim(), 800, monitors=[monitor])
        spread = monitor.peak_mw - min(monitor.windows_mw)
        base_monitor = PowerProfileMonitor(window=16)
        simulate(d1, stim(), 800, monitors=[base_monitor])
        base_spread = base_monitor.peak_mw - min(base_monitor.windows_mw)
        assert spread > base_spread  # power now tracks the activation

    def test_sparkline_renders(self, tiny_design):
        monitor = PowerProfileMonitor(window=4)
        stim = random_stimulus(tiny_design, seed=0)
        simulate(tiny_design, stim, 64, monitors=[monitor])
        line = monitor.sparkline(width=10)
        assert len(line) == 10

    def test_empty_profile(self):
        monitor = PowerProfileMonitor(window=4)
        assert monitor.sparkline() == ""
        assert monitor.mean_mw == 0.0
        assert monitor.peak_mw == 0.0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            PowerProfileMonitor(window=0)

class TestWarmupWindowing:
    """The seed cycle (first observed, nothing to diff against) must stay
    out of the window accounting — with or without a warmup run-in."""

    def _alternating(self):
        return SequenceStimulus(
            [
                {"A": 0, "C": 0, "S": 0, "G": 1},
                {"A": 3, "C": 0, "S": 0, "G": 1},
            ]
        )

    def test_warmup_does_not_change_window_count(self, tiny_design):
        for warmup in (0, 5, 16):
            monitor = PowerProfileMonitor(window=10)
            simulate(
                tiny_design,
                random_stimulus(tiny_design, seed=0),
                100,
                monitors=[monitor],
                warmup=warmup,
            )
            assert len(monitor.windows_mw) == 10, f"warmup={warmup}"

    def test_first_window_not_deflated_by_seed_cycle(self, tiny_design):
        # A period-2 stimulus toggles the same bits on every transition,
        # so every window (including the first and the final partial one)
        # must price identically. Counting the seed cycle used to drag
        # the first window down towards static-only power.
        monitor = PowerProfileMonitor(window=4)
        simulate(
            tiny_design, self._alternating(), 41, monitors=[monitor], warmup=4
        )
        assert len(monitor.windows_mw) == 10  # 40 transitions, 4 per window
        for index, value in enumerate(monitor.windows_mw):
            assert value == pytest.approx(monitor.windows_mw[0]), index

    def test_partial_flush_position_independent_of_warmup(self, tiny_design):
        # 20 observed cycles = 19 transitions: two full windows of 8 and
        # a partial flush of 3, wherever warmup placed the first cycle.
        for warmup in (0, 4, 7):
            monitor = PowerProfileMonitor(window=8)
            simulate(
                tiny_design,
                self._alternating(),
                20,
                monitors=[monitor],
                warmup=warmup,
            )
            assert len(monitor.windows_mw) == 3, f"warmup={warmup}"
            if warmup:  # steady state: partial window prices like a full one
                assert monitor.windows_mw[-1] == pytest.approx(
                    monitor.windows_mw[0]
                ), f"warmup={warmup}"

    def test_through_estimate_power_entry_point(self, tiny_design):
        from repro.runconfig import RunConfig

        monitor = PowerProfileMonitor(window=10)
        simulate(
            tiny_design,
            random_stimulus(tiny_design, seed=2),
            100,
            monitors=[monitor],
            warmup=16,
        )
        baseline = estimate_power(
            tiny_design,
            random_stimulus(tiny_design, seed=2),
            run=RunConfig(cycles=100, warmup=16),
        ).total_power_mw
        assert monitor.mean_mw == pytest.approx(baseline, rel=0.05)
