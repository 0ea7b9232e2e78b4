"""Tests for the vectorized batch simulation engine."""

import numpy as np
import pytest

from repro.boolean.expr import var
from repro.designs import (
    alu_control_dominated,
    cordic_pipeline,
    correlated_chain,
    design1,
    design2,
    fir_datapath,
    lookahead_pipeline,
    paper_example,
    random_datapath,
    shared_bus_datapath,
    soc_datapath,
)
from repro.errors import SimulationError
from repro.sim.batch import (
    BatchControlStream,
    BatchProbe,
    BatchRandomStimulus,
    BatchSimulator,
    BatchToggleMonitor,
    BroadcastStimulus,
    popcount_u64,
)
from repro.sim.engine import Simulator
from repro.sim.monitor import ToggleMonitor
from repro.sim.stimulus import ControlStream, random_stimulus


def random_datapath_seed0():
    return random_datapath(seed=0)


#: The reference oracle's designs: every shipped generator plus one
#: random datapath.
ORACLE_DESIGNS = [
    paper_example,
    design1,
    design2,
    fir_datapath,
    alu_control_dominated,
    shared_bus_datapath,
    lookahead_pipeline,
    correlated_chain,
    cordic_pipeline,
    soc_datapath,
    random_datapath_seed0,
]


def broadcast_divergence(design, stimulus, cycles, engine, lanes=1):
    """Where a broadcast batch first leaves the python reference, or None.

    Feeds ``stimulus`` to the reference :class:`Simulator` and, through
    :class:`BroadcastStimulus`, to every lane of
    ``BatchSimulator(engine=engine)``. Compares every net on every
    cycle, then the final register/latch state from ``checkpoint()``.
    A divergence is ``(cycle, net or cell name, reference value, lane
    values)``; a state divergence reports ``cycles`` as its cycle.
    """
    reference = Simulator(design)
    batch = BatchSimulator(design, batch_size=lanes, engine=engine)
    assert batch.fallback_reason is None
    broadcast = BroadcastStimulus(stimulus, lanes)
    nets = sorted(design.nets, key=lambda net: net.name)
    for cycle in range(cycles):
        expected = reference.step(stimulus.values(cycle))
        got = batch.step(broadcast.values(cycle))
        for net in nets:
            if (got[net] != expected[net]).any():
                return cycle, net.name, expected[net], got[net].tolist()
        reference.commit()
        batch.commit()
    final = batch.checkpoint().state
    for cell, value in reference.state.items():
        if (final[cell] != value).any():
            return cycles, cell.name, value, final[cell].tolist()
    return None


class TestPopcount:
    def test_matches_python(self):
        values = np.array([0, 1, 0xFF, 0xDEADBEEF, 2**63], dtype=np.uint64)
        expected = [bin(int(v)).count("1") for v in values]
        assert list(popcount_u64(values)) == expected


class TestCrossValidation:
    """Every lane of a broadcast batch must equal the scalar engine."""

    @pytest.mark.parametrize("maker", ORACLE_DESIGNS)
    def test_broadcast_matches_scalar(self, maker):
        """The reference oracle of both batch kernels: the numpy kernels
        and the bit-sliced lowering, at one lane and at three."""
        design = maker()
        for engine in ("python", "bitslice"):
            for lanes in (1, 3):
                found = broadcast_divergence(
                    design, random_stimulus(design, seed=9), 66, engine, lanes
                )
                assert found is None, (engine, lanes, found)

    def test_broadcast_matches_scalar_on_isolated_design(self):
        """Banks/latches/activation logic also agree lane-for-lane."""
        from repro.opt import IsolationConfig, isolate_design

        design = design1()
        result = isolate_design(
            design,
            lambda: random_stimulus(design, seed=1, control_probability=0.2),
            IsolationConfig(style="latch", cycles=300),
        )
        working = result.design
        scalar_stim = random_stimulus(working, seed=3)
        batch_stim = BroadcastStimulus(random_stimulus(working, seed=3), 3)
        scalar = Simulator(working)
        batch = BatchSimulator(working, batch_size=3)
        for cycle in range(50):
            scalar_settled = scalar.step(scalar_stim.values(cycle))
            batch_settled = batch.step(batch_stim.values(cycle))
            for net, value in scalar_settled.items():
                assert int(batch_settled[net][0]) == value
            scalar.commit()
            batch.commit()

    def test_divider_lanes_handle_zero_divisor(self):
        from repro.netlist.builder import DesignBuilder

        b = DesignBuilder("div")
        x = b.input("X", 8)
        y = b.input("Y", 8)
        q, r = b.divmod_(x, y, name="d0")
        b.output(b.register(q), "Q")
        b.output(b.register(r), "R")
        design = b.build()
        batch = BatchSimulator(design, batch_size=3)
        settled = batch.step(
            {
                "X": np.array([23, 23, 50], dtype=np.uint64),
                "Y": np.array([5, 0, 7], dtype=np.uint64),
            }
        )
        assert list(settled[design.net("d0_q")]) == [4, 0xFF, 7]
        assert list(settled[design.net("d0_r")]) == [3, 23, 1]


class TestStatistics:
    def test_toggle_rate_matches_scalar_average(self, d1):
        monitor = ToggleMonitor()
        Simulator(d1).run(
            random_stimulus(d1, seed=0), 2000, monitors=[monitor]
        )
        batch_monitor = BatchToggleMonitor()
        stim = BatchRandomStimulus(d1, batch_size=16, seed=0)
        BatchSimulator(d1, batch_size=16).run(stim, 500, monitors=[batch_monitor])
        net = d1.net("X0")
        mean, half = batch_monitor.toggle_rate_ci(net)
        assert abs(mean - monitor.toggle_rate(net)) < max(3 * half, 0.15)

    def test_ci_shrinks_with_batch(self, d1):
        def half_width(batch_size):
            monitor = BatchToggleMonitor()
            stim = BatchRandomStimulus(d1, batch_size=batch_size, seed=0)
            BatchSimulator(d1, batch_size=batch_size).run(
                stim, 200, monitors=[monitor]
            )
            return monitor.toggle_rate_ci(d1.cell("mul0").net("Y"))[1]

        assert half_width(32) < half_width(4) * 1.1

    def test_batch_probe_probability(self, d1):
        probe = BatchProbe("en", var("EN"))
        stim = BatchRandomStimulus(
            d1, batch_size=16, seed=1,
            overrides={"EN": BatchControlStream(0.2, 0.1)},
        )
        BatchSimulator(d1, batch_size=16).run(stim, 600, monitors=[probe])
        mean, half = probe.probability_ci()
        assert abs(mean - 0.2) < max(3 * half, 0.05)

    def test_control_stream_statistics(self):
        stream = BatchControlStream(0.3, 0.1)
        rng = np.random.default_rng(5)
        stream.begin(64, rng)
        ones = 0
        toggles = 0
        prev = stream.state.copy()
        cycles = 3000
        for _ in range(cycles):
            value = stream.next_values(rng)
            ones += int(value.sum())
            toggles += int((value != prev).sum())
            prev = value.copy()
        assert abs(ones / (cycles * 64) - 0.3) < 0.03
        assert abs(toggles / (cycles * 64) - 0.1) < 0.02


class TestGuards:
    def test_wide_nets_rejected(self):
        from repro.netlist.builder import DesignBuilder

        b = DesignBuilder("wide")
        x = b.input("X", 40)
        b.output(b.register(x), "O")
        with pytest.raises(SimulationError):
            BatchSimulator(b.build(), batch_size=2)

    def test_missing_input_rejected(self, d1):
        batch = BatchSimulator(d1, batch_size=2)
        with pytest.raises(SimulationError):
            batch.step({"X0": np.zeros(2, dtype=np.uint64)})

    def test_unknown_override_rejected(self, d1):
        with pytest.raises(Exception):
            BatchRandomStimulus(
                d1, batch_size=2, overrides={"GHOST": BatchControlStream(0.5)}
            )
