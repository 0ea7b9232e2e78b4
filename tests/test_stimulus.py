"""Unit tests for stimulus generators, including statistics convergence."""

import random

import pytest

from repro.errors import SimulationError, StimulusError
from repro.sim.stimulus import (
    CompositeStimulus,
    ConstantStream,
    ControlStream,
    DataStream,
    SequenceStimulus,
    StimulusTable,
    random_stimulus,
)


def measure_stream(stream, cycles=20000, seed=1):
    rng = random.Random(seed)
    values = [stream.next_value(rng) for _ in range(cycles)]
    ones = sum(values) / cycles
    toggles = sum(1 for a, b in zip(values, values[1:]) if a != b) / (cycles - 1)
    return ones, toggles


class TestControlStream:
    @pytest.mark.parametrize("p,t", [(0.5, 0.5), (0.2, 0.1), (0.8, 0.2), (0.5, 0.05)])
    def test_statistics_converge(self, p, t):
        ones, toggles = measure_stream(ControlStream(p, t))
        assert abs(ones - p) < 0.05
        assert abs(toggles - t) < 0.04

    def test_default_toggle_rate_is_memoryless(self):
        ones, toggles = measure_stream(ControlStream(0.3))
        assert abs(ones - 0.3) < 0.05
        assert abs(toggles - 2 * 0.3 * 0.7) < 0.04

    def test_infeasible_rate_rejected(self):
        with pytest.raises(StimulusError):
            ControlStream(0.1, 0.5)  # max is 0.2

    def test_bad_probability_rejected(self):
        with pytest.raises(StimulusError):
            ControlStream(1.5)

    def test_constant_extremes(self):
        ones, toggles = measure_stream(ControlStream(1.0), cycles=100)
        assert ones == 1.0 and toggles == 0.0
        ones, toggles = measure_stream(ControlStream(0.0), cycles=100)
        assert ones == 0.0


class TestDataStream:
    def test_toggle_density_controls_bit_flips(self):
        rng = random.Random(0)
        stream = DataStream(width=16, toggle_density=0.25)
        prev = stream.next_value(rng)
        flips = 0
        cycles = 5000
        for _ in range(cycles):
            value = stream.next_value(rng)
            flips += bin(prev ^ value).count("1")
            prev = value
        per_bit = flips / cycles / 16
        assert abs(per_bit - 0.25) < 0.03

    def test_uniform_mode_spans_range(self):
        rng = random.Random(0)
        stream = DataStream(width=8, uniform=True)
        values = {stream.next_value(rng) for _ in range(2000)}
        assert len(values) > 200

    def test_bad_density_rejected(self):
        with pytest.raises(StimulusError):
            DataStream(8, toggle_density=1.5)


class TestCompositeAndSequence:
    def test_values_stable_within_cycle(self):
        stim = CompositeStimulus({"x": DataStream(8)}, seed=0)
        first = dict(stim.values(0))
        again = dict(stim.values(0))
        assert first == again

    def test_values_advance_across_cycles(self):
        stim = CompositeStimulus({"x": DataStream(8, uniform=True)}, seed=0)
        seen = {stim.values(c)["x"] for c in range(50)}
        assert len(seen) > 10

    def test_seed_reproducibility(self):
        a = CompositeStimulus({"x": DataStream(8, uniform=True)}, seed=9)
        b = CompositeStimulus({"x": DataStream(8, uniform=True)}, seed=9)
        assert [a.values(c)["x"] for c in range(20)] == [
            b.values(c)["x"] for c in range(20)
        ]

    def test_sequence_repeats_last(self):
        stim = SequenceStimulus([{"X": 1}, {"X": 2}])
        assert stim.values(0)["X"] == 1
        assert stim.values(5)["X"] == 2

    def test_sequence_wrap(self):
        stim = SequenceStimulus([{"X": 1}, {"X": 2}], wrap=True)
        assert stim.values(2)["X"] == 1
        assert stim.values(3)["X"] == 2

    def test_empty_sequence_rejected(self):
        with pytest.raises(StimulusError):
            SequenceStimulus([])

    def test_from_csv(self):
        stim = SequenceStimulus.from_csv("A,B\n1,0x10\n2,3\n")
        assert stim.values(0) == {"A": 1, "B": 16}
        assert stim.values(1) == {"A": 2, "B": 3}

    def test_from_csv_ignores_cycle_column(self):
        stim = SequenceStimulus.from_csv("cycle,A\n0,7\n1,8\n")
        assert stim.values(0) == {"A": 7}

    def test_from_csv_errors(self):
        with pytest.raises(StimulusError):
            SequenceStimulus.from_csv("A\n")  # no rows
        with pytest.raises(StimulusError):
            SequenceStimulus.from_csv("A,B\n1\n")  # wrong arity
        with pytest.raises(StimulusError):
            SequenceStimulus.from_csv("A\nbanana\n")  # non-numeric

    def test_from_csv_file_round_trips_nettrace(self, tiny_design, tmp_path):
        """A trace captured by NetTrace replays as a stimulus."""
        from repro.sim.engine import simulate
        from repro.sim.trace import NetTrace

        pi_nets = [pi.net("Y") for pi in tiny_design.primary_inputs]
        trace = NetTrace(pi_nets)
        original = SequenceStimulus(
            [
                {"A": 1, "C": 2, "S": 0, "G": 1},
                {"A": 9, "C": 4, "S": 1, "G": 0},
            ]
        )
        simulate(tiny_design, original, 2, monitors=[trace])
        path = tmp_path / "trace.csv"
        path.write_text(trace.to_csv())
        replay = SequenceStimulus.from_csv_file(str(path))
        assert replay.values(0) == original.values(0)
        assert replay.values(1) == original.values(1)

    def test_constant_stream(self):
        rng = random.Random(0)
        s = ConstantStream(7)
        assert [s.next_value(rng) for _ in range(3)] == [7, 7, 7]


class TestRandomStimulus:
    def test_covers_every_input(self, d1):
        stim = random_stimulus(d1, seed=0)
        values = stim.values(0)
        for pi in d1.primary_inputs:
            assert pi.name in values

    def test_override_replaces_stream(self, d1):
        stim = random_stimulus(d1, seed=0, overrides={"EN": ConstantStream(1)})
        assert all(stim.values(c)["EN"] == 1 for c in range(20))

    def test_unknown_override_rejected(self, d1):
        with pytest.raises(StimulusError):
            random_stimulus(d1, overrides={"GHOST": ConstantStream(0)})

    def test_control_statistics_applied(self, d1):
        stim = random_stimulus(d1, seed=1, control_probability=0.1)
        ones = sum(stim.values(c)["S0"] for c in range(5000)) / 5000
        assert abs(ones - 0.1) < 0.05


class TestStimulusTable:
    def test_values_are_masked_to_each_input_width(self, tiny_design):
        trace = SequenceStimulus([{"A": -1, "C": 0x1FF, "S": 3, "G": -2}])
        table = StimulusTable.draw(trace, tiny_design, 2)
        assert table.rows.shape == (2, 4)
        assert table.values(0) == table.values(1) == {"A": 255, "C": 255, "S": 1, "G": 0}

    def test_missing_input_names_the_input_and_cycle(self, tiny_design):
        trace = SequenceStimulus(
            [{"A": 1, "C": 1, "S": 0, "G": 1}, {"A": 1, "C": 1, "S": 0}]
        )
        with pytest.raises(SimulationError, match="input 'G' at cycle 1"):
            StimulusTable.draw(trace, tiny_design, 3)


def _recorded_csv(design, cycles, drop=(), corrupt=False):
    """A CSV trace of ``random_stimulus``; ``corrupt`` writes every value
    negative or over-wide, with the same low bits."""
    stimulus = random_stimulus(design, seed=3)
    names = [pi.name for pi in design.primary_inputs if pi.name not in drop]
    widths = {pi.name: pi.net("Y").width for pi in design.primary_inputs}
    rows = [",".join(names)]
    for cycle in range(cycles):
        vector = stimulus.values(cycle)
        values = []
        for i, name in enumerate(names):
            value = vector[name]
            if corrupt:
                value = value - (1 << widths[name]) if i % 2 else value + (5 << widths[name])
            values.append(str(value))
        rows.append(",".join(values))
    return "\n".join(rows) + "\n"


class TestRecordedTracesUnderOptimize:
    """An optimize run draws its stimulus once; recorded traces still
    mask, run out and miss inputs the way a simulator run reports them."""

    CONFIG = dict(cycles=100, warmup=8, engine="compiled")

    def _optimize(self, design, stimulus):
        from repro.opt import IsolationConfig, isolate_design

        result = isolate_design(design, stimulus, IsolationConfig(**self.CONFIG))
        payload = result.to_dict()
        payload.pop("timings")
        return payload

    def test_negative_and_over_wide_values_are_masked(self, d1):
        clean = SequenceStimulus.from_csv(_recorded_csv(d1, 108))
        corrupt = SequenceStimulus.from_csv(_recorded_csv(d1, 108, corrupt=True))
        assert corrupt.vectors != clean.vectors
        assert self._optimize(d1, corrupt) == self._optimize(d1, clean)

    def test_short_strict_trace_raises_at_the_first_missing_cycle(self, d1):
        short = SequenceStimulus.from_csv(_recorded_csv(d1, 50), strict=True)
        with pytest.raises(StimulusError, match="ends at cycle 49 but cycle 50"):
            self._optimize(d1, short)

    def test_short_trace_holds_its_last_vector(self, d1):
        text = _recorded_csv(d1, 50)
        held = text + "\n".join([text.strip().splitlines()[-1]] * 58) + "\n"
        with pytest.warns(RuntimeWarning, match="CSV trace holds 50"):
            short = self._optimize(d1, SequenceStimulus.from_csv(text))
        assert short == self._optimize(d1, SequenceStimulus.from_csv(held))

    def test_missing_input_names_the_input_and_cycle(self, d1):
        trace = SequenceStimulus.from_csv(_recorded_csv(d1, 108, drop=("EN",)))
        with pytest.raises(SimulationError, match="input 'EN' at cycle 0"):
            self._optimize(d1, trace)
