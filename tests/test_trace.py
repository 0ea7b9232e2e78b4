"""Unit tests for net traces."""

from repro.sim.engine import simulate
from repro.sim.stimulus import SequenceStimulus
from repro.sim.trace import NetTrace


class TestNetTrace:
    def test_records_per_cycle_values(self, tiny_design):
        vectors = [
            {"A": 1, "C": 2, "S": 0, "G": 1},
            {"A": 3, "C": 4, "S": 0, "G": 1},
        ]
        trace = NetTrace([tiny_design.net("a0")])
        simulate(tiny_design, SequenceStimulus(vectors), 2, monitors=[trace])
        assert trace.values_of(tiny_design.net("a0")) == [3, 7]
        assert len(trace) == 2

    def test_csv_export(self, tiny_design):
        trace = NetTrace([tiny_design.net("A"), tiny_design.net("C")])
        simulate(
            tiny_design,
            SequenceStimulus([{"A": 5, "C": 6, "S": 0, "G": 0}]),
            2,
            monitors=[trace],
        )
        csv = trace.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "cycle,A,C"
        assert lines[1] == "0,5,6"
        assert len(lines) == 3

    def test_repeated_net_is_recorded_once(self, tiny_design):
        gate = tiny_design.net("G")
        pattern = [0, 0, 1, 0, 1, 1, 0, 1]
        vectors = [{"A": 1, "C": 2, "S": 0, "G": g} for g in pattern]
        trace = NetTrace([gate, gate])
        simulate(tiny_design, SequenceStimulus(vectors), 8, monitors=[trace])
        assert trace.nets == [gate]
        assert trace.values_of(gate) == pattern
        lines = trace.to_csv().strip().splitlines()
        assert lines == ["cycle,G"] + [f"{t},{g}" for t, g in enumerate(pattern)]
