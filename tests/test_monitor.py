"""Unit tests for toggle and conditional-toggle monitors."""

from repro.boolean.expr import var
from repro.netlist.builder import DesignBuilder
from repro.sim.engine import Simulator, simulate
from repro.sim.monitor import ConditionalToggleMonitor, ToggleMonitor, popcount
from repro.sim.stimulus import SequenceStimulus


def test_popcount():
    assert popcount(0) == 0
    assert popcount(0b1011) == 3
    assert popcount(0xFF) == 8


class TestToggleMonitor:
    def test_counts_bit_toggles(self, tiny_design):
        vectors = [
            {"A": 0b0000, "C": 0, "S": 0, "G": 0},
            {"A": 0b1111, "C": 0, "S": 0, "G": 0},  # 4 toggles on A
            {"A": 0b1110, "C": 0, "S": 0, "G": 0},  # 1 toggle on A
        ]
        mon = ToggleMonitor()
        simulate(tiny_design, SequenceStimulus(vectors), 3, monitors=[mon])
        assert mon.toggles[tiny_design.net("A")] == 5

    def test_toggle_rate_normalisation(self, tiny_design):
        vectors = [{"A": 0, "C": 0, "S": 0, "G": 0}, {"A": 1, "C": 0, "S": 0, "G": 0}]
        mon = ToggleMonitor()
        simulate(tiny_design, SequenceStimulus(vectors), 2, monitors=[mon])
        assert mon.toggle_rate(tiny_design.net("A")) == 1.0

    def test_no_toggles_on_first_cycle(self, tiny_design):
        mon = ToggleMonitor()
        simulate(
            tiny_design,
            SequenceStimulus([{"A": 0xFF, "C": 0, "S": 0, "G": 0}]),
            1,
            monitors=[mon],
        )
        assert all(t == 0 for t in mon.toggles.values())
        assert mon.toggle_rate(tiny_design.net("A")) == 0.0

    def test_restriction_to_nets(self, tiny_design):
        target = tiny_design.net("A")
        mon = ToggleMonitor(nets=[target])
        simulate(
            tiny_design,
            SequenceStimulus([{"A": 0, "C": 0, "S": 0, "G": 0}, {"A": 3, "C": 1, "S": 0, "G": 0}]),
            2,
            monitors=[mon],
        )
        assert list(mon.toggles) == [target]

    def test_repeated_net_is_counted_once_on_every_engine(self):
        from repro.designs import design1
        from repro.sim import make_simulator, random_stimulus

        design = design1()
        net = design.net("S0")
        monitors = {}
        for engine in ("python", "compiled"):
            mon = ToggleMonitor([net, net])
            make_simulator(design, engine).run(
                random_stimulus(design, seed=1), 300, [mon]
            )
            monitors[engine] = mon
        python, compiled = monitors["python"], monitors["compiled"]
        assert list(python.toggles) == [net]
        assert python.toggles[net] == compiled.toggles[net]
        assert python.ones[net] == compiled.ones[net] <= python.cycles
        assert python.one_probability(net) == compiled.one_probability(net)

    def test_per_bit_rate(self, tiny_design):
        vectors = [{"A": 0x00, "C": 0, "S": 0, "G": 0}, {"A": 0xFF, "C": 0, "S": 0, "G": 0}]
        mon = ToggleMonitor()
        simulate(tiny_design, SequenceStimulus(vectors), 2, monitors=[mon])
        assert mon.per_bit_toggle_rate(tiny_design.net("A")) == 1.0

    def test_register_output_toggles_only_when_loaded(self, tiny_design):
        vectors = [
            {"A": 1, "C": 0, "S": 0, "G": 1},
            {"A": 2, "C": 0, "S": 0, "G": 0},
            {"A": 3, "C": 0, "S": 0, "G": 0},
        ]
        mon = ToggleMonitor()
        simulate(tiny_design, SequenceStimulus(vectors, wrap=True), 30, monitors=[mon])
        q = tiny_design.cell("r0").net("Q")
        a = tiny_design.net("A")
        assert mon.toggle_rate(q) < mon.toggle_rate(a)


class TestConditionalToggleMonitor:
    def test_splits_by_condition(self, tiny_design):
        vectors = [
            {"A": 0b00, "C": 0, "S": 0, "G": 1},
            {"A": 0b11, "C": 0, "S": 0, "G": 1},  # toggle attributed to G=1
            {"A": 0b01, "C": 0, "S": 0, "G": 0},  # toggle attributed to G=0
        ]
        mon = ConditionalToggleMonitor(tiny_design.net("A"), var("G"))
        simulate(tiny_design, SequenceStimulus(vectors), 3, monitors=[mon])
        assert mon.toggles_true == 2
        assert mon.toggles_false == 1
        assert mon.cycles_true == 2
        assert mon.cycles_false == 1

    def test_rates(self, tiny_design):
        vectors = [
            {"A": 0, "C": 0, "S": 0, "G": 1},
            {"A": 0xFF, "C": 0, "S": 0, "G": 1},
            {"A": 0xFF, "C": 0, "S": 0, "G": 0},
        ]
        mon = ConditionalToggleMonitor(tiny_design.net("A"), var("G"))
        simulate(tiny_design, SequenceStimulus(vectors), 3, monitors=[mon])
        assert mon.rate_when_true == 4.0  # 8 toggles over 2 true cycles
        assert mon.rate_when_false == 0.0
