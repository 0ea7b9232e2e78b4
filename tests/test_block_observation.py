"""Block observation is exact at every block boundary.

The compiled engine hands monitors value blocks of up to 256 cycles
(``Monitor.observe_block``); the python reference engine calls
``Monitor.observe`` once per cycle. On every shipped design, for run
lengths on both sides of the block size, with and without warmup, the
two must accumulate identical statistics:

* ``ToggleMonitor`` toggles, ones and cycles;
* the ``SavingsModel`` probes and a clock-gating enable ``ProbeSet``:
  true cycles, transitions and cycles of every probe — transitions need
  the last value carried over from the previous block;
* ``ValueTrace`` values;
* ``NetTrace`` cycles and samples, which go through the default
  row-by-row adapter.
"""

from __future__ import annotations

import pytest

import repro.designs as designs
from repro.core.activation import enable_condition
from repro.core.candidates import find_candidates
from repro.core.savings import SavingsModel
from repro.power.library import default_library
from repro.rewrite.scoring import ValueTrace
from repro.sim import NetTrace, ProbeSet, ToggleMonitor, make_simulator, random_stimulus

#: Every shipped design generator.
MAKERS = [
    "paper_example",
    "design1",
    "design2",
    "fir_datapath",
    "alu_control_dominated",
    "shared_bus_datapath",
    "lookahead_pipeline",
    "correlated_chain",
    "cordic_pipeline",
    "soc_datapath",
    "random_datapath",
]

#: Block size 256: one cycle, one short of a block, exactly one, one
#: over, and several blocks with a partial last one.
CYCLES = [2, 255, 256, 257, 700]


def probe_sets(design):
    """Fresh copies of the savings-model and clock-gating probe sets."""
    model = SavingsModel(design, find_candidates(design), default_library())
    savings = {name: model.probes[name].expr for name in model.probes.probabilities()}
    enables = {
        f"cg:{register.name}": enable_condition(register, "EN")
        for register in design.registers
        if register.has_enable
    }
    return lambda: (ProbeSet(savings), ProbeSet(enables))


def observe(design, engine, probes, cycles, warmup, runs=1):
    """Statistics of every monitor after ``runs`` back-to-back runs.

    The simulator is not reset between runs, so a later run starts at
    the absolute cycle where the previous one stopped.
    """
    toggles = ToggleMonitor()
    savings, enables = probes()
    values = ValueTrace(design.nets)
    trace = NetTrace(design.nets)
    simulator = make_simulator(design, engine)
    stimulus = random_stimulus(design, seed=1)
    for _ in range(runs):
        simulator.run(
            stimulus,
            cycles,
            [toggles, savings, enables, values, trace],
            warmup=warmup,
        )
    return {
        "toggles": (toggles.cycles, toggles.toggles, toggles.ones),
        "savings": {
            name: (p.true_cycles, p.transitions, p.cycles)
            for name in savings.probabilities()
            for p in [savings[name]]
        },
        "enables": {
            name: (p.true_cycles, p.transitions, p.cycles)
            for name in enables.probabilities()
            for p in [enables[name]]
        },
        "values": values.values,
        "trace": (trace.cycles, trace.samples),
    }


def assert_same(blocked, reference):
    assert blocked.keys() == reference.keys()
    for monitor in reference:
        assert blocked[monitor] == reference[monitor], monitor


@pytest.mark.parametrize("warmup", [0, 16])
@pytest.mark.parametrize("maker", MAKERS)
def test_blocks_match_per_cycle_observation(maker, warmup):
    design = getattr(designs, maker)()
    probes = probe_sets(design)
    assert probes()[0].probabilities(), "the savings model must have probes"
    for cycles in CYCLES:
        blocked = observe(design, "compiled", probes, cycles, warmup)
        reference = observe(design, "python", probes, cycles, warmup)
        assert blocked["toggles"][0] == cycles
        assert len(blocked["trace"][0]) == cycles
        try:
            assert_same(blocked, reference)
        except AssertionError as exc:
            raise AssertionError(f"{cycles} cycles, warmup {warmup}: {exc}") from None


def test_second_run_without_reset_observes_absolute_cycles():
    design = designs.design1()
    probes = probe_sets(design)
    blocked = observe(design, "compiled", probes, 300, 16, runs=2)
    reference = observe(design, "python", probes, 300, 16, runs=2)
    assert blocked["trace"][0] == list(range(332, 632))
    assert_same(blocked, reference)
