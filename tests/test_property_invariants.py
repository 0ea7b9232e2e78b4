"""Property-based invariants across the substrate layers.

Complements ``test_property_isolation.py`` (which owns the correctness
properties of the core transform) with structural invariants of the
simulator, power estimator, timing engine and serialisation, all over
seeded random designs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designs import random_datapath
from repro.errors import NetlistError
from repro.netlist import textio
from repro.netlist.compose import merge_designs
from repro.power.estimator import estimate_power
from repro.power.library import default_library
from repro.runconfig import RunConfig
from repro.sim.engine import Simulator
from repro.sim.stimulus import random_stimulus
from repro.timing.sta import analyze_timing


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_simulated_values_respect_widths(seed):
    design = random_datapath(seed=seed, layers=2, modules_per_layer=2)
    stim = random_stimulus(design, seed=seed)
    sim = Simulator(design)
    for cycle in range(40):
        settled = sim.step(stim.values(cycle))
        for net, value in settled.items():
            assert 0 <= value <= net.mask, f"{net.name} out of range"
        sim.commit()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500))
def test_power_is_nonnegative_and_finite(seed):
    design = random_datapath(seed=seed, layers=2, modules_per_layer=3)
    breakdown = estimate_power(
        design, random_stimulus(design, seed=1), run=RunConfig(cycles=200)
    )
    assert breakdown.total_power_mw >= 0
    for cell, energy in breakdown.energy_per_cell.items():
        assert energy >= 0, cell.name
        assert energy < 1e6


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500))
def test_sta_arrival_monotone_along_paths(seed):
    design = random_datapath(seed=seed, layers=3, modules_per_layer=2)
    library = default_library()
    report = analyze_timing(design, library)
    for cell in design.combinational_cells:
        for out_pin in cell.output_pins:
            out_arrival = report.arrival[out_pin.net]
            for in_pin in cell.input_pins:
                in_arrival = report.arrival.get(in_pin.net, 0.0)
                assert out_arrival >= in_arrival - 1e-9
    # Worst slack is indeed the minimum over constrained nets.
    slacks = [
        report.required[net] - report.arrival.get(net, 0.0)
        for net in report.required
    ]
    assert abs(report.worst_slack - min(slacks)) < 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500), copies=st.integers(1, 3))
def test_merge_scales_linearly(seed, copies):
    part = random_datapath(seed=seed, layers=2, modules_per_layer=2)
    merged = merge_designs(
        "m", {f"u{i}": part for i in range(copies)}
    )
    assert merged.stats()["cells"] == copies * part.stats()["cells"]
    assert merged.stats()["modules"] == copies * part.stats()["modules"]


@settings(max_examples=30, deadline=None)
@given(
    junk=st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=120
    )
)
def test_textio_parser_rejects_garbage_cleanly(junk):
    """Arbitrary text either parses or raises NetlistError — never
    anything else."""
    try:
        textio.loads("design fuzz\n" + junk)
    except NetlistError:
        pass


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_simulation_is_deterministic(seed):
    design = random_datapath(seed=seed, layers=2, modules_per_layer=2)

    def trace():
        stim = random_stimulus(design, seed=seed + 7)
        sim = Simulator(design)
        values = []
        for cycle in range(30):
            settled = sim.step(stim.values(cycle))
            values.append(tuple(sorted((n.name, v) for n, v in settled.items())))
            sim.commit()
        return values

    assert trace() == trace()
