"""Cross-engine differential rig: reference vs compiled vs bitslice.

Every downstream number (candidate scoring, CI estimation, serve
throughput) flows through per-net toggle counts, so every engine is
held to *byte-identical* results. The compiled engine is compared with
the reference interpreter over all shipped designs (toggle counts, ones
counts, final register state). The bit-sliced kernel is a batch engine:
it meets the reference through the broadcast oracle of
``tests/test_batch_sim.py`` (every net, every cycle) on all shipped
designs and hypothesis-generated random netlists, and the compiled
batch engine at lane widths {1, 7, 64, 200}.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.netlist.builder import DesignBuilder
from repro.runconfig import ENGINES, RunConfig
from repro.sim import (
    BatchRandomStimulus,
    BatchSimulator,
    BatchToggleMonitor,
    CompiledSimulator,
    Simulator,
    ToggleMonitor,
    make_simulator,
    random_stimulus,
)
from repro.sim.bitslice import MAX_SLICE_WIDTH
from repro.verify.faults import run_campaign
from tests.test_batch_sim import broadcast_divergence

SHIPPED_DESIGNS = [
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
    lambda: random_datapath(seed=0),
]
IDS = [getattr(m, "__name__", "random_dp") for m in SHIPPED_DESIGNS]

#: The lane widths the acceptance criteria pin down (1 = degenerate
#: scalar lanes, 7 = every word ragged, 64 = native, 200 = multi-lane
#: words wider than the machine word).
LANE_WIDTHS = (1, 7, 64, 200)

CYCLES = 60
WARMUP = 6


def _scalar_stats(design, engine, seed):
    monitor = ToggleMonitor()
    sim = make_simulator(design, engine)
    assert sim.fallback_reason is None
    sim.run(random_stimulus(design, seed=seed), CYCLES, monitors=[monitor],
            warmup=WARMUP)
    return (
        {net.name: count for net, count in monitor.toggles.items()},
        {net.name: count for net, count in monitor.ones.items()},
        dict(sim.state_items()),
    )


# ----------------------------------------------------------------------
# Scalar engine: all shipped designs, compiled vs reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make_design", SHIPPED_DESIGNS, ids=IDS)
def test_bitslice_matches_reference_and_compiled(make_design):
    """Scalar statistics of the compiled engine equal the reference.

    The bitslice side of this check is the broadcast oracle
    (``tests/test_batch_sim.py::TestCrossValidation``), which runs the
    lane-packed kernel against the reference on the same designs.
    """
    design = make_design()
    ref_toggles, ref_ones, ref_state = _scalar_stats(design, "python", seed=11)
    toggles, ones, state = _scalar_stats(design, "compiled", seed=11)
    assert toggles == ref_toggles
    assert ones == ref_ones
    assert state == ref_state


# ----------------------------------------------------------------------
# Batch engine: lane widths {1, 7, 64, 200}, bit-exact vs compiled
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make_design", SHIPPED_DESIGNS, ids=IDS)
@pytest.mark.parametrize("lane_width", LANE_WIDTHS)
def test_batch_bitslice_lane_widths(make_design, lane_width):
    design = make_design()
    batch = 10  # ragged vs 7 and 64? no — ragged vs 7; sub-word vs 64/200
    ref = BatchSimulator(design, batch_size=batch, engine="compiled")
    mon_ref = BatchToggleMonitor()
    ref.run(BatchRandomStimulus(design, batch, seed=21), CYCLES,
            monitors=[mon_ref], warmup=WARMUP)

    sliced = BatchSimulator(
        design, batch_size=batch, engine="bitslice", lane_width=lane_width
    )
    assert sliced.fallback_reason is None
    assert sliced.lane_width == lane_width
    mon_bs = BatchToggleMonitor()
    sliced.run(BatchRandomStimulus(design, batch, seed=21), CYCLES,
               monitors=[mon_bs], warmup=WARMUP)

    assert mon_ref.cycles == mon_bs.cycles
    for net in mon_ref.toggles:
        np.testing.assert_array_equal(
            mon_ref.toggles[net], mon_bs.toggles[net], err_msg=net.name
        )
    # Final architectural state, materialised from the planes.
    ref_ck = ref.checkpoint()
    bs_ck = sliced.checkpoint()
    for cell, arr in ref_ck.state.items():
        np.testing.assert_array_equal(arr, bs_ck.state[cell], err_msg=cell.name)
    for net, arr in ref_ck.values.items():
        np.testing.assert_array_equal(arr, bs_ck.values[net], err_msg=net.name)


# ----------------------------------------------------------------------
# Hypothesis: random netlists (via random_datapath's generator space)
# and random stimulus parameters
# ----------------------------------------------------------------------
@settings(max_examples=12, deadline=None)
@given(
    design_seed=st.integers(min_value=0, max_value=2**16),
    stim_seed=st.integers(min_value=0, max_value=2**16),
    layers=st.integers(min_value=1, max_value=3),
    width=st.integers(min_value=2, max_value=12),
    registered=st.booleans(),
)
def test_random_netlists_scalar_equivalence(
    design_seed, stim_seed, layers, width, registered
):
    design = random_datapath(
        seed=design_seed,
        layers=layers,
        modules_per_layer=2,
        width=width,
        registered_controls=registered,
    )
    found = broadcast_divergence(
        design, random_stimulus(design, seed=stim_seed), CYCLES + WARMUP,
        "bitslice",
    )
    assert found is None, found


@settings(max_examples=6, deadline=None)
@given(
    design_seed=st.integers(min_value=0, max_value=2**16),
    stim_seed=st.integers(min_value=0, max_value=2**16),
    batch=st.integers(min_value=1, max_value=30),
    lane_width=st.sampled_from(LANE_WIDTHS),
)
def test_random_netlists_batch_equivalence(
    design_seed, stim_seed, batch, lane_width
):
    design = random_datapath(seed=design_seed, layers=2, modules_per_layer=2)
    mon_ref = BatchToggleMonitor()
    BatchSimulator(design, batch_size=batch, engine="python").run(
        BatchRandomStimulus(design, batch, seed=stim_seed), 30,
        monitors=[mon_ref], warmup=3,
    )
    mon_bs = BatchToggleMonitor()
    BatchSimulator(
        design, batch_size=batch, engine="bitslice", lane_width=lane_width
    ).run(
        BatchRandomStimulus(design, batch, seed=stim_seed), 30,
        monitors=[mon_bs], warmup=3,
    )
    for net in mon_ref.toggles:
        np.testing.assert_array_equal(
            mon_ref.toggles[net], mon_bs.toggles[net], err_msg=net.name
        )


# ----------------------------------------------------------------------
# Fault campaign under engine="compiled": zero silent faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "make_design", [paper_example, design1, fir_datapath],
    ids=["paper_example", "design1", "fir_datapath"],
)
def test_fault_campaign_compiled_no_silent_faults(make_design):
    design = make_design()
    report = run_campaign(design, per_kind=1, cycles=80, engine="compiled")
    assert report.outcomes, "campaign must evaluate at least one fault"
    assert report.silent == [], [str(o) for o in report.silent]


# ----------------------------------------------------------------------
# Scalar runs and degradation: the plane budget binds batch runs only
# ----------------------------------------------------------------------
def _design_with_wide_net():
    builder = DesignBuilder("wide_net")
    a = builder.input("A", MAX_SLICE_WIDTH + 1)
    y = builder.buf(a, name="Y")
    builder.output(y, "OUT")
    return builder.build()


def test_scalar_degrades_to_compiled_with_reason():
    """A scalar bitslice run is the compiled kernel, so a net past the
    plane budget degrades nothing: no warning, no fallback reason."""
    design = _design_with_wide_net()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sim = make_simulator(design, "bitslice")
    assert isinstance(sim, CompiledSimulator)
    assert caught == []
    assert sim.fallback_reason is None
    ref = Simulator(design)
    stim = random_stimulus(design, seed=1)
    sim.run(stim, 10)
    ref.run(random_stimulus(design, seed=1), 10)
    for net in design.nets:
        assert sim.values[net] == ref.values[net]


def test_runconfig_accepts_bitslice():
    assert "bitslice" in ENGINES
    cfg = RunConfig(engine="bitslice")
    assert cfg.engine == "bitslice"
    # fingerprint covers the engine, so cached results can't cross over
    assert cfg.fingerprint() != RunConfig(engine="compiled").fingerprint()


def test_bitslice_fingerprint_is_pinned():
    """Scalar bitslice runs moved onto the compiled kernel with identical
    results, so their serve and sweep cache keys must not move."""
    assert RunConfig(engine="bitslice").fingerprint() == (
        "775f8a7a92704708fba8ec44f787d98cd40a747de3ba190cefe16356d75017aa"
    )


def test_batch_rejects_lane_width_for_other_engines():
    with pytest.raises(SimulationError):
        BatchSimulator(design1(), batch_size=4, engine="python", lane_width=8)


def test_batch_rejects_checked_engine():
    with pytest.raises(SimulationError):
        BatchSimulator(design1(), batch_size=4, engine="checked")
