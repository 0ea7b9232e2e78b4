"""Cross-engine differential rig: reference vs compiled vs bitslice.

Every downstream number (candidate scoring, CI estimation, serve
throughput) flows through per-net toggle counts, so every engine is
held to *byte-identical* results. The compiled engine is compared with
the reference interpreter over all shipped designs (toggle counts, ones
counts, final register state). The bit-sliced kernel is a batch engine:
it meets the reference through the broadcast oracle of
``tests/test_batch_sim.py`` (every net, every cycle) on all shipped
designs and hypothesis-generated random netlists, and the compiled
batch engine at batch sizes {1, 7, 64, 200} of 64-lane words (and, in
the CI-only campaign, at every word boundary up to 200 lanes).
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.netlist.builder import DesignBuilder
from repro.runconfig import ENGINES, RunConfig
from repro.sim import (
    BatchProbe,
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

#: The batch sizes the differential rig pins down, in 64-lane words
#: (1 = one lane, 7 = a ragged sub-word, 64 = exactly one word, 200 =
#: three full words and a ragged one).
BATCH_SIZES = (1, 7, 64, 200)

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
# Batch engine: batch sizes {1, 7, 64, 200}, bit-exact vs compiled
# ----------------------------------------------------------------------
def _assert_same_final_state(ref_sim, sim):
    """Final architectural state, materialised from the kernels."""
    ref, got = ref_sim.checkpoint(), sim.checkpoint()
    for cell, arr in ref.state.items():
        np.testing.assert_array_equal(arr, got.state[cell], err_msg=cell.name)
    for net, arr in ref.values.items():
        np.testing.assert_array_equal(arr, got.values[net], err_msg=net.name)


@pytest.mark.parametrize("make_design", SHIPPED_DESIGNS, ids=IDS)
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_batch_bitslice_lane_widths(make_design, batch):
    """Toggle counts and final state at every pinned lane count."""
    design = make_design()
    ref = BatchSimulator(design, batch_size=batch, engine="compiled")
    mon_ref = BatchToggleMonitor()
    ref.run(BatchRandomStimulus(design, batch, seed=21), CYCLES,
            monitors=[mon_ref], warmup=WARMUP)

    sliced = BatchSimulator(design, batch_size=batch, engine="bitslice")
    assert sliced.fallback_reason is None
    mon_bs = BatchToggleMonitor()
    sliced.run(BatchRandomStimulus(design, batch, seed=21), CYCLES,
               monitors=[mon_bs], warmup=WARMUP)

    assert mon_ref.cycles == mon_bs.cycles
    for net in mon_ref.toggles:
        np.testing.assert_array_equal(
            mon_ref.toggles[net], mon_bs.toggles[net], err_msg=net.name
        )
    _assert_same_final_state(ref, sliced)


#: Batch sizes on both sides of each word boundary up to 200 lanes.
WORD_BOUNDARY_BATCHES = (63, 64, 65, 128, 129, 200)


def _checkpointed_run(design, batch, engine, expr):
    """A run cut by a mid-run checkpoint and resumed on a fresh simulator.

    Returns the uninterrupted monitors, the resumed monitors and the
    resumed simulator.
    """
    def monitors():
        return [BatchToggleMonitor(), BatchProbe("p", expr)]

    first = BatchSimulator(design, batch_size=batch, engine=engine)
    full = first.run(
        BatchRandomStimulus(design, batch, seed=batch), CYCLES,
        monitors=monitors(), warmup=WARMUP, checkpoint_every=CYCLES // 3,
    )
    checkpoint = first.last_checkpoint
    replay = BatchRandomStimulus(design, batch, seed=batch)
    for cycle in range(checkpoint.cycle):
        replay.values(cycle)
    resumed_sim = BatchSimulator(design, batch_size=batch, engine=engine)
    resumed = resumed_sim.run(
        replay, CYCLES, warmup=WARMUP, resume_from=checkpoint
    )
    return full, resumed, resumed_sim


@pytest.mark.skipif(
    not os.environ.get("REPRO_FULL_CAMPAIGN"),
    reason="full campaign is CI-only; set REPRO_FULL_CAMPAIGN=1",
)
def test_word_boundaries_full_campaign():
    """Bitslice against the numpy kernel on every shipped design, on
    both sides of every word boundary up to 200 lanes: toggles, probe
    counts, a mid-run checkpoint and resume, and the final state."""
    for make_design in SHIPPED_DESIGNS:
        design = make_design()
        nets = sorted(design.nets, key=lambda net: net.name)
        first, last = nets[0], nets[-1]
        expr = var(f"{first.name}[0]") & ~var(f"{last.name}[{last.width - 1}]")
        for batch in WORD_BOUNDARY_BATCHES:
            context = f"{design.name} at {batch} lanes"
            ref_full, ref, ref_sim = _checkpointed_run(
                design, batch, "compiled", expr
            )
            full, got, sim = _checkpointed_run(design, batch, "bitslice", expr)
            assert sim.fallback_reason is None, context
            for monitors in (ref_full, full, got):
                for net, counts in ref[0].toggles.items():
                    np.testing.assert_array_equal(
                        counts, monitors[0].toggles[net],
                        err_msg=f"{context}: {net.name}",
                    )
                np.testing.assert_array_equal(
                    ref[1].true_counts, monitors[1].true_counts, err_msg=context
                )
                assert monitors[0].cycles == ref[0].cycles == CYCLES, context
                assert monitors[1].cycles == ref[1].cycles == CYCLES, context
            _assert_same_final_state(ref_sim, sim)


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
    batch=st.integers(min_value=1, max_value=140),
)
def test_random_netlists_batch_equivalence(design_seed, stim_seed, batch):
    design = random_datapath(seed=design_seed, layers=2, modules_per_layer=2)
    mon_ref = BatchToggleMonitor()
    BatchSimulator(design, batch_size=batch, engine="python").run(
        BatchRandomStimulus(design, batch, seed=stim_seed), 30,
        monitors=[mon_ref], warmup=3,
    )
    mon_bs = BatchToggleMonitor()
    BatchSimulator(design, batch_size=batch, engine="bitslice").run(
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


def test_batch_rejects_checked_engine():
    with pytest.raises(SimulationError):
        BatchSimulator(design1(), batch_size=4, engine="checked")
