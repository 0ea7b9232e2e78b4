"""Unit tests of the bit-slicing primitives and kernel edge cases.

Covers the satellite checklist of the differential rig: lane
pack/unpack round-trips, XOR-delta popcounts vs the naive per-lane
count, masked-overflow behaviour at word boundaries, the seeded-bug
regression (a corrupted plane constant must fail the broadcast oracle),
ragged final words, checkpoint/resume across a mid-word boundary, and
the lane-count guards of ``BatchSimulator``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.designs import design1, paper_example, soc_datapath
from repro.errors import SimulationError
from repro.sim import (
    BatchRandomStimulus,
    BatchSimulator,
    BatchToggleMonitor,
    BitsliceBatchKernel,
    bitslice_cache,
    compile_bitslice,
    pack_lanes,
    random_stimulus,
    unpack_lanes,
)
from repro.sim.bitslice import _ripple_increment
from tests.test_batch_sim import broadcast_divergence


# ----------------------------------------------------------------------
# Packing primitives
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 63, 64, 65, 200])
@pytest.mark.parametrize("width", [1, 5, 32, 64])
def test_pack_unpack_round_trip(n, width):
    rng = np.random.default_rng(n * 1000 + width)
    values = rng.integers(0, 1 << min(width, 63), size=n, dtype=np.uint64)
    planes = pack_lanes(values, width)
    assert len(planes) == width
    lane_mask = (1 << n) - 1
    for plane in planes:
        assert plane & ~lane_mask == 0, "phantom lanes must stay zero"
    np.testing.assert_array_equal(unpack_lanes(planes, n), values)


def test_pack_lanes_drops_bits_beyond_width():
    # Values wider than the net width are clipped by packing alone —
    # the masked-overflow contract at word boundaries.
    values = np.array([0b1111, 0b1010, 0b0111], dtype=np.uint64)
    planes = pack_lanes(values, 2)
    np.testing.assert_array_equal(unpack_lanes(planes, 3), values & 0b11)


def test_xor_delta_popcount_matches_naive():
    rng = np.random.default_rng(7)
    n, width = 50, 9
    a = rng.integers(0, 1 << width, size=n, dtype=np.uint64)
    b = rng.integers(0, 1 << width, size=n, dtype=np.uint64)
    pa, pb = pack_lanes(a, width), pack_lanes(b, width)
    # Bit-sliced toggle count: popcount of per-plane XOR deltas.
    sliced_total = sum((x ^ y).bit_count() for x, y in zip(pa, pb))
    naive_total = sum(int(x ^ y).bit_count() for x, y in zip(a, b))
    assert sliced_total == naive_total
    # Per-lane: unpacked single-bit deltas reassemble the naive counts.
    per_lane = np.zeros(n, dtype=np.uint64)
    for x, y in zip(pa, pb):
        per_lane += unpack_lanes([x ^ y], n)
    np.testing.assert_array_equal(
        per_lane, [int(x ^ y).bit_count() for x, y in zip(a, b)]
    )


def test_ripple_increment_counts_in_lane_binary():
    n = 11
    counters = []
    totals = np.zeros(n, dtype=np.uint64)
    rng = np.random.default_rng(3)
    for _ in range(100):
        delta = int(rng.integers(0, 1 << n))
        _ripple_increment(counters, delta)
        totals += unpack_lanes([delta], n)
    np.testing.assert_array_equal(unpack_lanes(counters, n), totals)


# ----------------------------------------------------------------------
# Seeded-bug regression: a flipped plane constant must be caught
# ----------------------------------------------------------------------
def test_checked_catches_seeded_bitslice_bug():
    """A corrupted plane program fails the broadcast oracle on the
    first cycle, naming the corrupted net."""
    design = design1()
    program = bitslice_cache().get(design)
    original_step = program.step

    def corrupted(v, s, pi, LM, hlp):
        original_step(v, s, pi, LM, hlp)
        v[5] ^= LM  # model of one flipped mask constant in the lowering

    program.step = corrupted
    try:
        found = broadcast_divergence(
            design, random_stimulus(design, seed=0), 300, "bitslice"
        )
    finally:
        program.step = original_step  # the program is globally cached
    assert found is not None
    cycle, name, reference, lanes = found
    assert (cycle, name) == (0, "X0")
    assert lanes != [reference]


# ----------------------------------------------------------------------
# Lane-count edge cases: ragged words and mid-word checkpoints
# ----------------------------------------------------------------------
def _toggles(design, batch, seed, cycles=40, warmup=4):
    sim = BatchSimulator(design, batch_size=batch, engine="bitslice")
    monitor = BatchToggleMonitor()
    sim.run(BatchRandomStimulus(design, batch, seed=seed), cycles,
            monitors=[monitor], warmup=warmup)
    return monitor


# (batch size, stimulus seed): one lane, sub-word, exactly one 64-lane
# word, and a full word plus a ragged one.
@pytest.mark.parametrize(
    "batch,seed",
    [(1, 64), (7, 64), (9, 4), (13, 5), (64, 17), (70, 17), (129, 17)],
)
def test_ragged_final_word_counts_no_phantom_toggles(batch, seed):
    """A batch that is not a multiple of the 64-lane word must match
    the plain numpy batch engine exactly — phantom lanes contribute
    nothing."""
    design = paper_example()
    ref_sim = BatchSimulator(design, batch_size=batch, engine="python")
    ref = BatchToggleMonitor()
    ref_sim.run(BatchRandomStimulus(design, batch, seed=seed), 40,
                monitors=[ref], warmup=4)
    got = _toggles(design, batch, seed=seed)
    assert got.cycles == ref.cycles
    for net in ref.toggles:
        np.testing.assert_array_equal(
            ref.toggles[net], got.toggles[net], err_msg=net.name
        )


@pytest.mark.parametrize("checkpoint_every", [3, 7, 21])
def test_checkpoint_resume_across_mid_word_boundary(checkpoint_every):
    """Resume from a checkpoint of a full word plus a 6-lane ragged one,
    taken mid-warmup for the small cadences, reproduces the
    uninterrupted counts exactly."""
    design = soc_datapath()
    batch, cycles, warmup, seed = 70, 50, 6, 9

    full = _toggles(design, batch, seed, cycles, warmup)

    first = BatchSimulator(design, batch_size=batch, engine="bitslice")
    first.run(
        BatchRandomStimulus(design, batch, seed=seed), cycles,
        monitors=[BatchToggleMonitor()], warmup=warmup,
        checkpoint_every=checkpoint_every,
    )
    checkpoint = first.last_checkpoint
    assert checkpoint is not None

    # Replay the stimulus stream up to the checkpoint, then resume.
    replay = BatchRandomStimulus(design, batch, seed=seed)
    for cycle in range(checkpoint.cycle):
        replay.values(cycle)
    resumed_sim = BatchSimulator(design, batch_size=batch, engine="bitslice")
    resumed = resumed_sim.run(replay, cycles, warmup=warmup,
                              resume_from=checkpoint)
    monitor = resumed[0]
    assert monitor.cycles == full.cycles
    for net in full.toggles:
        np.testing.assert_array_equal(
            full.toggles[net], monitor.toggles[net], err_msg=net.name
        )


def test_checkpoint_is_engine_portable():
    """A checkpoint taken under bitslice resumes under the numpy engine
    (and vice versa) with identical counts."""
    design = paper_example()
    batch, cycles, warmup, seed = 70, 40, 4, 23

    full = _toggles(design, batch, seed, cycles, warmup)

    donor = BatchSimulator(design, batch_size=batch, engine="bitslice")
    donor.run(BatchRandomStimulus(design, batch, seed=seed), cycles,
              monitors=[BatchToggleMonitor()], warmup=warmup,
              checkpoint_every=13)
    checkpoint = donor.last_checkpoint

    replay = BatchRandomStimulus(design, batch, seed=seed)
    for cycle in range(checkpoint.cycle):
        replay.values(cycle)
    other = BatchSimulator(design, batch_size=batch, engine="python")
    resumed = other.run(replay, cycles, warmup=warmup, resume_from=checkpoint)
    for net in full.toggles:
        np.testing.assert_array_equal(
            full.toggles[net], resumed[0].toggles[net], err_msg=net.name
        )


@pytest.mark.parametrize("engine", ["python", "bitslice"])
@pytest.mark.parametrize("lanes", [1, 4])
def test_stimulus_of_another_lane_count_is_rejected(engine, lanes):
    """A stimulus column must hold one value per lane: a 1-lane column
    broadcast over 8 lanes would repeat one replication in every lane
    and report a zero-width interval."""
    design = design1()
    sim = BatchSimulator(design, batch_size=8, engine=engine)
    shapes = rf"values of shape \({lanes},\), not \(8,\)"
    with pytest.raises(SimulationError, match=rf"input '\w+' {shapes}"):
        sim.run(BatchRandomStimulus(design, lanes, seed=1), 200,
                monitors=[BatchToggleMonitor()])


@pytest.mark.parametrize("engine", ["python", "bitslice"])
@pytest.mark.parametrize("batch", [0, -1])
def test_batch_size_below_one_is_rejected(engine, batch):
    with pytest.raises(SimulationError, match="batch_size must be >= 1"):
        BatchSimulator(design1(), batch_size=batch, engine=engine)


# ----------------------------------------------------------------------
# Monitor flavours: probes, generic monitors
# ----------------------------------------------------------------------
def test_batch_probe_matches_python_engine():
    from repro.boolean.expr import var
    from repro.sim.batch import BatchProbe

    design = design1()
    counts = {}
    for engine in ("python", "bitslice"):
        probe = BatchProbe("en", var("EN"))
        BatchSimulator(design, batch_size=11, engine=engine).run(
            BatchRandomStimulus(design, 11, seed=4), 80,
            monitors=[probe], warmup=5,
        )
        counts[engine] = (probe.true_counts.copy(), probe.cycles)
    np.testing.assert_array_equal(counts["python"][0], counts["bitslice"][0])
    assert counts["python"][1] == counts["bitslice"][1]


def test_generic_monitor_sees_lane_values():
    """Monitors that are neither BatchToggleMonitor nor BatchProbe get
    the classic observe(cycle, values) callback with lane arrays."""

    class RecordingMonitor:
        def __init__(self, net):
            self.net = net
            self.seen = []

        def begin(self, design, batch_size):
            pass

        def observe(self, cycle, values):
            self.seen.append(values[self.net].copy())

        def finish(self):
            pass

    design = design1()
    net = design.net("X0")
    recorders = {}
    for engine in ("python", "bitslice"):
        monitor = RecordingMonitor(net)
        BatchSimulator(design, batch_size=9, engine=engine).run(
            BatchRandomStimulus(design, 9, seed=2), 25,
            monitors=[monitor], warmup=2,
        )
        recorders[engine] = monitor.seen
    assert len(recorders["python"]) == len(recorders["bitslice"])
    for a, b in zip(recorders["python"], recorders["bitslice"]):
        np.testing.assert_array_equal(a, b)


# ----------------------------------------------------------------------
# Program cache
# ----------------------------------------------------------------------
def test_bitslice_cache_hits_on_identical_structure():
    cache = bitslice_cache()
    cache.clear()
    BitsliceBatchKernel(design1(), batch_size=4)
    misses_after_first = cache.misses
    BitsliceBatchKernel(design1(), batch_size=4)
    assert cache.misses == misses_after_first
    assert cache.hits >= 1
    assert len(cache) >= 1
    stats = cache.stats()
    assert stats["hits"] == cache.hits


def test_compile_bitslice_source_is_recorded():
    program = compile_bitslice(design1())
    assert "def _bs_step(v, s, pi, LM, hlp):" in program.step_source
    assert "def _bs_commit(v, s, LM):" in program.commit_source
    assert program.n_planes == sum(net.width for net in design1().nets)
