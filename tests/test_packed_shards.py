"""Packed shard passes and block stimulus draws are exact.

A worker runs the shards it owns as one batch pass over their
concatenated lanes (:func:`repro.parallel.shard.run_shards`), and
:class:`~repro.sim.batch.BatchRandomStimulus` draws its doubles in
blocks of cycles. Neither may move a single counter: every shard's
slice of a packed run equals a plain run of that shard alone, and a
block-drawn stimulus yields the per-cycle draws' values.
"""

from __future__ import annotations

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
from repro.parallel import plan_shards, run_batch_sharded
from repro.parallel.shard import _group_plan
from repro.sim.batch import (
    BatchControlStream,
    BatchDataStream,
    BatchProbe,
    BatchRandomStimulus,
    BatchSimulator,
    BatchToggleMonitor,
)

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
DESIGN_IDS = [getattr(m, "__name__", "random_dp") for m in SHIPPED_DESIGNS]

CYCLES = 40
WARMUP = 3
#: A ragged plan: 13 lanes in shards of at most 4 (4 + 3 + 3 + 3).
LANES, MAX_LANES = 13, 4


def _alone(design, spec, engine="python", probes=None, nets=None, **stimulus_kwargs):
    """One shard run by itself: (toggle counts by name, probe counts by name)."""
    restrict = [design.net(name) for name in nets] if nets is not None else None
    monitors = [BatchToggleMonitor(restrict)] + [
        BatchProbe(name, expr) for name, expr in sorted((probes or {}).items())
    ]
    BatchSimulator(design, batch_size=spec.lanes, engine=engine).run(
        BatchRandomStimulus(
            design, batch_size=spec.lanes, seed=spec.seed, **stimulus_kwargs
        ),
        CYCLES,
        monitors=monitors,
        warmup=WARMUP,
    )
    toggles = {net.name: counts for net, counts in monitors[0].toggles.items()}
    probed = {probe.name: probe.true_counts for probe in monitors[1:]}
    return toggles, probed


def _assert_matches_alone(design, run, engine="python", probes=None, nets=None,
                          **stimulus_kwargs):
    lane0 = 0
    for spec in run.plan:
        toggles, probed = _alone(design, spec, engine, probes, nets, **stimulus_kwargs)
        lanes = slice(lane0, lane0 + spec.lanes)
        assert set(run.stats.toggles) == set(toggles)
        for name, counts in toggles.items():
            assert np.array_equal(run.stats.toggles[name][lanes], counts), (
                f"shard {spec.index} diverged on {name}"
            )
        for name, counts in probed.items():
            assert np.array_equal(run.stats.probe_true[name][lanes], counts)
        lane0 += spec.lanes
    assert lane0 == run.stats.batch_size


def _sharded(design, workers=1, **kwargs):
    return run_batch_sharded(
        design, LANES, CYCLES, warmup=WARMUP, seed=9, workers=workers,
        max_lanes_per_shard=MAX_LANES, **kwargs,
    )


# ----------------------------------------------------------------------
# Packed passes against per-shard runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ["python", "compiled", "bitslice"])
@pytest.mark.parametrize("maker", SHIPPED_DESIGNS, ids=DESIGN_IDS)
def test_packed_pass_equals_each_shard_alone(maker, engine):
    design = maker()
    run = _sharded(design, engine=engine)
    assert len(run.plan) == 4 and run.report.tasks == 1
    _assert_matches_alone(design, run, engine)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_groups_equal_each_shard_alone(workers):
    design = soc_datapath()
    run = _sharded(design, workers, engine="bitslice")
    assert run.report.tasks == min(workers, len(run.plan))
    assert len(run.report.task_seconds) == run.report.tasks
    _assert_matches_alone(design, run, "bitslice")


def test_probes_and_nets_thread_through():
    design = design1()
    probes = {"en": var("EN"), "idle": ~var("EN")}
    nets = [net.name for net in design.nets[:5]]
    run = _sharded(design, engine="bitslice", probes=probes, nets=nets)
    assert set(run.stats.toggles) == set(nets)
    assert set(run.stats.probe_true) == {"en", "idle"}
    _assert_matches_alone(design, run, "bitslice", probes, nets)


def test_shared_override_object_gives_each_shard_its_own_stream():
    design = design1()
    shared = BatchControlStream(0.2, 0.05)
    run = run_batch_sharded(
        design, 32, CYCLES, warmup=WARMUP, seed=4, engine="bitslice",
        stimulus_kwargs={"overrides": {"EN": shared}},
    )
    assert not hasattr(shared, "state")  # the caller's object stays unused
    lane0 = 0
    for spec in run.plan:
        toggles, _ = _alone(
            design, spec, "bitslice", overrides={"EN": BatchControlStream(0.2, 0.05)}
        )
        for name, counts in toggles.items():
            assert np.array_equal(
                run.stats.toggles[name][lane0 : lane0 + spec.lanes], counts
            )
        lane0 += spec.lanes


@pytest.mark.parametrize(
    "lanes,shards,groups",
    [(64, 8, 1), (64, 8, 2), (64, 8, 3), (13, 4, 2), (13, 4, 4), (5, 5, 3)],
)
def test_groups_are_contiguous_and_lane_balanced(lanes, shards, groups):
    plan = plan_shards(lanes, seed=1, n_shards=shards)
    cut = _group_plan(plan, groups)
    assert len(cut) == groups and all(cut)
    assert [spec for group in cut for spec in group] == list(plan)
    sizes = [sum(spec.lanes for spec in group) for group in cut]
    assert max(sizes) - min(sizes) <= max(spec.lanes for spec in plan)
    assert cut == _group_plan(plan, groups)


# ----------------------------------------------------------------------
# Block draws against per-cycle draws
# ----------------------------------------------------------------------
class _StepControl(BatchControlStream):
    """The per-cycle Markov step, written out: an oracle for block draws.

    Being a subclass, it also keeps its stimulus on per-cycle draws.
    """

    def next_values(self, rng):
        draws = rng.random(self.state.shape[0])
        ones = self.state.astype(bool)
        fall = ones & (draws < self._a)
        rise = ~ones & (draws < self._b)
        self.state = np.where(fall, 0, np.where(rise, 1, self.state)).astype(
            np.uint64
        )
        return self.state


class _StepData(BatchDataStream):
    """The per-cycle bit flips, written out bit by bit."""

    def next_values(self, rng):
        flip = rng.random((self.width, self.state.shape[0])) < self.density
        for bit in range(self.width):
            self.state ^= flip[bit].astype(np.uint64) << np.uint64(bit)
        return self.state


class _CountingRng:
    """Delegates to a ``Generator`` and counts its ``random`` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.random_calls = 0

    def random(self, *args, **kwargs):
        self.random_calls += 1
        return self.rng.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


STATS = {"control_probability": 0.3, "control_toggle_rate": 0.1,
         "data_toggle_density": 0.3}


def _pair(design, lanes, seed=3):
    """(block-drawn, per-cycle oracle) stimuli with the same seed and stats."""
    blocked = BatchRandomStimulus(design, lanes, seed=seed, **STATS)
    control = (STATS["control_probability"], STATS["control_toggle_rate"])
    oracle = {
        pi.name: (
            _StepControl(*control)
            if pi.net("Y").width == 1
            else _StepData(pi.net("Y").width, STATS["data_toggle_density"])
        )
        for pi in design.primary_inputs
    }
    per_cycle = BatchRandomStimulus(design, lanes, seed=seed, overrides=oracle)
    return blocked, per_cycle


@pytest.mark.parametrize("maker,lanes", [
    (design1, 1), (design1, 5), (design1, 8), (soc_datapath, 3), (fir_datapath, 8),
])
def test_block_draws_equal_per_cycle_draws(maker, lanes):
    # A stimulus does not know where a run ends, so runs of 1, C-1, C,
    # C+1 and 3C+5 cycles are the prefixes of one run of 3C+5 cycles.
    design = maker()
    blocked, per_cycle = _pair(design, lanes)
    block = blocked._block_cycles
    assert block > 1
    for cycle in range(3 * block + 5):
        a, b = blocked.values(cycle), per_cycle.values(cycle)
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), (cycle, name)
        if (cycle + 1) % block == 0:  # a block boundary: same rng state
            assert (
                blocked._rng.bit_generator.state
                == per_cycle._rng.bit_generator.state
            )


def test_user_stream_class_keeps_per_cycle_draws():
    _, per_cycle = _pair(design1(), 4)
    counter = per_cycle._rng = _CountingRng(per_cycle._rng)
    for cycle in range(10):
        per_cycle.values(cycle)
    assert counter.random_calls == 10 * len(per_cycle._streams)


def test_block_draws_call_the_generator_once_per_block():
    stimulus = BatchRandomStimulus(soc_datapath(), 8, seed=2)
    block = stimulus._block_cycles
    counter = stimulus._rng = _CountingRng(stimulus._rng)
    cycles = 3 * block + 5
    for cycle in range(cycles):
        stimulus.values(cycle)
        stimulus.values(cycle)  # a repeated cycle does not advance
    assert counter.random_calls == -(-cycles // block)


def test_shared_override_object_is_copied():
    # Two stimuli advanced in lockstep, as the shards of one packed pass
    # are, must not step one shared Markov state.
    design = design1()
    shared = BatchControlStream(0.2, 0.05)
    stimuli = [
        BatchRandomStimulus(design, 4, seed=seed, overrides={"EN": shared})
        for seed in (1, 2)
    ]
    fresh = [
        BatchRandomStimulus(
            design, 4, seed=seed, overrides={"EN": BatchControlStream(0.2, 0.05)}
        )
        for seed in (1, 2)
    ]
    for cycle in range(60):
        for stimulus, alone in zip(stimuli, fresh):
            assert np.array_equal(
                stimulus.values(cycle)["EN"], alone.values(cycle)["EN"]
            )
