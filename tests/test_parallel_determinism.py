"""Serial/parallel bit-exactness of the repro.parallel execution layer.

The contract under test: for any shipped design, running with
``workers=1``, ``workers=2`` or ``workers=4`` produces *identical*
results — toggle rates, probe probabilities, confidence intervals,
``IsolationResult.isolated_names`` / ``power_reduction``, candidate
rankings and style tables. Not statistically close: bit-exact.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.boolean.expr import var
from repro.core.explore import rank_candidates
from repro.core.report import compare_styles
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
from repro.opt import IsolationConfig, isolate_design
from repro.parallel import run_batch_sharded
from repro.power.estimator import estimate_power_ci
from repro.runconfig import RunConfig
from repro.sim.batch import (
    BatchProbe,
    BatchRandomStimulus,
    BatchSimulator,
    BatchToggleMonitor,
    cross_lane_ci,
)
from repro.sim.stimulus import random_stimulus

#: Every shipped design generator (ISSUE: sharding must be bit-exact on all).
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

CYCLES = 60
BATCH = 8


def _sharded(design, workers, **kwargs):
    return run_batch_sharded(
        design, BATCH, CYCLES, warmup=4, seed=11, workers=workers, **kwargs
    )


@pytest.mark.parametrize(
    "maker", SHIPPED_DESIGNS, ids=lambda m: getattr(m, "__name__", "random_dp")
)
@pytest.mark.parametrize("workers", [2, 4])
def test_sharded_batch_bit_exact_across_workers(maker, workers):
    design = maker()
    serial = _sharded(design, 1, max_lanes_per_shard=2)
    pooled = _sharded(design, workers, max_lanes_per_shard=2)
    assert serial.plan == pooled.plan
    assert serial.stats.batch_size == pooled.stats.batch_size == BATCH
    for name in serial.stats.toggles:
        assert np.array_equal(serial.stats.toggles[name], pooled.stats.toggles[name])
        assert np.array_equal(
            serial.stats.per_lane_rates(name), pooled.stats.per_lane_rates(name)
        )
        assert serial.stats.toggle_rate_ci(name) == pooled.stats.toggle_rate_ci(name)


def test_sharded_probes_bit_exact_across_workers():
    design = design1()
    probes = {"en": var("EN")}
    serial = _sharded(design, 1, probes=probes, max_lanes_per_shard=2)
    pooled = _sharded(design, 4, probes=probes, max_lanes_per_shard=2)
    assert np.array_equal(
        serial.stats.probe_true["en"], pooled.stats.probe_true["en"]
    )
    assert serial.stats.probe_probability("en") == pooled.stats.probe_probability("en")
    assert serial.stats.probe_probability_ci("en") == pooled.stats.probe_probability_ci(
        "en"
    )


def test_shard_plan_independent_of_workers():
    # Workers only schedule; the plan is a function of (seed, batch, shards).
    a = _sharded(design1(), 1)
    b = _sharded(design1(), 3)
    assert a.plan == b.plan
    assert {s.seed for s in a.plan} == {s.seed for s in b.plan}


def test_sharded_matches_unsharded_single_shard():
    # One shard with the full batch == a plain BatchSimulator run with
    # the same derived seed: sharding adds nothing but the seed hop.
    design = design2()
    run = run_batch_sharded(design, BATCH, CYCLES, warmup=4, seed=5, n_shards=1)
    monitor = BatchToggleMonitor()
    stim = BatchRandomStimulus(design, batch_size=BATCH, seed=run.plan[0].seed)
    BatchSimulator(design, batch_size=BATCH).run(
        stim, CYCLES, monitors=[monitor], warmup=4
    )
    for net, counts in monitor.toggles.items():
        assert np.array_equal(run.stats.toggles[net.name], counts)


# ----------------------------------------------------------------------
# Algorithm 1 / explorer / style table: scoring parallelism
# ----------------------------------------------------------------------
def _iso(design, workers, style="auto"):
    return isolate_design(
        design,
        lambda: random_stimulus(design, seed=9),
        IsolationConfig(style=style, cycles=150, warmup=8, workers=workers),
    )


@pytest.mark.parametrize("maker", [design1, design2, alu_control_dominated])
def test_isolate_design_bit_exact_across_workers(maker):
    design = maker()
    serial = _iso(design, 1)
    for workers in (2, 4):
        pooled = _iso(design, workers)
        assert pooled.isolated_names == serial.isolated_names
        assert pooled.power_reduction == serial.power_reduction
        assert pooled.final.area == serial.final.area
        serial_scores = [
            (s.candidate.name, s.savings.style, s.h, s.savings.net_mw)
            for it in serial.iterations
            for s in it.scores.get("isolation", [])
        ]
        pooled_scores = [
            (s.candidate.name, s.savings.style, s.h, s.savings.net_mw)
            for it in pooled.iterations
            for s in it.scores.get("isolation", [])
        ]
        assert pooled_scores == serial_scores


def test_isolate_design_transforms_live_design_under_pool():
    # Scored records must re-bind to the parent's candidates: the
    # transformed design is derived from the caller's design object.
    design = design1()
    result = _iso(design, 2, style="and")
    assert result.original is design
    assert result.design.name.startswith(design.name)
    for inst in [t.instance for t in result.transforms]:
        assert inst.candidate in result.design.cells


def test_rank_candidates_bit_exact_across_workers():
    design = soc_datapath()
    ranked = {}
    for workers in (1, 2):
        ranked[workers] = rank_candidates(
            design,
            random_stimulus(design, seed=3),
            style="and",
            run=RunConfig(cycles=150, workers=workers),
        )
    assert [r.to_dict() for r in ranked[1]] == [r.to_dict() for r in ranked[2]]


def test_compare_styles_bit_exact_across_workers():
    design = design2()
    tables = {}
    for workers in (1, 3):
        tables[workers] = compare_styles(
            design,
            lambda: random_stimulus(design, seed=5),
            IsolationConfig(cycles=120, warmup=8, workers=workers),
        )
    for a, b in zip(tables[1].rows, tables[3].rows):
        assert (a.label, a.power_mw, a.area, a.slack) == (
            b.label,
            b.power_mw,
            b.area,
            b.slack,
        )
        assert a.power_reduction == b.power_reduction
    for style in tables[1].results:
        assert (
            tables[1].results[style].isolated_names
            == tables[3].results[style].isolated_names
        )
        assert tables[3].results[style].original is design


def test_estimate_power_ci_bit_exact_across_workers():
    design = fir_datapath()
    a = estimate_power_ci(design, batch_size=BATCH, run=RunConfig(cycles=80, workers=1))
    b = estimate_power_ci(design, batch_size=BATCH, run=RunConfig(cycles=80, workers=2))
    assert a.mean_mw == b.mean_mw
    assert a.half_width_mw == b.half_width_mw
    assert np.array_equal(a.per_lane_mw, b.per_lane_mw)


# ----------------------------------------------------------------------
# Checkpoint / resume under sharding
# ----------------------------------------------------------------------
def test_shard_checkpoint_resume_matches_uninterrupted():
    """A shard killed mid-run and resumed reproduces the full-run stats.

    The stimulus is positioned by replaying a fresh stream up to the
    checkpointed step (BatchRandomStimulus advances once per new cycle
    value), so the resumed half observes exactly the vectors the
    uninterrupted run would have.
    """
    from repro.parallel import plan_shards, shard_stats_from_monitors

    design = design1()
    spec = plan_shards(BATCH, seed=11, n_shards=2)[1]
    warmup, cycles, every = 4, CYCLES, 10

    # Uninterrupted reference run of this one shard.
    ref_monitor = BatchToggleMonitor()
    ref_sim = BatchSimulator(design, batch_size=spec.lanes)
    ref_sim.run(
        BatchRandomStimulus(design, batch_size=spec.lanes, seed=spec.seed),
        cycles,
        monitors=[ref_monitor],
        warmup=warmup,
    )
    reference = shard_stats_from_monitors(spec, [ref_monitor])

    # Interrupted run: checkpoint every 10 steps, "crash", resume fresh.
    crash_sim = BatchSimulator(design, batch_size=spec.lanes)
    crash_sim.run(
        BatchRandomStimulus(design, batch_size=spec.lanes, seed=spec.seed),
        cycles,
        monitors=[BatchToggleMonitor()],
        warmup=warmup,
        checkpoint_every=every,
    )
    checkpoint = crash_sim.last_checkpoint
    assert checkpoint is not None
    assert checkpoint.step_index % every == 0
    assert checkpoint.step_index < warmup + cycles  # genuinely mid-run state

    resumed_sim = BatchSimulator(design, batch_size=spec.lanes)
    replay = BatchRandomStimulus(design, batch_size=spec.lanes, seed=spec.seed)
    for cycle in range(checkpoint.cycle):
        replay.values(cycle)
    monitors = resumed_sim.run(
        replay, cycles, warmup=warmup, resume_from=checkpoint
    )
    resumed = shard_stats_from_monitors(spec, monitors)

    assert resumed.cycles == reference.cycles
    for name, counts in reference.toggle_counts.items():
        assert np.array_equal(resumed.toggle_counts[name], counts)


def test_run_batch_sharded_accepts_checkpoint_every():
    # checkpoint_every threads through the sharded path without
    # perturbing the statistics.
    design = design1()
    plain = _sharded(design, 1)
    checked = _sharded(design, 2, checkpoint_every=7)
    for name in plain.stats.toggles:
        assert np.array_equal(plain.stats.toggles[name], checked.stats.toggles[name])


# ----------------------------------------------------------------------
# Regression: degenerate CI at batch_size == 1 (satellite 3)
# ----------------------------------------------------------------------
class TestSingleLaneCI:
    def test_cross_lane_ci_single_sample(self):
        mean, half = cross_lane_ci(np.array([0.25]))
        assert mean == 0.25
        assert math.isinf(half)  # honest "no interval", not 0.0 or NaN

    def test_toggle_rate_ci_batch_one(self):
        design = design1()
        monitor = BatchToggleMonitor()
        BatchSimulator(design, batch_size=1).run(
            BatchRandomStimulus(design, batch_size=1, seed=2),
            50,
            monitors=[monitor],
            warmup=2,
        )
        for net in monitor.toggles:
            mean, half = monitor.toggle_rate_ci(net)
            assert not math.isnan(mean)
            assert math.isinf(half)

    def test_probe_probability_ci_batch_one(self):
        design = design1()
        probe = BatchProbe("en", var("EN"))
        BatchSimulator(design, batch_size=1).run(
            BatchRandomStimulus(design, batch_size=1, seed=2),
            50,
            monitors=[probe],
            warmup=2,
        )
        mean, half = probe.probability_ci()
        assert 0.0 <= mean <= 1.0 and not math.isnan(mean)
        assert math.isinf(half)

    def test_estimate_power_ci_batch_one(self):
        interval = estimate_power_ci(
            design1(), batch_size=1, run=RunConfig(cycles=40)
        )
        assert interval.mean_mw > 0 and not math.isnan(interval.mean_mw)
        assert math.isinf(interval.half_width_mw)

    def test_multi_lane_ci_still_finite(self):
        mean, half = cross_lane_ci(np.array([0.2, 0.3, 0.4]))
        assert mean == pytest.approx(0.3)
        assert 0.0 < half < 1.0
