"""Parallel execution layer performance (ISSUE 3 acceptance criteria).

Measures the sharded batch engine on ``soc_datapath`` and
``random_datapath`` at workers = 1 / 2 / 4, recording wall time,
speedup, per-task timings and worker utilization — and asserting first
that every worker count produced *bit-identical* statistics (speed means
nothing if the numbers drift).

A worker packs the shards it owns into one bitslice pass, and a 64-lane
word costs little more than an 8-lane one, so small shards give the
pool no work worth splitting. The run is therefore 4 shards of one full
64-lane word each: at workers=1 one pass steps four words, at workers=4
each worker steps one.

The >= 2x speedup criterion at workers=4 is asserted only when the
machine actually has >= 4 CPUs; on smaller runners the measurement is
still taken and recorded honestly (with the CPU count), but a speedup
assertion would be physically meaningless there and is skipped.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.designs import random_datapath, soc_datapath
from repro.parallel import available_cpus, run_batch_sharded

BATCH = 256
LANES_PER_SHARD = 64  # one full bitslice word per shard: 4 shards
CYCLES = 400
WORKER_POINTS = (1, 2, 4)
SPEEDUP_TARGET = 2.0
SPEEDUP_AT = 4  # workers level the acceptance criterion applies to


def _measure(design, workers):
    start = time.perf_counter()
    run = run_batch_sharded(
        design,
        BATCH,
        CYCLES,
        warmup=16,
        seed=7,
        workers=workers,
        max_lanes_per_shard=LANES_PER_SHARD,
        engine="bitslice",
    )
    return run, time.perf_counter() - start


def _bench(design, name, record):
    runs = {}
    for workers in WORKER_POINTS:
        runs[workers], elapsed = _measure(design, workers)
        runs[workers].elapsed = elapsed

    # Bit-exactness across worker counts comes first.
    reference = runs[1].stats
    for workers in WORKER_POINTS[1:]:
        stats = runs[workers].stats
        for net in reference.toggles:
            assert np.array_equal(reference.toggles[net], stats.toggles[net]), (
                f"{name}: workers={workers} diverged on {net}"
            )

    serial_s = runs[1].elapsed
    lines = [
        f"Sharded bitslice batch run, {name}: {BATCH} lanes x {CYCLES} cycles, "
        f"{len(runs[1].plan)} shards ({available_cpus()} CPUs available)",
        f"{'workers':>8} {'wall[s]':>9} {'speedup':>8} {'util':>6}  per-task[s]",
    ]
    for workers in WORKER_POINTS:
        run = runs[workers]
        task_s = " ".join(f"{s:5.2f}" for s in run.report.task_seconds)
        lines.append(
            f"{workers:>8} {run.elapsed:>9.3f} {serial_s / run.elapsed:>7.2f}x "
            f"{run.report.utilization:>6.0%}  {task_s}"
        )
    record(f"perf_parallel_{name}", "\n".join(lines))
    return serial_s / runs[SPEEDUP_AT].elapsed


def test_parallel_speedup_soc(record):
    speedup = _bench(soc_datapath(), "soc", record)
    if available_cpus() < SPEEDUP_AT:
        pytest.skip(
            f"only {available_cpus()} CPU(s): a >= {SPEEDUP_TARGET}x speedup at "
            f"workers={SPEEDUP_AT} is not physically measurable here "
            f"(results recorded)"
        )
    assert speedup >= SPEEDUP_TARGET, (
        f"workers={SPEEDUP_AT} only {speedup:.2f}x faster on soc"
    )


def test_parallel_speedup_random_dp(record):
    speedup = _bench(random_datapath(seed=0, layers=4, modules_per_layer=4), "random_dp", record)
    if available_cpus() < SPEEDUP_AT:
        pytest.skip(
            f"only {available_cpus()} CPU(s): speedup assertion skipped "
            f"(results recorded)"
        )
    assert speedup >= SPEEDUP_TARGET


def test_parallel_overhead_bounded(record):
    """Even where parallelism cannot win (1 CPU), the pool must not
    catastrophically regress: pooled wall time stays within 8x serial
    (pickling + fork overhead on a tiny run), and accounting is sane."""
    design = soc_datapath()
    run1, serial_s = _measure(design, 1)
    run2, pooled_s = _measure(design, 2)
    assert run2.report.tasks == min(2, len(run2.plan))  # one task per group
    assert run2.report.wall_seconds > 0
    assert pooled_s < 8 * serial_s + 1.0
    record(
        "perf_parallel_overhead",
        f"soc pool overhead check: serial {serial_s:.3f}s, "
        f"workers=2 {pooled_s:.3f}s on {available_cpus()} CPU(s)",
    )
