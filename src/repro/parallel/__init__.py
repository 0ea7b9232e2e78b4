"""Multi-worker execution layer: sharded simulation and per-style runs.

Two coarse axes of parallelism, both deterministic by construction:

* **Data parallelism** (:mod:`repro.parallel.shard`) — the Monte-Carlo
  batch engine's replications are split into shards with
  deterministically derived seeds, simulated across a process pool and
  merged by concatenating integer counters in shard-index order. The
  merged statistics are bit-exact regardless of worker count.
* **Style parallelism** — :func:`~repro.core.report.compare_styles`
  runs one whole :func:`~repro.opt.optimize` call per isolation style,
  one pool task each.

Everything finer stays in-process: one ``optimize`` or
``rank_candidates`` call scores its candidates serially, because each
score is microseconds of arithmetic that a pool would only delay.

The shared pool (:mod:`repro.parallel.pool`) degrades gracefully: any
infrastructure failure drops to inline execution with a recorded
``fallback_reason``, mirroring the compiled-engine degradation story.

Entry points thread a single ``workers`` knob through
:class:`~repro.runconfig.RunConfig`, ``IsolationConfig``, the
:class:`~repro.api.Session` facade and the CLI's ``--workers`` flag
(``0``/``auto`` = one worker per CPU; the ``REPRO_WORKERS`` env var sets
the default). See ``docs/parallelism.md`` for the worker model and the
determinism guarantees.
"""

from repro.parallel.pool import (
    ParallelReport,
    WorkerPool,
    available_cpus,
    default_workers,
    resolve_workers,
)
from repro.parallel.shard import (
    DEFAULT_MAX_LANES_PER_SHARD,
    MergedBatchStats,
    ShardSpec,
    ShardStats,
    ShardedRun,
    derive_shard_seed,
    merge_shard_stats,
    plan_shards,
    run_batch_sharded,
    run_shards,
    shard_stats_from_monitors,
)

__all__ = [
    "ParallelReport",
    "WorkerPool",
    "available_cpus",
    "default_workers",
    "resolve_workers",
    "DEFAULT_MAX_LANES_PER_SHARD",
    "MergedBatchStats",
    "ShardSpec",
    "ShardStats",
    "ShardedRun",
    "derive_shard_seed",
    "merge_shard_stats",
    "plan_shards",
    "run_batch_sharded",
    "run_shards",
    "shard_stats_from_monitors",
]
