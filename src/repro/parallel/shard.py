"""Sharded Monte-Carlo batch simulation (the data-parallel axis).

The batch engine's replications are i.i.d. by construction, which makes
them embarrassingly parallel: split the ``batch_size`` lanes into
**shards**, each with its own deterministically derived stimulus seed,
simulate them across a process pool, and merge the per-lane *count*
statistics afterwards. Because the merge concatenates integer counters
keyed by shard index (never averages floats), the merged statistics are
**bit-exact** regardless of worker count or completion order: running a
plan with ``workers=1``, ``workers=2`` or ``workers=8`` yields the same
arrays.

Two invariants make that guarantee hold:

* the shard plan depends only on ``(seed, batch_size, n_shards)`` —
  never on the worker count (workers only schedule shards);
* each shard's stimulus seed comes from :func:`derive_shard_seed`, a
  keyed hash of ``(seed, shard_index)``, so no two shards (or two base
  seeds) share a stimulus stream.

Each worker runs the shards it owns as **one packed batch pass**
(:func:`run_shards`): their stimuli are concatenated lane-wise and the
per-lane counters are split back by shard afterwards. Lanes are
independent, so packing moves no counter; it only fills a bitslice
word that one shard alone would leave mostly empty.

Typical use::

    run = run_batch_sharded(design, batch_size=32, cycles=500,
                            seed=7, workers=4,
                            probes={"en": var("EN")})
    mean, half = run.stats.toggle_rate_ci(design.net("X"))
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.netlist.design import Design
from repro.parallel.pool import ParallelReport, WorkerPool
from repro.sim.batch import (
    BatchProbe,
    BatchRandomStimulus,
    BatchSimulator,
    BatchToggleMonitor,
    cross_lane_ci,
)

#: Default maximum lanes per shard. It fixes the shard plan, and so the
#: per-shard seeds and every result, not the speed: a worker packs all
#: the shards it owns into one batch pass.
DEFAULT_MAX_LANES_PER_SHARD = 8


def derive_shard_seed(seed: int, shard_index: int) -> int:
    """Deterministic 63-bit stimulus seed for one shard of one run.

    A keyed blake2b hash of the ``(seed, shard_index)`` pair: distinct
    pairs map to distinct streams (collisions need ~2^31 pairs), the
    mapping is stable across processes and platforms, and nearby seeds
    or shard indices share no stream structure. Injectivity over
    practical domains is property-tested in
    ``tests/test_parallel_properties.py``.
    """
    if shard_index < 0:
        raise SimulationError(f"shard_index must be >= 0, got {shard_index}")
    message = f"repro-shard:{int(seed)}:{int(shard_index)}".encode("ascii")
    digest = hashlib.blake2b(message, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1  # 63 bits: numpy-friendly


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a sharded batch run: its lanes and stimulus seed."""

    index: int
    lanes: int
    seed: int


def plan_shards(
    batch_size: int,
    seed: int = 0,
    n_shards: Optional[int] = None,
    max_lanes_per_shard: int = DEFAULT_MAX_LANES_PER_SHARD,
) -> Tuple[ShardSpec, ...]:
    """Split ``batch_size`` lanes into a worker-count-independent plan.

    ``n_shards`` defaults to ``ceil(batch_size / max_lanes_per_shard)``;
    lane counts across shards differ by at most one. The plan is a pure
    function of ``(seed, batch_size, n_shards)`` so the same request
    shards identically no matter how many workers later execute it.
    """
    if batch_size < 1:
        raise SimulationError(f"batch_size must be >= 1, got {batch_size}")
    if max_lanes_per_shard < 1:
        raise SimulationError(
            f"max_lanes_per_shard must be >= 1, got {max_lanes_per_shard}"
        )
    if n_shards is None:
        n_shards = math.ceil(batch_size / max_lanes_per_shard)
    if not 1 <= n_shards <= batch_size:
        raise SimulationError(
            f"n_shards must be in [1, batch_size={batch_size}], got {n_shards}"
        )
    base, extra = divmod(batch_size, n_shards)
    specs = []
    for index in range(n_shards):
        lanes = base + (1 if index < extra else 0)
        specs.append(
            ShardSpec(index=index, lanes=lanes, seed=derive_shard_seed(seed, index))
        )
    return tuple(specs)


# ----------------------------------------------------------------------
# Per-shard statistics and their order-independent merge
# ----------------------------------------------------------------------
@dataclass
class ShardStats:
    """Raw per-lane counters of one executed shard.

    Everything is keyed by *name* (net / probe), holds integer counts
    (not rates), and is plain picklable data — the exchange format
    between worker processes and the merging parent. ``fallback_reason``
    records why the pass that ran this shard degraded from the requested
    batch engine, if it did.
    """

    shard_index: int
    lanes: int
    cycles: int
    toggle_counts: Dict[str, np.ndarray] = field(default_factory=dict)
    probe_true: Dict[str, np.ndarray] = field(default_factory=dict)
    probe_cycles: int = 0
    fallback_reason: Optional[str] = None


class MergedBatchStats:
    """Cross-shard statistics with the :class:`BatchToggleMonitor` API.

    Lanes are concatenated in shard-index order, so the merged arrays
    are independent of both the order shards finished in and the order
    they were merged in (see the property tests). Accepts nets or net
    names interchangeably.
    """

    def __init__(self, shards: Sequence[ShardStats]) -> None:
        ordered = sorted(shards, key=lambda s: s.shard_index)
        indices = [s.shard_index for s in ordered]
        if len(set(indices)) != len(indices):
            raise SimulationError(f"duplicate shard indices in merge: {indices}")
        if not ordered:
            raise SimulationError("cannot merge zero shards")
        cycle_counts = {s.cycles for s in ordered}
        if len(cycle_counts) != 1:
            raise SimulationError(
                f"shards observed different cycle counts: {sorted(cycle_counts)}"
            )
        key_sets = {frozenset(s.toggle_counts) for s in ordered}
        if len(key_sets) != 1:
            raise SimulationError("shards watched different net sets")
        self.shards: Tuple[ShardStats, ...] = tuple(ordered)
        self.cycles = ordered[0].cycles
        self.probe_cycles = ordered[0].probe_cycles
        self.batch_size = sum(s.lanes for s in ordered)
        self.toggles: Dict[str, np.ndarray] = {
            name: np.concatenate([s.toggle_counts[name] for s in ordered])
            for name in ordered[0].toggle_counts
        }
        self.probe_true: Dict[str, np.ndarray] = {
            name: np.concatenate([s.probe_true[name] for s in ordered])
            for name in ordered[0].probe_true
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _name(net: Union[str, object]) -> str:
        return net if isinstance(net, str) else net.name

    def per_lane_rates(self, net: Union[str, object]) -> np.ndarray:
        """Toggle rate of every replication, all shards concatenated."""
        counts = self.toggles[self._name(net)]
        if self.cycles <= 1:
            return np.zeros(self.batch_size)
        return counts.astype(np.float64) / (self.cycles - 1)

    def toggle_rate(self, net: Union[str, object]) -> float:
        return float(self.per_lane_rates(net).mean())

    def toggle_rate_ci(
        self, net: Union[str, object], z: float = 1.96
    ) -> Tuple[float, float]:
        return cross_lane_ci(self.per_lane_rates(net), z)

    # ------------------------------------------------------------------
    def probe_per_lane(self, name: str) -> np.ndarray:
        counts = self.probe_true[name]
        if self.probe_cycles == 0:
            return np.zeros(self.batch_size)
        return counts / self.probe_cycles

    def probe_probability(self, name: str) -> float:
        return float(self.probe_per_lane(name).mean())

    def probe_probability_ci(self, name: str, z: float = 1.96) -> Tuple[float, float]:
        return cross_lane_ci(self.probe_per_lane(name), z)


def merge_shard_stats(
    *groups: Union[ShardStats, MergedBatchStats, Iterable[ShardStats]],
) -> MergedBatchStats:
    """Merge shard statistics, order-independently.

    Accepts bare :class:`ShardStats`, previously merged
    :class:`MergedBatchStats` and iterables of either, in any order and
    grouping — the operation is associative and commutative because the
    result is canonicalised by shard index (property-tested).
    """
    flat: List[ShardStats] = []
    for group in groups:
        if isinstance(group, ShardStats):
            flat.append(group)
        elif isinstance(group, MergedBatchStats):
            flat.extend(group.shards)
        else:
            for item in group:
                if isinstance(item, MergedBatchStats):
                    flat.extend(item.shards)
                else:
                    flat.append(item)
    return MergedBatchStats(flat)


# ----------------------------------------------------------------------
# Shard execution
# ----------------------------------------------------------------------
class _PackedStimulus:
    """Shard stimuli side by side: lanes concatenated in ``specs`` order."""

    def __init__(self, parts: Sequence[BatchRandomStimulus]) -> None:
        self.parts = parts

    def values(self, cycle: int) -> Mapping[str, np.ndarray]:
        rows = [part.values(cycle) for part in self.parts]
        return {name: np.concatenate([row[name] for row in rows]) for name in rows[0]}


def run_shards(
    design: Design,
    specs: Sequence[ShardSpec],
    cycles: int,
    warmup: int = 0,
    engine: str = "python",
    probes: Optional[Mapping[str, object]] = None,
    stimulus_kwargs: Optional[Mapping[str, object]] = None,
    nets: Optional[Sequence[str]] = None,
) -> List[ShardStats]:
    """Execute shards as one packed batch pass; one :class:`ShardStats` each.

    One :class:`~repro.sim.batch.BatchSimulator` runs ``sum(spec.lanes)``
    lanes. Its stimulus is each shard's own
    :class:`~repro.sim.batch.BatchRandomStimulus` (seeded with
    ``spec.seed``), concatenated lane-wise in ``specs`` order, and each
    shard's counters are sliced back out of the monitors by lane range.
    Lanes are independent, so every shard's counters equal those of a
    run of that shard alone. Worker processes run this function; it is
    also directly usable for manual shard execution.
    """
    lanes = sum(spec.lanes for spec in specs)
    with obs.span(
        "shard.run",
        "sim",
        design=design.name,
        shards=len(specs),
        lanes=lanes,
        cycles=cycles,
    ):
        restrict = (
            [design.net(name) for name in nets] if nets is not None else None
        )
        monitor = BatchToggleMonitor(restrict)
        probe_monitors = [
            BatchProbe(name, expr) for name, expr in sorted((probes or {}).items())
        ]
        # stacklevel=3: attribute a bitslice->compiled degradation warning
        # to whoever invoked run_shards, not to this wrapper.
        simulator = BatchSimulator(
            design, batch_size=lanes, engine=engine, stacklevel=3
        )
        stimulus = _PackedStimulus([
            BatchRandomStimulus(
                design, batch_size=spec.lanes, seed=spec.seed,
                **dict(stimulus_kwargs or {}),
            )
            for spec in specs
        ])
        monitors = simulator.run(
            stimulus,
            cycles,
            monitors=[monitor] + probe_monitors,
            warmup=warmup,
        )
        results = []
        lane0 = 0
        for spec in specs:
            stats = shard_stats_from_monitors(spec, monitors, lane0)
            stats.fallback_reason = simulator.fallback_reason
            results.append(stats)
            lane0 += spec.lanes
        return results


def shard_stats_from_monitors(
    spec: ShardSpec, monitors: Sequence[object], lane0: int = 0
) -> ShardStats:
    """Picklable counters of one shard, from the live monitors of a run.

    The shard's lanes are ``lane0 .. lane0 + spec.lanes - 1`` of the
    monitors' batch.
    """
    lanes = slice(lane0, lane0 + spec.lanes)
    toggle_counts: Dict[str, np.ndarray] = {}
    probe_true: Dict[str, np.ndarray] = {}
    cycles = 0
    probe_cycles = 0
    for monitor in monitors:
        if isinstance(monitor, BatchToggleMonitor):
            cycles = monitor.cycles
            for net, counts in monitor.toggles.items():
                toggle_counts[net.name] = counts[lanes].copy()
        elif isinstance(monitor, BatchProbe):
            probe_cycles = monitor.cycles
            probe_true[monitor.name] = monitor.true_counts[lanes].copy()
    return ShardStats(
        shard_index=spec.index,
        lanes=spec.lanes,
        cycles=cycles,
        toggle_counts=toggle_counts,
        probe_true=probe_true,
        probe_cycles=probe_cycles,
    )


def _run_shards_payload(payload: dict) -> List[ShardStats]:
    """Module-level worker shim for :class:`~repro.parallel.pool.WorkerPool`."""
    return run_shards(
        payload["design"],
        payload["specs"],
        payload["cycles"],
        warmup=payload["warmup"],
        engine=payload["engine"],
        probes=payload["probes"],
        stimulus_kwargs=payload["stimulus_kwargs"],
        nets=payload["nets"],
    )


def _group_plan(
    plan: Sequence[ShardSpec], n_groups: int
) -> List[Tuple[ShardSpec, ...]]:
    """Cut ``plan`` into ``n_groups`` contiguous, lane-balanced groups.

    Each cut lands where the running lane count comes closest to its
    share of the total (the first such place on a tie), and no group is
    empty: a pure function of the plan and the group count.
    """
    before = list(accumulate((spec.lanes for spec in plan), initial=0))
    cuts = [0]
    for k in range(1, n_groups):
        target = before[-1] * k / n_groups
        candidates = range(cuts[-1] + 1, len(plan) - (n_groups - k) + 1)
        cuts.append(min(candidates, key=lambda i: abs(before[i] - target)))
    cuts.append(len(plan))
    return [tuple(plan[a:b]) for a, b in zip(cuts, cuts[1:])]


@dataclass
class ShardedRun:
    """Everything :func:`run_batch_sharded` produces.

    ``report.tasks`` counts the packed passes (one per worker's group
    of shards), and ``report.task_seconds`` holds their times.
    """

    stats: MergedBatchStats
    report: ParallelReport
    plan: Tuple[ShardSpec, ...]

    @property
    def fallback_reason(self) -> Optional[str]:
        """The distinct batch-engine degradations, then the pool's, joined
        by ``"; "``; ``None`` when nothing degraded."""
        reasons = [s.fallback_reason for s in self.stats.shards]
        reasons.append(self.report.fallback_reason)
        return "; ".join(dict.fromkeys(r for r in reasons if r)) or None


def run_batch_sharded(
    design: Design,
    batch_size: int,
    cycles: int,
    warmup: int = 0,
    seed: int = 0,
    workers: int = 1,
    n_shards: Optional[int] = None,
    max_lanes_per_shard: int = DEFAULT_MAX_LANES_PER_SHARD,
    engine: str = "python",
    probes: Optional[Mapping[str, object]] = None,
    stimulus_kwargs: Optional[Mapping[str, object]] = None,
    nets: Optional[Sequence[str]] = None,
    pool: Optional[WorkerPool] = None,
) -> ShardedRun:
    """Shard a batch Monte-Carlo run over a process pool and merge it.

    The result is bit-exact across worker counts: the shard plan and
    per-shard seeds depend only on ``(seed, batch_size, n_shards)``, and
    the merge concatenates integer counters in shard-index order. The
    plan is cut into ``min(workers, len(plan))`` contiguous groups, and
    each group runs as one packed pass (:func:`run_shards`) in one pool
    task. ``pool`` lets callers reuse a :class:`WorkerPool` across runs;
    pool failures degrade to in-process execution and are recorded in
    the returned report's ``fallback_reason``.
    """
    plan = plan_shards(
        batch_size,
        seed=seed,
        n_shards=n_shards,
        max_lanes_per_shard=max_lanes_per_shard,
    )
    own_pool = pool is None
    pool = pool if pool is not None else WorkerPool(workers)
    payloads = [
        {
            "design": design,
            "specs": group,
            "cycles": cycles,
            "warmup": warmup,
            "engine": engine,
            "probes": dict(probes or {}),
            "stimulus_kwargs": dict(stimulus_kwargs or {}),
            "nets": list(nets) if nets is not None else None,
        }
        for group in _group_plan(plan, min(pool.workers, len(plan)))
    ]
    try:
        group_results = pool.map(_run_shards_payload, payloads)
    finally:
        if own_pool:
            pool.close()
    return ShardedRun(
        stats=merge_shard_stats(*group_results),
        report=pool.report(),
        plan=plan,
    )
