"""Process-pool plumbing shared by every parallel entry point.

:class:`WorkerPool` wraps :class:`concurrent.futures.ProcessPoolExecutor`
with the three behaviours the rest of :mod:`repro.parallel` relies on:

* **Determinism** — :meth:`WorkerPool.map` returns results in payload
  order regardless of completion order, so callers merge them exactly as
  a serial loop would.
* **Graceful degradation** — any pool-infrastructure failure (a worker
  crash, a pickling problem, fork being unavailable) permanently drops
  the pool to inline execution; the reason is recorded and surfaced as
  ``fallback_reason`` in the caller's result, mirroring the
  compiled-engine degradation of :func:`repro.sim.engine.make_simulator`.
  Task-level :class:`~repro.errors.ReproError`\\ s are *not* pool
  failures: they propagate unchanged, as they would on any backend.
* **Accounting** — per-task busy seconds and per-map wall seconds feed
  the :class:`ParallelReport` worker-utilization numbers (a sharded
  run's ``report``) and the ``pool.*`` metrics.

``workers`` semantics everywhere in the library: ``1`` means serial
(no pool), ``0`` means *auto* (one worker per available CPU), ``n > 1``
means a pool of exactly ``n`` processes. The ``REPRO_WORKERS``
environment variable supplies the default where a config leaves it
unset.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro import obs
from repro.errors import ReproError


def available_cpus() -> int:
    """CPUs this process may use (affinity-aware where supported)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def default_workers() -> int:
    """Default worker count: the ``REPRO_WORKERS`` env var, else 1 (serial).

    ``REPRO_WORKERS=auto`` resolves to the machine's CPU count; CI uses
    ``REPRO_WORKERS=2`` to run whole suites under the pool.
    """
    raw = os.environ.get("REPRO_WORKERS", "").strip().lower()
    if not raw:
        return 1
    if raw == "auto":
        return 0
    try:
        value = int(raw)
    except ValueError:
        return 1
    return value if value >= 0 else 1


def resolve_workers(workers: int) -> int:
    """Map the ``workers`` knob to a concrete process count (``0`` = auto)."""
    if workers == 0:
        return available_cpus()
    if workers < 0:
        raise ReproError(f"workers must be >= 0, got {workers}")
    return workers


@dataclass
class ParallelReport:
    """Utilization record of one parallel execution."""

    workers: int
    tasks: int = 0
    busy_seconds: float = 0.0
    wall_seconds: float = 0.0
    fallback_reason: Optional[str] = None
    task_seconds: List[float] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        """Busy fraction of the pool: Σ task time / (workers × wall time)."""
        denominator = self.workers * self.wall_seconds
        if denominator <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds / denominator)

    def to_dict(self) -> dict:
        payload = {
            "workers": self.workers,
            "tasks": self.tasks,
            "busy_seconds": self.busy_seconds,
            "wall_seconds": self.wall_seconds,
            "utilization": self.utilization,
        }
        if self.fallback_reason is not None:
            payload["fallback_reason"] = self.fallback_reason
        return payload


def _timed_call(args):
    """Module-level worker shim: run ``fn(payload)`` and time it.

    When the parent had observability enabled at dispatch time, ``args``
    carries a capture flag and a track label: the task then runs under a
    fresh per-task recorder whose finished spans and metric snapshot ride
    back with the result, for the parent to merge in payload order. The
    same shim runs on the inline path, so serial and pooled executions
    produce structurally identical traces.
    """
    fn, payload = args[0], args[1]
    capture = args[2] if len(args) > 2 else False
    if not capture:
        start = time.perf_counter()
        value = fn(payload)
        return value, time.perf_counter() - start, None, None
    track = args[3] if len(args) > 3 else obs.MAIN_TRACK
    recorder = obs.Recorder(track=track)
    with obs.use(recorder):
        with obs.span("pool.task", "pool", track=track):
            start = time.perf_counter()
            value = fn(payload)
            seconds = time.perf_counter() - start
    return value, seconds, recorder.trace_payload(), recorder.metrics


class WorkerPool:
    """A lazily created, degradation-aware process pool.

    The executor is created on first :meth:`map` call and reused until
    :meth:`close`. After any
    infrastructure failure the pool is permanently degraded: every
    subsequent map runs inline, and :attr:`fallback_reason` records why.
    """

    def __init__(self, workers: int) -> None:
        self.workers = resolve_workers(workers)
        self.fallback_reason: Optional[str] = None
        self.tasks = 0
        self.busy_seconds = 0.0
        self.wall_seconds = 0.0
        self.task_seconds: List[float] = []
        self._executor = None

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True while tasks are actually dispatched to worker processes."""
        return self.workers > 1 and self.fallback_reason is None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the executor down; a failing shutdown is recorded, not lost.

        A teardown error (e.g. a poisoned worker wedging the executor)
        lands in :attr:`fallback_reason` — and from there in
        ``PowerInterval.fallback_reason`` or
        ``StyleComparison.fallback_reason`` — and bumps the
        ``pool.teardown_errors`` counter, instead of being silently
        swallowed.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception as exc:
            reason = (
                f"worker pool shutdown failed ({type(exc).__name__}: {exc})"
            )
            if self.fallback_reason is None:
                self.fallback_reason = reason
            obs.counter("pool.teardown_errors").inc()

    def __del__(self) -> None:  # belt and braces for exceptional exits
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    # ------------------------------------------------------------------
    def _pool_map(self, fn: Callable, payloads: Sequence) -> List:
        """One round through the executor; raises on infrastructure faults."""
        from concurrent.futures import ProcessPoolExecutor
        import multiprocessing

        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        futures = [
            self._executor.submit(_timed_call, task) for task in self._tasks_of(fn, payloads)
        ]
        return [future.result() for future in futures]

    def _inline_map(self, fn: Callable, payloads: Sequence) -> List:
        return [_timed_call(task) for task in self._tasks_of(fn, payloads)]

    def _tasks_of(self, fn: Callable, payloads: Sequence) -> List[tuple]:
        if not obs.enabled():
            return [(fn, payload) for payload in payloads]
        base = self.tasks
        return [
            (fn, payload, True, f"task-{base + index}")
            for index, payload in enumerate(payloads)
        ]

    def map(self, fn: Callable, payloads: Sequence) -> List:
        """Run ``fn`` over ``payloads``; results come back in payload order.

        ``fn`` must be a module-level function and every payload/result
        picklable. Pool-infrastructure failures degrade this pool to
        inline execution for the rest of its life;
        :class:`~repro.errors.ReproError` raised by a task propagates.
        """
        recorder = obs.current()
        with recorder.span(
            "pool.map", "pool", tasks=len(payloads), workers=self.workers
        ) as map_span:
            start = time.perf_counter()
            if not self.active or len(payloads) <= 1:
                mode = "inline"
                outcomes = self._inline_map(fn, payloads)
            else:
                mode = "pool"
                try:
                    outcomes = self._pool_map(fn, payloads)
                except ReproError:
                    raise
                except Exception as exc:  # infrastructure failure: degrade
                    self.fallback_reason = (
                        f"worker pool failed ({type(exc).__name__}: {exc}); "
                        f"degraded to serial execution"
                    )
                    recorder.counter("pool.degradations").inc()
                    self.close()
                    mode = "inline"
                    outcomes = self._inline_map(fn, payloads)
            wall = time.perf_counter() - start
            map_span.set(mode=mode)
            self.wall_seconds += wall
            values = []
            # Outcomes arrive in payload order, so adopting each task's
            # spans here yields a deterministic merged tree no matter
            # which worker finished first.
            for value, seconds, trace_payload, task_metrics in outcomes:
                values.append(value)
                self.tasks += 1
                self.busy_seconds += seconds
                self.task_seconds.append(seconds)
                recorder.absorb(trace_payload, task_metrics)
                recorder.counter("pool.tasks", mode=mode).inc()
                recorder.histogram("pool.task_seconds").observe(seconds)
            recorder.counter("pool.maps").inc()
            recorder.gauge("pool.workers").set(self.workers)
            recorder.gauge("pool.busy_seconds_total").set(self.busy_seconds)
            recorder.gauge("pool.wall_seconds_total").set(self.wall_seconds)
            if self.workers and self.wall_seconds:
                recorder.gauge("pool.utilization").set(
                    min(1.0, self.busy_seconds / (self.workers * self.wall_seconds))
                )
        return values

    # ------------------------------------------------------------------
    def report(self) -> ParallelReport:
        return ParallelReport(
            workers=self.workers,
            tasks=self.tasks,
            busy_seconds=self.busy_seconds,
            wall_seconds=self.wall_seconds,
            fallback_reason=self.fallback_reason,
            task_seconds=list(self.task_seconds),
        )
