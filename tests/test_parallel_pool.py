"""WorkerPool semantics: degradation, error propagation, accounting.

The acceptance-critical behaviour: a pool crash mid-run degrades to
serial execution, the run still completes with correct results, and the
reason is recorded (``ParallelReport.fallback_reason``, and from there
``PowerInterval.fallback_reason`` / ``StyleComparison.fallback_reason``)
— mirroring the compiled-engine degradation of ``make_simulator``.
"""

from __future__ import annotations

import argparse
import dataclasses
import multiprocessing
import os

import pytest

from repro import obs
from repro.core.explore import rank_candidates
from repro.core.report import compare_styles, format_comparison_table
from repro.designs import design1
from repro.errors import ReproError
from repro.opt import IsolationConfig, optimize
from repro.parallel import WorkerPool, available_cpus, default_workers, resolve_workers
from repro.power.estimator import estimate_power_ci
from repro.runconfig import RunConfig
from repro.sim.stimulus import random_stimulus


# Module-level worker functions (pool workers must be picklable).
def _double(x):
    return 2 * x


def _crash_in_child(x):
    # Kill only the *worker* process; when the degraded pool reruns the
    # task inline (in the parent), it succeeds.
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return 2 * x


def _raise_repro_error(x):
    raise ReproError(f"task {x} is broken")


class TestWorkersResolution:
    def test_one_means_serial(self):
        pool = WorkerPool(1)
        assert pool.workers == 1 and not pool.active

    def test_zero_means_auto(self):
        assert resolve_workers(0) == available_cpus() >= 1
        assert WorkerPool(0).workers == available_cpus()

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            resolve_workers(-1)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert default_workers() == 0
        monkeypatch.setenv("REPRO_WORKERS", "nonsense")
        assert default_workers() == 1

    def test_configs_pick_up_env_default(self, monkeypatch):
        from repro.runconfig import RunConfig

        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert RunConfig().workers == 2
        assert IsolationConfig().workers == 2
        monkeypatch.delenv("REPRO_WORKERS")
        assert RunConfig().workers == 1


class TestPoolExecution:
    def test_map_preserves_payload_order(self):
        with WorkerPool(2) as pool:
            assert pool.map(_double, list(range(8))) == [2 * i for i in range(8)]
        assert pool.fallback_reason is None

    def test_single_payload_runs_inline(self):
        pool = WorkerPool(4)
        assert pool.map(_double, [21]) == [42]
        assert pool._executor is None  # no pool spun up for one task

    def test_crash_degrades_to_serial_with_reason(self):
        with WorkerPool(2) as pool:
            values = pool.map(_crash_in_child, [1, 2, 3])
        # Results are still correct (rerun inline after the crash) and
        # the degradation is recorded, permanently.
        assert values == [2, 4, 6]
        assert pool.fallback_reason is not None
        assert "degraded to serial" in pool.fallback_reason
        assert not pool.active
        assert pool.map(_double, [5, 6]) == [10, 12]  # inline from now on
        assert pool.report().fallback_reason == pool.fallback_reason

    def test_repro_error_propagates(self):
        # A task-level error is not an infrastructure failure: no
        # degradation, the error reaches the caller as on any backend.
        with WorkerPool(2) as pool:
            with pytest.raises(ReproError, match="is broken"):
                pool.map(_raise_repro_error, [1, 2])

    def test_accounting(self):
        with WorkerPool(2) as pool:
            pool.map(_double, [1, 2, 3, 4])
        report = pool.report()
        assert report.workers == 2
        assert report.tasks == 4
        assert len(report.task_seconds) == 4
        assert report.wall_seconds > 0
        assert 0.0 <= report.utilization <= 1.0
        payload = report.to_dict()
        assert payload["tasks"] == 4 and "fallback_reason" not in payload


def _rows(comparison):
    return [
        (r.label, r.power_mw, r.area, r.slack, r.power_reduction)
        for r in comparison.rows
    ]


class TestIsolateDesignDegradation:
    """The pools that remain (sharded batch, per-style compare) degrade
    to serial with identical results and a recorded reason."""

    CONFIG = IsolationConfig(style="and", cycles=120, warmup=8, workers=1)
    RUN = RunConfig(cycles=120, warmup=8, seed=4, engine="compiled", workers=1)

    def _compare(self, workers):
        design = design1()
        return compare_styles(
            design,
            lambda: random_stimulus(design, seed=4),
            dataclasses.replace(self.CONFIG, workers=workers),
        )

    def _interval(self, workers):
        return estimate_power_ci(
            design1(), batch_size=8, n_shards=2,
            run=dataclasses.replace(self.RUN, workers=workers),
        )

    def test_pool_failure_recorded_in_stage_timings(self, monkeypatch):
        serial_table, serial_ci = self._compare(1), self._interval(1)

        def broken_pool_map(self, fn, payloads):
            raise RuntimeError("injected pool fault")

        monkeypatch.setattr(WorkerPool, "_pool_map", broken_pool_map)
        table, interval = self._compare(2), self._interval(2)

        assert _rows(table) == _rows(serial_table)
        assert "injected pool fault" in table.fallback_reason
        assert format_comparison_table(table).splitlines()[-1] == (
            f"note: style runs degraded to serial ({table.fallback_reason})"
        )
        assert "injected pool fault" in interval.fallback_reason
        assert interval.to_dict()["fallback_reason"] == interval.fallback_reason
        assert (interval.mean_mw, interval.half_width_mw) == (
            serial_ci.mean_mw, serial_ci.half_width_mw,
        )

    def test_healthy_pool_reports_no_fallback(self):
        recorder = obs.Recorder()
        with obs.use(recorder):
            table, interval = self._compare(2), self._interval(2)
        maps = obs.find_spans(recorder.tracer.roots, "pool.map")
        assert [m.attrs["mode"] for m in maps] == ["pool", "pool"]
        assert len(obs.find_spans(maps, "pool.task")) == 3 + 2
        assert table.fallback_reason is None
        assert interval.fallback_reason is None
        assert interval.workers == 2
        assert _rows(table) == _rows(self._compare(1))


class TestInProcessScoring:
    """One optimize or rank call scores its candidates in-process, at any
    worker count: no pool is built and no pool span is recorded."""

    @pytest.fixture
    def spans(self, monkeypatch):
        def refuse(self, workers):
            raise AssertionError("WorkerPool constructed")

        monkeypatch.setattr(WorkerPool, "__init__", refuse)
        recorder = obs.Recorder()
        with obs.use(recorder):
            yield lambda name: obs.find_spans(recorder.tracer.roots, name)

    def test_optimize_builds_no_pool(self, spans):
        design = design1()
        optimize(
            design,
            lambda: random_stimulus(design, seed=4),
            ["isolation", "clock_gating"],
            IsolationConfig(style="auto", cycles=120, warmup=8, workers=2),
        )
        assert spans("score.candidate") and not spans("pool.map")

    def test_rank_candidates_builds_no_pool(self, spans):
        design = design1()
        ranked = rank_candidates(
            design,
            random_stimulus(design, seed=4),
            run=RunConfig(cycles=120, warmup=8, workers=2),
        )
        assert ranked
        assert spans("sim.run") and not spans("pool.map")


class TestCliWorkersFlag:
    def test_parse_workers_values(self):
        from repro.cli import _parse_workers

        assert _parse_workers("auto") == 0
        assert _parse_workers("4") == 4
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_workers("-2")
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_workers("two")

    def test_workers_flag_reaches_config(self):
        from repro.cli import _config_from, build_parser

        args = build_parser().parse_args(
            ["isolate", "--builtin", "design1", "--workers", "3"]
        )
        assert _config_from(args).workers == 3

    def test_workers_flag_defaults_to_env(self, monkeypatch):
        from repro.cli import _config_from, build_parser

        monkeypatch.setenv("REPRO_WORKERS", "2")
        args = build_parser().parse_args(["isolate", "--builtin", "design1"])
        assert _config_from(args).workers == 2


def test_invalid_workers_rejected_by_configs():
    from repro.errors import IsolationError
    from repro.runconfig import RunConfig

    with pytest.raises(ReproError):
        RunConfig(workers=-1)
    with pytest.raises(IsolationError):
        IsolationConfig(workers=-2)

class TestPoolTeardown:
    """close() must surface shutdown failures, not swallow them."""

    class _PoisonedExecutor:
        def shutdown(self, *args, **kwargs):
            raise OSError("wedged worker process")

    def test_poisoned_shutdown_recorded(self):
        from repro import obs

        recorder = obs.Recorder()
        pool = WorkerPool(2)
        pool._executor = self._PoisonedExecutor()
        with obs.use(recorder):
            pool.close()
        assert pool.fallback_reason is not None
        assert "wedged worker process" in pool.fallback_reason
        assert "OSError" in pool.fallback_reason
        assert pool.report().fallback_reason == pool.fallback_reason
        assert recorder.metrics.counter("pool.teardown_errors").value == 1.0

    def test_teardown_failure_does_not_mask_earlier_reason(self):
        pool = WorkerPool(2)
        pool.fallback_reason = "earlier degradation"
        pool._executor = self._PoisonedExecutor()
        pool.close()  # no recorder active: still must not raise or overwrite
        assert pool.fallback_reason == "earlier degradation"

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool._executor = self._PoisonedExecutor()
        pool.close()
        first = pool.fallback_reason
        pool.close()  # executor already detached: nothing to re-fail
        assert pool.fallback_reason == first

    def test_clean_close_records_nothing(self):
        with WorkerPool(2) as pool:
            pool.map(_double, [1, 2, 3])
        assert pool.fallback_reason is None
        assert pool._executor is None
