"""Observability layer: spans, metrics, exporters, deterministic merging.

The load-bearing guarantees pinned here:

* an exported Chrome trace reloads to the *identical* span forest;
* a ``workers=2`` run produces the same candidate-scoring span sequence
  as the serial run, and repeated pooled runs the same structural shape
  (merge in task order, not completion order);
* the disabled facade allocates nothing and stays cheap enough for
  always-on call sites (the full <2% budget lives in
  ``benchmarks/test_perf_obs.py``);
* the Session facade honours ``RunConfig(trace=True)``.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro import api, obs
from repro.designs import design1
from repro.opt import IsolationConfig, StageTimings, isolate_design
from repro.runconfig import RunConfig
from repro.sim.stimulus import random_stimulus


def _isolate_traced(workers=1, cycles=150):
    design = design1()
    recorder = obs.Recorder()
    with obs.use(recorder):
        result = isolate_design(
            design,
            lambda: random_stimulus(design, seed=4),
            IsolationConfig(
                style="and", cycles=cycles, warmup=8, workers=workers
            ),
        )
    return result, recorder


class TestSpans:
    def test_nesting_mirrors_call_structure(self):
        tracer = obs.Tracer()
        with tracer.span("outer", "stage", design="d"):
            with tracer.span("inner") as inner:
                inner.set(items=3)
        assert obs.span_shape(tracer.roots) == (("outer", (("inner", ()),)),)
        (outer,) = tracer.roots
        assert outer.attrs == {"design": "d"}
        assert outer.children[0].attrs == {"items": 3}
        assert outer.start_ns <= outer.children[0].start_ns
        assert outer.end_ns >= outer.children[0].end_ns

    def test_exception_closes_dangling_spans(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                tracer.start("orphan")
                raise ValueError("boom")
        (outer,) = tracer.roots
        orphan = outer.children[0]
        assert orphan.end_ns >= orphan.start_ns > 0
        assert tracer.current is None

    def test_adopt_keeps_worker_tracks(self):
        worker = obs.Tracer(track="task-7")
        with worker.span("pool.task"):
            with worker.span("score.candidate"):
                pass
        parent = obs.Tracer()
        with parent.span("pool.map"):
            parent.adopt(obs.spans_to_dicts(worker.roots))
        adopted = parent.roots[0].children[0]
        assert [s.track for s in adopted.walk()] == ["task-7", "task-7"]

    def test_aggregate_rollup_self_time(self):
        parent = obs.Span("p", start_ns=0, end_ns=10_000_000_000)
        parent.children.append(obs.Span("c", start_ns=0, end_ns=4_000_000_000))
        rollup = {e["name"]: e for e in obs.aggregate_spans([parent])}
        assert rollup["p"]["total_s"] == pytest.approx(10.0)
        assert rollup["p"]["self_s"] == pytest.approx(6.0)
        assert rollup["c"]["count"] == 1


class TestChromeTraceRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        tracer = obs.Tracer()
        with tracer.span("isolate", "stage", design="d1", workers=2):
            with tracer.span("sim.run", "sim", cycles=100):
                pass
            with tracer.span("score.batch"):
                with tracer.span("score.candidate", candidate="mul0"):
                    pass
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(path, tracer.roots)
        reloaded = obs.read_chrome_trace(path)
        assert obs.spans_to_dicts(reloaded) == obs.spans_to_dicts(tracer.roots)

    def test_multi_track_round_trip(self, tmp_path):
        worker = obs.Tracer(track="task-0")
        with worker.span("pool.task"):
            pass
        parent = obs.Tracer()
        with parent.span("pool.map"):
            parent.adopt(obs.spans_to_dicts(worker.roots))
        path = str(tmp_path / "trace.json")
        obs.write_chrome_trace(path, parent.roots)
        reloaded = obs.read_chrome_trace(path)
        tracks = sorted(s.track for s in obs.iter_spans(reloaded))
        assert tracks == ["main", "task-0"]

    def test_document_shape_and_metrics_blob(self, tmp_path):
        tracer = obs.Tracer()
        with tracer.span("isolate", "stage"):
            pass
        document = obs.chrome_trace(tracer.roots, metrics={"a": 1})
        phases = {e["ph"] for e in document["traceEvents"]}
        assert phases == {"M", "X"}
        names = {
            e["name"] for e in document["traceEvents"] if e["ph"] == "M"
        }
        assert names == {"process_name", "thread_name"}
        assert document["otherData"]["repro_metrics"] == {"a": 1}

    def test_non_json_attrs_stringified(self, tmp_path):
        tracer = obs.Tracer()
        with tracer.span("s", thing=object()):
            pass
        (event,) = [
            e for e in obs.chrome_trace_events(tracer.roots) if e["ph"] == "X"
        ]
        assert isinstance(event["args"]["thing"], str)


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = obs.MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        registry.gauge("depth").set(5)
        registry.gauge("depth").dec(2)
        histogram = registry.histogram("seconds")
        histogram.observe(0.002)
        histogram.observe(4.0)
        assert registry.counter("hits").value == 3.0
        assert registry.gauge("depth").value == 3.0
        assert histogram.count == 2
        assert histogram.mean == pytest.approx(2.001)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            obs.MetricsRegistry().counter("c").inc(-1)

    def test_labels_separate_series(self):
        registry = obs.MetricsRegistry()
        registry.counter("tasks", mode="pool").inc(2)
        registry.counter("tasks", mode="inline").inc()
        assert registry.counter("tasks", mode="pool").value == 2.0
        assert registry.counter("tasks", mode="inline").value == 1.0
        assert 'tasks{mode="pool"}' in registry.to_dict()

    def test_merge_is_commutative_for_counters(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.counter("n").inc(3)
        b.counter("n").inc(4)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(2.0)
        b.gauge("g").set(9)
        a.merge(b)
        assert a.counter("n").value == 7.0
        assert a.histogram("h").count == 2
        assert a.gauge("g").value == 9.0

    def test_registry_survives_pickling(self):
        registry = obs.MetricsRegistry()
        registry.counter("n", kind="x").inc(5)
        clone = pickle.loads(pickle.dumps(registry))
        assert clone.counter("n", kind="x").value == 5.0

    def test_prometheus_text(self):
        registry = obs.MetricsRegistry()
        registry.counter("pool.tasks", mode="pool").inc(3)
        registry.histogram("pool.task_seconds").observe(0.05)
        text = registry.prometheus_text()
        assert '# TYPE pool_tasks counter' in text
        assert 'pool_tasks{mode="pool"} 3.0' in text
        assert 'pool_task_seconds_bucket{le="+Inf"} 1' in text
        assert "pool_task_seconds_count 1" in text


class TestNullRecorder:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.current() is obs.NULL

    def test_null_facade_allocates_nothing(self):
        assert obs.span("a", "cat", x=1) is obs.span("b")
        assert obs.counter("c") is obs.gauge("g") is obs.histogram("h")
        with obs.span("a") as span:
            assert span.set(x=1) is span
        obs.counter("c").inc()
        obs.gauge("g").set(2.0)
        obs.histogram("h").observe(0.1)
        assert obs.current_span() is None

    def test_disabled_call_sites_stay_cheap(self):
        # Generous absolute guard (~2.5 us/op allowed; the real cost is
        # tens of ns) — the rigorous budget is benchmarks/test_perf_obs.py.
        operations = 200_000
        start = time.perf_counter()
        for _ in range(operations):
            with obs.span("x", "cat", attr=1):
                pass
        elapsed = time.perf_counter() - start
        assert elapsed < 0.5, f"{elapsed / operations * 1e9:.0f} ns per no-op span"

    def test_use_restores_previous_recorder(self):
        with obs.use(obs.Recorder()):
            assert obs.enabled()
            with obs.use(obs.NULL):
                assert not obs.enabled()
            assert obs.enabled()
        assert not obs.enabled()

    def test_enable_disable(self):
        recorder = obs.enable()
        try:
            assert obs.current() is recorder and obs.enabled()
        finally:
            obs.disable()
        assert not obs.enabled()


class TestThreadIsolation:
    """The recorder is context-local — the fix the threaded server needs.

    Regression for the module-global ``_current``: two recorders active
    on concurrent threads must each see exactly their own spans and
    metrics, with zero cross-thread pollution.
    """

    def test_two_recorders_on_concurrent_threads_stay_isolated(self):
        import threading

        rounds = 200
        barrier = threading.Barrier(2)
        recorders = {}
        errors = []

        def worker(name: str) -> None:
            try:
                recorder = obs.Recorder()
                recorders[name] = recorder
                with obs.use(recorder):
                    barrier.wait(timeout=10)  # maximise interleaving
                    for index in range(rounds):
                        with obs.span("work", "test", owner=name, i=index):
                            obs.counter("ops", owner=name).inc()
                        assert obs.current() is recorder
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(name,))
            for name in ("alpha", "beta")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        for name, recorder in recorders.items():
            assert len(recorder.tracer.roots) == rounds
            owners = {s.attrs["owner"] for s in recorder.tracer.roots}
            assert owners == {name}, f"cross-thread span pollution: {owners}"
            assert recorder.metrics.value("ops", owner=name) == rounds
            other = "beta" if name == "alpha" else "alpha"
            assert recorder.metrics.value("ops", owner=other) is None

    def test_fresh_thread_starts_at_the_null_recorder(self):
        import threading

        seen = {}
        with obs.use(obs.Recorder()):

            def probe():
                seen["enabled"] = obs.enabled()
                seen["current"] = obs.current()

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join(timeout=10)
        assert seen["enabled"] is False
        assert seen["current"] is obs.NULL

    def test_enable_in_one_thread_does_not_leak(self):
        import threading

        def enabler():
            obs.enable()
            assert obs.enabled()
            # No disable(): thread death must not leave a global behind.

        thread = threading.Thread(target=enabler)
        thread.start()
        thread.join(timeout=10)
        assert not obs.enabled()


class TestPipelineTrace:
    def test_stage_spans_and_per_candidate_scoring(self):
        result, recorder = _isolate_traced()
        roots = recorder.tracer.roots
        names = {s.name for s in obs.iter_spans(roots)}
        assert {
            "optimize",
            "optimize.iteration",
            "activation",
            "power.estimate",
            "sim.run",
            "score.batch",
            "score.candidate",
            "slack.check",
            "bank.insert",
        } <= names
        assert not names & {"isolate", "isolate.iteration"}
        # One bank.insert span per isolated module, with the candidate named.
        inserts = obs.find_spans(roots, "bank.insert")
        assert sorted(s.attrs["candidate"] for s in inserts) == sorted(
            result.isolated_names
        )
        # One score.candidate span per cost evaluation.
        evaluations = sum(
            instrument.value
            for name, _, instrument in recorder.metrics
            if name == "score.evaluations"
        )
        assert len(obs.find_spans(roots, "score.candidate")) == evaluations > 0

    def test_stimulus_is_drawn_once_inside_the_baseline_estimate(self):
        result, recorder = _isolate_traced()
        (root,) = obs.find_spans(recorder.tracer.roots, "optimize")
        estimates = obs.find_spans([root], "power.estimate")
        assert len(estimates) == result.timings.simulations > 2
        baseline = estimates[0]
        assert [s.name for s in baseline.children] == ["stimulus.draw", "sim.run"]
        (draw,) = obs.find_spans([root], "stimulus.draw")
        assert draw is baseline.children[0]
        assert draw.attrs["cycles"] == 150 + 8  # cycles + warmup
        for later in estimates[1:]:
            assert [s.name for s in later.children] == ["sim.run"]

    def test_loop_work_is_attributed_to_spans(self):
        _, recorder = _isolate_traced()
        (root,) = obs.find_spans(recorder.tracer.roots, "optimize")
        names = [s.name for s in root.children]
        # Working copy, reference and baseline STA, baseline run ... final.
        assert names[:4] == ["design.copy", "timing.sta", "timing.sta", "power.estimate"]
        assert names[-2:] == ["power.estimate", "timing.sta"]
        assert set(names[4:-2]) == {"optimize.iteration"}
        for iteration in obs.find_spans([root], "optimize.iteration"):
            enumerated = [
                s.attrs["pass_name"]
                for s in iteration.children
                if s.name == "pass.enumerate"
            ]
            assert enumerated == ["isolation"]

    def test_compiled_runs_deliver_observations_in_blocks(self):
        design = design1()
        recorder = obs.Recorder()
        with obs.use(recorder):
            isolate_design(
                design,
                lambda: random_stimulus(design, seed=4),
                IsolationConfig(cycles=300, warmup=8, engine="compiled"),
            )
        for estimate in obs.find_spans(recorder.tracer.roots, "power.estimate"):
            (run,) = obs.find_spans([estimate], "sim.run")
            blocks = [s for s in run.children if s.name == "sim.observe"]
            assert [s.attrs["cycles"] for s in blocks] == [256, 44]
            assert all(s.attrs["monitors"] >= 1 for s in blocks)

    def test_pipeline_metrics_recorded(self):
        result, recorder = _isolate_traced()
        payload = recorder.metrics.to_dict()
        assert payload['candidates.isolated{style="and"}']["value"] == len(
            result.isolated_names
        )
        assert any(key.startswith("module.power_mw") for key in payload)
        assert any(key.startswith("bdd.nodes") for key in payload)

    def test_stage_timings_derivable_from_spans(self):
        result, recorder = _isolate_traced()
        derived = StageTimings.from_spans(recorder.tracer.roots)
        assert derived.simulations == result.timings.simulations
        assert derived.engine == result.timings.engine
        assert derived.workers == result.timings.workers
        assert derived.simulate_s == pytest.approx(
            result.timings.simulate_s, rel=0.25
        )
        assert derived.transform_s >= 0 and derived.score_s >= 0

    def test_pooled_trace_matches_serial_candidate_sequence(self):
        serial_result, serial = _isolate_traced(workers=1)
        pooled_result, pooled = _isolate_traced(workers=2)
        assert pooled_result.isolated_names == serial_result.isolated_names

        def scored(recorder):
            return [
                (s.name, s.attrs["candidate"], s.attrs["accepted"])
                for s in obs.find_spans(recorder.tracer.roots, "score.candidate")
            ]

        assert scored(pooled) == scored(serial)

    def test_pooled_merge_is_deterministic(self):
        _, first = _isolate_traced(workers=2)
        _, second = _isolate_traced(workers=2)
        assert obs.span_shape(first.tracer.roots) == obs.span_shape(
            second.tracer.roots
        )

    def test_pool_task_spans_ride_back_from_workers(self):
        _, recorder = _isolate_traced(workers=2)
        tasks = obs.find_spans(recorder.tracer.roots, "pool.task")
        assert tasks, "pooled run recorded no worker-side spans"
        assert all(t.track.startswith("task-") for t in tasks)
        maps = obs.find_spans(recorder.tracer.roots, "pool.map")
        assert {m.attrs["mode"] for m in maps} <= {"pool", "inline"}


class TestSessionSurface:
    def test_runconfig_trace_records_through_session(self, tmp_path):
        session = api.Session(
            design1(), run=RunConfig(cycles=150, warmup=8, trace=True)
        )
        session.estimate()
        roots = session.trace()
        assert obs.find_spans(roots, "power.estimate")
        assert len(session.metrics()) > 0
        path = str(tmp_path / "session.json")
        session.write_trace(path)
        reloaded = obs.read_chrome_trace(path)
        assert obs.spans_to_dicts(reloaded) == obs.spans_to_dicts(roots)

    def test_traced_calls_accumulate(self):
        session = api.Session(design1(), run=RunConfig(cycles=120, trace=True))
        session.estimate()
        first = len(session.trace())
        session.isolate()
        assert len(session.trace()) > first
        assert obs.find_spans(session.trace(), "optimize")

    def test_stage_timings_from_a_multi_run_trace(self):
        session = api.Session(
            design1(), run=RunConfig(cycles=300, engine="compiled", trace=True)
        )
        first = session.optimize(passes=["isolation"])
        second = session.optimize(passes=["isolation"])
        derived = StageTimings.from_spans(session.trace())
        assert derived.simulations == (
            first.timings.simulations + second.timings.simulations
        )
        assert derived.simulate_s == pytest.approx(
            first.timings.simulate_s + second.timings.simulate_s, rel=0.25
        )
        assert derived.score_s > 0

    def test_untraced_session_records_nothing(self):
        session = api.Session(design1(), run=RunConfig(cycles=120))
        session.estimate()
        assert session.trace() == []
        assert len(session.metrics()) == 0

    def test_per_call_run_override_enables_tracing(self):
        session = api.Session(design1(), run=RunConfig(cycles=120))
        session.estimate(run=RunConfig(cycles=120, trace=True))
        assert obs.find_spans(session.trace(), "power.estimate")
