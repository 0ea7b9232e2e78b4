"""Job-service layer: lifecycle, cache, backpressure, shutdown.

The load-bearing guarantees pinned here:

* a served result is byte-identical to the direct in-process
  ``Session`` call it proxies — and the *cached* copy is byte-identical
  to the cold one (``serve.cache.hits`` observably increments);
* the cache key is content-addressed: structurally identical designs
  share entries, any change to the design, the RunConfig's semantic
  fields or the method parameters misses;
* the queue is bounded — submissions beyond it raise
  :class:`QueueFullError` with a retry hint — and graceful shutdown
  drains everything already accepted;
* a failing job produces a structured Diagnostic-based error payload
  and never kills its worker thread.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import api
from repro.designs import design1, design2, paper_example
from repro.errors import (
    QueueFullError,
    ReproError,
    ServeError,
    ServiceStoppedError,
)
from repro.netlist import textio
from repro.runconfig import RunConfig
from repro.serve import DONE, FAILED, CANCELLED, QUEUED, JobService
from repro.serve.cache import ResultCache, job_cache_key
from repro.serve.jobs import METHODS, _result_estimate

RUN = {"cycles": 150, "warmup": 8, "engine": "compiled", "workers": 1}


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def make_service(**kwargs) -> JobService:
    kwargs.setdefault("queue_size", 8)
    kwargs.setdefault("job_workers", 2)
    kwargs.setdefault("cache_capacity", 32)
    return JobService(**kwargs)


def direct_payload(method: str, design, params=None) -> dict:
    """What the service *should* return: the in-process Session result."""
    session = api.Session(design, run=RunConfig(**RUN))
    _, builder = METHODS[method]
    return builder(session, params or {})


class TestJobLifecycle:
    def test_estimate_matches_direct_session(self):
        service = make_service()
        try:
            job = service.submit("estimate", builtin="design1", run=RUN)
            job = service.wait(job.id, timeout=120)
            assert job.state == DONE and not job.cached
            assert canon(job.result) == canon(
                direct_payload("estimate", design1())
            )
        finally:
            service.shutdown()

    def test_isolate_on_netlist_text_matches_direct_session(self, fig1):
        service = make_service()
        try:
            job = service.submit(
                "isolate",
                design=textio.dumps(fig1),
                run=RUN,
                params={"style": "and"},
            )
            job = service.wait(job.id, timeout=120)
            assert job.state == DONE
            expected = direct_payload(
                "isolate", textio.loads(textio.dumps(fig1)), {"style": "and"}
            )
            assert canon(job.result) == canon(expected)
            assert "timings" not in job.result  # payloads carry no wall clock
        finally:
            service.shutdown()

    @pytest.mark.parametrize(
        "method,params",
        [
            ("validate", {}),
            ("activation", {}),
            ("rank", {"style": "and"}),
        ],
    )
    def test_other_methods_complete(self, method, params):
        service = make_service()
        try:
            job = service.submit(
                method, builtin="fig1", run=RUN, params=params
            )
            job = service.wait(job.id, timeout=120)
            assert job.state == DONE, job.error
            assert canon(job.result) == canon(
                direct_payload(method, paper_example(), params)
            )
        finally:
            service.shutdown()

    def test_finished_jobs_drop_the_parsed_design(self):
        service = make_service()
        try:
            ran = service.wait(
                service.submit("estimate", builtin="fig1", run=RUN).id,
                timeout=120,
            )
            hit = service.submit("estimate", builtin="fig1", run=RUN)
            assert not ran.cached and hit.cached
            for job in (ran, hit):
                job = service.wait(job.id, timeout=120)
                assert job.state == DONE
                assert service.get(job.id).design is None
                assert textio.loads(job.design_text).name == "paper_fig1"
        finally:
            service.shutdown()

    def test_job_metadata_and_listing(self):
        service = make_service()
        try:
            job = service.submit("estimate", builtin="fig1", run=RUN)
            service.wait(job.id, timeout=120)
            record = job.to_dict()
            assert record["state"] == DONE
            assert record["duration_s"] >= 0.0
            assert record["fingerprint"] == api.Session(paper_example()).fingerprint()
            summaries = [j.to_dict(include_result=False) for j in service.jobs()]
            assert summaries and "result" not in summaries[0]
        finally:
            service.shutdown()


class TestResultCache:
    def test_resubmission_is_served_from_cache(self):
        service = make_service()
        try:
            first = service.wait(
                service.submit("estimate", builtin="design1", run=RUN).id,
                timeout=120,
            )
            second = service.submit("estimate", builtin="design1", run=RUN)
            # Cache hits complete synchronously: no queue slot, no worker.
            assert second.state == DONE and second.cached
            assert canon(second.result) == canon(first.result)
            stats = service.cache.stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            assert (
                service.recorder.metrics.value("serve.cache.hits") == 1
            )
        finally:
            service.shutdown()

    def test_structurally_identical_designs_share_an_entry(self, fig1):
        service = make_service()
        try:
            service.wait(
                service.submit("estimate", builtin="fig1", run=RUN).id,
                timeout=120,
            )
            # Same structure, different transport: builtin vs netlist text.
            job = service.submit("estimate", design=textio.dumps(fig1), run=RUN)
            assert job.cached
        finally:
            service.shutdown()

    def test_any_semantic_difference_misses(self):
        service = make_service()
        try:
            base = service.submit("estimate", builtin="fig1", run=RUN)
            service.wait(base.id, timeout=120)
            different = [
                service.submit(
                    "estimate", builtin="fig1", run=dict(RUN, seed=7)
                ),
                service.submit(
                    "estimate", builtin="fig1", run=dict(RUN, cycles=151)
                ),
                service.submit("validate", builtin="fig1", run=RUN),
                service.submit("estimate", builtin="design1", run=RUN),
            ]
            assert all(not job.cached for job in different)
            assert len({job.cache_key for job in different + [base]}) == 5
        finally:
            service.shutdown()

    def test_workers_and_trace_do_not_split_the_cache(self):
        service = make_service()
        try:
            service.wait(
                service.submit("estimate", builtin="fig1", run=RUN).id,
                timeout=120,
            )
            job = service.submit(
                "estimate", builtin="fig1", run=dict(RUN, workers=2)
            )
            assert job.cached  # bit-exact across worker counts by contract
        finally:
            service.shutdown()

    def test_lru_eviction_is_counted(self):
        cache = ResultCache(capacity=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == (True, {"v": 1})  # refreshes 'a'
        cache.put("c", {"v": 3})  # evicts 'b' (LRU)
        assert cache.get("b") == (False, None)
        assert cache.get("a")[0] and cache.get("c")[0]
        assert cache.stats()["evictions"] == 1

    def test_zero_capacity_disables_caching(self):
        service = make_service(cache_capacity=0)
        try:
            service.wait(
                service.submit("estimate", builtin="fig1", run=RUN).id,
                timeout=120,
            )
            job = service.submit("estimate", builtin="fig1", run=RUN)
            assert not job.cached
        finally:
            service.shutdown()

    def test_cache_key_is_stable_and_canonical(self):
        key = job_cache_key("estimate", "d" * 64, "r" * 64, {"b": 1, "a": 2})
        same = job_cache_key("estimate", "d" * 64, "r" * 64, {"a": 2, "b": 1})
        assert key == same and len(key) == 64


class TestIsolatePreset:
    """``isolate`` is ``optimize`` with the isolation pass alone."""

    def test_isolate_returns_the_optimize_bytes_and_shares_its_key(self, fig1):
        service = make_service()
        try:
            text = textio.dumps(fig1)
            iso = service.wait(
                service.submit(
                    "isolate", design=text, run=RUN, params={"style": "and"}
                ).id,
                timeout=120,
            )
            opt = service.submit(
                "optimize",
                design=text,
                run=RUN,
                params={"style": "and", "passes": ["isolation"]},
            )
            assert iso.state == DONE and not iso.cached
            assert opt.cached and opt.cache_key == iso.cache_key
            assert canon(opt.result) == canon(iso.result)
            assert iso.result["passes"] == ["isolation"]
            assert [t["pass"] for t in iso.result["applied"]] == ["isolation"]
        finally:
            service.shutdown()

    def test_a_blob_in_the_old_shape_is_never_served(self, fig1):
        from repro.sim.compile import design_fingerprint

        service = make_service(start=False)
        old_key = job_cache_key(
            "isolate",
            design_fingerprint(fig1),
            RunConfig(**RUN).fingerprint(),
            {"style": "and"},
        )
        service.cache.put(old_key, {"design": "paper_fig1", "isolated": ["a1"]})
        job = service.submit(
            "isolate", builtin="fig1", run=RUN, params={"style": "and"}
        )
        assert job.cache_key != old_key
        assert not job.cached
        service.start()
        job = service.wait(job.id, timeout=120)
        assert job.state == DONE
        assert "isolated" not in job.result and job.result["applied"]
        service.shutdown()

    def test_the_method_fixes_the_pass_list(self, fig1):
        # A replayed journal entry carries only the method and its own
        # params; the preset supplies the pass list.
        from repro.serve.supervisor import run_job_payload

        payload = run_job_payload(
            {
                "method": "isolate",
                "design_text": textio.dumps(fig1),
                "run": RUN,
                "params": {"style": "and"},
            }
        )
        assert payload["passes"] == ["isolation"]
        assert payload == direct_payload(
            "optimize",
            textio.loads(textio.dumps(fig1)),
            {"style": "and", "passes": ["isolation"]},
        )


class TestBackpressure:
    def test_queue_full_raises_with_retry_hint(self):
        service = make_service(queue_size=2, start=False)
        service.submit("estimate", builtin="fig1", run=RUN)
        service.submit("estimate", builtin="design1", run=RUN)
        with pytest.raises(QueueFullError) as excinfo:
            service.submit("estimate", builtin="design2", run=RUN)
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_s >= 1.0
        assert service.recorder.metrics.value("serve.jobs.rejected") == 1
        # The rejected job leaves no record behind.
        assert len(service.jobs()) == 2
        # Backlog still drains once workers start.
        service.start()
        for job in service.jobs():
            assert service.wait(job.id, timeout=120).state == DONE
        service.shutdown()

    def test_cache_hits_bypass_the_full_queue(self):
        service = make_service(queue_size=1, start=False)
        queued = service.submit("estimate", builtin="fig1", run=RUN)
        with pytest.raises(QueueFullError):
            service.submit("estimate", builtin="design1", run=RUN)
        # A cached answer needs no queue slot, so it sails past the
        # backpressure that just rejected a cold submission.
        payload = {"design": "fig1"}
        service.cache.put(queued.cache_key, payload)
        job = service.submit("estimate", builtin="fig1", run=RUN)
        assert job.cached and job.state == DONE and job.result == payload
        service.start()
        service.shutdown(drain=False)


class TestValidationAndFailure:
    def test_submit_time_validation(self):
        service = make_service(start=False)
        with pytest.raises(ServeError, match="unknown method"):
            service.submit("frobnicate", builtin="fig1")
        with pytest.raises(ServeError, match="unknown parameter"):
            service.submit("estimate", builtin="fig1", params={"style": "and"})
        with pytest.raises(ServeError, match="unknown style"):
            service.submit("isolate", builtin="fig1", params={"style": "nand"})
        with pytest.raises(ServeError, match="exactly one"):
            service.submit("estimate")
        with pytest.raises(ServeError, match="unknown builtin"):
            service.submit("estimate", builtin="nonesuch")
        with pytest.raises(ReproError, match="unknown RunConfig field"):
            service.submit("estimate", builtin="fig1", run={"cycels": 5})
        with pytest.raises(ReproError):
            service.submit("estimate", builtin="fig1", design="net A 1\n")
        assert service.jobs() == []  # nothing slipped into the log

    def test_failing_job_reports_diagnostics_and_worker_survives(self, monkeypatch):
        def boom(session, params):
            raise ReproError("injected failure")

        monkeypatch.setitem(METHODS, "estimate", (frozenset(), boom))
        service = make_service(job_workers=1)
        try:
            job = service.wait(
                service.submit("estimate", builtin="fig1", run=RUN).id,
                timeout=60,
            )
            assert job.state == FAILED and job.result is None
            assert job.error["type"] == "ReproError"
            (diag,) = job.error["diagnostics"]
            assert diag["severity"] == "error"
            assert "injected failure" in diag["message"]
            # The (single) worker is still alive for the next job.
            ok = service.wait(
                service.submit("validate", builtin="fig1", run=RUN).id,
                timeout=60,
            )
            assert ok.state == DONE
        finally:
            service.shutdown()

    def test_cancel_queued_job(self):
        service = make_service(start=False)
        job = service.submit("estimate", builtin="fig1", run=RUN)
        assert service.cancel(job.id).state == CANCELLED
        service.start()
        assert service.wait(job.id, timeout=60).state == CANCELLED
        service.shutdown()


class TestShutdown:
    def test_drain_finishes_queued_jobs(self):
        service = make_service(start=False, queue_size=8)
        jobs = [
            service.submit("estimate", builtin=name, run=RUN)
            for name in ("fig1", "design1", "design2")
        ]
        service.start()
        service.shutdown(drain=True)
        assert all(service.get(job.id).state == DONE for job in jobs)

    def test_no_drain_cancels_queued_jobs(self):
        service = make_service(start=False, queue_size=8)
        job = service.submit("estimate", builtin="fig1", run=RUN)
        service.shutdown(drain=False)
        assert service.get(job.id).state == CANCELLED

    def test_submissions_after_shutdown_are_refused(self):
        service = make_service()
        service.shutdown()
        with pytest.raises(ServiceStoppedError) as excinfo:
            service.submit("estimate", builtin="fig1")
        assert excinfo.value.status == 503

    def test_shutdown_is_idempotent(self):
        service = make_service()
        service.shutdown()
        service.shutdown()


class TestConcurrentClients:
    def test_concurrent_submissions_match_serial_results(self):
        """N client threads, distinct designs — byte-identical to serial."""
        designs = {
            "fig1": paper_example(),
            "design1": design1(),
            "design2": design2(),
        }
        expected = {
            name: canon(direct_payload("estimate", d))
            for name, d in designs.items()
        }
        service = make_service(job_workers=3, queue_size=16)
        results = {}
        errors = []

        def client(name):
            try:
                job = service.submit("estimate", builtin=name, run=RUN)
                results[name] = service.wait(job.id, timeout=120)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        try:
            threads = [
                threading.Thread(target=client, args=(name,))
                for name in designs
                for _ in range(2)  # two clients per design: one should hit
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            assert not errors
            for name, job in results.items():
                assert job.state == DONE
                assert canon(job.result) == expected[name]
        finally:
            service.shutdown()
