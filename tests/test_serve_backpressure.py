"""Backpressure under concurrency: 429s observed, everything completes once.

The bounded-queue contract under real concurrent load:

* when the queue fills, submissions fail with 429 + ``Retry-After``
  (observed, not theoretical — the test counts the rejections);
* a client that honors the hint (``submit_and_wait(submit_retries=)``)
  eventually lands every job;
* every accepted job completes **exactly once** — no lost work, no
  double execution (attempts stay at 1, no retries recorded);
* the client poll loop backs off exponentially instead of hammering,
  and the in-process ``JobService.wait`` is woken by completion.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import QueueFullError, ServeError
from repro.serve import JobService, make_server
from repro.serve.client import ServeClient
from repro.serve.jobs import METHODS

RUN = {"cycles": 120, "engine": "compiled", "workers": 1}


class TestQueueBackpressure:
    def test_http_concurrent_burst_all_complete_exactly_once(self, monkeypatch):
        # Slow the method down so a narrow queue demonstrably overflows.
        def slow_estimate(session, params):
            time.sleep(0.08)
            return {"design": session.design.name}

        monkeypatch.setitem(METHODS, "estimate", (frozenset(), slow_estimate))
        service = JobService(queue_size=2, job_workers=1, cache_capacity=0)
        server = make_server("127.0.0.1", 0, service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(server.url, timeout=30.0)
        results: dict = {}
        errors: list = []

        def submit_one(index: int) -> None:
            try:
                # Distinct cycles -> distinct cache keys -> every job
                # genuinely executes (no cache collapse).
                results[index] = client.submit_and_wait(
                    "estimate",
                    builtin="design1",
                    run={**RUN, "cycles": 130 + index},
                    timeout=60.0,
                    submit_retries=50,
                )
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((index, exc))

        workers = [
            threading.Thread(target=submit_one, args=(i,)) for i in range(8)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
        try:
            assert not errors, errors
            assert len(results) == 8
            for job in results.values():
                assert job["state"] == "done"
                assert job["attempts"] == 1  # exactly one execution each
            with service._obs_lock:
                rejected = service.recorder.metrics.value("serve.jobs.rejected")
                done = service.recorder.metrics.value(
                    "serve.jobs.completed", state="done"
                )
                retries = service.recorder.metrics.value("serve.jobs.retries")
            # Backpressure was actually exercised: 8 clients against a
            # 2-slot queue + 1 worker must bounce at least once...
            assert rejected and rejected >= 1
            # ...and rejected submissions leave no job behind: exactly
            # the 8 accepted ones completed, exactly once each.
            assert done == 8
            assert retries is None
        finally:
            server.shutdown()
            service.shutdown()
            server.server_close()

    def test_queue_full_carries_retry_after_hint(self):
        service = JobService(queue_size=1, job_workers=1, start=False)
        try:
            service.submit("estimate", builtin="design1", run=RUN)
            with pytest.raises(QueueFullError) as excinfo:
                service.submit(
                    "estimate", builtin="design1", run={**RUN, "cycles": 121}
                )
            assert excinfo.value.retry_after_s >= 1.0
        finally:
            service.start()
            service.shutdown()


class FakeBackpressuredClient(ServeClient):
    """Deterministic stand-in: rejects N times, then accepts."""

    def __init__(self, rejections: int, retry_after_s: float) -> None:
        super().__init__("http://fake")
        self.rejections = rejections
        self.retry_after_s = retry_after_s
        self.submit_calls = 0
        self.sleeps: list = []

    def submit(self, *args, **kwargs) -> dict:
        self.submit_calls += 1
        if self.submit_calls <= self.rejections:
            raise QueueFullError("full", retry_after_s=self.retry_after_s)
        return {"id": "j1", "state": "done", "cached": False}


class TestClientRetryPath:
    def test_submit_and_wait_honors_retry_after(self, monkeypatch):
        client = FakeBackpressuredClient(rejections=2, retry_after_s=0.01)
        slept: list = []
        monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
        job = client.submit_and_wait("estimate", submit_retries=5)
        assert job["state"] == "done"
        assert client.submit_calls == 3
        assert slept == [0.01, 0.01]  # the server's hint, not a guess

    def test_submit_and_wait_without_retries_propagates(self):
        client = FakeBackpressuredClient(rejections=1, retry_after_s=0.01)
        with pytest.raises(QueueFullError):
            client.submit_and_wait("estimate")

    def test_retry_budget_exhaustion_propagates(self, monkeypatch):
        client = FakeBackpressuredClient(rejections=10, retry_after_s=0.01)
        monkeypatch.setattr(time, "sleep", lambda s: None)
        with pytest.raises(QueueFullError):
            client.submit_and_wait("estimate", submit_retries=3)


class PollCountingClient(ServeClient):
    """Counts status polls; the job finishes after ``finish_after`` s."""

    def __init__(self, finish_after: float) -> None:
        super().__init__("http://fake")
        self.finish_after = finish_after
        self.start = time.monotonic()
        self.polls = 0

    def job(self, job_id: str) -> dict:
        self.polls += 1
        state = (
            "done"
            if time.monotonic() - self.start >= self.finish_after
            else "running"
        )
        return {"id": job_id, "state": state}


class TestPollBackoff:
    def test_client_wait_backs_off_exponentially(self):
        client = PollCountingClient(finish_after=0.5)
        job = client.wait("j1", timeout=30.0, poll_s=0.01, max_poll_s=0.2)
        assert job["state"] == "done"
        # A fixed 0.01s poll would need ~50 requests; exponential
        # backoff (0.01 -> 0.02 -> ... -> capped 0.2) needs ~10.
        assert client.polls <= 15


class TestServiceWait:
    def test_wait_wakes_on_terminal_transition(self):
        service = JobService(queue_size=2, job_workers=1, start=False)
        try:
            job = service.submit("estimate", builtin="design1", run=RUN)
            with pytest.raises(ServeError) as timed_out:
                service.wait(job.id, timeout=0.05)
            assert timed_out.value.status == 504
            # A waiter blocked on a queued job is woken by its cancel —
            # a terminal transition no worker thread makes.
            returned = []
            waiter = threading.Thread(
                target=lambda: returned.append(service.wait(job.id, timeout=30.0)),
                daemon=True,
            )
            waiter.start()
            time.sleep(0.05)
            service.cancel(job.id)
            waiter.join(timeout=5.0)
            assert not waiter.is_alive()
            assert returned[0].state == "cancelled"
            # ... and by a worker's finish once the service runs.
            job = service.submit("estimate", builtin="design1", run=RUN)
            service.start()
            assert service.wait(job.id, timeout=120.0).state == "done"
        finally:
            service.start()
            service.shutdown()

    def test_concurrent_waiters_and_shared_cache_lock(self):
        # More worker and waiter threads than cores, switching often: a
        # lost wake-up hangs a waiter, a lost counter update breaks the
        # hit/miss total (the cache counts under the recorder's lock).
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        service = JobService(
            queue_size=64, job_workers=4, cache_capacity=2, start=False
        )
        try:
            runs = [{**RUN, "cycles": 40 + index % 6} for index in range(24)]
            jobs = [service.submit("estimate", builtin="fig1", run=run) for run in runs]
            states = []
            waiters = [
                threading.Thread(
                    target=lambda chunk=jobs[index::8]: states.extend(
                        service.wait(job.id, timeout=600.0).state for job in chunk
                    ),
                    daemon=True,
                )
                for index in range(8)
            ]
            for waiter in waiters:
                waiter.start()
            time.sleep(0.05)  # every waiter blocks on a queued job first
            service.start()
            deadline = time.monotonic() + 60.0  # far below the wait timeout
            for waiter in waiters:
                waiter.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(waiter.is_alive() for waiter in waiters)
            assert sorted(states) == ["done"] * len(jobs)
            stats = service.cache.stats()
            assert stats["hits"] + stats["misses"] == len(jobs)
        finally:
            sys.setswitchinterval(interval)
            service.start()
            service.shutdown()
