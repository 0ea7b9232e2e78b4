"""HTTP front end + client: protocol, backpressure, metrics, shutdown.

Each test runs a real :class:`ReproServer` on an ephemeral port with
the stdlib :class:`ServeClient` against it — the exact wire path
``repro serve`` / ``repro submit`` use.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro import api
from repro.designs import paper_example
from repro.errors import QueueFullError, ServeError
from repro.runconfig import RunConfig
from repro.serve import JobService, ServeClient, make_server
from repro.serve.jobs import METHODS

RUN = {"cycles": 120, "warmup": 8, "engine": "compiled", "workers": 1}


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


@pytest.fixture
def server():
    srv = make_server(
        port=0,
        service=JobService(queue_size=4, job_workers=1, cache_capacity=16),
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.service.shutdown(drain=False)
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


@pytest.fixture
def client(server):
    return ServeClient(server.url, timeout=30.0)


class TestProtocol:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok" and health["accepting"]
        assert health["queue_size"] == 4 and health["job_workers"] == 1

    def test_submit_wait_and_cache_roundtrip(self, client):
        job = client.submit_and_wait("estimate", builtin="fig1", run=RUN)
        assert job["state"] == "done" and not job["cached"]
        session = api.Session(paper_example(), run=RunConfig(**RUN))
        _, builder = METHODS["estimate"]
        assert canon(job["result"]) == canon(builder(session, {}))

        again = client.submit("estimate", builtin="fig1", run=RUN)
        assert again["state"] == "done" and again["cached"]
        assert canon(again["result"]) == canon(job["result"])
        assert job["fingerprint"] == session.fingerprint()

    def test_job_listing_and_lookup(self, client):
        job = client.submit_and_wait("validate", builtin="fig1", run=RUN)
        summaries = client.jobs()
        assert summaries[0]["id"] == job["id"]
        assert "result" not in summaries[0]
        assert client.job(job["id"])["result"]["ok"] is True

    def test_error_bodies_are_structured(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit("frobnicate", builtin="fig1")
        assert excinfo.value.status == 400
        assert "unknown method" in str(excinfo.value)

        with pytest.raises(ServeError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404

        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/v1/nonesuch")
        assert excinfo.value.status == 404

    def test_fewer_than_two_cycles_is_a_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit("estimate", builtin="fig1", run={**RUN, "cycles": 1})
        assert excinfo.value.status == 400
        assert "cycles must be >= 2" in str(excinfo.value)
        assert client.jobs() == []

    def test_malformed_json_is_a_400_not_a_crash(self, server):
        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        body = json.loads(excinfo.value.read())
        assert body["error"]["diagnostics"][0]["severity"] == "error"

    def test_failed_job_surfaces_diagnostics(self, client, server, monkeypatch):
        def boom(session, params):
            raise ServeError("injected")

        monkeypatch.setitem(METHODS, "activation", (frozenset(), boom))
        job = client.submit_and_wait("activation", builtin="fig1", run=RUN)
        assert job["state"] == "failed"
        assert job["error"]["diagnostics"][0]["message"] == "injected"


class TestBackpressure:
    def test_429_with_retry_after(self):
        srv = make_server(
            port=0,
            service=JobService(queue_size=1, job_workers=1, start=False),
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(srv.url, timeout=10.0)
            client.submit("estimate", builtin="fig1", run=RUN)
            with pytest.raises(QueueFullError) as excinfo:
                client.submit("estimate", builtin="design1", run=RUN)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after_s >= 1.0  # the Retry-After header
        finally:
            srv.service.start()
            srv.service.shutdown(drain=False)
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=10)


class TestMetricsEndpoint:
    def test_prometheus_scrape(self, client):
        client.submit_and_wait("estimate", builtin="fig1", run=RUN)
        client.submit("estimate", builtin="fig1", run=RUN)  # cache hit
        text = client.metrics_text()
        assert "# TYPE serve_cache_hits counter" in text
        assert "serve_cache_hits 1.0" in text
        assert "serve_cache_misses 1.0" in text
        assert 'serve_jobs_submitted{method="estimate"} 2.0' in text
        assert 'serve_jobs_completed{state="done"} 2.0' in text
        assert "serve_queue_depth" in text
        assert "serve_requests" in text
        # Job execution spans were absorbed into the service trace.
        spans = {s.name for root in client_spans(client) for s in root.walk()}
        assert {"serve.job", "serve.request", "power.estimate"} <= spans


def client_spans(client):
    # Reach through the fixture: tests run in-process with the server.
    return client._test_recorder.tracer.roots


@pytest.fixture(autouse=True)
def _attach_recorder(request):
    # Give tests that want span introspection access to the service
    # recorder without widening the client API.
    if "client" in request.fixturenames and "server" in request.fixturenames:
        client = request.getfixturevalue("client")
        server = request.getfixturevalue("server")
        client._test_recorder = server.service.recorder
    yield


class TestGracefulShutdown:
    def test_shutdown_endpoint_drains_and_stops(self):
        srv = make_server(
            port=0, service=JobService(queue_size=8, job_workers=1)
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(srv.url, timeout=10.0)
        job = client.submit("estimate", builtin="fig1", run=RUN)
        assert client.shutdown() == {"status": "draining"}
        thread.join(timeout=30)
        assert not thread.is_alive()
        # Everything accepted before the drain still completed.
        assert srv.service.get(job["id"]).state == "done"
        assert not srv.service.accepting
        with pytest.raises(ServeError):
            client.health()
        srv.server_close()
