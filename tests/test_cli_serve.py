"""CLI front door of the service: ``repro serve`` and ``repro submit``.

``submit`` is driven in-process against a live ephemeral server (same
emit()/_info() contract as every other subcommand: with ``--json``,
stdout is exactly one parseable document). ``serve`` is exercised as a
real subprocess, SIGINT-drained, because its main loop owns the
process.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.cli import main
from repro.serve import JobService, make_server

RUN_ARGS = ["--cycles", "120", "--engine", "compiled", "--workers", "1"]


@pytest.fixture
def server():
    srv = make_server(
        port=0, service=JobService(queue_size=8, job_workers=1, cache_capacity=8)
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.service.shutdown(drain=False)
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


class TestSubmitCommand:
    def test_submit_json_emits_one_document(self, server, capsys):
        code = main(
            ["submit", "--builtin", "fig1", "--url", server.url,
             "--method", "estimate", "--json", *RUN_ARGS]
        )
        assert code == 0
        out = capsys.readouterr().out
        job = json.loads(out)  # exactly one JSON document on stdout
        assert job["state"] == "done" and not job["cached"]
        assert job["result"]["total_power_mw"] > 0

    def test_resubmit_reports_cache_hit(self, server, capsys):
        args = ["submit", "--builtin", "fig1", "--url", server.url,
                "--method", "estimate", "--json", *RUN_ARGS]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert not first["cached"] and second["cached"]
        assert second["result"] == first["result"]

    def test_submit_netlist_file(self, server, capsys, tmp_path):
        code = main(
            ["submit", "examples/design1.rtl", "--url", server.url,
             "--method", "isolate", "--style", "and", "--json", *RUN_ARGS]
        )
        assert code == 0
        job = json.loads(capsys.readouterr().out)
        assert [t for t in job["result"]["applied"] if t["pass"] == "isolation"]

    def test_submit_human_output(self, server, capsys):
        code = main(
            ["submit", "--builtin", "fig1", "--url", server.url,
             "--method", "estimate", *RUN_ARGS]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "total power" in out and "cached=False" in out

    def test_submit_without_design_is_a_usage_error(self, server, capsys):
        code = main(["submit", "--url", server.url, "--json"])
        assert code == 2
        assert "netlist" in capsys.readouterr().err

    def test_submit_unreachable_server_exits_2(self, capsys):
        code = main(
            ["submit", "--builtin", "fig1", "--url",
             "http://127.0.0.1:9", "--json", "--timeout", "2"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_no_wait_returns_queued_job(self, server, capsys):
        code = main(
            ["submit", "--builtin", "design1", "--url", server.url,
             "--method", "estimate", "--no-wait", "--json", *RUN_ARGS]
        )
        assert code == 0
        job = json.loads(capsys.readouterr().out)
        assert job["state"] in ("queued", "running", "done")


class TestServeCommand:
    def test_serve_subprocess_smoke(self, tmp_path):
        """Boot `repro serve`, drive it over HTTP, SIGINT-drain it."""
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--engine", "compiled", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            text=True,
        )
        try:
            ready = proc.stderr.readline()  # "serving on http://host:port ..."
            assert "serving on http://" in ready
            url = ready.split()[2]
            body = json.dumps(
                {"method": "estimate", "builtin": "fig1",
                 "run": {"cycles": 100, "engine": "compiled", "workers": 1}}
            ).encode()
            request = urllib.request.Request(
                url + "/v1/jobs", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as resp:
                job = json.loads(resp.read())
            deadline = time.monotonic() + 60
            while job["state"] in ("queued", "running"):
                assert time.monotonic() < deadline
                with urllib.request.urlopen(
                    f"{url}/v1/jobs/{job['id']}", timeout=10
                ) as resp:
                    job = json.loads(resp.read())
            assert job["state"] == "done"
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 0
            summary = json.loads(out)  # one JSON document on stdout
            assert summary["jobs"]["done"] == 1
            assert "draining" in err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestServeDurableFlags:
    def test_robustness_flags_parse_and_default(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.state_dir is None and args.supervise is False
        assert args.max_attempts == 3
        assert args.job_timeout is None and args.lease == 15.0

        args = build_parser().parse_args(
            ["serve", "--state-dir", "/tmp/s", "--supervise",
             "--max-attempts", "5", "--job-timeout", "30", "--lease", "7.5"]
        )
        assert args.state_dir == "/tmp/s" and args.supervise is True
        assert args.max_attempts == 5
        assert args.job_timeout == 30.0 and args.lease == 7.5

    def test_durable_serve_subprocess_recovers_across_restart(self, tmp_path):
        """Boot with --state-dir, drain, reboot: the cache answers."""
        env = dict(os.environ, PYTHONPATH="src")
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        state_dir = str(tmp_path / "state")
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
                "--engine", "compiled", "--json", "--state-dir", state_dir,
                "--supervise", "--max-attempts", "2", "--job-timeout", "60"]
        body = json.dumps(
            {"method": "estimate", "builtin": "fig1",
             "run": {"cycles": 100, "engine": "compiled", "workers": 1}}
        ).encode()

        def boot():
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=env, cwd=repo, text=True,
            )
            ready = proc.stderr.readline()
            assert "serving on http://" in ready, ready
            assert f"state-dir={state_dir}" in ready and "supervised" in ready
            return proc, ready.split()[2]

        def submit(url):
            request = urllib.request.Request(
                url + "/v1/jobs", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=30) as resp:
                job = json.loads(resp.read())
            deadline = time.monotonic() + 60
            while job["state"] in ("queued", "running"):
                assert time.monotonic() < deadline
                with urllib.request.urlopen(
                    f"{url}/v1/jobs/{job['id']}", timeout=10
                ) as resp:
                    job = json.loads(resp.read())
            return job

        def drain(proc):
            proc.send_signal(signal.SIGINT)
            out, _err = proc.communicate(timeout=60)
            assert proc.returncode == 0
            return json.loads(out)

        proc, url = boot()
        try:
            job = submit(url)
            assert job["state"] == "done" and job["cached"] is False
            with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
                health = json.loads(resp.read())
            assert health["durable"]["journal"]["appended"] >= 2
            assert health["supervisor"]["circuit"] == "closed"
            drain(proc)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        # Second boot on the same state dir: the journal replays and the
        # identical submission is a disk-cache hit, not a recomputation.
        proc, url = boot()
        try:
            job = submit(url)
            assert job["state"] == "done" and job["cached"] is True
            with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
                health = json.loads(resp.read())
            assert health["durable"]["journal"]["replayed_records"] >= 2
            summary = drain(proc)
            # >= 2: replay re-reads the recovered result through the
            # cache, and the resubmission hits it again.
            assert summary["cache"]["hits"] >= 2.0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
