#!/usr/bin/env python
"""End-to-end smoke test of the job service, exactly as CI runs it.

Boots a real ``repro serve`` subprocess on an ephemeral port, drives it
through the real ``repro submit`` CLI, and asserts the acceptance
criteria of the serving layer:

1. a cold submit completes with a result;
2. the identical resubmission is served from the cache (``cached:
   true``, byte-identical result payload);
3. ``/metrics`` shows the hit (``serve_cache_hits 1.0``);
4. SIGINT drains gracefully: exit code 0 and a JSON summary counting
   the served jobs.

Run from the repo root: ``PYTHONPATH=src python scripts/serve_smoke.py``
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
RUN_FLAGS = ["--cycles", "400", "--seed", "0", "--engine", "compiled"]


def submit(url: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "repro", "submit",
         os.path.join(REPO, "examples", "design1.rtl"),
         "--url", url, "--method", "isolate", "--style", "and",
         "--json", *RUN_FLAGS],
        env=ENV, cwd=REPO, capture_output=True, text=True, timeout=300,
        check=True,
    )
    return json.loads(out.stdout)


def main() -> int:
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--job-workers", "2", "--json"],
        env=ENV, cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        ready = server.stderr.readline()
        assert "serving on http://" in ready, f"no readiness line: {ready!r}"
        url = ready.split()[2]
        print(f"server ready at {url}")

        cold = submit(url)
        assert cold["state"] == "done", cold
        assert cold["cached"] is False, cold
        isolated = [t["target"] for t in cold["result"]["applied"]
                    if t["pass"] == "isolation"]
        assert isolated, cold
        print(f"cold submit: job {cold['id']} done, "
              f"{len(isolated)} module(s) isolated")

        warm = submit(url)
        assert warm["cached"] is True, warm
        assert json.dumps(warm["result"], sort_keys=True) == json.dumps(
            cold["result"], sort_keys=True
        ), "cached result differs from the cold run"
        print(f"warm submit: job {warm['id']} served from cache, "
              "result byte-identical")

        with urllib.request.urlopen(url + "/metrics", timeout=10) as resp:
            metrics = resp.read().decode()
        for needle in ("serve_cache_hits 1.0", "serve_cache_misses 1.0",
                       'serve_jobs_completed{state="done"} 2.0'):
            assert needle in metrics, f"metrics missing {needle!r}"
        with urllib.request.urlopen(url + "/healthz", timeout=10) as resp:
            health = json.loads(resp.read())
        assert health["status"] == "ok" and health["jobs"]["done"] == 2, health
        print("metrics + healthz confirm the cache hit")

        server.send_signal(signal.SIGINT)
        out, err = server.communicate(timeout=120)
        assert server.returncode == 0, (server.returncode, err)
        summary = json.loads(out)
        assert summary["jobs"]["done"] == 2, summary
        assert summary["cache"]["hits"] == 1.0, summary
        print("graceful drain: exit 0, summary "
              f"{summary['jobs']['done']} done / {summary['cache']['hits']:.0f} cache hit")
        print("serve smoke: OK")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()


if __name__ == "__main__":
    sys.exit(main())
