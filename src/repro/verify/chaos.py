"""Serve-layer chaos harness: crash the service and prove nothing lies.

PR 2's fault campaign (:mod:`repro.verify.faults`) attacked the
*simulation* layer and asserted no fault is ever answered silently.
This module points the same adversarial discipline at the *service*
layer (:mod:`repro.serve`): it boots real ``repro serve`` subprocesses
against a durable ``--state-dir``, then attacks every mechanism the
crash-safety design relies on —

* **worker kills** — SIGKILL a supervised worker process mid-job (pid
  taken from ``/healthz``) and expect the job to complete anyway via
  the transient-retry path;
* **deadlines** — submit deliberately oversized work under a tiny
  ``timeout_s`` and expect a *permanent* failure with a structured
  deadline diagnostic (a budget is not a fault);
* **kill -9 mid-workload** — SIGKILL the whole server after a burst of
  acknowledged submissions, then restart against the same state dir;
* **journal truncation** — tear the journal's tail line at a random
  byte offset before the restart (the only corruption an append-only,
  per-record-fsync'd log can physically suffer);
* **blob corruption** — flip one byte inside a cached result blob and
  expect the integrity check to quarantine it (recompute, never serve).

and asserts the three invariants of the crash-safe design:

1. **No lost acknowledged jobs** — every id returned by ``submit``
   (whose journal record survived) reaches a terminal state: ``done``,
   ``failed`` with a diagnostic body, or ``cancelled``.
2. **No silent corruption** — every post-restart result is
   byte-identical (by SHA-256 of its canonical JSON) to its pre-crash
   fingerprint; injected blob damage is *detected* (quarantined and
   counted), never served.
3. **Availability** — the restarted server answers ``/healthz`` and
   keeps its cache hit-rate: a pre-crash result is still a
   ``cached: true`` answer after the restart.

Entry points: :func:`run_chaos_campaign` (subprocess orchestration,
what ``repro chaos`` and CI's serve-store-smoke job run) and the pure state-dir
attack helpers :func:`truncate_journal` / :func:`corrupt_blob` /
:func:`scan_state_dir`, which the unit tests drive directly.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError, ServeError
from repro.serve.client import ServeClient
from repro.serve.durable import DurableStore, Journal, payload_digest, result_blobs

__all__ = [
    "ChaosReport",
    "corrupt_blob",
    "run_chaos_campaign",
    "scan_state_dir",
    "truncate_journal",
]


# ----------------------------------------------------------------------
# State-dir attack helpers (pure file surgery; unit-testable)
# ----------------------------------------------------------------------
def _journal_path(state_dir: str) -> str:
    return os.path.join(state_dir, DurableStore.JOURNAL_NAME)


def truncate_journal(
    state_dir: str,
    offset: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> dict:
    """Tear the journal's tail: truncate inside its last line.

    Without an explicit ``offset`` the cut lands at a random byte
    strictly inside the final record — the torn-tail shape a real crash
    mid-append produces (every *earlier* record was fsync'd before its
    submission was acknowledged, so only the tail can physically tear).
    Returns what was destroyed: ``{"offset", "torn_record"}`` where
    ``torn_record`` is the parsed final record (or ``None`` if the file
    was empty), so a campaign can account for deliberately-lost data.
    """
    path = _journal_path(state_dir)
    with open(path, "rb") as fh:
        raw = fh.read()
    body = raw.rstrip(b"\n")
    if not body:
        return {"offset": 0, "torn_record": None}
    last_start = body.rfind(b"\n") + 1
    last_line = body[last_start:]
    try:
        torn = json.loads(last_line)
    except json.JSONDecodeError:
        torn = None
    if offset is None:
        rng = rng or random.Random()
        # Cut strictly inside the last line: at least one byte of it
        # remains (a torn fragment), at least one byte is gone.
        offset = last_start + rng.randrange(1, max(2, len(last_line)))
    offset = max(0, min(offset, len(raw)))
    with open(path, "r+b") as fh:
        fh.truncate(offset)
    return {"offset": offset, "torn_record": torn}


def corrupt_blob(
    state_dir: str,
    key: Optional[str] = None,
    rng: Optional[random.Random] = None,
) -> dict:
    """Flip one byte inside a cache blob (bit rot / hostile edit).

    Picks a random blob unless ``key`` names one. Returns
    ``{"key", "path", "offset"}``; raises :class:`ReproError` when the
    cache holds no blobs to corrupt.
    """
    rng = rng or random.Random()
    blobs = result_blobs(state_dir)
    keys = blobs.keys()
    if key is not None:
        keys = [k for k in keys if k == key]
    if not keys:
        raise ReproError(f"no cache blobs to corrupt under {state_dir!r}")
    key = rng.choice(keys)
    path = blobs.path(key)
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())
    if not raw:
        raise ReproError(f"cache blob {path!r} is empty")
    offset = rng.randrange(len(raw))
    raw[offset] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(raw)
    return {"key": key, "path": path, "offset": offset}


def scan_state_dir(state_dir: str) -> dict:
    """Offline integrity scan of a state dir (no server involved)."""
    records, corrupt_lines = Journal.read(_journal_path(state_dir))
    blobs = result_blobs(state_dir)
    return {
        "journal_records": len(records),
        "corrupt_lines": corrupt_lines,
        "blobs": len(blobs),
        "quarantined": len(blobs.quarantined()),
    }


# ----------------------------------------------------------------------
# Campaign report
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """Outcome of one chaos campaign; ``ok`` is the headline verdict."""

    acknowledged: int = 0
    completed: int = 0
    failed_with_diagnostic: int = 0
    cancelled: int = 0
    worker_kills: int = 0
    deadline_hits: int = 0
    server_kills: int = 0
    journal_truncations: int = 0
    blob_corruptions: int = 0
    corrupt_lines_detected: int = 0
    corruptions_detected: int = 0
    lost_jobs: List[str] = field(default_factory=list)
    silent_corruptions: List[str] = field(default_factory=list)
    undiagnosed_failures: List[str] = field(default_factory=list)
    torn_submit_jobs: List[str] = field(default_factory=list)
    cache_hit_preserved: Optional[bool] = None
    recovery: Optional[dict] = None
    events: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        if self.lost_jobs or self.silent_corruptions or self.undiagnosed_failures:
            return False
        if self.blob_corruptions and self.corruptions_detected < self.blob_corruptions:
            return False
        if self.cache_hit_preserved is False:
            return False
        return True

    def log(self, message: str) -> None:
        self.events.append(message)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "acknowledged": self.acknowledged,
            "completed": self.completed,
            "failed_with_diagnostic": self.failed_with_diagnostic,
            "cancelled": self.cancelled,
            "worker_kills": self.worker_kills,
            "deadline_hits": self.deadline_hits,
            "server_kills": self.server_kills,
            "journal_truncations": self.journal_truncations,
            "blob_corruptions": self.blob_corruptions,
            "corrupt_lines_detected": self.corrupt_lines_detected,
            "corruptions_detected": self.corruptions_detected,
            "lost_jobs": list(self.lost_jobs),
            "silent_corruptions": list(self.silent_corruptions),
            "undiagnosed_failures": list(self.undiagnosed_failures),
            "torn_submit_jobs": list(self.torn_submit_jobs),
            "cache_hit_preserved": self.cache_hit_preserved,
            "recovery": self.recovery,
            "events": list(self.events),
        }

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        return (
            f"chaos campaign {verdict}: {self.acknowledged} acknowledged "
            f"job(s) -> {self.completed} done / "
            f"{self.failed_with_diagnostic} failed-with-diagnostic / "
            f"{self.cancelled} cancelled; {self.worker_kills} worker "
            f"kill(s), {self.deadline_hits} deadline(s), "
            f"{self.server_kills} server kill(s), "
            f"{self.journal_truncations} truncation(s) "
            f"({self.corrupt_lines_detected} torn line(s) detected), "
            f"{self.blob_corruptions} blob corruption(s) "
            f"({self.corruptions_detected} detected); "
            f"{len(self.lost_jobs)} lost, "
            f"{len(self.silent_corruptions)} silent corruption(s)"
        )


# ----------------------------------------------------------------------
# Server subprocess plumbing
# ----------------------------------------------------------------------
class _Server:
    """One ``repro serve`` subprocess bound to a durable state dir."""

    def __init__(self, state_dir: str, extra_args: Optional[List[str]] = None):
        self.state_dir = state_dir
        self.extra_args = list(extra_args or [])
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self, timeout: float = 60.0) -> "ServeClient":
        src_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--json",  # readiness + notices go to stderr, JSON to stdout
                "--state-dir", self.state_dir,
                "--supervise",
                *self.extra_args,
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        deadline = time.monotonic() + timeout
        assert self.proc.stderr is not None
        while True:
            line = self.proc.stderr.readline()
            if "serving on http://" in line:
                self.url = line.split("serving on ", 1)[1].split()[0]
                break
            if not line or time.monotonic() > deadline:
                raise ServeError(
                    f"server did not become ready: {line!r}", status=0
                )
        # Keep draining stderr (retry/lease warnings) so a full pipe
        # buffer can never wedge the server mid-campaign.
        import threading

        threading.Thread(
            target=lambda: [None for _ in self.proc.stderr],  # type: ignore[union-attr]
            daemon=True,
        ).start()
        return ServeClient(self.url, timeout=30.0)

    def kill(self) -> None:
        """SIGKILL — the crash under test, nothing graceful about it."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait(timeout=30)

    def stop(self) -> None:
        """Best-effort cleanup at campaign end."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)


def _wait_for_live_worker(
    client: ServeClient, timeout: float = 30.0
) -> Dict[str, int]:
    """Poll ``/healthz`` until the supervisor reports a live worker pid."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        live = client.health().get("supervisor", {}).get("live_jobs") or {}
        if live:
            return {k: int(v) for k, v in live.items()}
        time.sleep(0.01)
    return {}


def _wait_all_terminal(
    client: ServeClient, job_ids: List[str], timeout: float = 180.0
) -> Dict[str, dict]:
    """Poll until every id is terminal; returns ``{id: job_record}``."""
    terminal: Dict[str, dict] = {}
    deadline = time.monotonic() + timeout
    interval = 0.02
    while time.monotonic() < deadline and len(terminal) < len(job_ids):
        for job_id in job_ids:
            if job_id in terminal:
                continue
            try:
                record = client.job(job_id)
            except ServeError:
                continue
            if record["state"] not in ("queued", "running"):
                terminal[job_id] = record
        if len(terminal) < len(job_ids):
            time.sleep(interval)
            interval = min(interval * 2.0, 0.5)
    return terminal


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def run_chaos_campaign(
    state_dir: str,
    jobs: int = 6,
    worker_kills: int = 1,
    deadline_jobs: int = 1,
    seed: int = 0,
    cycles: int = 150,
    heavy_cycles: int = 60000,
    builtin: str = "fig1",
    server_args: Optional[List[str]] = None,
) -> ChaosReport:
    """Run the full serve-layer chaos campaign against ``state_dir``.

    Boots a supervised, durable ``repro serve`` subprocess; drives the
    worker-kill, deadline, kill -9, journal-truncation and
    blob-corruption scenarios described in the module docstring; and
    returns a :class:`ChaosReport` whose ``ok`` asserts the no-lost-
    jobs / no-silent-corruption / availability invariants.
    """
    rng = random.Random(seed)
    report = ChaosReport()
    acked: List[str] = []
    digests: Dict[str, str] = {}  # job id -> pre-crash result digest
    keys: Dict[str, str] = {}  # job id -> cache key
    runs: Dict[str, dict] = {}  # job id -> submitted run dict
    base_args = [
        "--max-attempts", "3",
        "--job-timeout", "120",
        "--lease", "10",
        "--engine", "python",
        *(server_args or []),
    ]

    server = _Server(state_dir, base_args)
    client = server.start()
    report.log(f"server up at {server.url} (state dir {state_dir})")
    try:
        # Phase 1: kill supervised workers mid-job; jobs must survive.
        for kill_round in range(worker_kills):
            job = client.submit(
                builtin=builtin, method="estimate",
                run={"cycles": heavy_cycles + kill_round, "seed": seed},
            )
            acked.append(job["id"])
            live = _wait_for_live_worker(client)
            pid = live.get(job["id"])
            if pid:
                os.kill(pid, signal.SIGKILL)
                report.worker_kills += 1
                report.log(f"killed worker pid {pid} running {job['id']}")
            else:
                report.log(f"no live worker observed for {job['id']} (too fast)")
            record = client.wait(job["id"], timeout=180.0)
            if record["state"] == "done" and record.get("result") is not None:
                digests[job["id"]] = payload_digest(record["result"])
            report.log(
                f"{job['id']} reached {record['state']} after "
                f"{record['attempts']} attempt(s)"
            )

        # Phase 2: deadline — oversized work under a tiny budget must
        # fail permanently with a structured diagnostic.
        for index in range(deadline_jobs):
            job = client.submit(
                builtin=builtin, method="estimate",
                run={"cycles": heavy_cycles * 10 + index, "seed": seed},
                timeout_s=0.2, max_attempts=1,
            )
            acked.append(job["id"])
            record = client.wait(job["id"], timeout=120.0)
            error = record.get("error") or {}
            diags = error.get("diagnostics") or []
            if record["state"] == "failed" and diags:
                report.deadline_hits += 1
                report.log(f"{job['id']} deadline: {error.get('message', '')}")
            else:
                report.undiagnosed_failures.append(job["id"])
                report.log(f"{job['id']} missed its deadline contract: {record}")

        # Phase 3: mixed cold/cached burst, then kill -9 mid-workload.
        for index in range(jobs):
            run = {"cycles": cycles + (index % max(1, jobs // 2)), "seed": seed}
            job = client.submit(builtin=builtin, method="estimate", run=run)
            acked.append(job["id"])
            keys[job["id"]] = job["cache_key"]
            runs[job["id"]] = run
        report.log(f"acknowledged burst of {jobs} job(s)")
        # Let some finish so the crash interrupts a *mixed* workload and
        # the cache holds blobs worth corrupting.
        half = [j for j in acked if j in keys][: max(1, jobs // 2)]
        for job_id in half:
            record = client.wait(job_id, timeout=120.0)
            if record["state"] == "done" and record.get("result") is not None:
                digests[job_id] = payload_digest(record["result"])
        server.kill()
        report.server_kills += 1
        report.log("SIGKILL'd the server mid-workload")

        # Phase 4: attack the state dir while the server is down.
        torn = truncate_journal(state_dir, rng=rng)
        report.journal_truncations += 1
        torn_record = torn.get("torn_record") or {}
        if torn_record.get("type") == "submit":
            report.torn_submit_jobs.append(torn_record.get("job", ""))
        report.log(
            f"tore journal at byte {torn['offset']} "
            f"(record type {torn_record.get('type')!r})"
        )
        try:
            flipped = corrupt_blob(state_dir, rng=rng)
            report.blob_corruptions += 1
            report.log(
                f"flipped byte {flipped['offset']} of blob {flipped['key'][:12]}"
            )
        except ReproError:
            report.log("no blobs on disk to corrupt (all jobs were cold)")

        # Phase 5: restart against the same state dir; every surviving
        # acknowledged job must reach a terminal state.
        server = _Server(state_dir, base_args)
        client = server.start()
        health = client.health()
        report.recovery = (health.get("durable") or {}).get("recovery")
        report.corrupt_lines_detected = (
            (health.get("durable") or {}).get("journal", {}).get("corrupt_lines", 0)
        )
        report.log(f"server restarted at {server.url}")
        expected = [
            j for j in acked
            if j not in report.torn_submit_jobs and j not in digests
        ]
        terminal = _wait_all_terminal(client, expected)
        for job_id in expected:
            record = terminal.get(job_id)
            if record is None:
                report.lost_jobs.append(job_id)
                continue
            if record["state"] == "failed":
                diags = (record.get("error") or {}).get("diagnostics") or []
                if not diags:
                    report.undiagnosed_failures.append(job_id)

        # Jobs that finished pre-crash must come back byte-identical.
        for job_id, digest in digests.items():
            try:
                record = client.job(job_id)
            except ServeError:
                report.lost_jobs.append(job_id)
                continue
            final = _wait_all_terminal(client, [job_id]).get(job_id, record)
            if final.get("result") is None:
                report.lost_jobs.append(job_id)
            elif payload_digest(final["result"]) != digest:
                report.silent_corruptions.append(job_id)

        # Cache hit-rate preservation: one pre-crash result must still
        # answer from the cache after the restart.
        probes = sorted(set(digests) & set(runs))
        if probes:
            probe_id = probes[0]
            replay = client.submit(
                builtin=builtin, method="estimate", run=runs[probe_id]
            )
            report.cache_hit_preserved = bool(replay["cached"])
            if not replay["cached"]:
                _wait_all_terminal(client, [replay["id"]])
                replay = client.job(replay["id"])
            if replay.get("result") is not None and payload_digest(
                replay["result"]
            ) != digests[probe_id]:
                report.silent_corruptions.append(replay["id"])
            report.log(
                f"cache probe after restart: cached={replay['cached']} "
                f"(probe of {probe_id}); pre-crash digest "
                f"{'DIFFERS' if replay['id'] in report.silent_corruptions else 'matches'}"
            )

        # Detected (not silent) corruption accounting.
        final_health = client.health()
        cache_stats = (final_health.get("durable") or {}).get("cache", {})
        report.corruptions_detected = int(
            cache_stats.get("quarantined", 0) or 0
        ) + int(cache_stats.get("corrupt", 0) or 0)
        recovery = report.recovery or {}
        report.corruptions_detected += int(recovery.get("results_missing", 0))
        report.completed = sum(
            1
            for j in acked
            if (terminal.get(j) or {}).get("state") == "done" or j in digests
        )
        report.failed_with_diagnostic = sum(
            1
            for j, r in terminal.items()
            if r["state"] == "failed" and j not in report.undiagnosed_failures
        )
        report.cancelled = sum(
            1 for r in terminal.values() if r["state"] == "cancelled"
        )
        report.acknowledged = len(acked)
        report.log(report.summary())
        return report
    finally:
        server.stop()
