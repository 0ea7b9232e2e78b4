"""Crash-safe persistence for the job service.

Two cooperating stores under one ``--state-dir``, both append/atomic so
a ``kill -9`` at any instant leaves a recoverable state:

* :class:`Journal` — an append-only JSONL write-ahead log of job
  lifecycle records (``submit`` / ``start`` / ``retry`` / ``finish`` /
  ``fail`` / ``cancel``), one fsync'd line per record. Replay is
  *tolerant*: a torn tail write (the only corruption an append-only log
  can suffer from a crash) is detected, counted and dropped instead of
  aborting recovery — every record fsync'd before the crash survives.
* the result blobs (:func:`result_blobs`) — a
  :class:`repro.store.BlobStore` keyed by the SHA-256 cache keys
  (:func:`repro.serve.cache.job_cache_key`): atomic writes, every read
  integrity-verified, a corrupt blob (bit rot, torn write, hostile
  edit) quarantined and reported as a miss, so the job is recomputed
  rather than a silently wrong result served. It is the disk tier of
  the service's :class:`~repro.serve.cache.ResultCache`, whose
  in-memory LRU stays on top as the hot tier.

:class:`DurableStore` owns the layout::

    state_dir/
        journal.jsonl
        cache/
            blobs/<key[:2]>/<key>.json
            quarantine/<key>.json

and :func:`replay_journal` folds a journal into the latest state of
every job, which :meth:`repro.serve.jobs.JobService.recover` uses to
re-enqueue orphans (acknowledged jobs that never reached a terminal
record) after a restart. The chaos harness (:mod:`repro.verify.chaos`)
attacks exactly these mechanisms — truncating journals mid-record and
bit-flipping blobs — and asserts no acknowledged job is lost and no
corruption is silent.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import StateStoreError
from repro.store import BlobStore, payload_digest  # noqa: F401  (re-exported)

#: Journal record types, in lifecycle order.
RECORD_TYPES = ("submit", "start", "retry", "finish", "fail", "cancel")


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class Journal:
    """Append-only, fsync'd JSONL write-ahead log.

    ``append`` is the commit point of every job state transition: once
    it returns, the record survives ``kill -9``. All appends are
    serialised by an internal lock (the service calls it from several
    worker threads).
    """

    def __init__(self, path: str, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync
        self._lock = threading.Lock()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        try:
            self._fh = open(path, "a", encoding="utf-8")
        except OSError as exc:
            raise StateStoreError(f"cannot open journal {path!r}: {exc}") from exc
        self.appended = 0

    def append(self, type: str, job_id: str, **fields) -> dict:
        """Durably append one record; returns the record written."""
        if type not in RECORD_TYPES:
            raise StateStoreError(f"unknown journal record type {type!r}")
        record = {"type": type, "job": job_id, "t": time.time(), **fields}
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            try:
                self._fh.write(line + "\n")
                self._fh.flush()
                if self.fsync:
                    os.fsync(self._fh.fileno())
            except (OSError, ValueError) as exc:  # ValueError: closed file
                raise StateStoreError(
                    f"cannot append to journal {self.path!r}: {exc}"
                ) from exc
            self.appended += 1
        return record

    def close(self) -> None:
        with self._lock:
            try:
                self._fh.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    @staticmethod
    def read(path: str) -> Tuple[List[dict], int]:
        """``(records, corrupt_lines)`` — tolerant read of a journal file.

        A line that is not valid JSON, not an object, or missing the
        ``type``/``job`` envelope is counted as corrupt and skipped.
        Truncation mid-line (torn tail write) therefore costs exactly
        the torn record, never the records before it.
        """
        records: List[dict] = []
        corrupt = 0
        if not os.path.exists(path):
            return records, corrupt
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    corrupt += 1
                    continue
                if (
                    not isinstance(record, dict)
                    or record.get("type") not in RECORD_TYPES
                    or not isinstance(record.get("job"), str)
                ):
                    corrupt += 1
                    continue
                records.append(record)
        return records, corrupt

    def status(self) -> dict:
        """Snapshot for ``/healthz``."""
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        return {
            "path": self.path,
            "bytes": size,
            "appended": self.appended,
            "fsync": self.fsync,
        }


def replay_journal(records: List[dict]) -> "Dict[str, dict]":
    """Fold journal records into the latest known state of every job.

    Returns ``{job_id: state}`` where each state dict carries the
    original ``submit`` fields plus ``state`` (one of the
    :data:`repro.serve.jobs.STATES`), ``attempts``, and — for terminal
    jobs — ``result_digest`` / ``error``. Records for jobs whose
    ``submit`` line is missing (lost to truncation) are dropped: an
    acknowledgement that did not survive was never durably made.
    """
    jobs: Dict[str, dict] = {}
    for record in records:
        job_id = record["job"]
        kind = record["type"]
        if kind == "submit":
            state = dict(record)
            state.pop("type")
            state["state"] = "queued"
            state["attempts"] = 0
            jobs[job_id] = state
            continue
        state = jobs.get(job_id)
        if state is None:  # submit lost to truncation: not acknowledged
            continue
        if kind == "start":
            state["state"] = "running"
            state["attempts"] = int(record.get("attempt", state["attempts"] + 1))
        elif kind == "retry":
            state["state"] = "queued"
        elif kind == "finish":
            state["state"] = "done"
            state["result_digest"] = record.get("result_digest")
            state["cached"] = bool(record.get("cached", False))
        elif kind == "fail":
            state["state"] = "failed"
            state["error"] = record.get("error")
        elif kind == "cancel":
            state["state"] = "cancelled"
    return jobs


def result_blobs(state_dir: str) -> BlobStore:
    """The verified result blobs of a state dir (``cache/blobs``).

    Write failures raise :class:`~repro.errors.StateStoreError`.
    """
    return BlobStore(os.path.join(state_dir, "cache"), "blobs", StateStoreError)


# ----------------------------------------------------------------------
# The combined store
# ----------------------------------------------------------------------
@dataclass
class RecoveryReport:
    """What one journal replay found and did."""

    journal_records: int = 0
    corrupt_lines: int = 0
    jobs_seen: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    reenqueued: int = 0
    results_recovered: int = 0
    results_missing: int = 0
    reenqueued_ids: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "journal_records": self.journal_records,
            "corrupt_lines": self.corrupt_lines,
            "jobs_seen": self.jobs_seen,
            "completed": self.completed,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "reenqueued": self.reenqueued,
            "results_recovered": self.results_recovered,
            "results_missing": self.results_missing,
            "reenqueued_ids": list(self.reenqueued_ids),
        }

    def summary(self) -> str:
        return (
            f"recovered {self.jobs_seen} job(s) from {self.journal_records} "
            f"journal record(s) ({self.corrupt_lines} corrupt line(s) "
            f"dropped): {self.completed} done, {self.failed} failed, "
            f"{self.cancelled} cancelled, {self.reenqueued} re-enqueued; "
            f"{self.results_recovered} cached result(s) verified, "
            f"{self.results_missing} missing/corrupt"
        )


class DurableStore:
    """One ``--state-dir``: journal + result blobs + recovery bookkeeping."""

    JOURNAL_NAME = "journal.jsonl"

    def __init__(self, state_dir: str, fsync: bool = True) -> None:
        self.state_dir = state_dir
        try:
            os.makedirs(state_dir, exist_ok=True)
        except OSError as exc:
            raise StateStoreError(
                f"cannot create state dir {state_dir!r}: {exc}"
            ) from exc
        self.journal_path = os.path.join(state_dir, self.JOURNAL_NAME)
        #: Records found on disk at open time (before this process wrote
        #: anything) and the torn lines dropped reading them.
        self.replayed_records, self.corrupt_lines = Journal.read(self.journal_path)
        self.journal = Journal(self.journal_path, fsync=fsync)
        self.blobs = result_blobs(state_dir)
        self.last_recovery: Optional[RecoveryReport] = None

    def replayed_jobs(self) -> Dict[str, dict]:
        return replay_journal(self.replayed_records)

    def close(self) -> None:
        self.journal.close()

    def status(self) -> dict:
        """Journal and recovery snapshot (the service adds its cache)."""
        payload = {
            "state_dir": self.state_dir,
            "journal": {
                **self.journal.status(),
                "replayed_records": len(self.replayed_records),
                "corrupt_lines": self.corrupt_lines,
            },
        }
        if self.last_recovery is not None:
            payload["recovery"] = self.last_recovery.to_dict()
        return payload
