"""Durable job store: journal, disk cache, replay, crash recovery.

The crash-safety contract pinned here:

* the journal is append-only and tolerant of torn tails: truncating
  mid-record costs exactly the torn record, never an earlier one;
* the disk blob cache verifies every read against the embedded SHA-256
  digest — a corrupted blob is quarantined and reported as a miss
  (recompute), never served;
* a restarted :class:`JobService` replays the journal: terminal jobs
  come back with integrity-verified results, orphaned (acknowledged
  but unfinished) jobs are re-enqueued and run to completion, and the
  cache hit-rate survives the restart.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import StateStoreError
from repro.runconfig import RunConfig
from repro.serve import (
    DONE,
    FAILED,
    QUEUED,
    DurableStore,
    JobService,
    Journal,
    ResultCache,
    payload_digest,
    replay_journal,
)
from repro.store import BlobStore

RUN = {"cycles": 120, "engine": "compiled", "workers": 1}


def make_service(state_dir, **kwargs) -> JobService:
    kwargs.setdefault("queue_size", 8)
    kwargs.setdefault("job_workers", 2)
    kwargs.setdefault("fsync", False)  # tmpfs + tests: skip the fsync cost
    return JobService(state_dir=str(state_dir), **kwargs)


# ----------------------------------------------------------------------
class TestJournal:
    def test_append_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = Journal(path, fsync=False)
        journal.append("submit", "j1", method="estimate")
        journal.append("start", "j1", attempt=1)
        journal.append("finish", "j1", result_digest="abc")
        journal.close()
        records, corrupt = Journal.read(path)
        assert corrupt == 0
        assert [r["type"] for r in records] == ["submit", "start", "finish"]
        assert records[0]["job"] == "j1" and records[0]["method"] == "estimate"

    def test_unknown_record_type_rejected(self, tmp_path):
        journal = Journal(str(tmp_path / "j.jsonl"), fsync=False)
        with pytest.raises(StateStoreError):
            journal.append("explode", "j1")
        journal.close()

    def test_torn_tail_costs_only_the_torn_record(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = Journal(path, fsync=False)
        journal.append("submit", "j1")
        journal.append("submit", "j2")
        journal.append("finish", "j2", result_digest="d")
        journal.close()
        raw = open(path, "rb").read()
        with open(path, "wb") as fh:  # tear the last line in half
            fh.write(raw[: len(raw) - 10])
        records, corrupt = Journal.read(path)
        assert corrupt == 1
        assert [r["job"] for r in records] == ["j1", "j2"]

    def test_garbage_lines_counted_not_fatal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with open(path, "w") as fh:
            fh.write('{"type": "submit", "job": "j1", "t": 0}\n')
            fh.write("not json at all\n")
            fh.write('{"type": "nope", "job": "j1"}\n')
            fh.write('["not", "an", "object"]\n')
        records, corrupt = Journal.read(path)
        assert len(records) == 1 and corrupt == 3

    def test_missing_file_is_empty(self, tmp_path):
        assert Journal.read(str(tmp_path / "absent.jsonl")) == ([], 0)


class TestReplay:
    def test_lifecycle_folding(self):
        records = [
            {"type": "submit", "job": "a", "t": 1.0, "method": "estimate"},
            {"type": "start", "job": "a", "t": 2.0, "attempt": 1},
            {"type": "finish", "job": "a", "t": 3.0, "result_digest": "dd"},
            {"type": "submit", "job": "b", "t": 1.0},
            {"type": "start", "job": "b", "t": 2.0, "attempt": 1},
            {"type": "retry", "job": "b", "t": 3.0, "reason": "crash"},
            {"type": "submit", "job": "c", "t": 1.0},
            {"type": "fail", "job": "c", "t": 2.0, "error": {"type": "X"}},
            {"type": "submit", "job": "d", "t": 1.0},
            {"type": "cancel", "job": "d", "t": 2.0},
        ]
        state = replay_journal(records)
        assert state["a"]["state"] == "done"
        assert state["a"]["result_digest"] == "dd"
        assert state["b"]["state"] == "queued"  # retried: back in line
        assert state["b"]["attempts"] == 1
        assert state["c"]["state"] == "failed"
        assert state["c"]["error"] == {"type": "X"}
        assert state["d"]["state"] == "cancelled"

    def test_records_without_submit_are_dropped(self):
        # A start/finish whose submit was lost to truncation refers to
        # work that was never durably acknowledged.
        state = replay_journal(
            [
                {"type": "start", "job": "ghost", "t": 1.0, "attempt": 1},
                {"type": "finish", "job": "ghost", "t": 2.0},
            ]
        )
        assert state == {}


# ----------------------------------------------------------------------
class TestDiskResultCache:
    def test_blob_survives_a_fresh_instance(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = ResultCache(4, disk=BlobStore(root))
        cache.put("k" * 16, {"value": 42})
        reborn = ResultCache(4, disk=BlobStore(root))  # cold memory tier
        hit, payload = reborn.get("k" * 16)
        assert hit and payload == {"value": 42}
        assert reborn._metrics.value("serve.cache.disk_hits") == 1

    def test_corrupt_blob_quarantined_and_missed(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = ResultCache(4, disk=BlobStore(root))
        key = "deadbeef" * 8
        cache.put(key, {"value": 1})
        blob = os.path.join(root, "blobs", key[:2], f"{key}.json")
        raw = bytearray(open(blob, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        open(blob, "wb").write(bytes(raw))
        reborn = ResultCache(4, disk=BlobStore(root))
        hit, payload = reborn.get(key)
        assert not hit and payload is None
        assert not os.path.exists(blob)  # moved out of the blob tree
        assert len(os.listdir(os.path.join(root, "quarantine"))) == 1
        stats = reborn.stats()
        assert stats["quarantined"] == 1 and stats["corrupt"] == 1

    def test_key_mismatch_is_corruption(self, tmp_path):
        # A blob renamed to another key must not satisfy that key.
        root = str(tmp_path / "cache")
        cache = ResultCache(4, disk=BlobStore(root))
        cache.put("aa11", {"value": 1})
        src = os.path.join(root, "blobs", "aa", "aa11.json")
        dst = os.path.join(root, "blobs", "bb")
        os.makedirs(dst, exist_ok=True)
        os.rename(src, os.path.join(dst, "bb22.json"))
        hit, _ = ResultCache(4, disk=BlobStore(root)).get("bb22")
        assert not hit

    def test_verify_scans_every_blob(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = ResultCache(4, disk=BlobStore(root))
        cache.put("aaaa", {"v": 1})
        cache.put("bbbb", {"v": 2})
        blob = os.path.join(root, "blobs", "aa", "aaaa.json")
        open(blob, "w").write("garbage")
        assert cache.disk.verify() == {"verified": 1, "quarantined": 1}

    def test_payload_digest_is_canonical(self):
        assert payload_digest({"b": 1, "a": 2}) == payload_digest({"a": 2, "b": 1})
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})


# ----------------------------------------------------------------------
class TestRecovery:
    def test_done_job_survives_restart_with_verified_result(self, tmp_path):
        service = make_service(tmp_path)
        try:
            job = service.submit("estimate", builtin="design1", run=RUN)
            job = service.wait(job.id, timeout=120)
            assert job.state == DONE
            result, job_id = job.result, job.id
        finally:
            service.shutdown()

        reborn = make_service(tmp_path)
        try:
            report = reborn.last_recovery
            assert report is not None
            assert report.completed == 1 and report.results_recovered == 1
            recovered = reborn.get(job_id)
            assert recovered.state == DONE and recovered.recovered
            assert json.dumps(recovered.result, sort_keys=True) == json.dumps(
                result, sort_keys=True
            )
            # Cache hit-rate is preserved across the restart.
            again = reborn.submit("estimate", builtin="design1", run=RUN)
            assert again.cached and again.state == DONE
        finally:
            reborn.shutdown()

    def test_orphaned_job_reenqueued_and_completed(self, tmp_path):
        service = make_service(tmp_path, start=False)  # ack but never run
        job = service.submit("estimate", builtin="design1", run=RUN)
        assert job.state == QUEUED
        service.store.close()  # simulate the crash: no drain, no finish

        reborn = make_service(tmp_path)
        try:
            report = reborn.last_recovery
            assert report.reenqueued == 1 and report.reenqueued_ids == [job.id]
            recovered = reborn.wait(job.id, timeout=120)
            assert recovered.state == DONE and recovered.recovered
        finally:
            reborn.shutdown()

    def test_corrupt_result_blob_recomputed_not_served(self, tmp_path):
        service = make_service(tmp_path)
        try:
            job = service.submit("estimate", builtin="design1", run=RUN)
            job = service.wait(job.id, timeout=120)
            digest = payload_digest(job.result)
            key, job_id = job.cache_key, job.id
        finally:
            service.shutdown()
        blob = os.path.join(
            str(tmp_path), "cache", "blobs", key[:2], f"{key}.json"
        )
        raw = bytearray(open(blob, "rb").read())
        raw[len(raw) // 3] ^= 0xFF
        open(blob, "wb").write(bytes(raw))

        reborn = make_service(tmp_path)
        try:
            assert reborn.last_recovery.results_missing == 1
            recomputed = reborn.wait(job_id, timeout=120)
            assert recomputed.state == DONE
            assert payload_digest(recomputed.result) == digest
        finally:
            reborn.shutdown()

    def test_failed_job_replays_with_error_body(self, tmp_path, monkeypatch):
        from repro.serve.jobs import METHODS

        def boom(session, params):
            raise ValueError("deliberate test failure")

        monkeypatch.setitem(METHODS, "estimate", (frozenset(), boom))
        service = make_service(tmp_path)
        try:
            job = service.submit("estimate", builtin="design1", run=RUN)
            job = service.wait(job.id, timeout=60)
            assert job.state == FAILED
            job_id = job.id
        finally:
            service.shutdown()
        monkeypatch.undo()

        reborn = make_service(tmp_path)
        try:
            recovered = reborn.get(job_id)
            assert recovered.state == FAILED
            assert recovered.error["type"] == "ValueError"
            assert recovered.error["diagnostics"]
        finally:
            reborn.shutdown()

    def test_journaled_run_that_no_longer_validates_fails(self, tmp_path):
        service = make_service(tmp_path, start=False)  # ack but never run
        job = service.submit("estimate", builtin="design1", run=RUN)
        service.store.close()
        # Rewrite the acknowledged run to one cycle, as a journal written
        # before the cycles >= 2 check would hold it.
        path = os.path.join(str(tmp_path), DurableStore.JOURNAL_NAME)
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        for record in records:
            if record["type"] == "submit":
                record["run"]["cycles"] = 1
        with open(path, "w") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in records)

        reborn = make_service(tmp_path)
        try:
            report = reborn.last_recovery
            assert report.reenqueued == 0 and report.failed == 1
            recovered = reborn.get(job.id)
            assert recovered.state == FAILED and recovered.recovered
            assert "cycles must be >= 2" in recovered.error["message"]
            assert reborn.cache.get(job.cache_key) == (False, None)
        finally:
            reborn.shutdown()
        # The failure is journaled: a second restart replays it as failed.
        again = make_service(tmp_path)
        try:
            assert again.get(job.id).state == FAILED
            assert again.last_recovery.reenqueued == 0
        finally:
            again.shutdown()

    def test_torn_journal_tail_is_counted_and_survivors_recover(self, tmp_path):
        service = make_service(tmp_path)
        try:
            job = service.submit("estimate", builtin="design1", run=RUN)
            job = service.wait(job.id, timeout=120)
            job_id = job.id
        finally:
            service.shutdown()
        path = os.path.join(str(tmp_path), DurableStore.JOURNAL_NAME)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-5])  # tear the final record

        reborn = make_service(tmp_path)
        try:
            assert reborn.last_recovery.corrupt_lines == 1
            assert reborn.get(job_id) is not None
        finally:
            reborn.shutdown()

    def test_id_counter_resumes_past_recovered_jobs(self, tmp_path):
        service = make_service(tmp_path)
        try:
            first = service.submit("estimate", builtin="design1", run=RUN)
            service.wait(first.id, timeout=120)
        finally:
            service.shutdown()
        reborn = make_service(tmp_path)
        try:
            second = reborn.submit(
                "estimate", builtin="design1", run={**RUN, "cycles": 121}
            )
            assert second.id != first.id
            assert int(second.id.lstrip("j")) > int(first.id.lstrip("j"))
        finally:
            reborn.shutdown()

    def test_healthz_reports_durable_status(self, tmp_path):
        service = make_service(tmp_path)
        try:
            status = service.status()
            assert status["durable"]["state_dir"] == str(tmp_path)
            assert "journal" in status["durable"]
            assert status["durable"]["cache"]["root"].startswith(str(tmp_path))
        finally:
            service.shutdown()

    def test_default_run_still_works_without_state_dir(self):
        service = JobService(queue_size=4, job_workers=1)
        try:
            assert service.store is None and service.last_recovery is None
            job = service.submit("estimate", builtin="design1", run=RUN)
            assert service.wait(job.id, timeout=120).state == DONE
        finally:
            service.shutdown()
