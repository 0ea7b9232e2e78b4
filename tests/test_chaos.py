"""Chaos-harness primitives: state-dir attacks and report invariants.

The full subprocess campaign (``repro chaos``) runs in CI's chaos-smoke
job; these tests pin the harness's building blocks deterministically:
the journal-tearing and blob-flipping helpers must damage exactly what
they claim to, the offline scanner must see the damage, and
:class:`ChaosReport.ok` must refuse to pass a campaign that lost a job
or served a corrupted result.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import ReproError
from repro.serve import Journal, ResultCache
from repro.serve.durable import result_blobs
from repro.verify.chaos import (
    ChaosReport,
    corrupt_blob,
    scan_state_dir,
    truncate_journal,
)


def _state_dir_with_journal(tmp_path, records):
    journal = Journal(str(tmp_path / "journal.jsonl"), fsync=False)
    for type_, job_id in records:
        journal.append(type_, job_id)
    journal.close()
    return str(tmp_path)


class TestTruncateJournal:
    def test_tears_only_the_last_record(self, tmp_path):
        state_dir = _state_dir_with_journal(
            tmp_path, [("submit", "j1"), ("start", "j1"), ("finish", "j1")]
        )
        torn = truncate_journal(state_dir)
        assert torn["torn_record"]["type"] == "finish"
        records, corrupt = Journal.read(os.path.join(state_dir, "journal.jsonl"))
        assert [r["type"] for r in records] == ["submit", "start"]
        assert corrupt <= 1  # the torn fragment, if any survived the cut

    def test_explicit_offset(self, tmp_path):
        state_dir = _state_dir_with_journal(tmp_path, [("submit", "j1")])
        torn = truncate_journal(state_dir, offset=0)
        assert torn["offset"] == 0
        assert os.path.getsize(os.path.join(state_dir, "journal.jsonl")) == 0

    def test_empty_journal_is_a_noop(self, tmp_path):
        (tmp_path / "journal.jsonl").write_text("")
        torn = truncate_journal(str(tmp_path))
        assert torn == {"offset": 0, "torn_record": None}


class TestCorruptBlob:
    def test_flips_one_byte_and_the_cache_detects_it(self, tmp_path):
        cache = ResultCache(4, disk=result_blobs(str(tmp_path)))
        cache.put("feedface" * 8, {"value": 7})
        before = open(cache.disk.path("feedface" * 8), "rb").read()
        hit = corrupt_blob(str(tmp_path))
        assert hit["key"] == "feedface" * 8
        after = open(hit["path"], "rb").read()
        assert len(before) == len(after)
        assert sum(a != b for a, b in zip(before, after)) == 1
        # A fresh cache must detect the damage and refuse to serve it.
        found, _ = ResultCache(4, disk=result_blobs(str(tmp_path))).get("feedface" * 8)
        assert not found
        scan = scan_state_dir(str(tmp_path))
        assert scan["blobs"] == 0 and scan["quarantined"] == 1

    def test_no_blobs_raises(self, tmp_path):
        os.makedirs(tmp_path / "cache" / "blobs", exist_ok=True)
        with pytest.raises(ReproError):
            corrupt_blob(str(tmp_path))


class TestScan:
    def test_counts_records_blobs_and_damage(self, tmp_path):
        state_dir = _state_dir_with_journal(
            tmp_path, [("submit", "j1"), ("finish", "j1")]
        )
        ResultCache(4, disk=result_blobs(state_dir)).put("abcd", {"v": 1})
        scan = scan_state_dir(state_dir)
        assert scan == {
            "journal_records": 2,
            "corrupt_lines": 0,
            "blobs": 1,
            "quarantined": 0,
        }


class TestChaosReport:
    def test_clean_campaign_is_ok(self):
        report = ChaosReport(
            acknowledged=5, completed=4, failed_with_diagnostic=1,
            blob_corruptions=1, corruptions_detected=2,
            cache_hit_preserved=True,
        )
        assert report.ok
        assert "OK" in report.summary()
        assert json.loads(json.dumps(report.to_dict()))["ok"] is True

    def test_lost_job_fails_the_campaign(self):
        assert not ChaosReport(lost_jobs=["j7"]).ok

    def test_silent_corruption_fails_the_campaign(self):
        assert not ChaosReport(silent_corruptions=["j3"]).ok

    def test_undiagnosed_failure_fails_the_campaign(self):
        assert not ChaosReport(undiagnosed_failures=["j9"]).ok

    def test_undetected_blob_corruption_fails_the_campaign(self):
        report = ChaosReport(blob_corruptions=2, corruptions_detected=1)
        assert not report.ok

    def test_lost_cache_hit_rate_fails_the_campaign(self):
        assert not ChaosReport(cache_hit_preserved=False).ok
        assert ChaosReport(cache_hit_preserved=None).ok  # nothing to probe
