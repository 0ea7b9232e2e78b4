"""repro.store: the verified-blob format shared by serve and sweeps.

The contract pinned here is the on-disk format itself: a blob written
today must be byte-identical to one an older state dir or sweep store
already holds, and every kind of damage is quarantined with a reason
instead of being served.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.errors import StateStoreError, SweepError
from repro.store import (
    DIGEST_MISMATCH,
    UNPARSEABLE,
    BlobStore,
    canonical_json,
    payload_digest,
    write_json_atomic,
)

KEY = "c0ffee" * 10 + "abcd"
PAYLOAD = {"design": "d1", "power_mw": {"before": 3.1, "after": 2.4}, "ok": True}
BLOB_BYTES = (
    b'{"key":"' + KEY.encode() + b'",'
    b'"payload":{"design":"d1","ok":true,"power_mw":{"after":2.4,"before":3.1}},'
    b'"sha256":"d4014158777f474baa5a50de7377cf2a7c2e66cc9e658a5f471f3a5d9382ac3e"}'
)


def _tmp_files(root):
    return [
        os.path.join(dirpath, name)
        for dirpath, _dirs, files in os.walk(root)
        for name in files
        if name.endswith(".tmp")
    ]


class TestFormat:
    def test_blob_path_and_bytes(self, tmp_path):
        store = BlobStore(str(tmp_path / "cache"))
        store.put(KEY, PAYLOAD)
        path = tmp_path / "cache" / "blobs" / KEY[:2] / f"{KEY}.json"
        assert store.path(KEY) == str(path)
        wrapper = {"key": KEY, "sha256": payload_digest(PAYLOAD), "payload": PAYLOAD}
        assert path.read_bytes() == canonical_json(wrapper).encode()
        # The exact bytes serve caches and sweep stores have always held.
        assert path.read_bytes() == BLOB_BYTES

    def test_reads_an_existing_store(self, tmp_path):
        # A sweep store's point, laid down as earlier versions wrote it.
        path = tmp_path / "points" / KEY[:2] / f"{KEY}.json"
        path.parent.mkdir(parents=True)
        path.write_bytes(BLOB_BYTES)
        store = BlobStore(str(tmp_path), "points")
        assert store.read(KEY) == (PAYLOAD, None)
        assert store.keys() == [KEY] and KEY in store and len(store) == 1

    def test_missing_key(self, tmp_path):
        store = BlobStore(str(tmp_path))
        assert store.read("absent") == (None, None)
        assert store.get("absent") is None and not store.has("absent")


class TestQuarantine:
    def _damaged(self, tmp_path, text):
        store = BlobStore(str(tmp_path))
        store.put(KEY, PAYLOAD)
        with open(store.path(KEY), "w", encoding="utf-8") as fh:
            fh.write(text)
        return store

    def test_unparseable(self, tmp_path):
        store = self._damaged(tmp_path, '{"key": "trunc')
        assert store.read(KEY) == (None, UNPARSEABLE)
        assert not store.has(KEY) and store.quarantined() == [KEY]

    def test_missing_wrapper_field(self, tmp_path):
        store = self._damaged(tmp_path, json.dumps({"key": KEY, "payload": {}}))
        assert store.read(KEY) == (None, UNPARSEABLE)

    def test_digest_mismatch(self, tmp_path):
        forged = {"key": KEY, "sha256": payload_digest(PAYLOAD), "payload": {"x": 2}}
        store = self._damaged(tmp_path, canonical_json(forged))
        assert store.read(KEY) == (None, DIGEST_MISMATCH)
        assert store.quarantined() == [KEY]

    def test_renamed_blob(self, tmp_path):
        # An intact blob moved under another key must not answer for it.
        store = BlobStore(str(tmp_path))
        store.put(KEY, PAYLOAD)
        other = "ab" + KEY[2:]
        os.makedirs(os.path.dirname(store.path(other)), exist_ok=True)
        os.rename(store.path(KEY), store.path(other))
        assert store.read(other) == (None, DIGEST_MISMATCH)
        assert store.quarantined() == [other] and store.keys() == []

    def test_second_read_is_a_plain_miss(self, tmp_path):
        store = self._damaged(tmp_path, "garbage")
        assert store.read(KEY) == (None, UNPARSEABLE)
        assert store.read(KEY) == (None, None)


class TestVerify:
    def test_counts(self, tmp_path):
        store = BlobStore(str(tmp_path))
        for index in range(3):
            store.put(f"{index:02d}" * 8, {"i": index})
        with open(store.path("01" * 8), "w", encoding="utf-8") as fh:
            fh.write("garbage")
        assert store.verify() == {"verified": 2, "quarantined": 1}
        assert store.verify() == {"verified": 2, "quarantined": 0}
        assert len(store) == 2 and store.quarantined() == ["01" * 8]


class TestFailedWrites:
    @pytest.mark.parametrize("error", [StateStoreError, SweepError])
    def test_typed_error_and_no_tmp_left(self, tmp_path, error):
        store = BlobStore(str(tmp_path), error=error)
        # A directory squatting on the blob path makes the rename fail
        # after the temp file was written and fsync'd.
        os.makedirs(store.path(KEY))
        with pytest.raises(error, match="cannot write"):
            store.put(KEY, PAYLOAD)
        assert _tmp_files(str(tmp_path)) == []

    def test_atomic_json_write_failure(self, tmp_path, monkeypatch):
        def broken_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        target = tmp_path / "specs" / "s.json"
        with pytest.raises(SweepError, match="disk full"):
            write_json_atomic(str(target), {"a": 1}, SweepError)
        assert not target.exists() and _tmp_files(str(tmp_path)) == []

    def test_atomic_json_write_replaces(self, tmp_path):
        target = tmp_path / "x.json"
        write_json_atomic(str(target), {"b": 1, "a": 2})
        write_json_atomic(str(target), {"c": 3})
        assert target.read_text() == '{"c":3}'
        assert _tmp_files(str(tmp_path)) == []
