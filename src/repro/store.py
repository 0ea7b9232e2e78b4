"""Verified blobs: the one on-disk format of persisted results.

The results of Algorithm 1 — per-design power, area and slack — are
persisted by the serve result cache (:mod:`repro.serve.durable`) and by
the sweep experiment store (:mod:`repro.sweep.store`). Both keep them as
*verified blobs* under a root directory::

    root/
        <blobs>/<key[:2]>/<key>.json    canonical {"key", "sha256", "payload"}
        quarantine/<key>.json           damaged blobs, moved aside

:class:`BlobStore` owns that format:

* a blob is :func:`canonical_json` of ``{"key", "sha256", "payload"}``,
  where ``sha256`` is :func:`payload_digest` of the payload;
* writes are atomic (:func:`write_json_atomic`: tempfile + fsync +
  rename), so a crash leaves the old blob or the new one, never a torn
  one;
* every read checks the embedded key against the requested key and the
  digest against the payload. A blob that fails is moved to
  ``quarantine/`` with a reason and reported as absent, so the caller
  recomputes instead of serving damage.

Keys are the owner's content addresses — in practice
:func:`repro.serve.cache.job_cache_key`. This module imports nothing
from :mod:`repro.serve` or :mod:`repro.sweep`; both build on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import List, Optional, Tuple, Type

from repro.errors import ReproError

#: Quarantine reasons: the file is not a readable blob wrapper, or its
#: embedded key or digest does not match the key it was read under and
#: the payload it carries.
UNPARSEABLE = "unparseable"
DIGEST_MISMATCH = "digest-mismatch"
REASONS = (UNPARSEABLE, DIGEST_MISMATCH)


def canonical_json(payload: object) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_digest(payload: object) -> str:
    """The SHA-256 of a payload's canonical JSON.

    Stored next to every blob and in every serve ``finish`` journal
    record: byte-identical payloads have equal digests, so a result
    recomputed after a crash can be checked against the one recorded
    before it.
    """
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def write_json_atomic(
    path: str, payload: object, error: Type[ReproError] = ReproError
) -> None:
    """Write ``canonical_json(payload)`` to ``path`` atomically.

    The bytes go to a temp file in the target directory, are fsync'd,
    then renamed over ``path``: readers see the old file or the new one.
    An ``OSError`` is raised as ``error`` and leaves no temp file.
    """
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(payload))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        raise error(f"cannot write {path!r}: {exc}") from exc


def _json_names(directory: str) -> List[str]:
    """Sorted ``<name>`` of every ``<name>.json`` in ``directory``."""
    names = sorted(os.listdir(directory))
    return [n[: -len(".json")] for n in names if n.endswith(".json")]


class BlobStore:
    """Verified JSON blobs addressed by key under one root directory.

    ``blobs`` names the blob subdirectory: ``"blobs"`` in a serve state
    dir's ``cache/``, ``"points"`` in a sweep store. ``error`` is the
    :class:`~repro.errors.ReproError` subclass raised when the disk
    refuses a write, so each owner keeps its own typed failure.
    """

    def __init__(
        self, root: str, blobs: str = "blobs", error: Type[ReproError] = ReproError
    ) -> None:
        self.root = root
        self.blob_dir = os.path.join(root, blobs)
        self.quarantine_dir = os.path.join(root, "quarantine")
        self.error = error
        try:
            os.makedirs(self.blob_dir, exist_ok=True)
            os.makedirs(self.quarantine_dir, exist_ok=True)
        except OSError as exc:
            raise error(
                f"cannot create blob store under {root!r}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def path(self, key: str) -> str:
        """Where the blob for ``key`` lives (whether or not it exists)."""
        return os.path.join(self.blob_dir, key[:2], f"{key}.json")

    def has(self, key: str) -> bool:
        """Cheap existence probe (no integrity check — :meth:`get` does)."""
        return os.path.exists(self.path(key))

    __contains__ = has

    def read(self, key: str) -> Tuple[Optional[dict], Optional[str]]:
        """``(payload, None)`` for a verified blob, else ``(None, reason)``.

        ``reason`` is ``None`` when there is no blob, or the reason the
        blob was just quarantined (:data:`REASONS`).
        """
        path = self.path(key)
        if not os.path.exists(path):
            return None, None
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as fh:
                wrapper = json.loads(fh.read())
            payload = wrapper["payload"]
            stored_digest = wrapper["sha256"]
            stored_key = wrapper["key"]
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            return None, self._quarantine(key, UNPARSEABLE)
        if stored_key != key or payload_digest(payload) != stored_digest:
            return None, self._quarantine(key, DIGEST_MISMATCH)
        return payload, None

    def get(self, key: str) -> Optional[dict]:
        """The verified payload, or ``None`` (missing or quarantined)."""
        return self.read(key)[0]

    def put(self, key: str, payload: dict) -> None:
        """Atomically persist one blob; raises ``error`` on failure."""
        wrapper = {"key": key, "sha256": payload_digest(payload), "payload": payload}
        write_json_atomic(self.path(key), wrapper, self.error)

    def _quarantine(self, key: str, reason: str) -> str:
        """Move a damaged blob aside (never raises); returns ``reason``."""
        path = self.path(key)
        try:
            os.replace(path, os.path.join(self.quarantine_dir, f"{key}.json"))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        return reason

    # ------------------------------------------------------------------
    def keys(self) -> List[str]:
        """Every stored key, sorted."""
        keys: List[str] = []
        for shard in sorted(os.listdir(self.blob_dir)):
            shard_dir = os.path.join(self.blob_dir, shard)
            if os.path.isdir(shard_dir):
                keys.extend(_json_names(shard_dir))
        return keys

    def __len__(self) -> int:
        return len(self.keys())

    def quarantined(self) -> List[str]:
        """Keys of the blobs moved to quarantine, sorted."""
        return _json_names(self.quarantine_dir)

    def verify(self) -> dict:
        """Integrity-scan every blob: ``{verified, quarantined}`` counts."""
        verified = quarantined = 0
        for key in self.keys():
            if self.get(key) is None:
                quarantined += 1
            else:
                verified += 1
        return {"verified": verified, "quarantined": quarantined}
