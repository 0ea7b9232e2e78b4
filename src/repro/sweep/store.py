"""The persisted experiment store: every sweep point a verified blob.

Layout (the points are a :class:`repro.store.BlobStore`, so writes are
atomic and reads verified, with quarantine instead of silently serving
corruption)::

    store_dir/
        points/<key[:2]>/<key>.json     {"key", "sha256", "payload"}
        quarantine/<key>.json           corrupt blobs, moved aside
        specs/<fingerprint>.json        provenance: every spec ever run

Points are content-addressed by :func:`repro.serve.cache.job_cache_key`,
so the store is *append-only knowledge*: re-running any spec — the same
one after a crash, or an overlapping grid next week — skips every point
whose key is already present. That skip is what makes a sweep resumable:
kill it mid-run, invoke it again, and only the missing cells compute.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from repro.errors import SweepError
from repro.store import BlobStore, write_json_atomic


class ExperimentStore(BlobStore):
    """Durable, content-addressed sweep results under one directory.

    The points are the inherited :class:`~repro.store.BlobStore`
    (``points/``; a failed write raises :class:`~repro.errors.SweepError`).
    This class adds the spec provenance and :meth:`status`.
    """

    def __init__(self, root: str) -> None:
        super().__init__(root, "points", SweepError)
        self.specs_dir = os.path.join(root, "specs")
        try:
            os.makedirs(self.specs_dir, exist_ok=True)
        except OSError as exc:
            raise SweepError(
                f"cannot create experiment store under {root!r}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def record_spec(self, spec) -> str:
        """Journal a spec next to its points (idempotent; provenance)."""
        fingerprint = spec.fingerprint()
        path = os.path.join(self.specs_dir, f"{fingerprint}.json")
        if not os.path.exists(path):
            write_json_atomic(path, spec.to_dict(), SweepError)
        return fingerprint

    def specs(self) -> Dict[str, dict]:
        """Every recorded spec, by fingerprint."""
        out: Dict[str, dict] = {}
        for name in sorted(os.listdir(self.specs_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(
                    os.path.join(self.specs_dir, name), "r", encoding="utf-8"
                ) as fh:
                    out[name[: -len(".json")]] = json.loads(fh.read())
            except (OSError, json.JSONDecodeError):
                continue
        return out

    def status(self) -> dict:
        return {
            "root": self.root,
            "points": len(self),
            "quarantined": len(self.quarantined()),
            "specs": len(
                [n for n in os.listdir(self.specs_dir) if n.endswith(".json")]
            ),
        }
