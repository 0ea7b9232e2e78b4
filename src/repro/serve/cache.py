"""Content-addressed result cache for the job service.

A cache entry is keyed by *what was asked*, never by *who asked*:
``job_cache_key`` folds the method name, the design's structural
fingerprint (:func:`repro.sim.compile.design_fingerprint`), the
:meth:`RunConfig.fingerprint` and the canonicalised method parameters
into one SHA-256 digest. Two clients submitting the same analysis of
structurally identical designs therefore share one entry — the second
submission is answered without recomputation, which is the whole point
of running the Algorithm-1 pipeline behind a long-lived service.

Cached values are the deterministic *result payloads* built by
:mod:`repro.serve.jobs` (wall-clock timings are kept out of them), so a
cache hit is byte-identical to the miss that populated it.

Eviction is LRU with a fixed entry capacity; ``capacity=0`` disables
the memory tier. With a durable state dir the cache also has a disk
tier, a :class:`repro.store.BlobStore` that keeps every result across
restarts. Hit/miss/eviction counts feed the ``serve.cache.hits`` /
``serve.cache.misses`` / ``serve.cache.evictions`` counters of the
service's metrics registry (scraped via ``/metrics``), plus
``serve.cache.disk_hits`` and ``serve.cache.corrupt`` for the disk
tier. The counters are only ever touched under the cache's lock — the
registry itself is not thread-safe, so the service hands the cache the
lock that guards its recorder.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.store import REASONS, BlobStore, canonical_json


def job_cache_key(
    method: str,
    design_fingerprint: str,
    run_fingerprint: str,
    params: dict,
    stimulus_fingerprint: str = "default",
) -> str:
    """The content address of one job's result.

    ``stimulus_fingerprint`` separates jobs that drive the same design
    with different activity (a workload profile, a recorded CSV/VCD
    trace — see :func:`repro.sim.stimulus.stimulus_fingerprint`).
    `RunConfig.fingerprint` covers only the seed, so without this
    component two jobs replaying different traces on one design would
    collide in the cache and the second would be answered with the
    first's numbers. The literal ``"default"`` reproduces the exact
    pre-stimulus-spec keys, so persisted caches stay warm across the
    upgrade.
    """
    body = {
        "method": method,
        "design": design_fingerprint,
        "run": run_fingerprint,
        "params": params,
    }
    if stimulus_fingerprint != "default":
        # Omitted (not merely defaulted) for the default stimulus, so
        # every key minted before stimulus specs existed is unchanged.
        body["stimulus"] = stimulus_fingerprint
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


class ResultCache:
    """Thread-safe LRU cache of job result payloads over an optional disk.

    ``disk`` adds a :class:`~repro.store.BlobStore` tier: ``put`` writes
    through to it (its typed write error propagates), a memory miss
    falls back to it — a *disk hit*, promoted into memory — and
    ``capacity`` then bounds only the memory tier. A damaged blob is
    quarantined by the store and counted as a ``serve.cache.corrupt``
    miss, so the job is recomputed rather than a wrong result served.

    Counters are recorded into ``metrics`` (the service registry; pass
    ``None`` for a standalone one) under ``lock`` (a private lock when
    ``None``).
    """

    def __init__(
        self,
        capacity: int = 256,
        metrics: Optional[MetricsRegistry] = None,
        disk: Optional[BlobStore] = None,
        lock=None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.disk = disk
        self._lock = lock if lock is not None else threading.Lock()
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._metrics = metrics if metrics is not None else MetricsRegistry()

    # ------------------------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Optional[dict]]:
        """``(hit, payload)`` — and the hit/miss counter side effect."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
                self._metrics.counter("serve.cache.hits").inc()
                return True, payload
            if self.disk is None:
                self._metrics.counter("serve.cache.misses").inc()
                return False, None
        payload, reason = self.disk.read(key)
        with self._lock:
            if reason is not None:
                self._metrics.counter("serve.cache.corrupt", reason=reason).inc()
            if payload is None:
                self._metrics.counter("serve.cache.misses").inc()
                return False, None
            # A disk hit is a hit (one counter either way), promoted to
            # the memory tier; only put() counts evictions.
            self._metrics.counter("serve.cache.hits").inc()
            self._metrics.counter("serve.cache.disk_hits").inc()
            if self.capacity:
                self._remember(key, payload)
        return True, payload

    def put(self, key: str, payload: dict) -> None:
        """Insert (or refresh) an entry, evicting LRU entries over capacity."""
        if self.disk is not None:
            self.disk.put(key, payload)
        if self.capacity == 0:
            return
        with self._lock:
            evicted = self._remember(key, payload)
            if evicted:
                self._metrics.counter("serve.cache.evictions").inc(evicted)

    def _remember(self, key: str, payload: dict) -> int:
        """Insert into the memory tier (lock held); returns evictions."""
        self._entries[key] = payload
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        self._metrics.gauge("serve.cache.entries").set(len(self._entries))
        return evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Snapshot for ``/healthz`` and the CLI shutdown summary."""
        with self._lock:
            payload = {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._metrics.value("serve.cache.hits") or 0,
                "misses": self._metrics.value("serve.cache.misses") or 0,
                "evictions": self._metrics.value("serve.cache.evictions") or 0,
            }
            if self.disk is None:
                return payload
            corrupt = sum(
                self._metrics.value("serve.cache.corrupt", reason=reason) or 0
                for reason in REASONS
            )
        payload.update(
            {
                "disk_entries": len(self.disk),
                "quarantined": len(self.disk.quarantined()),
                "corrupt": corrupt,
                "root": self.disk.root,
            }
        )
        return payload
