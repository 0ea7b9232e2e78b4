"""Shared run-control configuration for every simulation-driven entry point.

:class:`RunConfig` is the one object that carries the run-control knobs
of ``estimate_power``, ``rank_candidates``, ``optimize``/``isolate_design``
and ``compare_styles``:

* ``cycles`` / ``warmup`` — simulation length per estimation run;
* ``seed`` — stimulus seed (used by the :mod:`repro.api` facade and the
  CLI when they build the default random stimulus);
* ``engine`` — ``"python"`` (the reference interpreter), ``"compiled"``
  (the pre-bound kernel backend of :mod:`repro.sim.compile`; bit-exact,
  much faster), ``"bitslice"`` (the lane-packed bigint kernel of
  :mod:`repro.sim.bitslice` for batch runs, the compiled kernel for
  single-stream runs; bit-exact, fastest for batch workloads) or
  ``"checked"`` (compiled and reference engines in lockstep with
  periodic cross-comparison; see :mod:`repro.sim.checked`);
* ``workers`` — process-pool width for the parallel execution layer
  (:mod:`repro.parallel`): ``1`` = serial, ``0`` = one worker per CPU,
  ``n > 1`` = a pool of ``n`` processes. Defaults to the
  ``REPRO_WORKERS`` environment variable (else 1). Serial and parallel
  runs are bit-exact (see ``docs/parallelism.md``).

Every entry point accepts ``run=RunConfig(...)`` as its one per-call
override.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from repro.errors import ReproError

#: The available simulation backends.
ENGINES = ("python", "compiled", "bitslice", "checked")


def _default_workers() -> int:
    # Lazy import: repro.parallel pulls in sim/core modules that would
    # cycle back here if imported at module scope.
    from repro.parallel.pool import default_workers

    return default_workers()


@dataclass(frozen=True)
class RunConfig:
    """Run-control knobs shared by all simulation-driven entry points.

    Attributes
    ----------
    cycles:
        Observed simulation cycles per estimation run.
    warmup:
        Cycles simulated before observation starts (flushes reset
        transients out of the statistics).
    seed:
        Stimulus seed, used wherever the library builds the stimulus
        itself (the :mod:`repro.api` facade, the CLI).
    engine:
        ``"python"``, ``"compiled"``, ``"bitslice"`` or ``"checked"`` —
        which simulation backend runs the netlist. ``"compiled"`` is
        bit-exact with the python reference and much faster;
        ``"bitslice"`` packs batch lanes into Python bigints and is the
        fastest batch backend, while single-stream runs use the compiled
        kernel with bit-identical results (see ``docs/bitslice.md``);
        ``"checked"`` runs the compiled and reference engines in
        lockstep and raises :class:`~repro.errors.EquivalenceError` if
        they ever disagree (differential self-checking at roughly the
        combined cost of the two engines).
    workers:
        Process-pool width for candidate scoring / style comparison /
        sharded batch runs: ``1`` = serial, ``0`` = auto (one worker per
        CPU), ``n > 1`` = a pool of ``n`` workers. Results are bit-exact
        across worker counts; pool failures degrade to serial with a
        recorded ``fallback_reason``.
    trace:
        Enable the observability layer (:mod:`repro.obs`) for runs made
        through the :class:`repro.api.Session` facade: every pipeline
        stage is recorded as a span and the metrics registry fills in.
        Inspect via ``Session.trace()`` / ``Session.metrics()`` or export
        with ``Session.write_trace()``. Off by default (near-zero cost).
    """

    cycles: int = 2000
    warmup: int = 16
    seed: int = 0
    engine: str = "python"
    workers: int = field(default_factory=_default_workers)
    trace: bool = False

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ReproError(
                f"unknown engine {self.engine!r}; choose one of {ENGINES}"
            )
        if self.cycles < 0:
            raise ReproError(f"cycles must be >= 0, got {self.cycles}")
        if self.warmup < 0:
            raise ReproError(f"warmup must be >= 0, got {self.warmup}")
        if self.workers < 0:
            raise ReproError(f"workers must be >= 0 (0 = auto), got {self.workers}")

    def replace(self, **overrides) -> "RunConfig":
        """A copy with the given fields changed."""
        return replace(self, **overrides)

    # -- transport / identity ------------------------------------------
    def to_dict(self) -> dict:
        """All fields as a plain JSON-serialisable dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunConfig":
        """Build a config from a (possibly partial) dict.

        Unknown keys raise :class:`~repro.errors.ReproError` instead of
        being silently dropped — a misspelled knob in a remote job
        request must not quietly run with defaults.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ReproError(
                f"unknown RunConfig field(s) {unknown}; known: {sorted(known)}"
            )
        return cls(**dict(payload))

    def fingerprint(self) -> str:
        """Canonical digest of the fields that determine *results*.

        Covers ``cycles``, ``warmup``, ``seed`` and ``engine``.
        ``workers`` and ``trace`` are deliberately excluded: results are
        bit-exact across worker counts (``docs/parallelism.md``) and
        tracing never changes outputs, so configs differing only in
        those knobs are interchangeable for content-addressed caching
        (the key of the :mod:`repro.serve` result cache).
        """
        canonical = json.dumps(
            {
                "cycles": self.cycles,
                "warmup": self.warmup,
                "seed": self.seed,
                "engine": self.engine,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()
