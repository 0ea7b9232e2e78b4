"""The job service: bounded queue, worker threads, job lifecycle.

:class:`JobService` turns the :class:`repro.api.Session` API into an
asynchronous multi-client workload:

* ``submit()`` validates the request *synchronously* (unknown method,
  bad parameters, unparseable design and unknown ``RunConfig`` fields
  fail fast, before anything is queued), computes the job's content
  address and either answers it from the :class:`ResultCache` —
  ``cached: true``, no queue slot consumed — or enqueues it;
* a fixed set of worker **threads** executes queued jobs through a
  fresh :class:`~repro.api.Session` each, recording a per-job trace
  into a private :class:`~repro.obs.Recorder` (the contextvar-based
  ``obs`` layer keeps concurrent jobs fully isolated) that is merged
  into the service recorder when the job finishes;
* the queue is **bounded**: when it is full, ``submit()`` raises
  :class:`~repro.errors.QueueFullError` carrying a ``retry_after_s``
  hint — the HTTP layer renders that as 429 + ``Retry-After`` instead
  of buffering without limit;
* ``shutdown(drain=True)`` stops intake and lets the workers finish
  every queued job before returning (``drain=False`` cancels what has
  not started yet).

Job states: ``queued → running → done | failed``, plus ``cancelled``
for jobs revoked before a worker picked them up. A transient failure
(worker crash, expired lease) sends a running job *back* to ``queued``
with exponential backoff until its attempt budget runs out; only
permanent failures (task errors, exceeded deadlines, exhausted budgets)
reach ``failed``, always with a structured ``Diagnostic`` body.

Durability and supervision are opt-in and composable:

* ``state_dir=`` attaches a :class:`~repro.serve.durable.DurableStore`:
  every lifecycle transition is journaled (fsync'd JSONL) and results
  spill to a disk blob cache, so a ``kill -9`` loses nothing that was
  acknowledged — on restart :meth:`JobService.recover` replays the
  journal, restores terminal jobs (results integrity-verified against
  their recorded digests), and re-enqueues orphans;
* ``supervise=True`` runs each attempt in a forked worker process via
  :class:`~repro.serve.supervisor.WorkerSupervisor` — worker threads
  never simulate inline — enabling real deadlines (SIGKILL past
  ``timeout_s``), crash containment with retry, lease heartbeats, and a
  circuit breaker that degrades to inline execution under repeated
  worker failures instead of going dark.

Result payloads are **deterministic**: they contain no wall-clock
timings, so a payload computed once, served from cache and recomputed
from scratch are all byte-identical (the equivalence the smoke test and
``tests/test_serve*.py`` pin down). Wall-clock data lives in the job
*metadata* (``duration_s``) and the observability layer instead.
"""

from __future__ import annotations

import itertools
import logging
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.api import Session
from repro.designs import builtin_design
from repro.diagnostics import Diagnostic, errors_only
from repro.errors import (
    JobDeadlineError,
    JobNotFoundError,
    LeaseExpiredError,
    QueueFullError,
    ReproError,
    ServeError,
    ServiceStoppedError,
    TransientJobError,
)
from repro.netlist import textio
from repro.netlist.design import Design
from repro.runconfig import RunConfig
from repro.sim.compile import design_fingerprint
from repro.sim.stimulus import (
    normalize_stimulus_spec,
    resolve_stimulus_spec,
    stimulus_fingerprint,
)

from .cache import ResultCache, job_cache_key
from .durable import DurableStore, RecoveryReport, payload_digest
from .supervisor import RemoteJobError, WorkerSupervisor

logger = logging.getLogger("repro.serve")

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

_STOP = object()  # worker-thread sentinel


# ----------------------------------------------------------------------
# Methods: name -> (allowed params, payload builder)
# ----------------------------------------------------------------------
def _result_validate(session: Session, params: dict) -> dict:
    diagnostics = session.validate(
        allow_dangling=bool(params.get("allow_dangling", False))
    )
    return {
        "design": session.design.name,
        "ok": not errors_only(diagnostics),
        "diagnostics": [d.to_dict() for d in diagnostics],
    }


def _result_estimate(session: Session, params: dict) -> dict:
    breakdown = session.estimate()
    cells = sorted(session.design.cells, key=lambda c: c.name)
    return {
        "design": session.design.name,
        "total_power_mw": breakdown.total_power_mw,
        "overhead_power_mw": breakdown.overhead_power_mw,
        "cell_power_mw": {c.name: breakdown.cell_power_mw(c) for c in cells},
        "module_power_mw": dict(sorted(breakdown.module_power_mw().items())),
    }


def _result_optimize(session: Session, params: dict) -> dict:
    kwargs = {}
    if params.get("passes") is not None:
        kwargs["passes"] = list(params["passes"])
    if any(params.get(key) is not None for key in ("h_min", "omega_p", "omega_a")):
        # Cost-weight overrides (the sweep grid's ω/h_min axis). They
        # ride in params, so they are cache-key ingredients for free.
        from repro.core.cost import CostWeights
        from repro.opt import IsolationConfig

        kwargs["config"] = IsolationConfig(
            style=params.get("style") or "and",
            weights=CostWeights(
                omega_p=float(params.get("omega_p", 1.0)),
                omega_a=float(params.get("omega_a", 0.25)),
                h_min=float(params.get("h_min", 0.0)),
            ),
        )
    result = session.optimize(style=params.get("style"), **kwargs)
    payload = result.to_dict()
    # Wall-clock stage timings are run metadata, not content — keeping
    # them out makes cached and fresh payloads byte-identical.
    payload.pop("timings", None)
    return payload


def _isolate_as_optimize(params: dict) -> dict:
    """``isolate`` is ``optimize`` with the isolation pass alone.

    The method, not the job's params, fixes the pass list, so an
    ``isolate`` job replayed from an older journal also runs isolation
    alone. The job runs, and is cached, as that ``optimize`` job: both
    spellings return the same bytes under one cache key.
    """
    return {**params, "passes": ["isolation"]}


def _result_rank(session: Session, params: dict) -> dict:
    ranked = session.rank(
        style=params.get("style", "and"),
        clock_period=params.get("clock_period"),
        lookahead_depth=int(params.get("lookahead_depth", 0)),
    )
    return {
        "design": session.design.name,
        "style": params.get("style", "and"),
        "candidates": [r.to_dict() for r in ranked],
    }


def _result_compare(session: Session, params: dict) -> dict:
    comparison = session.compare(styles=params.get("styles"))
    rows = []
    for row in comparison.rows:
        rows.append(
            {
                "label": row.label,
                "power_mw": row.power_mw,
                "area_um2": row.area,
                "slack_ns": row.slack,
                "power_reduction": row.power_reduction,
                "area_increase": row.area_increase,
            }
        )
    return {"design": session.design.name, "rows": rows}


def _result_activation(session: Session, params: dict) -> dict:
    analysis = session.activation()
    modules = sorted(session.design.datapath_modules, key=lambda c: c.name)
    return {
        "design": session.design.name,
        "activation": {m.name: str(analysis.of_module(m)) for m in modules},
    }


#: The Session API surface exposed as job methods.
METHODS: Dict[str, Tuple[frozenset, Callable[[Session, dict], dict]]] = {
    "validate": (frozenset({"allow_dangling"}), _result_validate),
    "estimate": (frozenset(), _result_estimate),
    "isolate": (
        frozenset({"style"}),
        lambda session, params: _result_optimize(
            session, _isolate_as_optimize(params)
        ),
    ),
    # The ordered pass list is a cache-key ingredient: job_cache_key
    # canonicalises params with lists preserved in order.
    "optimize": (
        frozenset({"style", "passes", "h_min", "omega_p", "omega_a"}),
        _result_optimize,
    ),
    "rank": (
        frozenset({"style", "clock_period", "lookahead_depth"}),
        _result_rank,
    ),
    "compare": (frozenset({"styles"}), _result_compare),
    "activation": (frozenset(), _result_activation),
}

_ISOLATION_STYLES = ("and", "or", "latch")


def _validate_params(method: str, params: dict) -> dict:
    allowed, _ = METHODS[method]
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ServeError(
            f"unknown parameter(s) {unknown} for method {method!r}; "
            f"allowed: {sorted(allowed)}"
        )
    style = params.get("style")
    if style is not None and style not in _ISOLATION_STYLES:
        raise ServeError(
            f"unknown style {style!r}; choose one of {_ISOLATION_STYLES}"
        )
    for style in params.get("styles") or ():
        if style not in _ISOLATION_STYLES:
            raise ServeError(
                f"unknown style {style!r}; choose one of {_ISOLATION_STYLES}"
            )
    passes = params.get("passes")
    if passes is not None:
        from repro.opt import available_passes

        known = available_passes()
        if not isinstance(passes, (list, tuple)) or not passes:
            raise ServeError("passes must be a non-empty list of pass names")
        for name in passes:
            if name not in known:
                raise ServeError(
                    f"unknown pass {name!r}; choose one of {known}"
                )
        if len(set(passes)) != len(passes):
            raise ServeError("duplicate pass names in passes")
    for key in ("h_min", "omega_p", "omega_a"):
        value = params.get(key)
        if value is None:
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ServeError(f"{key} must be a number, got {value!r}")
        if value < 0:
            raise ServeError(f"{key} must be >= 0, got {value}")
    return params


def _error_payload(exc: BaseException, code: Optional[str] = None) -> dict:
    """Structured error body: exception type + Diagnostic records."""
    if code is None:
        code = "".join(
            "-" + ch.lower() if ch.isupper() else ch
            for ch in type(exc).__name__
        ).lstrip("-")
    diagnostic = Diagnostic(code=code, message=str(exc), severity="error")
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "diagnostics": [diagnostic.to_dict()],
    }


def _budget_exhausted_payload(exc: BaseException, attempts: int) -> dict:
    """Permanent-failure body for a job whose retry budget ran out."""
    diagnostic = Diagnostic(
        code="retry-budget-exhausted",
        message=(
            f"gave up after {attempts} attempt(s); "
            f"last transient failure: {exc}"
        ),
        severity="error",
    )
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "attempts": attempts,
        "diagnostics": [diagnostic.to_dict()],
    }


def _remote_error_payload(exc: "RemoteJobError") -> dict:
    """Task error that crossed the worker pipe — render like inline."""
    code = "".join(
        "-" + ch.lower() if ch.isupper() else ch for ch in exc.type_name
    ).lstrip("-")
    diagnostic = Diagnostic(code=code, message=str(exc), severity="error")
    return {
        "type": exc.type_name,
        "message": str(exc),
        "diagnostics": [diagnostic.to_dict()],
    }


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One asynchronous analysis request and its lifecycle record."""

    id: str
    method: str
    #: The parsed netlist while the job is queued or running; ``None``
    #: once it has finished (``design_text`` stays).
    design: Optional[Design]
    design_name: str
    fingerprint: str
    run: RunConfig
    params: dict
    cache_key: str
    #: Canonical textual netlist — the wire/journal form every attempt
    #: (inline, worker process, post-crash replay) is rebuilt from.
    design_text: str = ""
    #: Normalized stimulus spec (profile / recorded trace); ``None`` is
    #: the legacy default random stimulus. Its fingerprint is folded
    #: into ``cache_key``.
    stimulus: Optional[dict] = None
    state: str = QUEUED
    cached: bool = False
    result: Optional[dict] = None
    error: Optional[dict] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Execution-robustness fields (PR 7): per-job deadline, bounded
    #: attempt budget, lease bookkeeping. ``attempt_token`` increments on
    #: every attempt start *and* every lease revocation, so a superseded
    #: attempt can never apply its outcome ("exactly-once completion").
    timeout_s: Optional[float] = None
    max_attempts: int = 1
    attempts: int = 0
    lease_expires_at: Optional[float] = None
    attempt_token: int = 0
    last_transient_error: Optional[str] = None
    recovered: bool = False

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED, CANCELLED)

    @property
    def duration_s(self) -> Optional[float]:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def wire_payload(self) -> dict:
        """What crosses the fork/journal boundary to run this job."""
        payload = {
            "method": self.method,
            "design_text": self.design_text,
            "run": self.run.to_dict(),
            "params": self.params,
        }
        # Omitted (not null) for the default, keeping legacy payloads
        # byte-identical — journal replay and inline/worker dedupe rely
        # on that stability.
        if self.stimulus is not None:
            payload["stimulus"] = self.stimulus
        return payload

    def to_dict(self, include_result: bool = True) -> dict:
        """Wire representation (summary with ``include_result=False``)."""
        payload = {
            "id": self.id,
            "method": self.method,
            "design": self.design_name,
            "fingerprint": self.fingerprint,
            "cache_key": self.cache_key,
            "state": self.state,
            "cached": self.cached,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "duration_s": self.duration_s,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "timeout_s": self.timeout_s,
            "recovered": self.recovered,
        }
        if include_result:
            payload["result"] = self.result
            payload["error"] = self.error
        return payload


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class JobService:
    """Bounded-queue job executor with a content-addressed result cache.

    Parameters
    ----------
    queue_size:
        Maximum queued (not yet running) jobs; submissions beyond it
        raise :class:`~repro.errors.QueueFullError`.
    job_workers:
        Worker threads executing jobs.
    cache_capacity:
        Result-cache entries kept (LRU beyond that; 0 disables).
    default_run:
        :class:`RunConfig` applied when a request carries none; per-job
        request fields override it.
    start:
        Start the worker threads immediately. Tests pass ``False`` to
        exercise queue backpressure and cancellation deterministically,
        then call :meth:`start`.
    state_dir:
        Attach a crash-safe :class:`~repro.serve.durable.DurableStore`
        rooted here: journal every transition, spill results to disk,
        and replay/recover on construction. ``None`` (default) keeps the
        legacy in-memory-only behaviour.
    supervise:
        Execute each attempt in a forked, killable worker process via
        :class:`~repro.serve.supervisor.WorkerSupervisor` (enables hard
        deadlines, crash retry, leases). Default off.
    max_attempts:
        Attempt budget per job when transient failures occur (used when
        a submission names none). ``1`` disables retries.
    job_timeout_s:
        Default per-job deadline in seconds (``None`` = unlimited);
        enforced by SIGKILL only under ``supervise=True``.
    lease_s:
        Running-job lease duration; heartbeats renew it while the
        supervisor polls. An expired lease marks the attempt dead and
        re-enqueues the job. ``0`` disables the lease reaper.
    retry_base_s / retry_cap_s:
        Exponential-backoff shape for transient retries:
        ``base * 2**(attempt-1) * jitter`` clamped to the cap.
    fsync:
        fsync the journal on every append (durable but slower); tests
        may disable it.
    """

    def __init__(
        self,
        queue_size: int = 64,
        job_workers: int = 2,
        cache_capacity: int = 256,
        default_run: Optional[RunConfig] = None,
        start: bool = True,
        state_dir: Optional[str] = None,
        supervise: bool = False,
        max_attempts: int = 3,
        job_timeout_s: Optional[float] = None,
        lease_s: float = 15.0,
        retry_base_s: float = 0.05,
        retry_cap_s: float = 2.0,
        fsync: bool = True,
        circuit_threshold: int = 3,
        circuit_cooldown_s: float = 10.0,
    ) -> None:
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if job_workers < 1:
            raise ValueError(f"job_workers must be >= 1, got {job_workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.queue_size = queue_size
        self.job_workers = job_workers
        self.default_run = default_run or RunConfig()
        self.max_attempts = max_attempts
        self.job_timeout_s = job_timeout_s
        self.lease_s = lease_s
        self.retry_base_s = retry_base_s
        self.retry_cap_s = retry_cap_s
        self.recorder = obs.Recorder(track="serve")
        # One lock guards the (not thread-safe) service recorder: the
        # metrics registry, the tracer and everything absorbed into them.
        self._obs_lock = threading.RLock()
        self.store: Optional[DurableStore] = None
        self.supervisor: Optional[WorkerSupervisor] = None
        if supervise:
            self.supervisor = WorkerSupervisor(
                circuit_threshold=circuit_threshold,
                circuit_cooldown_s=circuit_cooldown_s,
            )
        if state_dir is not None:
            self.store = DurableStore(state_dir, fsync=fsync)
        # The cache counts into the service registry, so it takes the
        # lock that guards the recorder.
        self.cache = ResultCache(
            cache_capacity,
            self.recorder.metrics,
            disk=self.store.blobs if self.store is not None else None,
            lock=self._obs_lock,
        )
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_size)
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.RLock()
        # Notified by every terminal transition (see _finish).
        self._finished = threading.Condition(self._jobs_lock)
        self._ids = itertools.count(1)
        self._accepting = True
        self._threads: List[threading.Thread] = []
        self._reaper: Optional[threading.Thread] = None
        self._stop_reaper = threading.Event()
        self._started = False
        self.last_recovery: Optional[RecoveryReport] = None
        if self.store is not None:
            self.last_recovery = self.recover()
        if start:
            self.start()

    # ------------------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Replay the journal: restore terminal jobs, re-enqueue orphans.

        Called from the constructor when a ``state_dir`` is attached.
        Completed jobs get their results back from the blob cache,
        integrity-verified against the digest recorded at finish time; a
        missing or corrupt blob re-enqueues the job instead of serving a
        lie. Jobs that were ``queued`` or ``running`` at crash time are
        orphans — their (implicit) lease died with the process — and are
        re-enqueued with a journaled ``retry`` record. A job whose
        journaled run no longer validates (e.g. fewer than two cycles)
        finishes ``failed`` with the validation message instead.
        """
        assert self.store is not None
        report = RecoveryReport(
            journal_records=len(self.store.replayed_records),
            corrupt_lines=self.store.corrupt_lines,
        )
        replayed = self.store.replayed_jobs()
        report.jobs_seen = len(replayed)
        max_id = 0
        orphans: List[Job] = []
        for job_id in sorted(replayed):
            state = replayed[job_id]
            try:
                max_id = max(max_id, int(job_id.lstrip("j")))
            except ValueError:
                pass
            run_cfg, run_error = self.default_run, None
            try:
                run_cfg = RunConfig.from_dict(state.get("run") or {})
            except ReproError as exc:
                run_error = _error_payload(exc)
            job = Job(
                id=job_id,
                method=state.get("method", ""),
                design=None,
                design_name=state.get("design_name", ""),
                fingerprint=state.get("fingerprint", ""),
                run=run_cfg,
                params=dict(state.get("params") or {}),
                cache_key=state.get("cache_key", ""),
                design_text=state.get("design_text", ""),
                stimulus=state.get("stimulus"),
                submitted_at=state.get("submitted_at", state.get("t", 0.0)),
                timeout_s=state.get("timeout_s"),
                max_attempts=int(state.get("max_attempts", self.max_attempts)),
                attempts=int(state.get("attempts", 0)),
                recovered=True,
            )
            terminal = state["state"]
            if run_error is not None and terminal not in ("failed", "cancelled"):
                # A journaled run that no longer validates must neither
                # run with substitute settings under its cache key nor
                # serve the result it produced.
                self._journal("fail", job, error=run_error)
                self._finish(job, FAILED, error=run_error)
                report.failed += 1
            elif terminal == "done":
                hit, payload = self.cache.get(job.cache_key)
                digest = state.get("result_digest")
                if hit and (digest is None or payload_digest(payload) == digest):
                    job.cached = True
                    job.started_at = job.started_at or time.time()
                    self._finish(job, DONE, result=payload)
                    report.completed += 1
                    report.results_recovered += 1
                else:
                    report.results_missing += 1
                    orphans.append(job)
            elif terminal == "failed":
                self._finish(job, FAILED, error=state.get("error"))
                report.failed += 1
            elif terminal == "cancelled":
                self._finish(job, CANCELLED)
                report.cancelled += 1
            else:  # queued / running: orphaned by the crash
                orphans.append(job)
            with self._jobs_lock:
                self._jobs[job.id] = job
        self._ids = itertools.count(max_id + 1)
        # Re-enqueued orphans may exceed the nominal queue bound; widen
        # the queue rather than drop acknowledged work (backpressure
        # applies to *new* submissions on top of the recovered backlog).
        if len(orphans) > self.queue_size:
            self._queue = queue.Queue(maxsize=len(orphans))
        for job in orphans:
            job.state = QUEUED
            job.attempt_token += 1
            job.lease_expires_at = None
            self._journal("retry", job, reason="recovered")
            report.reenqueued += 1
            report.reenqueued_ids.append(job.id)
            self._queue.put_nowait(job)
        with self._obs_lock:
            self.recorder.counter("serve.recoveries").inc()
            self.recorder.counter("serve.jobs.reenqueued", reason="recovered").inc(
                float(report.reenqueued)
            )
        self.store.last_recovery = report
        if report.reenqueued or report.corrupt_lines:
            logger.info("serve recovery: %s", report.summary())
        return report

    def _journal(self, type: str, job: Job, **fields) -> None:
        if self.store is None:
            return
        self.store.journal.append(type, job.id, **fields)
        with self._obs_lock:
            self.recorder.counter("serve.journal.records", type=type).inc()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker threads (idempotent)."""
        if self._started:
            return
        self._started = True
        for index in range(self.job_workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        if self.supervisor is not None and self.lease_s > 0:
            self._stop_reaper.clear()
            self._reaper = threading.Thread(
                target=self._reaper_loop,
                name="repro-serve-lease-reaper",
                daemon=True,
            )
            self._reaper.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        method: str,
        design: Optional[str] = None,
        builtin: Optional[str] = None,
        run: Optional[dict] = None,
        params: Optional[dict] = None,
        timeout_s: Optional[float] = None,
        max_attempts: Optional[int] = None,
        stimulus: Optional[dict] = None,
    ) -> Job:
        """Validate, content-address and enqueue (or cache-answer) a job.

        ``design`` is textual netlist source (:mod:`repro.netlist.textio`
        format); ``builtin`` names a shipped generator instead. Exactly
        one of the two must be given. ``run`` is a partial
        :class:`RunConfig` dict; ``params`` are method parameters.
        ``timeout_s`` / ``max_attempts`` override the service defaults
        for this job only — neither is a cache-key ingredient (a
        deadline changes whether a result exists, never its bytes).
        ``stimulus`` is an optional stimulus spec (see
        :func:`repro.sim.stimulus.normalize_stimulus_spec`): a workload
        profile name/dict or a recorded CSV/VCD trace. Its fingerprint
        *is* a cache-key ingredient — two jobs replaying different
        activity on the same design must never share a result.

        With a durable store attached, the successful return of this
        method *is* the acknowledgement: the job's ``submit`` record has
        been fsync'd and will survive ``kill -9``. A rejected submission
        (full queue) is compensated with a ``cancel`` record, so replay
        never resurrects work the client was told to retry.
        """
        if not self._accepting:
            raise ServiceStoppedError()
        if method not in METHODS:
            raise ServeError(
                f"unknown method {method!r}; choose one of {sorted(METHODS)}"
            )
        params = _validate_params(method, dict(params or {}))
        if (design is None) == (builtin is None):
            raise ServeError("provide exactly one of 'design' and 'builtin'")
        if timeout_s is not None and timeout_s <= 0:
            raise ServeError(f"timeout_s must be > 0, got {timeout_s}")
        if max_attempts is not None and int(max_attempts) < 1:
            raise ServeError(f"max_attempts must be >= 1, got {max_attempts}")
        if design is not None:
            design_obj = textio.loads(design)
        else:
            try:
                design_obj = builtin_design(builtin)
            except ReproError as exc:
                raise ServeError(str(exc)) from None
        stimulus_spec = normalize_stimulus_spec(stimulus)  # raises StimulusError
        run_cfg = self.default_run
        if run:
            RunConfig.from_dict(run)  # rejects unknown fields loudly
            run_cfg = run_cfg.replace(**dict(run))  # only the named fields
        run_cfg = run_cfg.replace(trace=False)  # job tracing is service-managed
        fingerprint = design_fingerprint(design_obj)
        key_method, key_params = method, params
        if method == "isolate":
            key_method, key_params = "optimize", _isolate_as_optimize(params)
        cache_key = job_cache_key(
            key_method,
            fingerprint,
            run_cfg.fingerprint(),
            key_params,
            stimulus_fingerprint(stimulus_spec),
        )
        job = Job(
            id=f"j{next(self._ids):06d}",
            method=method,
            design=design_obj,
            design_name=design_obj.name,
            fingerprint=fingerprint,
            run=run_cfg,
            params=params,
            cache_key=cache_key,
            design_text=textio.dumps(design_obj),
            stimulus=stimulus_spec,
            timeout_s=timeout_s if timeout_s is not None else self.job_timeout_s,
            max_attempts=(
                int(max_attempts) if max_attempts is not None else self.max_attempts
            ),
        )
        with self._jobs_lock:
            self._jobs[job.id] = job
        with self._obs_lock:
            self.recorder.counter("serve.jobs.submitted", method=method).inc()
        self._journal(
            "submit",
            job,
            method=job.method,
            design_name=job.design_name,
            design_text=job.design_text,
            run=job.run.to_dict(),
            params=job.params,
            stimulus=job.stimulus,
            cache_key=job.cache_key,
            fingerprint=job.fingerprint,
            timeout_s=job.timeout_s,
            max_attempts=job.max_attempts,
            submitted_at=job.submitted_at,
        )
        hit, payload = self.cache.get(cache_key)
        if hit:
            job.cached = True
            self._finish(job, DONE, result=payload)
            job.started_at = job.finished_at
            self._journal(
                "finish", job, cached=True, result_digest=payload_digest(payload)
            )
            with self._obs_lock:
                self.recorder.counter("serve.jobs.completed", state=DONE).inc()
            return job
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            with self._jobs_lock:
                del self._jobs[job.id]
            self._journal("cancel", job, reason="queue-full")
            with self._obs_lock:
                self.recorder.counter("serve.jobs.rejected").inc()
            raise QueueFullError(
                f"job queue is full ({self.queue_size} queued); retry later",
                retry_after_s=self._retry_after_s(),
            ) from None
        self._set_queue_gauge()
        return job

    def _retry_after_s(self) -> float:
        """Backpressure hint: how long until a queue slot likely frees."""
        with self._obs_lock:
            snapshot = self.recorder.metrics.value("serve.job.duration_s")
        mean = (snapshot or {}).get("mean", 0.0) if snapshot else 0.0
        if mean <= 0.0:
            return 1.0
        estimate = mean * self.queue_size / max(1, self.job_workers)
        return max(1.0, min(60.0, estimate))

    def _set_queue_gauge(self) -> None:
        with self._obs_lock:
            self.recorder.gauge("serve.queue.depth").set(self._queue.qsize())

    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job

    def jobs(self, limit: int = 100) -> List[Job]:
        """Most recent jobs, newest first."""
        with self._jobs_lock:
            recent = list(self._jobs.values())[-limit:]
        return list(reversed(recent))

    def cancel(self, job_id: str) -> Job:
        """Revoke a queued job (running/finished jobs are left alone)."""
        job = self.get(job_id)
        cancelled = False
        with self._jobs_lock:
            if job.state == QUEUED:
                job.attempt_token += 1
                self._finish(job, CANCELLED)
                cancelled = True
        if cancelled:
            self._journal("cancel", job, reason="client")
            with self._obs_lock:
                self.recorder.counter(
                    "serve.jobs.completed", state=CANCELLED
                ).inc()
        return job

    def wait(self, job_id: str, timeout: float = 60.0) -> Job:
        """Block until the job finishes (in-process convenience).

        Woken by the job's terminal transition itself, not by polling.
        """
        job = self.get(job_id)
        with self._finished:
            if not self._finished.wait_for(lambda: job.finished, timeout):
                raise ServeError(
                    f"timed out after {timeout}s waiting for job {job_id}",
                    status=504,
                )
        return job

    def _finish(
        self,
        job: Job,
        state: str,
        result: Optional[dict] = None,
        error: Optional[dict] = None,
    ) -> None:
        """The one terminal transition: state, ``finished_at``, wake-up.

        Every path that ends a job comes through here, so :meth:`wait`
        blocks on ``_finished`` instead of polling. The parsed design is
        dropped: a finished job keeps only ``design_text``, from which a
        recovered job is rebuilt anyway.
        """
        with self._finished:
            job.design = None
            job.state = state
            if result is not None:
                job.result = result
            if error is not None:
                job.error = error
            job.lease_expires_at = None
            job.finished_at = time.time()
            self._finished.notify_all()

    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _STOP:
                    return
                self._execute(item)
            finally:
                self._queue.task_done()
                self._set_queue_gauge()

    def _heartbeat(self, job: Job) -> None:
        """Renew the running job's lease (called from the poll loop)."""
        if self.lease_s > 0:
            job.lease_expires_at = time.time() + self.lease_s

    def _retry_backoff_s(self, attempt: int) -> float:
        """Exponential backoff with full jitter, clamped to the cap."""
        base = self.retry_base_s * (2.0 ** max(0, attempt - 1))
        return min(self.retry_cap_s, base * (0.5 + random.random()))

    def _run_attempt(self, job: Job) -> dict:
        """One execution attempt: supervised process, or legacy inline."""
        if self.supervisor is not None:
            return self.supervisor.execute(
                job.id,
                job.wire_payload(),
                timeout_s=job.timeout_s,
                heartbeat=lambda: self._heartbeat(job),
            )
        design = job.design
        if design is None:  # recovered from the journal: rebuild
            design = textio.loads(job.design_text)
            job.design = design
        _, builder = METHODS[job.method]
        stimulus = None
        if job.stimulus is not None:
            stimulus = resolve_stimulus_spec(
                job.stimulus, design, seed=job.run.seed
            )
        session = Session(design, stimulus=stimulus, run=job.run)
        return builder(session, job.params)

    def _execute(self, job: Job) -> None:
        with self._jobs_lock:
            if job.state != QUEUED:  # cancelled while queued
                return
            job.state = RUNNING
            if job.started_at is None:
                job.started_at = time.time()
            job.attempts += 1
            job.attempt_token += 1
            token = job.attempt_token
            attempt = job.attempts
            if self.supervisor is not None and self.lease_s > 0:
                job.lease_expires_at = time.time() + self.lease_s
        self._journal("start", job, attempt=attempt)
        recorder = obs.Recorder(track=f"serve:{job.id}")
        outcome = "failed"
        payload: Optional[dict] = None
        error: Optional[dict] = None
        retry_reason: Optional[str] = None
        try:
            with obs.use(recorder):
                with obs.span(
                    "serve.job",
                    "serve",
                    job=job.id,
                    method=job.method,
                    design=job.design_name,
                    fingerprint=job.fingerprint[:12],
                    attempt=attempt,
                ):
                    payload = self._run_attempt(job)
            outcome = "done"
        except TransientJobError as exc:
            if attempt < job.max_attempts:
                outcome = "retry"
                retry_reason = f"{type(exc).__name__}: {exc}"
            else:
                error = _budget_exhausted_payload(exc, attempt)
        except JobDeadlineError as exc:
            error = _error_payload(exc, code="deadline-exceeded")
            with self._obs_lock:
                self.recorder.counter("serve.jobs.timeouts").inc()
        except RemoteJobError as exc:
            error = _remote_error_payload(exc)
        except ReproError as exc:
            error = _error_payload(exc)
        except Exception as exc:  # defensive: a job must never kill a worker
            error = _error_payload(exc)
        with self._obs_lock:
            self.recorder.absorb(
                recorder.trace_payload(),
                recorder.metrics,
                track=f"serve:{job.id}",
            )
        if outcome == "retry":
            self._requeue_after_transient(job, token, retry_reason or "")
            return
        if outcome == "done" and payload is not None:
            # Write-ahead: blob first, then the journal finish record,
            # then the in-memory transition — a crash between any two
            # steps replays to a consistent (at worst re-run) state.
            self.cache.put(job.cache_key, payload)
            self._journal(
                "finish", job, result_digest=payload_digest(payload)
            )
        else:
            self._journal("fail", job, error=error)
        applied = False
        with self._jobs_lock:
            if job.attempt_token == token and job.state == RUNNING:
                if outcome == "done":
                    self._finish(job, DONE, result=payload)
                else:
                    self._finish(job, FAILED, error=error)
                applied = True
        if applied:
            with self._obs_lock:
                self.recorder.counter(
                    "serve.jobs.completed", state=job.state
                ).inc()
                self.recorder.histogram("serve.job.duration_s").observe(
                    job.duration_s or 0.0
                )

    def _requeue_after_transient(
        self, job: Job, token: int, reason: str
    ) -> None:
        """Back off, then hand the job back to the queue for a retry."""
        backoff = self._retry_backoff_s(job.attempts)
        requeued = False
        with self._jobs_lock:
            if job.attempt_token == token and job.state == RUNNING:
                job.state = QUEUED
                job.lease_expires_at = None
                job.last_transient_error = reason
                requeued = True
        if not requeued:  # superseded by the reaper meanwhile
            return
        self._journal("retry", job, reason=reason, backoff_s=backoff)
        with self._obs_lock:
            self.recorder.counter("serve.jobs.retries").inc()
        logger.warning(
            "job %s attempt %d/%d failed transiently (%s); retrying in %.2fs",
            job.id, job.attempts, job.max_attempts, reason, backoff,
        )
        time.sleep(backoff)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            error = {
                "type": "QueueFullError",
                "message": "could not re-enqueue after transient failure: "
                "queue is full",
                "diagnostics": [
                    Diagnostic(
                        code="retry-requeue-failed",
                        message=f"job {job.id}: {reason}",
                        severity="error",
                    ).to_dict()
                ],
            }
            with self._jobs_lock:
                if job.attempt_token == token and job.state == QUEUED:
                    self._finish(job, FAILED, error=error)
            self._journal("fail", job, error=error)
            with self._obs_lock:
                self.recorder.counter(
                    "serve.jobs.completed", state=FAILED
                ).inc()

    # ------------------------------------------------------------------
    def _reaper_loop(self) -> None:
        interval = max(0.05, min(1.0, self.lease_s / 3.0))
        while not self._stop_reaper.wait(interval):
            self._reap_expired_leases()

    def _reap_expired_leases(self) -> int:
        """Re-enqueue (or fail) running jobs whose lease lapsed.

        A lease only lapses when the attempt's poll loop stopped
        heartbeating — a wedged or dead worker thread. Bumping
        ``attempt_token`` guarantees that if the old attempt *does*
        come back from the dead, its outcome is discarded: completion
        is applied exactly once.
        """
        now = time.time()
        reaped = 0
        with self._jobs_lock:
            expired = [
                job
                for job in self._jobs.values()
                if job.state == RUNNING
                and job.lease_expires_at is not None
                and job.lease_expires_at < now
            ]
        for job in expired:
            requeue = False
            with self._jobs_lock:
                if (
                    job.state != RUNNING
                    or job.lease_expires_at is None
                    or job.lease_expires_at >= now
                ):
                    continue
                job.attempt_token += 1
                job.lease_expires_at = None
                if job.attempts < job.max_attempts:
                    job.state = QUEUED
                    job.last_transient_error = "lease expired"
                    requeue = True
                else:
                    self._finish(
                        job,
                        FAILED,
                        error=_budget_exhausted_payload(
                            LeaseExpiredError(
                                f"job {job.id}: lease expired after "
                                f"{job.attempts} attempt(s)"
                            ),
                            job.attempts,
                        ),
                    )
            reaped += 1
            with self._obs_lock:
                self.recorder.counter("serve.leases.expired").inc()
            logger.warning(
                "job %s lease expired (attempt %d/%d); %s",
                job.id, job.attempts, job.max_attempts,
                "re-enqueueing" if requeue else "attempt budget exhausted",
            )
            if requeue:
                self._journal("retry", job, reason="lease-expired")
                try:
                    self._queue.put_nowait(job)
                except queue.Full:
                    self._finish(
                        job,
                        FAILED,
                        error=_budget_exhausted_payload(
                            LeaseExpiredError(
                                f"job {job.id}: lease expired and queue full"
                            ),
                            job.attempts,
                        ),
                    )
                    self._journal("fail", job, error=job.error)
                    with self._obs_lock:
                        self.recorder.counter(
                            "serve.jobs.completed", state=FAILED
                        ).inc()
            else:
                self._journal("fail", job, error=job.error)
                with self._obs_lock:
                    self.recorder.counter(
                        "serve.jobs.completed", state=FAILED
                    ).inc()
        return reaped

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Health snapshot (the ``/healthz`` body)."""
        with self._jobs_lock:
            counts: Dict[str, int] = {state: 0 for state in STATES}
            for job in self._jobs.values():
                counts[job.state] += 1
        cache = self.cache.stats()
        payload = {
            "status": "ok" if self._accepting else "draining",
            "accepting": self._accepting,
            "queue_depth": self._queue.qsize(),
            "queue_size": self.queue_size,
            "job_workers": self.job_workers,
            "jobs": counts,
            "cache": cache,
        }
        if self.store is not None:
            payload["durable"] = {**self.store.status(), "cache": cache}
        if self.supervisor is not None:
            payload["supervisor"] = self.supervisor.status()
        return payload

    def metrics_text(self) -> str:
        """Prometheus exposition of the service registry."""
        with self._obs_lock:
            self.recorder.gauge("serve.queue.depth").set(self._queue.qsize())
            return self.recorder.metrics.prometheus_text()

    @property
    def accepting(self) -> bool:
        return self._accepting

    # ------------------------------------------------------------------
    def shutdown(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop intake; drain (or cancel) queued work; join the workers.

        Idempotent. With ``drain=True`` every job already queued still
        runs to completion; with ``drain=False`` queued jobs are
        cancelled and only in-flight ones finish. Worker threads that
        fail to join within ``timeout`` are detected and reported (a
        metric plus a log line) instead of silently leaked.
        """
        self._accepting = False
        if not drain:
            with self._jobs_lock:
                queued = [j for j in self._jobs.values() if j.state == QUEUED]
            for job in queued:
                self.cancel(job.id)
        if self._started:
            # Sentinels queue *behind* remaining jobs, so workers finish
            # the backlog before exiting. put() may block briefly when
            # the queue is full of real jobs — that is the drain.
            for _ in self._threads:
                self._queue.put(_STOP)
            stuck: List[str] = []
            for thread in self._threads:
                thread.join(timeout)
                if thread.is_alive():
                    stuck.append(thread.name)
            if stuck:
                with self._obs_lock:
                    self.recorder.counter("serve.shutdown.stuck_threads").inc(
                        float(len(stuck))
                    )
                logger.warning(
                    "shutdown: %d worker thread(s) failed to join within "
                    "%.1fs: %s (daemon threads; they die with the process)",
                    len(stuck), timeout, ", ".join(stuck),
                )
            self._threads = []
            self._started = False
        if self._reaper is not None:
            self._stop_reaper.set()
            self._reaper.join(timeout)
            self._reaper = None
        if self.store is not None:
            self.store.close()
