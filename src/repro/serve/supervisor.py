"""Supervised job execution: processes, deadlines, crash containment.

The legacy :class:`~repro.serve.jobs.JobService` ran every job *inline*
on its worker thread — a hung simulation wedged the thread forever and
nothing could enforce a deadline. :class:`WorkerSupervisor` moves each
job attempt into its own **forked worker process**:

* the worker thread polls the result pipe in short slices, renewing the
  job's lease (heartbeat) on every slice — a responsive supervisor is
  the proof of life the lease machinery keys off;
* a **deadline** is enforceable: past it the process is SIGKILLed and
  the attempt fails permanently with
  :class:`~repro.errors.JobDeadlineError` (a budget, not a fault — the
  retry loop does not re-run it);
* a **crash** (the process dies without reporting — the chaos harness's
  ``kill -9``, an OOM kill, a segfault) surfaces as
  :class:`~repro.errors.WorkerCrashError`, which is *transient*: the
  service re-enqueues the job with backoff;
* task-level failures inside the child ride back over the pipe and are
  re-raised as :class:`RemoteJobError` — permanent, recorded with
  structured diagnostics, never retried;
* a **circuit breaker** watches consecutive crash-class failures: past
  ``circuit_threshold`` the circuit opens and jobs degrade to inline
  execution (the service stays available, deadlines become advisory)
  for ``circuit_cooldown_s``, after which one probe attempt half-opens
  it — the same honesty contract as ``fallback_reason`` in
  :mod:`repro.parallel.pool`: degraded, but recorded and visible in
  ``/healthz``.

Like :class:`~repro.parallel.pool.WorkerPool` this uses the ``fork``
start method, so a test that monkeypatches the method table is
inherited by the child — which is exactly how the chaos harness injects
crashing and sleeping jobs without touching the wire protocol.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Callable, Dict, Optional

from repro.errors import JobDeadlineError, ReproError, WorkerCrashError

#: Circuit states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class RemoteJobError(ReproError):
    """A job failed *inside* its worker process (task error, not infra).

    Carries the child-side exception type name so the job's structured
    error payload renders identically to an inline failure.
    """

    def __init__(self, type_name: str, message: str) -> None:
        super().__init__(message)
        self.type_name = type_name


def _child_main(conn, payload: dict) -> None:
    """Worker-process entry: rebuild the job from its wire form, run it.

    Runs in a fork of the service process. Everything that can go wrong
    is reported over the pipe; a missing report means the process died
    and the parent classifies that as a crash.
    """
    try:
        result = run_job_payload(payload)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        try:
            conn.send(("err", type(exc).__name__, str(exc)))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def run_job_payload(payload: dict) -> dict:
    """Inline execution of a job wire payload (no process, no deadline).

    Shared by the supervisor's open-circuit fallback and the
    unsupervised service path, so both execute byte-identically to the
    child process.
    """
    from repro.api import Session
    from repro.netlist import textio
    from repro.runconfig import RunConfig
    from repro.serve.jobs import METHODS
    from repro.sim.stimulus import resolve_stimulus_spec

    design = textio.loads(payload["design_text"])
    run = RunConfig.from_dict(payload["run"])
    _, builder = METHODS[payload["method"]]
    stimulus = None
    if payload.get("stimulus") is not None:
        stimulus = resolve_stimulus_spec(payload["stimulus"], design, seed=run.seed)
    session = Session(design, stimulus=stimulus, run=run)
    return builder(session, dict(payload.get("params") or {}))


class WorkerSupervisor:
    """Run job payloads in supervised worker processes.

    Parameters
    ----------
    poll_s:
        Pipe-poll slice; also the heartbeat cadence while a job runs.
    circuit_threshold:
        Consecutive crash-class failures that open the circuit
        (``0`` disables the breaker).
    circuit_cooldown_s:
        How long the circuit stays open before one half-open probe.
    """

    def __init__(
        self,
        poll_s: float = 0.05,
        circuit_threshold: int = 3,
        circuit_cooldown_s: float = 10.0,
    ) -> None:
        if poll_s <= 0:
            raise ValueError(f"poll_s must be > 0, got {poll_s}")
        self.poll_s = poll_s
        self.circuit_threshold = circuit_threshold
        self.circuit_cooldown_s = circuit_cooldown_s
        self._mp = multiprocessing.get_context("fork")
        self._lock = threading.Lock()
        self._live: Dict[str, int] = {}  # job id -> pid
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self.open_reason: Optional[str] = None
        # Lifetime accounting (rendered in /healthz and chaos reports).
        self.executed = 0
        self.crashes = 0
        self.deadline_kills = 0
        self.inline_runs = 0
        self.circuit_opens = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    @property
    def circuit_state(self) -> str:
        with self._lock:
            return self._circuit_state_locked()

    def _circuit_state_locked(self) -> str:
        if self._opened_at is None:
            return CLOSED
        if time.monotonic() - self._opened_at >= self.circuit_cooldown_s:
            return HALF_OPEN
        return OPEN

    def _record_crash(self, reason: str) -> None:
        with self._lock:
            self.crashes += 1
            self._consecutive_failures += 1
            if (
                self.circuit_threshold
                and self._consecutive_failures >= self.circuit_threshold
            ):
                if self._opened_at is None:
                    self.circuit_opens += 1
                # (Re)stamp: a failed half-open probe re-arms the cooldown.
                self._opened_at = time.monotonic()
                self.open_reason = (
                    f"circuit opened after {self._consecutive_failures} "
                    f"consecutive worker failure(s); last: {reason}; "
                    f"degraded to inline execution"
                )

    def _record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            if self._opened_at is not None:
                self._opened_at = None  # half-open probe succeeded
                self.open_reason = None
                self.restarts += 1

    # ------------------------------------------------------------------
    def pids(self) -> Dict[str, int]:
        """Live ``{job_id: pid}`` — the chaos harness's kill targets."""
        with self._lock:
            return dict(self._live)

    def execute(
        self,
        job_id: str,
        payload: dict,
        timeout_s: Optional[float] = None,
        heartbeat: Optional[Callable[[], None]] = None,
    ) -> dict:
        """Run one job attempt; returns the result payload.

        Raises :class:`JobDeadlineError` (permanent) past ``timeout_s``,
        :class:`WorkerCrashError` (transient) if the process dies
        silently, :class:`RemoteJobError` (permanent) for task errors.
        """
        state = self.circuit_state
        if state == OPEN:
            return self._execute_inline(payload, timeout_s)
        try:
            result = self._execute_process(job_id, payload, timeout_s, heartbeat)
        except (WorkerCrashError, JobDeadlineError):
            raise
        else:
            self._record_success()
            return result

    # ------------------------------------------------------------------
    def _execute_inline(self, payload: dict, timeout_s: Optional[float]) -> dict:
        """Open-circuit fallback: in-thread, deadline only advisory."""
        with self._lock:
            self.inline_runs += 1
            self.executed += 1
        start = time.monotonic()
        try:
            result = run_job_payload(payload)
        except ReproError as exc:
            raise RemoteJobError(type(exc).__name__, str(exc)) from exc
        if timeout_s is not None and time.monotonic() - start > timeout_s:
            raise JobDeadlineError(
                f"job exceeded its {timeout_s}s deadline (inline execution "
                f"could not preempt it)",
                timeout_s=timeout_s,
            )
        return result

    def _execute_process(
        self,
        job_id: str,
        payload: dict,
        timeout_s: Optional[float],
        heartbeat: Optional[Callable[[], None]],
    ) -> dict:
        parent_conn, child_conn = self._mp.Pipe(duplex=False)
        process = self._mp.Process(
            target=_child_main,
            args=(child_conn, payload),
            name=f"repro-serve-job-{job_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        with self._lock:
            self.executed += 1
            self._live[job_id] = process.pid or 0
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        try:
            while True:
                if heartbeat is not None:
                    heartbeat()
                try:
                    if parent_conn.poll(self.poll_s):
                        message = parent_conn.recv()
                        break
                except (EOFError, OSError):
                    message = None
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    process.kill()
                    process.join(5.0)
                    with self._lock:
                        self.deadline_kills += 1
                    raise JobDeadlineError(
                        f"job {job_id} exceeded its {timeout_s}s deadline and "
                        f"was killed (pid {process.pid})",
                        timeout_s=timeout_s or 0.0,
                    )
                if not process.is_alive():
                    # Dead without a message *and* nothing buffered.
                    if parent_conn.poll(0):
                        message = parent_conn.recv()
                    else:
                        message = None
                    break
            if message is None:
                process.join(5.0)
                reason = (
                    f"worker process for job {job_id} died without reporting "
                    f"(exitcode {process.exitcode})"
                )
                self._record_crash(reason)
                raise WorkerCrashError(reason)
            if message[0] == "ok":
                return message[1]
            _, type_name, text = message
            raise RemoteJobError(type_name, text)
        finally:
            with self._lock:
                self._live.pop(job_id, None)
            try:
                parent_conn.close()
            except OSError:
                pass
            if process.is_alive():
                process.kill()
            process.join(5.0)

    # ------------------------------------------------------------------
    def status(self) -> dict:
        """Snapshot for ``/healthz`` and chaos reports."""
        with self._lock:
            return {
                "circuit": self._circuit_state_locked(),
                "open_reason": self.open_reason,
                "executed": self.executed,
                "crashes": self.crashes,
                "deadline_kills": self.deadline_kills,
                "inline_runs": self.inline_runs,
                "circuit_opens": self.circuit_opens,
                "consecutive_failures": self._consecutive_failures,
                "live_jobs": dict(self._live),
                "pid": os.getpid(),
            }
