"""repro.serve — the production job-service layer.

Turns the in-process :class:`repro.api.Session` API into a long-running
multi-client service (stdlib only, like :mod:`repro.obs` and
:mod:`repro.parallel`):

* :class:`JobService` — bounded job queue + worker threads + a
  content-addressed :class:`ResultCache` keyed by design structure
  fingerprint × :meth:`RunConfig.fingerprint` × method parameters;
* :class:`ReproServer` / :func:`make_server` — the threaded HTTP/JSON
  front end (``/v1/jobs``, ``/healthz``, ``/metrics``, graceful
  shutdown);
* :class:`ServeClient` — the stdlib Python client;
* :class:`DurableStore` / :class:`Journal` — opt-in crash safety
  (``state_dir=``): a fsync'd JSONL write-ahead journal plus the
  result cache's disk tier, a verified blob store
  (:class:`repro.store.BlobStore`, described in ``docs/robustness.md``),
  replayed on restart (:class:`RecoveryReport`);
* :class:`WorkerSupervisor` — opt-in supervised execution
  (``supervise=True``): forked worker processes with hard deadlines,
  crash retry, lease heartbeats and a circuit breaker.

CLI entry points: ``repro serve`` and ``repro submit``. The full
protocol, cache semantics and ops runbook live in ``docs/serving.md``;
the fault model and crash-recovery runbook in ``docs/robustness.md``.
"""

from repro.serve.cache import ResultCache, job_cache_key
from repro.serve.client import ServeClient
from repro.serve.durable import (
    DurableStore,
    Journal,
    RecoveryReport,
    payload_digest,
    replay_journal,
)
from repro.serve.http import DEFAULT_HOST, DEFAULT_PORT, ReproServer, make_server
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    METHODS,
    QUEUED,
    RUNNING,
    STATES,
    Job,
    JobService,
)
from repro.serve.supervisor import RemoteJobError, WorkerSupervisor

__all__ = [
    "JobService",
    "Job",
    "ResultCache",
    "job_cache_key",
    "ReproServer",
    "make_server",
    "ServeClient",
    "DurableStore",
    "Journal",
    "RecoveryReport",
    "payload_digest",
    "replay_journal",
    "WorkerSupervisor",
    "RemoteJobError",
    "METHODS",
    "STATES",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
]
