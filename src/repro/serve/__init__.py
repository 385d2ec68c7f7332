"""repro.serve — the always-on experiment service.

Instead of one-shot bench scripts, a long-lived daemon owns the result
cache and one pool of cell processes; clients submit experiment grids
as jobs and stream progress:

* :mod:`repro.serve.state` — job lifecycle (queued → running →
  done/failed/cancelled) behind one thread-safe table;
* :mod:`repro.serve.queue` — admission: backpressure rejection past
  capacity, content-addressed dedup of identical work;
* :mod:`repro.serve.workers` — jobs on the one pool, whose queue orders
  every waiting cell by its job's priority: per-cell timeouts, bulkhead
  isolation, restart-on-crash of the cell processes;
* :mod:`repro.serve.server` — the assembled service, in-process;
* :mod:`repro.serve.httpd` — its stdlib ``ThreadingHTTPServer`` JSON API
  (submit/status/result/cancel/healthz/metrics) + SSE event stream,
  imported when the service first binds;
* :mod:`repro.serve.client` — ``http.client`` client speaking the same
  protocol, which imports ``http.client`` on its first connection.

Importing this package loads neither HTTP stack nor the process pool
(the service's :class:`~repro.serve.workers.WorkerPool` imports
:mod:`repro.experiments.pool` when it is built), so ``repro.api`` can
re-export the service without a cell run paying for it.

CLI: ``repro serve`` (daemon), ``repro submit`` (send a grid and wait),
``repro jobs`` (inspect).  In-process: ``repro.api.serve()``.
"""

from repro.serve.client import BackpressureError, ServiceClient, ServiceError
from repro.serve.queue import JobQueue, QueueFull, Submission, job_key_for
from repro.serve.server import EventBroker, ExperimentService, serve
from repro.serve.state import (
    ACTIVE_STATES,
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobTable,
)
from repro.serve.workers import WorkerPool

__all__ = [
    "ExperimentService",
    "serve",
    "ServiceClient",
    "ServiceError",
    "BackpressureError",
    "EventBroker",
    "JobQueue",
    "QueueFull",
    "Submission",
    "job_key_for",
    "WorkerPool",
    "Job",
    "JobTable",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
]
