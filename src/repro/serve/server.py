"""Always-on experiment service: the assembled stack, in-process or
behind stdlib HTTP.

One :class:`ExperimentService` object owns the whole stack — job table,
admission gate, the one pool of cell processes and the event broker —
and :meth:`~ExperimentService.start_http` puts the JSON protocol and
SSE stream of :mod:`repro.serve.httpd` in front of it.

What loads when: importing this module (and :mod:`repro.api`, which
re-exports it) loads neither the HTTP server nor the process pool.
:meth:`~ExperimentService.start_http` imports :mod:`repro.serve.httpd`
(``http.server``, ``socketserver``, ``email``) when it first binds, and
building a service imports :mod:`repro.experiments.pool`
(``concurrent.futures``, ``multiprocessing``) for its one pool, so a
process that only runs cells pays for neither.

Everything is stdlib — the service adds no dependency, just like the
rest of the repo.  The in-process surface (``service.submit(...)``)
is the exact same code path the HTTP layer calls, so tests and
notebooks can drive a service without sockets.
"""

from __future__ import annotations

import queue as _queue
import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ResultCache, cache_enabled
from repro.serve.queue import JobQueue, Submission
from repro.serve.state import ACTIVE_STATES, DONE, FAILED, QUEUED, JobTable
from repro.serve.workers import WorkerPool

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

__all__ = ["EventBroker", "ExperimentService", "serve"]


class EventBroker:
    """Fan-out of service events to any number of SSE subscribers.

    Subscribers get a bounded queue; a subscriber that stops draining
    (dead connection, slow client) overflows *its own* queue and loses
    events — never blocking publishers or other subscribers.
    """

    def __init__(self, buffer: int = 256) -> None:
        self._lock = threading.Lock()
        self._subscribers: List[_queue.Queue] = []
        self._buffer = buffer
        #: Monotone event counter (metrics).
        self.published = 0

    def subscribe(self) -> _queue.Queue:
        sub: _queue.Queue = _queue.Queue(maxsize=self._buffer)
        with self._lock:
            self._subscribers.append(sub)
        return sub

    def unsubscribe(self, sub: _queue.Queue) -> None:
        with self._lock:
            try:
                self._subscribers.remove(sub)
            except ValueError:
                pass

    def publish(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self.published += 1
            subscribers = list(self._subscribers)
        for sub in subscribers:
            try:
                sub.put_nowait(event)
            except _queue.Full:
                pass  # slow subscriber sheds; publishers never block


class ExperimentService:
    """The assembled service (admission + pool + broker + job table).

    It starts no thread of its own but the HTTP one: a job starts on its
    submitter's thread and is collected on one of the job's own (see
    :mod:`repro.serve.workers`).

    Usable entirely in-process — :meth:`submit` / :meth:`wait` /
    :meth:`result` — or over HTTP via :meth:`start_http`.

    Args:
        jobs: cell worker processes, shared by every job (see
            :func:`~repro.experiments.parallel.resolve_jobs`).
        queue_capacity: queued-job bound (backpressure past it).
        use_cache / cache_dir: result-cache knobs for ``run_cells``.
        default_cell_timeout_s: per-cell budget for jobs that set none.
        n_workers: ignored; deleted with ROADMAP item 1.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        queue_capacity: int = 64,
        use_cache: Optional[bool] = None,
        cache_dir: Optional[str] = None,
        default_cell_timeout_s: Optional[float] = None,
        n_workers: Optional[int] = None,
    ) -> None:
        self.broker = EventBroker()
        self.table = JobTable(publish=self.broker.publish)
        self.queue = JobQueue(self.table, capacity=queue_capacity)
        self.pool = WorkerPool(
            self.table,
            jobs=jobs,
            use_cache=use_cache,
            cache_dir=cache_dir,
            default_cell_timeout_s=default_cell_timeout_s,
            publish=self.broker.publish,
        )
        self._httpd: Optional[ThreadingHTTPServer] = None
        # Held from admission until the job's cells are in the pool, so
        # a cancel never sees a queued job without them.
        self._lock = threading.Lock()
        self._stopped = False

    # ------------------------------------------------------------------ #
    # In-process surface
    # ------------------------------------------------------------------ #

    def start(self) -> "ExperimentService":
        """Nothing to start: a job starts on its submitter's thread."""
        return self

    def submit(
        self,
        configs: Sequence[ExperimentConfig],
        priority: int = 0,
        cell_timeout_s: Optional[float] = None,
    ) -> Submission:
        """Admit a grid (see :meth:`JobQueue.submit`: raises
        :class:`QueueFull` under backpressure) and start it here: cache
        lookups, then its misses into the pool's queue.  A job whose
        cells are all cached is done when this returns."""
        with self._lock:
            if self._stopped:
                raise RuntimeError("service is stopped")
            submission = self.queue.submit(
                configs,
                priority=priority,
                cell_timeout_s=cell_timeout_s,
            )
            if not submission.deduplicated:
                submission.state = self.pool.start(submission.job)
        return submission

    def wait(self, job_id: str, timeout_s: float = 60.0) -> Dict[str, Any]:
        """Block until the job leaves the active states (or timeout);
        returns its public view either way."""
        return self.table.wait(job_id, timeout_s).to_dict()

    def result(self, job_id: str) -> List[Any]:
        """The finished job's :class:`ResultSummary` list (input order).

        Raises ``RuntimeError`` while the job is still active or was
        cancelled without producing results.
        """
        job = self.table.get(job_id)
        if job.state in ACTIVE_STATES or job.results is None:
            raise RuntimeError(
                f"{job_id} has no results (state: {job.state})"
            )
        return job.results

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; ``False`` once one of its cells has
        reached a worker."""
        self.table.get(job_id)  # raises UnknownJob for bad ids
        with self._lock:
            return self.pool.cancel(job_id)

    def health(self) -> Dict[str, Any]:
        """Liveness view: ``ok`` until the service is stopped."""
        return {
            "ok": not self._stopped,
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.capacity,
            **self.pool.cell_counters(),
        }

    def metrics(self) -> Dict[str, Any]:
        caching = self.pool.use_cache
        if caching is None:
            caching = cache_enabled()
        cache = ResultCache(self.pool.cache_dir) if caching else None
        counts = self.table.counts()
        return {
            "jobs": counts,
            "jobs_completed": counts[DONE],
            "jobs_failed": counts[FAILED],
            "queue_depth": counts[QUEUED],
            "events_published": self.broker.published,
            "cache_entries": cache.size() if cache else None,
            "cache_bytes": cache.total_bytes() if cache else None,
            **self.pool.cell_counters(),
            **self.table.phase_quantiles(),
        }

    def stop(self) -> None:
        """Refuse new submissions, give the live jobs a grace period,
        then close the pool (see :meth:`WorkerPool.stop`)."""
        self.stop_http()
        with self._lock:
            self._stopped = True
        self.pool.stop()

    # ------------------------------------------------------------------ #
    # HTTP surface
    # ------------------------------------------------------------------ #

    def start_http(
        self, host: str = "127.0.0.1", port: int = 8642
    ) -> ThreadingHTTPServer:
        """Bind and serve on a daemon thread; returns the server (its
        ``server_address`` carries the actual port when ``port=0``)."""
        from repro.serve.httpd import _KeepAliveServer, _ServiceHandler

        handler = type("Handler", (_ServiceHandler,), {"service": self})
        httpd = self._httpd = _KeepAliveServer((host, port), handler)
        threading.Thread(
            target=httpd.serve_forever, name="repro-serve-http", daemon=True
        ).start()
        return httpd

    def stop_http(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd.close_connections()
            self._httpd = None

    @property
    def http_address(self) -> Optional[tuple]:
        return self._httpd.server_address if self._httpd else None


def serve(
    host: str = "127.0.0.1",
    port: int = 8642,
    jobs: Optional[int] = None,
    queue_capacity: int = 64,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    default_cell_timeout_s: Optional[float] = None,
) -> ExperimentService:
    """Build, start and HTTP-bind an :class:`ExperimentService`.

    Returns the running service; callers own its lifetime
    (``service.stop()``).  ``port=0`` binds an ephemeral port —
    ``service.http_address`` tells you which.
    """
    service = ExperimentService(
        jobs=jobs,
        queue_capacity=queue_capacity,
        use_cache=use_cache,
        cache_dir=cache_dir,
        default_cell_timeout_s=default_cell_timeout_s,
    )
    service.start_http(host=host, port=port)
    return service
