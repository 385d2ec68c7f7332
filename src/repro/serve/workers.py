"""Worker pool: pulls jobs off the queue, runs them, survives crashes.

Isolation is layered:

* **Cell level** — every cell a job does not find in the cache runs in
  a worker *process* via the crash-tolerant grid runner
  (:func:`~repro.experiments.parallel.start_cells`, then ``.results()``)
  — a job's only cell and the one miss of a half-cached job included, so
  each gets its ``cell_timeout_s`` and none simulates inside the daemon.
  The service holds one
  :class:`~repro.experiments.parallel.CellPool` for its whole life,
  ``resolve_jobs(jobs)`` processes wide, so a job pays a round trip
  through live workers, not a fork and a reap, and the process count is
  that width, whatever the jobs ask.  One admitting thread schedules
  cells, not jobs: it admits the next job the moment one of the pool's
  processes is free, submits that job's misses and hands the collection
  to a thread of the job's own, so no core idles while a job waits for
  its slowest cell.  A cell's budget starts when it reaches a worker,
  not while it waits behind another job's.  A timeout kill can hit
  another job's running cells; they come back as ``BrokenProcessPool``
  and are retried, never failed.  A hung cell gets the workers killed
  and the next use respawns them; a worker that segfaults or is
  OOM-killed mid-cell costs that pool round (then a serial fallback),
  one that died idle between jobs costs nothing; never the service.
  Workers exit with the daemon, however it dies, and see the
  environment as of their spawn.
* **Job level (bulkhead)** — each job executes inside a catch-all on
  the thread that admits it and on the one that collects it: any
  exception marks *that job* failed and the threads move on.  One
  poisoned job cannot take the pool down.
* **Pool level** — a supervisor respawns the admitting thread if it
  died anyway (the catch-all makes this near-impossible, but an
  always-on service does not get to assume "near").  ``ensure_workers``
  runs on every submission and health probe, so the pool self-heals on
  the paths that matter.

Admission keeps the queue's meaning: jobs leave it one at a time, in
priority order, and its capacity counts queued jobs only.

Per-job budgets: ``cell_timeout_s`` is threaded *explicitly* into
``start_cells`` — service threads must not mutate ``REPRO_CELL_TIMEOUT``
(process-global, races across concurrent jobs).
"""

from __future__ import annotations

import threading
import traceback
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.parallel import (
    CellPool,
    CellRun,
    resolve_jobs,
    start_cells,
)
from repro.serve.queue import JobQueue
from repro.serve.state import DONE, FAILED, RUNNING, JobTable, UnknownJob

__all__ = ["WorkerPool"]


class WorkerPool:
    """One admitting thread draining a :class:`JobQueue` into one
    :class:`CellPool`.

    Args:
        queue / table: the shared service plumbing.
        jobs: cell worker processes (see :func:`resolve_jobs`), read
            once, here.
        use_cache / cache_dir: forwarded to ``start_cells``.
        default_cell_timeout_s: budget for jobs that set none.
        publish: event-broker callback for per-cell telemetry events.
    """

    def __init__(
        self,
        queue: JobQueue,
        table: JobTable,
        jobs: Optional[int] = None,
        use_cache: Optional[bool] = None,
        cache_dir: Optional[str] = None,
        default_cell_timeout_s: Optional[float] = None,
        publish: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self.queue = queue
        self.table = table
        self.cells = CellPool(resolve_jobs(jobs))
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.default_cell_timeout_s = default_cell_timeout_s
        self._publish = publish
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        #: Admitting threads respawned after an unexpected death — the
        #: restart-on-crash counter the health endpoint reports.
        self.restarts = 0
        #: Jobs completed/failed since start (metrics).
        self.completed = 0
        self.failed = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        with self._lock:
            self._thread = self._spawn("repro-serve-admit")

    def _spawn(self, name: str) -> threading.Thread:
        thread = threading.Thread(
            target=self._admit_loop, name=name, daemon=True
        )
        thread.start()
        return thread

    def ensure_workers(self) -> int:
        """Respawn the admitting thread if it died; returns how many
        admitting threads are alive (0 or 1).

        Called from submission and health paths so the pool self-heals
        without a dedicated supervisor thread.
        """
        if self._stop.is_set() or self._thread is None:
            return 0
        with self._lock:
            if not self._thread.is_alive():
                self.restarts += 1
                self._thread = self._spawn(
                    f"repro-serve-admit-r{self.restarts}"
                )
            return 1

    def cell_counters(self) -> Dict[str, int]:
        """What the cell worker processes are doing (the health and
        metrics endpoints report it)."""
        return {
            # 1 for as long as no cell hung and no worker process died.
            "cell_pool_spawns": self.cells.spawns,
            "cell_workers_alive": self.cells.alive(),
            "cells_in_flight": self.cells.in_flight,
        }

    def stop(self, timeout: float = 5.0) -> None:
        """Stop pulling new jobs, wait briefly for in-flight ones, then
        close the cell pool: a job still running after the grace period
        loses its workers and fails rather than outliving the service."""
        self._stop.set()
        self.queue.close()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        self.cells.close()

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    def _admit_loop(self) -> None:
        collectors: List[threading.Thread] = []
        while not self._stop.is_set():
            # A job starts the moment a worker process is free, not
            # when the job before it is done.
            if not self.cells.wait_for_room(timeout=0.2):
                continue
            job_id = self.queue.pop(timeout=0.2)
            if job_id is None:
                continue
            collectors = [t for t in collectors if t.is_alive()]
            try:
                run = self._admit(job_id)
            except Exception:  # noqa: BLE001 — bulkhead, see module doc
                # _admit already tried to mark the job failed; if even
                # that failed the job table is gone and so is the point
                # of crashing the thread over it.
                traceback.print_exc()
                continue
            if run is None:
                continue
            if not run.on_workers:  # every cell was cached
                self._collect(job_id, run)
                continue
            collector = threading.Thread(
                target=self._collect,
                args=(job_id, run),
                name=f"repro-serve-{job_id}",
                daemon=True,
            )
            collector.start()
            collectors.append(collector)
        # Let admitted jobs finish before the pool closes (stop() closes
        # it sooner if they take too long).
        for collector in collectors:
            collector.join()

    def _admit(self, job_id: str) -> Optional[CellRun]:
        """Start a popped job: its cache lookups and the submission of
        its misses, on the admitting thread, in pop order.  ``None``
        when the job is gone or already failed."""
        try:
            job = self.table.get(job_id)
        except UnknownJob:
            return None
        self.table.transition(job_id, RUNNING)
        timeout = (
            job.cell_timeout_s
            if job.cell_timeout_s is not None
            else self.default_cell_timeout_s
        )
        try:
            return start_cells(
                job.configs,
                use_cache=self.use_cache,
                cache_dir=self.cache_dir,
                cell_timeout_s=timeout,
                pool=self.cells,
            )
        except Exception as exc:  # noqa: BLE001 — job bulkhead
            self._fail(job_id, exc)
            return None

    def _collect(self, job_id: str, run: CellRun) -> None:
        """Wait for a job's cells, then cache, publish and transition
        it; a catch-all, like the admitting thread's."""
        try:
            try:
                results = run.results()
            except Exception as exc:  # noqa: BLE001 — job bulkhead
                self._fail(job_id, exc)
                return
            self._finish(job_id, results)
        except Exception:  # noqa: BLE001 — bulkhead, see module doc
            traceback.print_exc()

    def _fail(self, job_id: str, exc: Exception) -> None:
        self.table.transition(
            job_id, FAILED, error=f"{type(exc).__name__}: {exc}"
        )
        with self._lock:
            self.failed += 1

    def _finish(self, job_id: str, results: List[Any]) -> None:
        failed_cells = [r for r in results if r.error is not None]
        self._emit_cells(job_id, results)
        if failed_cells:
            self.table.transition(
                job_id,
                FAILED,
                error=(
                    f"{len(failed_cells)}/{len(results)} cells failed: "
                    + "; ".join(r.error for r in failed_cells[:3])
                ),
                results=list(results),
            )
            with self._lock:
                self.failed += 1
        else:
            self.table.transition(job_id, DONE, results=list(results))
            with self._lock:
                self.completed += 1

    def _emit_cells(self, job_id: str, results: List[Any]) -> None:
        """Publish one telemetry event per finished cell — the series
        SSE clients chart while a grid completes."""
        if self._publish is None:
            return
        for i, summary in enumerate(results):
            mean = summary.stats.mean_ms()
            self._publish(
                {
                    "kind": "telemetry",
                    "event": "cell",
                    "job_id": job_id,
                    "cell": i,
                    "lb": summary.config.lb,
                    "load": summary.config.load,
                    # NaN (no finished flows) is not JSON — send null.
                    "mean_fct_ms": None if mean != mean else mean,
                    "events": summary.events,
                    "error": summary.error,
                }
            )
