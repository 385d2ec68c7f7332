"""Worker pool: pulls jobs off the queue, runs them, survives crashes.

Isolation is layered:

* **Cell level** — every cell of a job with ``jobs_per_cell > 1`` runs
  in a worker *process* via the crash-tolerant grid runner
  (:func:`~repro.experiments.parallel.start_cells`, then ``.results()``)
  — a job's only cell and the one miss of a half-cached job included, so
  each gets its ``cell_timeout_s`` and none simulates inside the daemon
  (``jobs_per_cell=1`` asks for exactly that, for a debugger).  Each
  worker thread holds one
  :class:`~repro.experiments.parallel.CellPool` for its whole life, so
  a job pays a round trip through live workers, not a fork and a reap.
  The thread schedules cells, not jobs: it admits the next job the
  moment one of its pool's processes is free, submits that job's misses
  and hands the collection to a thread of the job's own, so no core
  idles while a job waits for its slowest cell.  A cell's budget starts
  when it reaches a worker, not while it waits behind another job's.  A
  timeout kill can hit another job's running cells; they come back as
  ``BrokenProcessPool`` and are retried, never failed.  A job that runs
  in-process, or asks for another width, is admitted only once the pool
  is empty, so a respawn never kills an admitted job's cells and at most
  ``n_workers × jobs_per_cell`` processes exist, as before.  A hung cell
  gets the workers killed and the next use respawns them; a worker that
  segfaults or is OOM-killed mid-cell costs that pool round (then a
  serial fallback), one that died idle between jobs costs nothing; never
  the service.  Workers exit with the daemon, however it dies, and see
  the environment as of their spawn.
* **Job level (bulkhead)** — each job executes inside a catch-all on
  the thread that admits it and on the one that collects it: any
  exception marks *that job* failed and the threads move on.  One
  poisoned job cannot take the pool down.
* **Pool level** — a supervisor respawns worker threads that died
  anyway (the catch-all makes this near-impossible, but an always-on
  service does not get to assume "near").  ``ensure_workers`` runs on
  every submission and health probe, so the pool self-heals on the
  paths that matter.

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
    """``n_workers`` daemon threads draining a :class:`JobQueue`.

    Args:
        queue / table: the shared service plumbing.
        n_workers: cell pools, one per worker thread (each pool is a
            job's ``jobs_per_cell`` processes wide; keep this small).
        use_cache / cache_dir: forwarded to ``start_cells``.
        default_cell_timeout_s: budget for jobs that set none.
        publish: event-broker callback for per-cell telemetry events.
    """

    def __init__(
        self,
        queue: JobQueue,
        table: JobTable,
        n_workers: int = 2,
        use_cache: Optional[bool] = None,
        cache_dir: Optional[str] = None,
        default_cell_timeout_s: Optional[float] = None,
        publish: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.queue = queue
        self.table = table
        self.n_workers = n_workers
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.default_cell_timeout_s = default_cell_timeout_s
        self._publish = publish
        self._threads: List[threading.Thread] = []
        #: One per worker thread ever started (dead threads' pools stay,
        #: closed, so ``cell_pool_spawns`` never runs backwards).
        self._cell_pools: List[CellPool] = []
        self._stop = threading.Event()
        self._lock = threading.Lock()
        #: Worker threads respawned after an unexpected death — the
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
            for i in range(self.n_workers):
                self._threads.append(self._spawn(f"repro-serve-worker-{i}"))

    def _spawn(self, name: str) -> threading.Thread:
        cells = CellPool()
        self._cell_pools.append(cells)
        thread = threading.Thread(
            target=self._work_loop, args=(cells,), name=name, daemon=True
        )
        thread.start()
        return thread

    def ensure_workers(self) -> int:
        """Respawn dead worker threads; returns how many are alive.

        Called from submission and health paths so the pool self-heals
        without a dedicated supervisor thread.
        """
        if self._stop.is_set():
            return 0
        with self._lock:
            for i, thread in enumerate(self._threads):
                if not thread.is_alive():
                    self.restarts += 1
                    self._threads[i] = self._spawn(
                        f"repro-serve-worker-r{self.restarts}"
                    )
            return sum(1 for t in self._threads if t.is_alive())

    def alive(self) -> int:
        with self._lock:
            return sum(1 for t in self._threads if t.is_alive())

    def cell_counters(self) -> Dict[str, int]:
        """What the cell worker processes are doing, over all worker
        threads (the health and metrics endpoints report it)."""
        with self._lock:
            return {
                # 1 per worker thread for as long as no cell hung, no
                # worker process died and every job asked for one width.
                "cell_pool_spawns": sum(c.spawns for c in self._cell_pools),
                "cell_workers_alive": sum(
                    c.alive() for c in self._cell_pools
                ),
                "cells_in_flight": sum(
                    c.in_flight for c in self._cell_pools
                ),
            }

    def stop(self, timeout: float = 5.0) -> None:
        """Stop pulling new jobs, wait briefly for in-flight ones, then
        close every cell pool: a job still running after the grace
        period loses its workers and fails rather than outliving the
        service."""
        self._stop.set()
        self.queue.close()
        for thread in list(self._threads):
            thread.join(timeout=timeout)
        with self._lock:
            for cells in self._cell_pools:
                cells.close()

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    def _work_loop(self, cells: CellPool) -> None:
        collectors: List[threading.Thread] = []
        with cells:
            while not self._stop.is_set():
                # A job starts the moment a worker process is free, not
                # when the job before it is done.
                if not cells.wait_for_room(timeout=0.2):
                    continue
                job_id = self.queue.pop(timeout=0.2)
                if job_id is None:
                    continue
                collectors = [t for t in collectors if t.is_alive()]
                try:
                    run = self._admit(job_id, cells)
                except Exception:  # noqa: BLE001 — bulkhead, see module doc
                    # _admit already tried to mark the job failed; if
                    # even that failed the job table is gone and so is
                    # the point of crashing the worker over it.
                    traceback.print_exc()
                    continue
                if run is None:
                    continue
                if not run.on_workers:
                    # All cached, or in-process (admitted into an empty
                    # pool, which stays empty while this thread runs it).
                    self._collect(job_id, run)
                    continue
                collector = threading.Thread(
                    target=self._collect,
                    args=(job_id, run),
                    name=f"{threading.current_thread().name}-{job_id}",
                    daemon=True,
                )
                collector.start()
                collectors.append(collector)
            # Let admitted jobs finish before the pool closes (stop()
            # closes it sooner if they take too long).
            for collector in collectors:
                collector.join()

    def _admit(self, job_id: str, cells: CellPool) -> Optional[CellRun]:
        """Start a popped job: its cache lookups and the submission of
        its misses, on the admitting thread, in pop order.  ``None``
        when the job is gone or already failed."""
        try:
            job = self.table.get(job_id)
        except UnknownJob:
            return None
        try:
            width = resolve_jobs(job.jobs_per_cell)
        except ValueError:
            width = None  # start_cells raises it again, in the bulkhead
        if width is not None:
            cells.wait_for_room(width)
        self.table.transition(job_id, RUNNING)
        timeout = (
            job.cell_timeout_s
            if job.cell_timeout_s is not None
            else self.default_cell_timeout_s
        )
        try:
            return start_cells(
                job.configs,
                jobs=job.jobs_per_cell,
                use_cache=self.use_cache,
                cache_dir=self.cache_dir,
                cell_timeout_s=timeout,
                pool=cells,
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
