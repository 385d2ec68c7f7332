"""Jobs on the service's one pool of cell processes: started, collected,
survived.

Isolation is layered:

* **Cell level** — every cell a job does not find in the cache runs in
  a worker *process* via the crash-tolerant grid runner
  (:func:`~repro.experiments.pool.start_cells`, then ``.results()``)
  — a job's only cell and the one miss of a half-cached job included, so
  each gets its ``cell_timeout_s`` and none simulates inside the daemon.
  The service holds one
  :class:`~repro.experiments.pool.CellPool` for its whole life,
  ``resolve_jobs(jobs)`` processes wide, so a job pays a round trip
  through live workers, not a fork and a reap, and the process count is
  that width, whatever the jobs ask.  The pool's queue is the service's
  only one: a job starts on its submitter's thread — its cache lookups,
  then its misses into that queue, tagged with the job's priority — and
  is collected on a thread of its own, so no core idles while a job
  waits for its slowest cell.  A cell's budget starts when it reaches a
  worker, not while it waits behind another job's.  A timeout kill can
  hit another job's running cells; they come back as
  ``BrokenProcessPool`` and are retried, never failed.  A hung cell gets
  the workers killed and the next use respawns them; a worker that
  segfaults or is OOM-killed mid-cell costs that pool round (then a
  serial fallback), one that died idle between jobs costs nothing; never
  the service.  Workers exit with the daemon, however it dies, and see
  the environment as of their spawn.
* **Job level (bulkhead)** — each job runs inside a catch-all on the
  thread that starts it and on the one that collects it: any exception
  marks *that job* failed.  One poisoned job cannot take the pool down.

A job is ``queued`` until its first cell reaches a worker; its collector
makes it ``running`` then.  Cancelling takes a queued job's cells back
out of the pool's queue, all of them or none.

Per-job budgets: ``cell_timeout_s`` is threaded *explicitly* into
``start_cells`` — service threads must not mutate ``REPRO_CELL_TIMEOUT``
(process-global, races across concurrent jobs).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.serve.state import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    Job,
    JobTable,
)

if TYPE_CHECKING:
    from repro.experiments.pool import CellRun

__all__ = ["WorkerPool"]


class WorkerPool:
    """The service's one :class:`CellPool` and the jobs out on it.

    Args:
        table: the shared job registry.
        jobs: cell worker processes (see :func:`resolve_jobs`), read
            once, here.
        use_cache / cache_dir: forwarded to ``start_cells``.
        default_cell_timeout_s: budget for jobs that set none.
        publish: event-broker callback for per-cell telemetry events.
    """

    def __init__(
        self,
        table: JobTable,
        jobs: Optional[int] = None,
        use_cache: Optional[bool] = None,
        cache_dir: Optional[str] = None,
        default_cell_timeout_s: Optional[float] = None,
        publish: Callable[[Dict[str, Any]], None] = lambda event: None,
    ) -> None:
        from repro.experiments.pool import CellPool, resolve_jobs

        self.table = table
        self.cells = CellPool(resolve_jobs(jobs))
        self.use_cache = use_cache
        self.cache_dir = cache_dir
        self.default_cell_timeout_s = default_cell_timeout_s
        self._publish = publish
        self._lock = threading.Lock()
        #: Jobs with cells out on the pool: their run and collector.
        self._live: Dict[str, Tuple[CellRun, threading.Thread]] = {}

    def start(self, job: Job) -> str:
        """Start a new job on the caller's thread: its cache lookups,
        then its misses into the pool's queue at the job's priority.

        Returns the job's state as it leaves the caller: ``done`` or
        ``failed`` when it ended here (every cell cached, or the start
        failed), else ``queued`` — a collector thread of the job's own
        takes it from there.
        """
        from repro.experiments.pool import start_cells

        budget = job.cell_timeout_s or self.default_cell_timeout_s
        try:
            run = start_cells(
                job.configs, use_cache=self.use_cache, pool=self.cells,
                cache_dir=self.cache_dir, cell_timeout_s=budget,
                priority=job.priority,
            )
        except Exception as exc:  # noqa: BLE001 — job bulkhead
            self.table.transition(job.job_id, RUNNING)
            self._fail(job.job_id, exc)
            return FAILED
        if not run.on_workers:  # every cell was cached
            self._collect(job.job_id, run)
            return job.state
        collector = threading.Thread(
            target=self._collect, args=(job.job_id, run),
            name=f"repro-serve-{job.job_id}", daemon=True,
        )
        with self._lock:
            self._live[job.job_id] = (run, collector)
        collector.start()
        return QUEUED

    def cancel(self, job_id: str) -> bool:
        """Take a queued job's cells out of the pool's queue, all at
        once, and mark it cancelled; ``False`` if one of them has reached
        a worker already (or the job has none out)."""
        with self._lock:
            live = self._live.get(job_id)
        if live is None or not live[0].withdraw():
            return False
        self.table.transition(job_id, CANCELLED)
        return True

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
        """Give the jobs out on the pool ``timeout`` seconds in all, then
        close it: a job still running after the grace period loses its
        workers and fails rather than outliving the service."""
        deadline = time.monotonic() + timeout
        with self._lock:
            collectors = [collector for _, collector in self._live.values()]
        for collector in collectors:
            collector.join(max(0.0, deadline - time.monotonic()))
        self.cells.close()

    def _collect(self, job_id: str, run: CellRun) -> None:
        """Mark a job running when its first cell reaches a worker, wait
        for its cells, then cache, publish and transition it; a
        catch-all (see the module doc)."""
        try:
            if run.wait_started():  # else withdrawn: cancel() ended it
                self.table.transition(job_id, RUNNING)
                self._finish(job_id, run.results())
        except Exception as exc:  # noqa: BLE001 — job bulkhead
            self._fail(job_id, exc)
        finally:
            with self._lock:
                self._live.pop(job_id, None)

    def _fail(self, job_id: str, exc: Exception) -> None:
        self.table.transition(
            job_id, FAILED, error=f"{type(exc).__name__}: {exc}"
        )

    def _finish(self, job_id: str, results: List[Any]) -> None:
        """Publish one telemetry event per finished cell — the series
        SSE clients chart while a grid completes — then end the job."""
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
        failed_cells = [r for r in results if r.error is not None]
        error = None
        if failed_cells:
            error = f"{len(failed_cells)}/{len(results)} cells failed: " + (
                "; ".join(r.error for r in failed_cells[:3])
            )
        self.table.transition(
            job_id, FAILED if failed_cells else DONE, error=error,
            results=list(results),
        )
