"""Bounded, prioritised, deduplicating job queue.

Three properties the service leans on:

* **Backpressure.**  The queue has a hard capacity; a submission past
  it raises :class:`QueueFull` *immediately* instead of blocking the
  submitter or growing without bound.  An always-on service that
  accepts everything eventually dies of its own backlog — rejecting at
  the door is the resilient behaviour (and mirrors how the paper's
  sender reacts to congestion: shed early, not late).
* **Priorities.**  Higher ``priority`` pops first; within a priority,
  FIFO (a monotone sequence number breaks ties, so equal-priority jobs
  never starve each other).
* **Dedup.**  Work is content-addressed: a job's key hashes its cells'
  :func:`~repro.experiments.parallel.config_key` (config + code
  version) plus the run options.  Submitting work identical to a
  queued/running job joins it; identical to a finished job returns its
  result.  Cell-level dedup happens a layer below in the on-disk
  :class:`~repro.experiments.parallel.ResultCache` — even a *partially*
  overlapping job only simulates the cells nobody ran before.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
from typing import List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import cell_timeout, config_key
from repro.serve.state import ACTIVE_STATES, DONE, Job, JobTable

__all__ = ["JobQueue", "QueueFull", "Submission", "job_key_for"]


class QueueFull(RuntimeError):
    """Backpressure: the queue is at capacity; retry later or shed."""


def job_key_for(
    configs: Sequence[ExperimentConfig], cell_timeout_s: Optional[float]
) -> str:
    """Content address of a submission.

    Cell order matters (results come back in input order, so the same
    cells permuted are a different job); run options matter (the same
    grid under a different timeout can legitimately differ in which
    cells fail).  Code version is already inside each cell key.
    """
    digest = hashlib.sha256()
    for config in configs:
        digest.update(config_key(config).encode())
        digest.update(b"|")
    digest.update(f"opts:{cell_timeout_s}".encode())
    return digest.hexdigest()[:32]


class Submission:
    """What :meth:`JobQueue.submit` hands back."""

    __slots__ = ("job", "deduplicated")

    def __init__(self, job: Job, deduplicated: bool) -> None:
        #: The job now representing this work (new or pre-existing).
        self.job = job
        #: True when no new job was created (joined a live one or
        #: matched a finished one's content key).
        self.deduplicated = deduplicated


class JobQueue:
    """Priority queue of :class:`Job` ids, bounded and deduplicating.

    Args:
        table: the shared job registry.
        capacity: maximum *queued* jobs (running ones have already left
            the queue); submissions past it raise :class:`QueueFull`.
    """

    def __init__(self, table: JobTable, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.table = table
        self.capacity = capacity
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        # Entries: (-priority, seq, job_id); heapq pops smallest, so
        # negated priority makes higher-priority jobs pop first and the
        # sequence number keeps equal priorities FIFO.
        self._heap: List[Tuple[int, int, str]] = []
        self._seq = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #

    def submit(
        self,
        configs: Sequence[ExperimentConfig],
        priority: int = 0,
        cell_timeout_s: Optional[float] = None,
    ) -> Submission:
        """Enqueue a grid (or join identical work already known).

        Raises:
            QueueFull: the queue is at capacity — backpressure; the
                submitter should retry later or drop the work.
            ValueError: an empty config list (nothing to run), a
                ``priority`` that is not an integer or a
                ``cell_timeout_s`` that is not a positive number.
        """
        if not configs:
            raise ValueError("a job needs at least one config")
        # Refused here, not when the job runs: the HTTP layer answers a
        # ValueError with 400, and no job is made.
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ValueError(f"priority must be an integer, got {priority!r}")
        if cell_timeout_s is not None:
            cell_timeout(cell_timeout_s)
        key = job_key_for(configs, cell_timeout_s)
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            live = self.table.find_by_key(key, ACTIVE_STATES)
            if live is not None:
                return Submission(live, deduplicated=True)
            finished = self.table.find_by_key(key, (DONE,))
            if finished is not None:
                return Submission(finished, deduplicated=True)
            if len(self._heap) >= self.capacity:
                raise QueueFull(
                    f"queue at capacity ({self.capacity} queued jobs); "
                    "retry later"
                )
            job = self.table.new_job(
                configs,
                job_key=key,
                priority=priority,
                cell_timeout_s=cell_timeout_s,
            )
            self._seq += 1
            heapq.heappush(self._heap, (-priority, self._seq, job.job_id))
            self._available.notify()
            return Submission(job, deduplicated=False)

    def cancel(self, job_id: str) -> bool:
        """Remove a still-queued job; ``False`` if it already left the
        queue (running/terminal jobs are not interruptible)."""
        with self._lock:
            for i, (_, _, queued_id) in enumerate(self._heap):
                if queued_id == job_id:
                    self._heap[i] = self._heap[-1]
                    self._heap.pop()
                    heapq.heapify(self._heap)
                    self.table.transition(job_id, "cancelled")
                    return True
        return False

    def close(self) -> None:
        """Stop accepting and wake every blocked consumer."""
        with self._lock:
            self._closed = True
            self._available.notify_all()

    # ------------------------------------------------------------------ #
    # Consumer side (worker pool)
    # ------------------------------------------------------------------ #

    def pop(self, timeout: Optional[float] = None) -> Optional[str]:
        """Highest-priority queued job id, blocking up to ``timeout``
        seconds; ``None`` on timeout or queue closure."""
        with self._lock:
            while not self._heap:
                if self._closed:
                    return None
                if not self._available.wait(timeout=timeout):
                    return None
            _, _, job_id = heapq.heappop(self._heap)
            return job_id

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._heap)
