"""Admission to the service: bounded and deduplicating.

A job is queued from admission until its first cell reaches a worker.
Its cells wait in the service's one queue, its
:class:`~repro.experiments.parallel.CellPool`'s, by the job's
``priority`` and then in submission order.  This module is the door:

* **Backpressure.**  At most ``capacity`` jobs may be queued; a
  submission past it raises :class:`QueueFull` *immediately* instead of
  blocking the submitter or growing without bound.  An always-on
  service that accepts everything eventually dies of its own backlog —
  rejecting at the door is the resilient behaviour (and mirrors how the
  paper's sender reacts to congestion: shed early, not late).
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
from typing import Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import cell_timeout, config_key
from repro.serve.state import ACTIVE_STATES, DONE, QUEUED, Job, JobTable

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

    __slots__ = ("job", "deduplicated", "state")

    def __init__(self, job: Job, deduplicated: bool) -> None:
        #: The job now representing this work (new or pre-existing).
        self.job = job
        #: True when no new job was created (joined a live one or
        #: matched a finished one's content key).
        self.deduplicated = deduplicated
        #: The job's state when the submission was answered; ``job.state``
        #: moves on as the job runs.
        self.state = job.state


class JobQueue:
    """Admission of jobs, bounded and deduplicating.  Not locked: the
    service calls :meth:`submit` under its own lock.

    Args:
        table: the shared job registry.
        capacity: maximum *queued* jobs (running ones no longer count);
            submissions past it raise :class:`QueueFull`.
    """

    def __init__(self, table: JobTable, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.table = table
        self.capacity = capacity

    def submit(
        self,
        configs: Sequence[ExperimentConfig],
        priority: int = 0,
        cell_timeout_s: Optional[float] = None,
    ) -> Submission:
        """Admit a grid as a new, queued job (or join identical work
        already known).

        Raises:
            QueueFull: ``capacity`` jobs are queued — backpressure; the
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
        known = self.table.find_by_key(key, ACTIVE_STATES + (DONE,))
        if known is not None:
            return Submission(known, deduplicated=True)
        if self.depth >= self.capacity:
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
        return Submission(job, deduplicated=False)

    @property
    def depth(self) -> int:
        """Jobs queued: admitted, and no cell on a worker yet."""
        return self.table.counts()[QUEUED]
