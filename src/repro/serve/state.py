"""Job lifecycle state for the experiment service.

A job is one grid submission (a list of :class:`ExperimentConfig`
cells).  Its lifecycle is a small monotone state machine::

    queued ──> running ──> done
       │           │
       │           └─────> failed
       └─────────────────> cancelled      (running jobs cannot be
                                           cancelled — cells are
                                           processes mid-simulation)

Transitions are validated (``running -> queued`` is a bug, not a
state), timestamped, and published to the event broker so SSE clients
watch jobs move without polling.  All state lives behind one lock in
:class:`JobTable` (a condition, notified when a job ends, so waiting on
a job in-process takes no polling); the table is the single source of
truth the queue, the worker pool and the HTTP layer all share.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.metrics.tdigest import TDigest

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobTable",
    "InvalidTransition",
    "UnknownJob",
]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States from which a job can still produce a result.
ACTIVE_STATES = (QUEUED, RUNNING)
#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

_TRANSITIONS = {
    QUEUED: (RUNNING, CANCELLED),
    RUNNING: (DONE, FAILED),
    DONE: (),
    FAILED: (),
    CANCELLED: (),
}


class InvalidTransition(RuntimeError):
    """A lifecycle move the state machine forbids."""


class UnknownJob(KeyError):
    """Lookup of a job id the table has never seen."""


@dataclass
class Job:
    """One grid submission and everything that happened to it."""

    job_id: str
    configs: List[ExperimentConfig]
    #: Content address of the work (cell keys + run options); identical
    #: resubmissions dedup onto the live or finished job with this key.
    job_key: str
    priority: int = 0
    #: Worker-process fan-out inside the job (``run_cells(jobs=...)``).
    jobs_per_cell: Optional[int] = None
    #: Per-cell wall-clock budget (``run_cells(cell_timeout_s=...)``).
    cell_timeout_s: Optional[float] = None
    state: str = QUEUED
    submitted_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Why the job failed (``None`` otherwise).
    error: Optional[str] = None
    #: One ResultSummary per config, input order, once ``done``.
    results: Optional[List[Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe public view (results are exposed by the result
        endpoint, not the status one — they can be large)."""
        return {
            "job_id": self.job_id,
            "job_key": self.job_key,
            "state": self.state,
            "priority": self.priority,
            "cells": len(self.configs),
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "error": self.error,
        }


class JobTable:
    """Thread-safe registry of every job the service has seen.

    Args:
        publish: callback receiving one JSON-safe event dict per
            lifecycle transition (the SSE broker's ``publish``); ``None``
            disables publication.
    """

    def __init__(
        self, publish: Optional[Callable[[Dict[str, Any]], None]] = None
    ) -> None:
        self._lock = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._counter = itertools.count(1)
        self._publish = publish

    def new_job(
        self,
        configs: Sequence[ExperimentConfig],
        job_key: str,
        priority: int = 0,
        jobs_per_cell: Optional[int] = None,
        cell_timeout_s: Optional[float] = None,
    ) -> Job:
        with self._lock:
            job_id = f"job-{next(self._counter):06d}"
            job = Job(
                job_id=job_id,
                configs=list(configs),
                job_key=job_key,
                priority=priority,
                jobs_per_cell=jobs_per_cell,
                cell_timeout_s=cell_timeout_s,
            )
            self._jobs[job_id] = job
        self._emit(job, "submitted")
        return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJob(job_id) from None

    def transition(
        self,
        job_id: str,
        state: str,
        error: Optional[str] = None,
        results: Optional[List[Any]] = None,
    ) -> Job:
        """Move a job to ``state`` (validated), stamping timestamps and
        attaching the outcome; publishes the event."""
        with self._lock:
            try:
                job = self._jobs[job_id]
            except KeyError:
                raise UnknownJob(job_id) from None
            if state not in _TRANSITIONS[job.state]:
                raise InvalidTransition(
                    f"{job_id}: {job.state} -> {state} is not a legal "
                    f"lifecycle move (allowed: {_TRANSITIONS[job.state]})"
                )
            job.state = state
            now = time.time()
            if state == RUNNING:
                job.started_s = now
            else:
                job.finished_s = now
            if error is not None:
                job.error = error
            if results is not None:
                job.results = results
            if state in TERMINAL_STATES:
                self._lock.notify_all()
        self._emit(job, state)
        return job

    def wait(self, job_id: str, timeout_s: Optional[float] = None) -> Job:
        """Block until the job leaves the active states or ``timeout_s``
        passes; returns the job either way."""
        with self._lock:
            try:
                job = self._jobs[job_id]
            except KeyError:
                raise UnknownJob(job_id) from None
            self._lock.wait_for(
                lambda: job.state not in ACTIVE_STATES, timeout_s
            )
            return job

    def find_by_key(
        self, job_key: str, states: Tuple[str, ...]
    ) -> Optional[Job]:
        """Most recent job with this content key in one of ``states``
        (dedup lookup).  Jobs are scanned newest-first so a resubmission
        after a failure pairs with the latest attempt, not the first."""
        with self._lock:
            for job in reversed(list(self._jobs.values())):
                if job.job_key == job_key and job.state in states:
                    return job
        return None

    def snapshot(self) -> List[Dict[str, Any]]:
        """Public view of every job, submission order."""
        with self._lock:
            return [job.to_dict() for job in self._jobs.values()]

    def counts(self) -> Dict[str, int]:
        """Jobs per state (the metrics endpoint's core numbers)."""
        out = {state: 0 for state in _TRANSITIONS}
        with self._lock:
            for job in self._jobs.values():
                out[job.state] += 1
        return out

    def phase_quantiles(self) -> Dict[str, Optional[float]]:
        """p50 / p90 of queue wait and run time, in ms, over every job
        that ran to an end (``None`` before the first one) — where a
        job's submit→result latency went.

        Folded through :class:`TDigest` on read, from the timestamps
        each job carries anyway.
        """
        with self._lock:
            spans = [
                (job.submitted_s, job.started_s, job.finished_s)
                for job in self._jobs.values()
                if job.started_s is not None and job.finished_s is not None
            ]
        phases = {"queue_wait_ms": TDigest(), "run_ms": TDigest()}
        for submitted, started, finished in spans:
            phases["queue_wait_ms"].add((started - submitted) * 1e3)
            phases["run_ms"].add((finished - started) * 1e3)
        return {
            f"{name}_p{round(q * 100)}": digest.quantile(q) if spans else None
            for name, digest in phases.items()
            for q in (0.5, 0.9)
        }

    def _emit(self, job: Job, event: str) -> None:
        if self._publish is None:
            return
        payload = job.to_dict()
        payload["event"] = event
        payload["kind"] = "job"
        self._publish(payload)
