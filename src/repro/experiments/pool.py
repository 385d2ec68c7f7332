"""Grid fan-out over worker processes: the half of the grid runner that
runs cells (the other half, :mod:`repro.experiments.parallel`, caches
them).

Every paper figure is a (scheme x load x seed) grid of independent,
seeded, deterministic simulations.  This module fans the cells the
cache does not hold out over a
:class:`~concurrent.futures.ProcessPoolExecutor`, and is the only module
of ``repro`` that imports :mod:`concurrent.futures` or
:mod:`multiprocessing` at its top.  Nothing imports it at the top
either: :func:`repro.api.run_grid`, the CLI commands that fan out and
the service's :class:`~repro.serve.workers.WorkerPool` import it in the
function that uses it, so a process that only runs
:func:`~repro.experiments.runner.run_experiment` — every cell child and
every pool worker — never loads the process pool.

Three invariants the rest of the repo relies on:

* **Determinism** — a parallel run produces bit-identical per-flow
  records to a serial run of the same grid (each cell's randomness comes
  exclusively from ``RngStreams(config.seed)``, so process boundaries
  cannot perturb it).  Enforced by ``tests/test_parallel.py``.
* **Order** — :func:`run_cells` returns results in input order, whatever
  order the pool finishes them in.
* **Picklability** — workers return a slim
  :class:`~repro.experiments.result.ResultSummary` (the
  :class:`~repro.experiments.result.ExperimentResult` minus its live
  handles, which hold the simulator and cannot cross a process
  boundary).

``REPRO_JOBS`` sets the worker count (a ``jobs`` argument or CLI flag
overrides it); ``1`` forces the in-process serial path (handy under a
debugger).  Default: ``os.cpu_count()``.  The cache and cell-timeout
knobs are read by :mod:`repro.experiments.parallel`.

Crash tolerance: a worker killed mid-cell (OOM kill, segfault, machine
going away) used to surface as ``BrokenProcessPool`` and abort the grid.
``run_cells`` now collects the cells that *did* finish, restarts the
pool for the rest, and — after bounded pool retries — falls back to
running the survivors serially in-process, so one poisoned cell can no
longer take the other N-1 down with it.

The worker processes have one owner, :class:`CellPool` — the only place
in ``src/`` that builds a ``ProcessPoolExecutor``.  A grid runs in two
halves: :func:`start_cells` looks every cell up in the cache and submits
the misses, and ``.results()`` on the :class:`CellRun` it returns
collects them, retries, falls back to serial and caches the new
results.  :func:`run_cells` calls the two back to back and makes a pool
for the length of the call unless the caller hands it one to keep
(``pool=``).  A pool's width is fixed when it is built.  The experiment
service holds one and calls the halves on two threads, the submitter's
and one of the job's own: a job pays a round trip through live workers
(~0.2 ms) instead of a fork and a reap, and its cells go to a worker the
moment one is free.  Workers that outlive a call change four things:

* a worker can die *between* calls.  A pool found broken when the next
  call submits is respawned on the spot and costs that call none of its
  retry rounds — no cell had started;
* two callers can share the workers.  Cells wait in the pool's one queue
  until a worker is free, a higher ``priority`` first and in submission
  order within one, so a cell's budget starts when the cell does, not
  while it waits behind another caller's.  A kill after one
  caller's cell hung takes the cells running beside it with it, the
  other caller's too; they come back as ``BrokenProcessPool`` and are
  retried, and the waiting ones move to the respawned workers;
* workers must not outlive their parent.  Each one blocks a daemon
  thread on the parent's sentinel and calls ``os._exit`` when it fires, so
  a ``kill -9`` of the parent leaves no orphan holding its inherited
  descriptors (under ``fork``: the service's listening socket);
* a held worker sees the environment as of its spawn, not as of the
  call.  Every knob is read in the parent, so only the
  ``REPRO_TEST_*`` fault hooks notice — set them before the pool's first
  use (the tests build their service after ``monkeypatch.setenv``).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import CancelledError, Future
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import ResultCache, cache_enabled, cell_timeout
from repro.experiments.result import ResultSummary
from repro.experiments.runner import run_experiment
from repro.metrics.fct import FctStats


# --------------------------------------------------------------------- #
# Worker entry point
# --------------------------------------------------------------------- #


def _failed_summary(config: ExperimentConfig, reason: str) -> ResultSummary:
    """Placeholder for a cell that produced no result (timed out)."""
    return ResultSummary(
        config=config,
        stats=FctStats([]),
        sim_time_ns=0,
        events=0,
        total_reroutes=0,
        error=reason,
    )


def _test_fault_hooks(config: ExperimentConfig) -> None:
    """Deterministic worker-fault injection for the crash-tolerance
    tests: inert unless a ``REPRO_TEST_*`` variable names this cell's
    seed, and never fires in the parent process — a serial in-process
    re-run of a cell that killed its worker must survive."""
    if multiprocessing.parent_process() is None:
        return
    crash = os.environ.get("REPRO_TEST_CRASH_SEED")
    if crash and config.seed == int(crash):
        os._exit(1)  # simulates an OOM kill / segfault mid-cell
    sleep = os.environ.get("REPRO_TEST_SLEEP")  # "seed:secs,seed:secs"
    for pair in sleep.split(",") if sleep else ():
        seed_s, _, secs = pair.partition(":")
        if config.seed == int(seed_s):
            time.sleep(float(secs))  # simulates a slow or hung cell


def _run_cell(config: ExperimentConfig) -> ResultSummary:
    """Worker entry point: one cell, summarized.  Must stay module-level
    so the pool can import it by reference."""
    _test_fault_hooks(config)
    return ResultSummary.from_result(run_experiment(config))


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #


def _exit_with_parent() -> None:
    """Pool-worker initializer: die when the parent does.

    A worker blocked on its call queue never notices that the process
    feeding it is gone (``kill -9``, OOM kill) and would sleep forever,
    holding every descriptor it inherited.  A daemon thread blocks on
    the parent's sentinel — no polling — and exits the process when it
    fires.
    """
    from multiprocessing.connection import wait

    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        wait([sentinel])
        os._exit(1)

    threading.Thread(
        target=watch, name="repro-parent-watch", daemon=True
    ).start()


class _Cell(Future):
    """A cell's future in a :class:`CellPool`: it waits in the pool's
    queue until a worker is free, and only then is it handed to the
    executor — and on the clock of its caller's budget."""

    def __init__(self, fn, item: Any) -> None:
        super().__init__()
        self.fn = fn
        self.item = item
        #: The executor it was handed to; ``None`` while it waits.
        self.executor = None
        #: ``time.monotonic()`` when it reached a worker (0.0 for a cell
        #: that ended without one: its budget has nothing left to give).
        self.started_at = 0.0
        #: Set when it reaches a worker, or ends without one.
        self.started = threading.Event()
        self.add_done_callback(lambda _: self.started.set())


class CellPool:
    """The worker processes cells run in, and their whole life: spawned
    lazily, kept between uses, killed when a cell hangs or a worker
    dies, shut down once.

    Safe to share between threads: the experiment service submits each
    job's cells on its submitter's thread and collects them on a thread
    of the job's own.  Cells wait in the pool's own queue — the only one
    the service has — highest priority first and in submission order
    within a priority, and go to the executor only when a worker is
    free, so a cell's budget starts when it starts and a kill takes only
    the cells that were running.  :attr:`in_flight` counts the cells
    submitted and not yet finished.
    A kill (after a timeout, a dead worker or a cell that raised) takes
    every running cell with it, another caller's too; those come back
    as ``BrokenProcessPool`` and are retried, and the waiting ones move
    to respawned workers.

    Args:
        width: worker processes, fixed for the pool's life (checked by
            :func:`resolve_jobs`).
    """

    def __init__(self, width: int) -> None:
        #: Worker processes; never changes.
        self.width = resolve_jobs(width)
        self._executor = None
        self._closed = False
        # Reentrant: an executor future that is already done runs its
        # callback inside ``add_done_callback``, under the lock.
        self._lock = threading.RLock()
        # Entries (-priority, seq, cell): heapq pops the smallest, so the
        # highest priority leaves first, and equal ones in order.
        self._waiting: List[Tuple[int, int, _Cell]] = []
        self._seq = itertools.count()
        self._running = 0
        #: Executors built so far; 1 for as long as nothing went wrong.
        self.spawns = 0

    @property
    def in_flight(self) -> int:
        """Cells submitted and not yet finished, over every caller."""
        return self._running + len(self._waiting)

    def submit(
        self, fn, items: Sequence[Any], priority: int = 0
    ) -> List[_Cell]:
        """Queue ``fn(item)`` for every item, ahead of every waiting cell
        of a lower ``priority``; returns one future per item, in order.
        A submission's cells reach the workers in its order."""
        with self._lock:
            if self._closed:
                raise RuntimeError("cell pool is closed")
            cells = [_Cell(fn, item) for item in items]
            for cell in cells:
                heapq.heappush(
                    self._waiting, (-priority, next(self._seq), cell)
                )
            self._dispatch()
        return cells

    def withdraw(self, cells: Sequence[_Cell], whole: bool = False) -> bool:
        """Drop the cells that still wait (cancelled); running ones run
        on.  With ``whole``, all or nothing: if one of them no longer
        waits, none is dropped and the answer is ``False``."""
        with self._lock:
            waiting = {c for c in cells if c.executor is None and not c.done()}
            if whole and len(waiting) < len(cells):
                return False
            self._waiting = [e for e in self._waiting if e[2] not in waiting]
            heapq.heapify(self._waiting)
            for cell in waiting:
                cell.cancel()
        return True

    def _dispatch(self) -> None:
        """Hand waiting cells to the executor while a worker is free
        (under the lock).  Workers that died since their last cell —
        idle, or with another caller's — are replaced on the spot: no
        waiting cell had started, so none is lost."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        while self._waiting and self._running < self.width:
            if self._closed:
                for _, _, cell in self._waiting:
                    cell.set_exception(RuntimeError("cell pool is closed"))
                self._waiting.clear()
                return
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.width, initializer=_exit_with_parent
                )
                self.spawns += 1
            executor = self._executor
            cell = self._waiting[0][2]
            try:
                future = executor.submit(cell.fn, cell.item)
            except BrokenProcessPool:
                if self._forget(executor):
                    # No join: this may be its own manager thread, in a
                    # callback, and that thread reaps the workers anyway.
                    executor.shutdown(wait=False, cancel_futures=True)
                continue
            heapq.heappop(self._waiting)
            self._running += 1
            cell.executor = executor
            cell.started_at = time.monotonic()
            cell.started.set()
            future.add_done_callback(functools.partial(self._finished, cell))

    def _finished(self, cell: _Cell, future: Any) -> None:
        with self._lock:
            self._running -= 1
            self._dispatch()
        if future.cancelled():
            cell.set_exception(CancelledError())
        elif future.exception() is not None:
            cell.set_exception(future.exception())
        else:
            cell.set_result(future.result())

    def _workers(self) -> list:
        # The executor has no public accessor for its processes.
        executor = self._executor
        processes = executor._processes if executor is not None else None
        return list(processes.values()) if processes else []

    def alive(self) -> int:
        """Worker processes currently running."""
        return sum(1 for proc in self._workers() if proc.is_alive())

    def _forget(self, executor: Any) -> bool:
        """Kill ``executor``'s workers and drop it, if it is still the
        live one (under the lock); the caller shuts it down."""
        if executor is None or executor is not self._executor:
            return False
        for proc in self._workers():
            proc.kill()
        self._executor = None
        return True

    def discard(self, executor=None) -> None:
        """Kill the workers without waiting for their cells; waiting
        cells move to respawned ones.  For a hung cell (it holds its
        worker forever, so a graceful shutdown would hang too) and for a
        pool a dead worker has broken.  ``SIGKILL``, not ``SIGTERM``: a
        worker forked from a process that handles ``SIGTERM`` inherits
        the handler.  Workers keep nothing a clean exit would flush —
        everything a cell produces travels back in its future.

        With ``executor``, only if that is still the live one: a caller
        whose cells ran on workers somebody else already replaced has
        nothing left to kill."""
        with self._lock:
            current = self._executor
            if not self._forget(current if executor is None else executor):
                return
        # Outside the lock: the executor's manager thread fails the
        # killed cells' futures, and their callbacks take it.  Returns
        # once that thread has reaped the workers.
        current.shutdown(wait=True, cancel_futures=True)

    def close(self) -> None:
        """Shut down for good (idempotent): waiting cells fail, and
        :meth:`submit` raises afterwards, so a caller still mid-grid on
        another thread fails instead of respawning."""
        with self._lock:
            self._closed = True
            self._dispatch()
        self.discard()

    def __enter__(self) -> "CellPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Pool rounds before falling back to serial in-process execution.
MAX_POOL_ROUNDS = 2


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Explicit argument > ``REPRO_JOBS`` env > ``os.cpu_count()``."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {env!r}"
                ) from None
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


class CellRun:
    """One grid on its way: what :func:`start_cells` found in the cache
    and submitted, until :meth:`results` collects the rest.

    The two halves may run on different threads (the experiment service
    starts a job on its submitter's thread and collects it on one of the
    job's own); each half runs once, in that order.
    """

    def __init__(
        self,
        configs: Sequence[ExperimentConfig],
        results: List[Optional[ResultSummary]],
        misses: List[int],
        cache: Optional[ResultCache],
        timeout: Optional[float],
        timeout_name: str,
        pool: Optional[CellPool] = None,
        owned: bool = False,
        priority: int = 0,
    ) -> None:
        self._configs = configs
        self._results = results
        self._misses = misses
        self._cache = cache
        self._timeout = timeout
        self._timeout_name = timeout_name
        self._pool = pool
        self._owned = owned
        self._priority = priority
        self._round: Optional[Dict[int, _Cell]] = None
        if pool is not None:
            try:
                self._submit(misses)
            except BaseException:
                self._release()
                raise
        #: The first round's cells, what :meth:`withdraw` may take back.
        self._first = list(self._round.values()) if self._round else []

    @property
    def on_workers(self) -> bool:
        """Whether cells are out on worker processes (until
        :meth:`results` has collected them)."""
        return self._round is not None

    def _submit(self, pending: List[int]) -> None:
        """Start one attempt over ``pending`` on the pool's workers."""
        cells = self._pool.submit(
            _run_cell, [self._configs[i] for i in pending], self._priority
        )
        self._round = dict(zip(pending, cells))

    def wait_started(self) -> bool:
        """Block until the first cell reaches a worker (at once when no
        cell went out); ``False`` if :meth:`withdraw` took the cells
        first.  A submission's cells leave the pool's queue in order, so
        the first one starts first."""
        if not self._first:
            return True
        self._first[0].started.wait()
        return not self._first[0].cancelled()

    def withdraw(self) -> bool:
        """Take every cell back from the pool if none has reached a
        worker yet; ``False``, and nothing taken, otherwise."""
        return bool(self._first) and self._pool.withdraw(
            self._first, whole=True
        )

    def _release(self) -> None:
        if self._owned:
            self._pool.close()

    def _collect_round(self) -> List[int]:
        """Wait for one round's cells; returns the indices that still
        need a run — those a dead or killed worker took down with it
        (``BrokenProcessPool``).  A cell over its budget gets a
        failed-with-reason summary, and its workers are killed."""
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        cells, pool, timeout = self._round, self._pool, self._timeout
        self._round = None
        leftover: List[int] = []
        try:
            for i, cell in cells.items():
                try:
                    # The budget starts when the cell reaches a worker,
                    # not while it waits behind other cells, this
                    # caller's or another's, nor when this loop gets to it.
                    cell.started.wait()
                    left = None if timeout is None else max(
                        0.0, cell.started_at + timeout - time.monotonic()
                    )
                    self._results[i] = cell.result(timeout=left)
                except FutureTimeout:
                    self._results[i] = _failed_summary(
                        self._configs[i],
                        f"cell exceeded {self._timeout_name}={timeout:g}s",
                    )
                    # The worker is wedged inside the cell; the only way
                    # out is to kill it, which takes the cells running
                    # beside it — they surface as BrokenProcessPool and
                    # are retried.
                    pool.discard(cell.executor)
                except (BrokenProcessPool, CancelledError):
                    leftover.append(i)
                    pool.discard(cell.executor)
        except BaseException:
            # A cell that raised fails the whole call; nobody will read
            # its siblings, so none may wait or keep running.
            pool.withdraw(list(cells.values()))
            for cell in cells.values():
                if not cell.done():
                    pool.discard(cell.executor)
            raise
        return leftover

    def results(self) -> List[ResultSummary]:
        """Every cell's summary, in input order: collects the pool
        rounds (up to :data:`MAX_POOL_ROUNDS`), runs what is left
        in-process and caches the new results."""
        configs, results = self._configs, self._results
        pending = [] if self._pool is not None else list(self._misses)
        try:
            for attempt in range(1, MAX_POOL_ROUNDS + 1):
                if self._round is None:
                    break
                pending = self._collect_round()
                if pending and attempt < MAX_POOL_ROUNDS:
                    self._submit(pending)
        finally:
            self._release()
        # Serial path — and the crash-tolerance fallback: cells that
        # survived MAX_POOL_ROUNDS broken pools re-run in-process, where
        # a worker crash cannot eat them (a cell that kills *this*
        # process was never going to produce a result anywhere).
        for i in pending:
            results[i] = _run_cell(configs[i])
        if self._cache is not None:
            for i in self._misses:
                summary = results[i]
                if not configs[i].trace and summary.error is None:
                    self._cache.put(configs[i], summary)
        return results  # type: ignore[return-value]


def start_cells(
    configs: Sequence[ExperimentConfig],
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    cell_timeout_s: Optional[float] = None,
    pool: Optional[CellPool] = None,
    priority: int = 0,
) -> CellRun:
    """Look every cell up in the cache and submit the misses to worker
    processes; ``.results()`` on the returned :class:`CellRun` collects
    them.

    Args:
        configs: the grid cells.
        jobs: worker processes (see :func:`resolve_jobs`); ``1`` keeps
            everything in-process — identical results, easier debugging.
            Not read with ``pool``: the pool's width is.
        use_cache: override the ``REPRO_CACHE`` env switch.
        cache_dir: override the cache location.
        cell_timeout_s: per-cell wall-clock budget; overrides
            ``REPRO_CELL_TIMEOUT`` (see :func:`cell_timeout`).
        pool: worker processes the caller keeps between calls (and
            closes).  With one, every miss runs in a worker — a lone
            miss too, so it gets the timeout and the crash isolation.
            Without, the call spawns workers for its own length, as many
            as it has misses up to ``jobs``, and runs a lone miss
            in-process, where a fork would buy nothing.
        priority: where the misses queue in ``pool`` — ahead of every
            waiting cell of a lower priority (see :meth:`CellPool.submit`).
    """
    if pool is None:
        jobs = resolve_jobs(jobs)
    if use_cache is None:
        use_cache = cache_enabled()
    cache = ResultCache(cache_dir) if use_cache else None

    results: List[Optional[ResultSummary]] = [None] * len(configs)
    misses: List[int] = []
    for i, config in enumerate(configs):
        # Traced cells never touch the cache: ``config.trace`` is part of
        # the content address, but a stored ResultSummary carries only
        # the telemetry summary, so a hit would return stats without the
        # trace the caller asked for.
        cacheable = cache is not None and not config.trace
        hit = cache.get(config) if cacheable else None
        if hit is not None:
            results[i] = hit
        else:
            misses.append(i)

    timeout = cell_timeout(cell_timeout_s) if misses else None
    timeout_name = (
        "REPRO_CELL_TIMEOUT" if cell_timeout_s is None else "cell_timeout_s"
    )
    owned = pool is None and jobs > 1 and len(misses) > 1
    if owned:
        pool = CellPool(min(jobs, len(misses)))
    return CellRun(
        configs, results, misses, cache, timeout, timeout_name,
        pool=pool if misses else None, owned=owned, priority=priority,
    )


def run_cells(
    configs: Sequence[ExperimentConfig],
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
    cell_timeout_s: Optional[float] = None,
    pool: Optional[CellPool] = None,
) -> List[ResultSummary]:
    """Run every cell, in parallel, through the cache; results in input
    order.  ``start_cells(...).results()``: see :func:`start_cells` for
    the arguments."""
    return start_cells(
        configs,
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        cell_timeout_s=cell_timeout_s,
        pool=pool,
    ).results()


def run_cell(
    config: ExperimentConfig,
    use_cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
) -> ResultSummary:
    """Single-cell convenience wrapper (cache-aware, always in-process)."""
    return run_cells(
        [config], jobs=1, use_cache=use_cache, cache_dir=cache_dir
    )[0]
