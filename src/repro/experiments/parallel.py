"""Parallel experiment execution with a content-addressed result cache.

Every paper figure is a (scheme x load x seed) grid of independent,
seeded, deterministic simulations.  This module fans those cells out over
a :class:`~concurrent.futures.ProcessPoolExecutor` and memoizes finished
cells on disk, keyed by a stable hash of the full configuration plus a
hash of the ``repro`` source tree — re-running a bench only simulates
cells whose config or code actually changed.

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

Knobs (CLI flags override the environment):

* ``REPRO_JOBS`` — worker count; ``1`` forces the in-process serial path
  (handy under a debugger).  Default: ``os.cpu_count()``.
* ``REPRO_CACHE`` — set to ``0``/``off`` to disable the cache.
* ``REPRO_CACHE_DIR`` — cache location.  Default: ``~/.cache/repro-grid``.
* ``REPRO_CELL_TIMEOUT`` — per-cell wall-clock budget in seconds; a cell
  exceeding it is marked failed-with-reason (``ResultSummary.error``)
  and its worker is killed instead of hanging the whole grid.

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
(``pool=``).  The experiment service holds one per worker thread and
calls the halves on two threads: a job pays a round trip through live
workers (~0.2 ms) instead of a fork and a reap, and the next job's cells
go to a worker the moment one is free.  Workers that outlive a call
change four things:

* a worker can die *between* calls.  A pool found broken when the next
  call submits is respawned on the spot and costs that call none of its
  retry rounds — no cell had started;
* two callers can share the workers.  Cells wait in the pool's queue
  until a worker is free, so a cell's budget starts when the cell does,
  not while it waits behind another caller's.  A kill after one
  caller's cell hung takes the cells running beside it with it, the
  other caller's too; they come back as ``BrokenProcessPool`` and are
  retried, and the waiting ones move to the respawned workers;
* workers must not outlive their parent.  Each one blocks a daemon
  thread on the parent's sentinel and calls ``os._exit`` when it fires, so
  a ``kill -9`` of the parent leaves no orphan holding its inherited
  descriptors (under ``fork``: the service's listening socket);
* a held worker sees the environment as of its spawn, not as of the
  call.  Every knob above is read in the parent, so only the
  ``REPRO_TEST_*`` fault hooks notice — set them before the pool's first
  use (the tests build their service after ``monkeypatch.setenv``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import multiprocessing
import os
import pickle
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.result import ResultSummary
from repro.sim.engine import scheduler_forced
from repro.experiments.runner import (
    run_experiment,
    trace_forced,
    validate_forced,
)
from repro.metrics.fct import FctStats

#: Bump when the cache entry layout changes (not when simulation code
#: does — code changes are caught by :func:`code_version`).
CACHE_FORMAT = 1


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
    sleep = os.environ.get("REPRO_TEST_SLEEP")
    if sleep:
        seed_s, _, secs = sleep.partition(":")
        if config.seed == int(seed_s):
            time.sleep(float(secs))  # simulates a hung cell


def _run_cell(config: ExperimentConfig) -> ResultSummary:
    """Worker entry point: one cell, summarized.  Must stay module-level
    so the pool can import it by reference."""
    _test_fault_hooks(config)
    return ResultSummary.from_result(run_experiment(config))


# --------------------------------------------------------------------- #
# Stable config hashing
# --------------------------------------------------------------------- #


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic, order-independent structure.

    Dataclasses become (classname, sorted field items); dict iteration
    order is erased by sorting on the repr of the canonical key.  Floats
    go through ``repr`` (shortest round-trip form, platform-stable).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, _canonical(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, dict):
        items = [(_canonical(k), _canonical(v)) for k, v in obj.items()]
        return ("dict", tuple(sorted(items, key=repr)))
    if isinstance(obj, (list, tuple)):
        return tuple(_canonical(v) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted((_canonical(v) for v in obj), key=repr)))
    if isinstance(obj, float):
        return ("float", repr(obj))
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    # Last resort: objects with a stable repr (enums, params objects).
    return ("repr", repr(obj))


_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Hash of every ``repro`` source file — any code change invalidates
    the whole cache, which is the only safe default for a simulator whose
    output *is* its code's behaviour."""
    global _code_version_cache
    if _code_version_cache is None:
        import repro

        digest = hashlib.sha256()
        root = os.path.dirname(os.path.abspath(repro.__file__))
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for fname in sorted(filenames):
                if not fname.endswith(".py"):
                    continue
                path = os.path.join(dirpath, fname)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def config_key(config: ExperimentConfig) -> str:
    """Content address of one cell: config hash + code version."""
    payload = repr((_canonical(config), CACHE_FORMAT)).encode()
    return f"{hashlib.sha256(payload).hexdigest()[:32]}-{code_version()}"


# --------------------------------------------------------------------- #
# On-disk cache
# --------------------------------------------------------------------- #


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache")),
        "repro-grid",
    )


def cache_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "1").lower() not in ("0", "off", "no")


class ResultCache:
    """Pickled :class:`ResultSummary` objects under content addresses."""

    #: Ledger of entries deleted because they failed to decode; one
    #: filename per line, surfaced by ``repro cache``.
    CORRUPT_LOG = "corrupt.log"

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory or default_cache_dir()

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.pkl")

    def get(self, config: ExperimentConfig) -> Optional[ResultSummary]:
        path = self._path(config_key(config))
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except OSError:
            return None  # plain miss
        except Exception:
            # Unpickling corrupt bytes can raise nearly anything
            # (UnpicklingError, ValueError, EOFError, ImportError, ...);
            # a stale or damaged entry is never fatal — just re-simulate.
            # Self-heal: a truncated/corrupt entry would otherwise sit on
            # disk producing a decode failure on every future lookup.
            self._evict_corrupt(path)
            return None

    def _evict_corrupt(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            return  # a concurrent reader already healed it
        try:
            with open(os.path.join(self.directory, self.CORRUPT_LOG), "a") as fh:
                fh.write(os.path.basename(path) + "\n")
        except OSError:
            pass  # the ledger is best-effort; the heal itself succeeded

    def corruption_count(self) -> int:
        """How many corrupt entries this cache directory has ever healed."""
        try:
            with open(os.path.join(self.directory, self.CORRUPT_LOG)) as fh:
                return sum(1 for _ in fh)
        except OSError:
            return 0

    def put(self, config: ExperimentConfig, summary: ResultSummary) -> None:
        os.makedirs(self.directory, exist_ok=True)
        # Atomic publish so a concurrent reader never sees a half-written
        # pickle (two benches may share the cache).
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(summary, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(config_key(config)))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Delete all entries; returns how many were removed."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            if name.endswith((".pkl", ".tmp")) or name == self.CORRUPT_LOG:
                try:
                    os.unlink(os.path.join(self.directory, name))
                    if name != self.CORRUPT_LOG:
                        removed += 1
                except OSError:
                    pass
        return removed

    def size(self) -> int:
        try:
            return sum(
                1 for n in os.listdir(self.directory) if n.endswith(".pkl")
            )
        except OSError:
            return 0

    def _entries(self) -> List[Tuple[str, int, float]]:
        """(path, bytes, mtime) for every entry, oldest first."""
        entries: List[Tuple[str, int, float]] = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return entries
        for name in names:
            if not name.endswith(".pkl"):
                continue
            path = os.path.join(self.directory, name)
            try:
                meta = os.stat(path)
            except OSError:
                continue  # a concurrent prune/clear got there first
            entries.append((path, meta.st_size, meta.st_mtime))
        entries.sort(key=lambda e: e[2])
        return entries

    def total_bytes(self) -> int:
        """Disk footprint of all entries."""
        return sum(size for _, size, _ in self._entries())

    def prune(
        self,
        max_bytes: Optional[int] = None,
        max_age_s: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Garbage-collect the cache; returns ``(removed, reclaimed_bytes)``.

        Two independent policies, either or both:

        * ``max_age_s`` — entries older than this (by mtime) go first,
          regardless of size.  A content-addressed entry can never be
          *wrong* (code changes re-key it), only *abandoned* — age is
          how abandonment looks.
        * ``max_bytes`` — then oldest-first eviction until the remaining
          footprint fits.  LRU-flavoured: benches re-``put`` on miss, so
          recently useful entries have fresh mtimes.

        With neither given, nothing is removed (use :meth:`clear` for
        that).  Deletion races with concurrent readers are benign — a
        reader that loses an entry just re-simulates.
        """
        entries = self._entries()
        removed = 0
        reclaimed = 0
        if max_age_s is not None:
            cutoff = (time.time() if now is None else now) - max_age_s
            keep: List[Tuple[str, int, float]] = []
            for path, size, mtime in entries:
                if mtime < cutoff:
                    try:
                        os.unlink(path)
                        removed += 1
                        reclaimed += size
                    except OSError:
                        pass
                else:
                    keep.append((path, size, mtime))
            entries = keep
        if max_bytes is not None:
            total = sum(size for _, size, _ in entries)
            for path, size, _ in entries:  # oldest first
                if total <= max_bytes:
                    break
                try:
                    os.unlink(path)
                    removed += 1
                    reclaimed += size
                    total -= size
                except OSError:
                    pass
        return removed, reclaimed


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #


def cell_timeout(explicit: Optional[float] = None) -> Optional[float]:
    """Per-cell wall-clock budget in seconds: the explicit argument wins
    over ``REPRO_CELL_TIMEOUT``; ``None`` when neither is set.  Applies
    only to pool execution — a serial in-process cell cannot be
    interrupted from within.  The experiment service passes per-job
    budgets explicitly (mutating the env from service threads would
    race)."""
    if explicit is not None:
        if explicit <= 0:
            raise ValueError(
                f"cell timeout must be positive, got {explicit}"
            )
        return explicit
    env = os.environ.get("REPRO_CELL_TIMEOUT")
    if not env:
        return None
    try:
        value = float(env)
    except ValueError:
        raise ValueError(
            f"REPRO_CELL_TIMEOUT must be a number of seconds, got {env!r}"
        ) from None
    if value <= 0:
        raise ValueError(f"REPRO_CELL_TIMEOUT must be positive, got {value}")
    return value


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
        #: Set when it reaches a worker, or ends without one.
        self.started = threading.Event()
        self.add_done_callback(lambda _: self.started.set())


class CellPool:
    """The worker processes cells run in, and their whole life: spawned
    lazily, kept between uses, killed when a cell hangs or a worker
    dies, shut down once.

    Safe to share between threads: the experiment service submits a
    job's cells on one thread and collects them on another, while the
    next job is admitted.  Cells wait in the pool's own queue, in
    submission order, and go to the executor only when a worker is free,
    so a cell's budget starts when it starts and a kill takes only the
    cells that were running.  :attr:`in_flight` counts the cells
    submitted and not yet finished; :meth:`wait_for_room` blocks on it.
    A kill (after a timeout, a dead worker or a cell that raised) takes
    every running cell with it, another caller's too; those come back
    as ``BrokenProcessPool`` and are retried, and the waiting ones move
    to respawned workers.  A width change kills nothing: it respawns
    only while no cell is in flight.
    """

    def __init__(self) -> None:
        self._executor = None
        self._width = 0
        self._closed = False
        # Reentrant: an executor future that is already done runs its
        # callback inside ``add_done_callback``, under the lock.
        self._room = threading.Condition(threading.RLock())
        self._waiting: Deque[_Cell] = deque()
        self._running = 0
        #: Executors built so far; 1 for as long as nothing went wrong
        #: and every use asked for the same width.
        self.spawns = 0

    @property
    def in_flight(self) -> int:
        """Cells submitted and not yet finished, over every caller."""
        return self._running + len(self._waiting)

    def submit(self, width: int, fn, items: Sequence[Any]) -> List[_Cell]:
        """Queue ``fn(item)`` for every item; returns one future per
        item, in order.  A pool that is idle takes ``width`` as its new
        width (respawning if it differs); a busy one keeps its own."""
        with self._room:
            if self._closed:
                raise RuntimeError("cell pool is closed")
            if width != self._width and not self.in_flight:
                # Under the lock, which discard() must not hold while
                # the executor fails futures — but none is pending.
                self.discard()
                self._width = width
            cells = [_Cell(fn, item) for item in items]
            self._waiting.extend(cells)
            self._dispatch()
        return cells

    def withdraw(self, cells: Sequence[_Cell]) -> None:
        """Drop the cells that still wait (cancelled); running ones run
        on."""
        with self._room:
            for cell in cells:
                if cell in self._waiting:
                    self._waiting.remove(cell)
                    cell.cancel()
            self._room.notify_all()

    def _dispatch(self) -> None:
        """Hand waiting cells to the executor while a worker is free
        (under the lock).  Workers that died since their last cell —
        idle, or with another caller's — are replaced on the spot: no
        waiting cell had started, so none is lost."""
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        while self._waiting and self._running < self._width:
            if self._closed:
                while self._waiting:
                    self._waiting.popleft().set_exception(
                        RuntimeError("cell pool is closed")
                    )
                return
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self._width, initializer=_exit_with_parent
                )
                self.spawns += 1
            executor = self._executor
            cell = self._waiting[0]
            try:
                future = executor.submit(cell.fn, cell.item)
            except BrokenProcessPool:
                if self._forget(executor):
                    # No join: this may be its own manager thread, in a
                    # callback, and that thread reaps the workers anyway.
                    executor.shutdown(wait=False, cancel_futures=True)
                continue
            self._waiting.popleft()
            self._running += 1
            cell.executor = executor
            cell.started.set()
            future.add_done_callback(functools.partial(self._finished, cell))

    def _finished(self, cell: _Cell, future: Any) -> None:
        with self._room:
            self._running -= 1
            self._room.notify_all()
            self._dispatch()
        if future.cancelled():
            cell.set_exception(CancelledError())
        elif future.exception() is not None:
            cell.set_exception(future.exception())
        else:
            cell.set_result(future.result())

    def wait_for_room(
        self, width: Optional[int] = None, timeout: Optional[float] = None
    ) -> bool:
        """Block until a job may start here; ``False`` on timeout.

        Without ``width``: until a worker is free (fewer cells in flight
        than workers).  With one: the same when it is the pool's width
        and more than one, else until no cell is in flight at all — a
        job that needs a respawn, or runs in-process, waits for the pool
        to drain."""

        def room() -> bool:
            if width is None or (width > 1 and width == self._width):
                return self.in_flight < max(self._width, 1)
            return self.in_flight == 0

        with self._room:
            return self._room.wait_for(room, timeout)

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
        with self._room:
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
        with self._room:
            self._closed = True
            self._dispatch()
        self.discard()

    def __enter__(self) -> "CellPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Pool rounds before falling back to serial in-process execution.
MAX_POOL_ROUNDS = 2


def _pool_round(
    configs: Sequence[ExperimentConfig],
    pending: List[int],
    pool: CellPool,
    width: int,
) -> Dict[int, _Cell]:
    """Start one attempt over ``pending`` on ``pool``'s workers; returns
    a future per index."""
    cells = pool.submit(width, _run_cell, [configs[i] for i in pending])
    return dict(zip(pending, cells))


def _collect_round(
    configs: Sequence[ExperimentConfig],
    cells: Dict[int, _Cell],
    results: List[Optional[ResultSummary]],
    pool: CellPool,
    timeout: Optional[float],
    timeout_name: str,
) -> List[int]:
    """Wait for one round's cells.

    Fills ``results`` for every cell that completed (or exceeded the
    per-cell timeout, which yields a failed-with-reason summary naming
    ``timeout_name``, where the budget came from) and
    returns the indices that still need a run — non-empty exactly when a
    worker died (``BrokenProcessPool``) or was killed after a timeout,
    taking running cells down with it.  Their workers are discarded:
    the pool's next use respawns.
    """
    from concurrent.futures import TimeoutError as FutureTimeout
    from concurrent.futures.process import BrokenProcessPool

    leftover: List[int] = []
    try:
        for i, cell in cells.items():
            try:
                # The budget starts when the cell reaches a worker, not
                # while it waits behind other cells, this caller's or
                # another's.
                cell.started.wait()
                results[i] = cell.result(timeout=timeout)
            except FutureTimeout:
                results[i] = _failed_summary(
                    configs[i],
                    f"cell exceeded {timeout_name}={timeout:g}s",
                )
                # The worker is wedged inside the cell; the only way out
                # is to kill it, which takes the cells running beside
                # it — they surface as BrokenProcessPool and are retried.
                pool.discard(cell.executor)
            except (BrokenProcessPool, CancelledError):
                leftover.append(i)
                pool.discard(cell.executor)
    except BaseException:
        # A cell that raised fails the whole call; nobody will read its
        # siblings, so none may wait or keep running.
        pool.withdraw(list(cells.values()))
        for cell in cells.values():
            if not cell.done():
                pool.discard(cell.executor)
        raise
    return leftover


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
    admits the next job while this one's cells still run); each half runs
    once, in that order.
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
        width: int = 0,
        owned: bool = False,
    ) -> None:
        self._configs = configs
        self._results = results
        self._misses = misses
        self._cache = cache
        self._timeout = timeout
        self._timeout_name = timeout_name
        self._pool = pool
        self._width = width
        self._owned = owned
        self._round: Optional[Dict[int, _Cell]] = None
        if pool is not None:
            try:
                self._round = _pool_round(configs, misses, pool, width)
            except BaseException:
                self._release()
                raise

    @property
    def on_workers(self) -> bool:
        """Whether cells are out on worker processes (until
        :meth:`results` has collected them)."""
        return self._round is not None

    def _release(self) -> None:
        if self._owned:
            self._pool.close()

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
                pending = _collect_round(
                    configs, self._round, results, self._pool,
                    self._timeout, self._timeout_name,
                )
                self._round = None
                if pending and attempt < MAX_POOL_ROUNDS:
                    self._round = _pool_round(
                        configs, pending, self._pool, self._width
                    )
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
) -> CellRun:
    """Look every cell up in the cache and submit the misses to worker
    processes; ``.results()`` on the returned :class:`CellRun` collects
    them.

    Args:
        configs: the grid cells.
        jobs: worker processes (see :func:`resolve_jobs`); ``1`` keeps
            everything in-process — identical results, easier debugging.
        use_cache: override the ``REPRO_CACHE`` env switch.
        cache_dir: override the cache location.
        cell_timeout_s: per-cell wall-clock budget; overrides
            ``REPRO_CELL_TIMEOUT`` (see :func:`cell_timeout`).
        pool: worker processes the caller keeps between calls (and
            closes).  With one, every miss runs in a worker — a lone
            miss too, so it gets the timeout and the crash isolation —
            and the pool stays ``jobs`` wide.  Without, the call spawns
            workers for its own length, as many as it has misses up to
            ``jobs``, and runs a lone miss in-process, where a fork
            would buy nothing.
    """
    jobs = resolve_jobs(jobs)
    if use_cache is None:
        use_cache = cache_enabled()
    if validate_forced() or trace_forced() or scheduler_forced():
        # A cached summary was produced without the invariant/telemetry
        # layer (or under a different engine than the one REPRO_SCHEDULER
        # asks to exercise); serving it would silently skip what the user
        # forced on.
        use_cache = False
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
    held = pool is not None
    if misses and jobs > 1 and (held or len(misses) > 1):
        return CellRun(
            configs, results, misses, cache, timeout, timeout_name,
            pool=pool if held else CellPool(),
            width=jobs if held else min(jobs, len(misses)),
            owned=not held,
        )
    return CellRun(configs, results, misses, cache, timeout, timeout_name)


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

