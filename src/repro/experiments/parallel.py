"""The content-addressed result cache: the half of the grid runner that
remembers cells (the other half, :mod:`repro.experiments.pool`, runs
them on worker processes).

Every paper figure is a (scheme x load x seed) grid of independent,
seeded, deterministic simulations.  Finished cells are memoized on disk,
keyed by a stable hash of the full configuration plus a hash of the
``repro`` source tree (:func:`config_key`) — re-running a bench only
simulates cells whose config or code actually changed.

What loads when: this module imports the config and result types and
the stdlib it needs to hash and pickle, nothing that runs a cell —
neither the simulator nor a process pool.  The service's admission
(``repro.serve.queue``), the benchmark suite and ``repro cache`` import
it freely; :mod:`repro.experiments.pool`, the only module that imports
:mod:`concurrent.futures` and :mod:`multiprocessing`, is imported in the
function that fans cells out, never at a module top.

Knobs (CLI flags and explicit arguments override the environment):

* ``REPRO_CACHE`` — set to ``0``/``off`` to disable the cache.
* ``REPRO_CACHE_DIR`` — cache location.  Default: ``~/.cache/repro-grid``.
* ``REPRO_CELL_TIMEOUT`` — per-cell wall-clock budget in seconds
  (:func:`cell_timeout`); a pooled cell exceeding it is marked
  failed-with-reason (``ResultSummary.error``) and its worker is killed
  instead of hanging the whole grid.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import pickle
import tempfile
import time
from typing import Any, List, Optional, Tuple

from repro.experiments.config import ExperimentConfig
from repro.experiments.result import ResultSummary

#: Bump when the cache entry layout changes (not when simulation code
#: does — code changes are caught by :func:`code_version`).
CACHE_FORMAT = 1


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
# Cell budget
# --------------------------------------------------------------------- #


def cell_timeout(explicit: Optional[float] = None) -> Optional[float]:
    """Per-cell wall-clock budget in seconds: the explicit argument wins
    over ``REPRO_CELL_TIMEOUT``; ``None`` when neither is set.  Applies
    only to pool execution — a serial in-process cell cannot be
    interrupted from within.  The experiment service passes per-job
    budgets explicitly (mutating the env from service threads would
    race)."""
    if explicit is not None:
        if (
            isinstance(explicit, bool)
            or not isinstance(explicit, (int, float))
            or not 0 < explicit < math.inf
        ):
            raise ValueError(
                "cell_timeout_s must be a positive number of seconds, "
                f"got {explicit!r}"
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
