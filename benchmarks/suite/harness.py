"""Plumbing shared by the suite: where things live, the calibrated
stopwatch, result digests and the small statistics the reports use.

Nothing here imports ``repro``; :func:`add_src_to_path` makes it
importable for the modules that do.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")
EXPECTED_JSON = os.path.join(SUITE_DIR, "expected.json")

#: Seed the pinned digests in ``expected.json`` were recorded for.
DEFAULT_SEED = 1

#: Every one of these silently changes what a run measures (engine,
#: fan-out, cache, invariant/telemetry layers, cell budget), so the
#: workload children never see them.
SCRUBBED_ENV = (
    "REPRO_SCHEDULER",
    "REPRO_JOBS",
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_VALIDATE",
    "REPRO_TRACE",
    "REPRO_CELL_TIMEOUT",
)


def add_src_to_path() -> None:
    """Make ``repro`` importable from a bare checkout (no install, no
    ``PYTHONPATH``): the driver runs the suite from the repo root with
    nothing but the committed files."""
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def scrubbed_env() -> Dict[str, str]:
    env = dict(os.environ)
    for name in SCRUBBED_ENV:
        env.pop(name, None)
    # Hash randomisation gives every process its own set and dict
    # layouts, worth a few percent either way between two children.
    env["PYTHONHASHSEED"] = "0"
    return env


def load_benchmark_spec() -> Dict[str, Any]:
    """``BENCHMARK.json`` is the one place metric names, units and bounds
    are written down; the suite reads them from there and fails when what
    it measured does not match."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------- #
# Calibrated stopwatch
# --------------------------------------------------------------------- #
#
# This container's cores flip between two speeds about 1.28x apart, each
# lasting 5-20 s (a busy SMT sibling on the host; the two vCPUs flip
# independently).  A 20 s run is an arbitrary mix of both, so raw host
# seconds spread by 20-25 % between runs of one commit - wider than any
# bound worth having.  Every timed region is therefore bracketed by a
# fixed pure-Python loop that lives here, outside the program under
# test, and its time is scaled by how fast that loop ran next to it.
# A change to the simulator moves the region but not the loop, so real
# gains and losses pass through unchanged; the host's mood cancels.
# Times reported by the suite are in these calibrated seconds unless a
# name says ``raw``; ``harness.host_speed_x`` reports the factor.

#: Seconds one calibration pass takes on this container's faster state.
#: Calibrated time equals raw time on a host where the loop runs exactly
#: this fast.
CAL_NOMINAL_S = 1.14e-3
_CAL_ITERS = 12_000


class _Node:
    __slots__ = ("n",)


def _bump(node: _Node, k: int) -> None:
    node.n += k


def _calibration_pass() -> float:
    """Dict, attribute, call and list traffic in roughly the simulator's
    proportions, so that host contention slows both alike (measured:
    1.28x for this loop against 1.30x for a bulk cell)."""
    table: Dict[int, int] = {}
    node = _Node()
    node.n = 0
    stack: List[int] = []
    start = time.thread_time()
    for i in range(_CAL_ITERS):
        key = i & 255
        table[key] = table.get(key, 0) + i
        _bump(node, key)
        stack.append(key)
        if key == 255:
            del stack[:]
    return time.thread_time() - start


def host_speed() -> float:
    """Current speed of this core relative to nominal (1.0 = nominal,
    below 1 = slower host).  Minimum of three short passes: an interrupt
    can only lengthen a pass."""
    return CAL_NOMINAL_S / min(_calibration_pass() for _ in range(3))


class Stopwatch:
    """Times regions in calibrated seconds.

    Each region is scaled by the mean of the speed samples taken just
    before and just after it; consecutive regions share a sample.  One
    instance per thread."""

    def __init__(self) -> None:
        self._speed = host_speed()
        #: Every speed sample taken, for ``harness.host_speed_x``.
        self.speeds: List[float] = [self._speed]

    def time(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float, float]:
        """Run ``fn(*args)``; returns ``(result, raw_s, calibrated_s)``."""
        before = self._speed
        start = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - start
        self._speed = after = host_speed()
        self.speeds.append(after)
        return out, raw, raw * (before + after) / 2.0


# --------------------------------------------------------------------- #
# Digests
# --------------------------------------------------------------------- #


def result_digest(result: Any) -> str:
    """sha256 over a run's simulated statistics.

    Exact runs: every flow record's canonical fields plus the final
    clock.  Streaming runs keep no records: count, mean and clock."""
    digest = hashlib.sha256()
    stats = result.stats
    if getattr(stats, "is_streaming", False):
        digest.update(
            f"streaming|{stats.count}|{stats.mean_ms()!r}".encode()
        )
    else:
        for r in stats.records:
            digest.update(
                f"{r.flow_id},{r.src},{r.dst},{r.size_bytes},{r.start_ns},"
                f"{r.fct_ns},{r.retransmissions},{r.timeouts}\n".encode()
            )
    digest.update(f"|{result.sim_time_ns}".encode())
    return digest.hexdigest()


def load_expected() -> Dict[str, Dict[str, str]]:
    """``{workload: {cell name: digest}}`` pinned for the default seed."""
    try:
        with open(EXPECTED_JSON, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


# --------------------------------------------------------------------- #
# Small statistics
# --------------------------------------------------------------------- #


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    rank = (len(ordered) - 1) * q
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median - the driver's
    own steadiness measure."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")
