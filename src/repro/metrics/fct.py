"""Flow completion time statistics.

The paper reports the overall average FCT and breakdowns for small
(<100 KB) and large (>10 MB) flows, including 99th percentiles for small
flows, plus the fraction of unfinished flows in the blackhole scenario.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

SMALL_FLOW_BYTES = 100_000
LARGE_FLOW_BYTES = 10_000_000


@dataclass(frozen=True)
class FlowRecord:
    """Outcome of one flow (``fct_ns`` is ``None`` if it never finished)."""

    flow_id: int
    src: int
    dst: int
    size_bytes: int
    start_ns: int
    fct_ns: Optional[int]
    retransmissions: int = 0
    timeouts: int = 0

    @property
    def finished(self) -> bool:
        return self.fct_ns is not None


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted data, q in [0, 100]."""
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(sorted_values[lo])
    frac = rank - lo
    low_value = sorted_values[lo]
    return low_value + (sorted_values[hi] - low_value) * frac


class FctStats:
    """Aggregate FCT statistics over a set of flow records.

    Args:
        records: flow outcomes.
        small_bytes / large_bytes: bucket boundaries for the small/large
            breakdowns.  Runs with scaled flow sizes must scale these
            identically (the experiment runner does so automatically).
    """

    #: Discriminator shared with
    #: :class:`repro.metrics.streaming.StreamingFctStats`, which offers
    #: the same read surface in O(centroids) memory.
    is_streaming = False

    def __init__(
        self,
        records: Iterable[FlowRecord],
        small_bytes: int = SMALL_FLOW_BYTES,
        large_bytes: int = LARGE_FLOW_BYTES,
    ) -> None:
        self.records: List[FlowRecord] = list(records)
        self.small_bytes = small_bytes
        self.large_bytes = large_bytes
        self._fcts = sorted(
            r.fct_ns for r in self.records if r.fct_ns is not None
        )

    # -------------------------- selections ---------------------------- #

    def subset(self, predicate) -> "FctStats":
        """Stats over the records matching ``predicate``."""
        return FctStats(
            (r for r in self.records if predicate(r)),
            small_bytes=self.small_bytes,
            large_bytes=self.large_bytes,
        )

    @property
    def small(self) -> "FctStats":
        return self.subset(lambda r: r.size_bytes < self.small_bytes)

    @property
    def large(self) -> "FctStats":
        return self.subset(lambda r: r.size_bytes > self.large_bytes)

    # -------------------------- aggregates ---------------------------- #

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def finished_count(self) -> int:
        return len(self._fcts)

    @property
    def unfinished_count(self) -> int:
        return self.count - self.finished_count

    @property
    def unfinished_fraction(self) -> float:
        return self.unfinished_count / self.count if self.count else 0.0

    def mean_ms(self, penalize_unfinished_ns: Optional[int] = None) -> float:
        """Average FCT in milliseconds over finished flows.

        If ``penalize_unfinished_ns`` is given, unfinished flows enter the
        average at that value (the paper's blackhole plots count them,
        which is what makes ECMP 9–22x worse there).
        """
        values = list(self._fcts)
        if penalize_unfinished_ns is not None:
            values.extend([penalize_unfinished_ns] * self.unfinished_count)
        if not values:
            return float("nan")
        return sum(values) / len(values) / 1e6

    def median_ms(self) -> float:
        if not self._fcts:
            return float("nan")
        return percentile(self._fcts, 50.0) / 1e6

    def p99_ms(self) -> float:
        if not self._fcts:
            return float("nan")
        return percentile(self._fcts, 99.0) / 1e6

    def estimators(self) -> Dict[str, str]:
        """Which estimator produced each reported percentile: always
        the sorted records here (the streaming collector says the same
        up to its exact limit and ``"tdigest"`` past it)."""
        return {"p50": "exact", "p99": "exact"}

    def total_retransmissions(self) -> int:
        return sum(r.retransmissions for r in self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FctStats(n={self.count}, finished={self.finished_count}, "
            f"mean={self.mean_ms():.3f}ms)"
        )
