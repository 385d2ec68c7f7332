"""Bounded-memory FCT statistics behind the exact collector's surface.

:class:`~repro.metrics.fct.FctStats` keeps every flow record and sorts
the FCT list for percentiles — O(flows) memory, which caps single-cell
workloads far below the million-flow scale the ROADMAP targets.
:class:`StreamingFctStats` offers the same read surface (``count`` /
``finished_count`` / ``unfinished_fraction`` / ``mean_ms`` /
``median_ms`` / ``p99_ms`` / ``small`` / ``large`` /
``total_retransmissions``) while retaining only bounded state:

* exact counters (counts, FCT sum, retransmissions, timeouts) — means
  and fractions are *exact*, never estimated;
* one percentile path per flow-size bucket (all / small / large): up
  to :data:`EXACT_LIMIT` finished flows the bucket keeps the FCTs
  verbatim and answers with :func:`~repro.metrics.fct.percentile`, the
  function :class:`FctStats` uses, so its percentiles are equal to the
  exact collector's; the flow after that hands the kept FCTs, in
  arrival order, to a :class:`~repro.metrics.tdigest.TDigest`, which
  answers from then on.  :meth:`estimators` reports which one produced
  each percentile (``"exact"`` / ``"tdigest"``) — carried into
  ``ResultSummary.percentile_estimators`` so a summary is explicit
  about estimated vs exact tails.

:meth:`to_dict` / :meth:`from_dict` round-trip the full state through
JSON (how ``save_result`` persists a streaming run).

What it does *not* offer: ``records`` (there are none — that is the
point) and ``subset`` (arbitrary predicates need records).  Callers
that require per-flow records must run with ``streaming_stats=False``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.fct import (
    LARGE_FLOW_BYTES,
    SMALL_FLOW_BYTES,
    FlowRecord,
    percentile,
)
from repro.metrics.tdigest import TDigest

__all__ = ["StreamingFctStats", "STREAMING_AUTO_FLOWS", "EXACT_LIMIT"]

#: Flow count at which the runner switches to streaming collection when
#: ``ExperimentConfig.streaming_stats`` is left at ``None`` (auto).
#: Below this, exact records stay cheap and some consumers (save_result
#: CSV export, recovery forensics) want them.
STREAMING_AUTO_FLOWS = 200_000

#: Finished flows a bucket keeps verbatim: up to this many its
#: percentiles are exact; the next one hands them to the t-digest.
EXACT_LIMIT = 4096


class StreamingFctStats:
    """Bounded-memory stand-in for :class:`FctStats`.

    Args:
        small_bytes / large_bytes: bucket boundaries, pre-scaled by the
            caller exactly like :class:`FctStats`.
    """

    #: Discriminator for code handling both collector flavours.
    is_streaming = True

    def __init__(
        self,
        small_bytes: int = SMALL_FLOW_BYTES,
        large_bytes: int = LARGE_FLOW_BYTES,
        _buckets: bool = True,
    ) -> None:
        self.small_bytes = small_bytes
        self.large_bytes = large_bytes
        # Exactly one of the two holds the FCTs: the verbatim list up to
        # EXACT_LIMIT finished flows, the digest after.
        self._fcts: Optional[List[int]] = []
        self._digest: Optional[TDigest] = None
        self.count = 0
        self.finished_count = 0
        self._fct_sum_ns = 0
        self._retransmissions = 0
        self._timeouts = 0
        # The small/large views are full collectors minus their own
        # sub-buckets (a small flow has no "small of small").
        self.small: "StreamingFctStats"
        self.large: "StreamingFctStats"
        if _buckets:
            self.small = StreamingFctStats(small_bytes, large_bytes, False)
            self.large = StreamingFctStats(small_bytes, large_bytes, False)

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def add(
        self,
        size_bytes: int,
        fct_ns: Optional[int],
        retransmissions: int = 0,
        timeouts: int = 0,
    ) -> None:
        """Fold one flow outcome in (``fct_ns=None`` = never finished)."""
        self._add_one(fct_ns, retransmissions, timeouts)
        bucket = self._bucket_for(size_bytes)
        if bucket is not None:
            bucket._add_one(fct_ns, retransmissions, timeouts)

    def add_record(self, record: FlowRecord) -> None:
        self.add(
            record.size_bytes,
            record.fct_ns,
            record.retransmissions,
            record.timeouts,
        )

    def _bucket_for(self, size_bytes: int) -> Optional["StreamingFctStats"]:
        if size_bytes < self.small_bytes:
            return self.small
        if size_bytes > self.large_bytes:
            return self.large
        return None

    def _add_one(
        self, fct_ns: Optional[int], retransmissions: int, timeouts: int
    ) -> None:
        self.count += 1
        self._retransmissions += retransmissions
        self._timeouts += timeouts
        if fct_ns is not None:
            self.finished_count += 1
            self._fct_sum_ns += fct_ns
            if self._fcts is None:
                self._digest.add(float(fct_ns))
            elif self.finished_count <= EXACT_LIMIT:
                self._fcts.append(fct_ns)
            else:
                self._digest = TDigest()
                self._digest.extend(map(float, self._fcts))
                self._digest.add(float(fct_ns))
                self._fcts = None

    # ------------------------------------------------------------------ #
    # Aggregates (FctStats read surface)
    # ------------------------------------------------------------------ #

    @property
    def unfinished_count(self) -> int:
        return self.count - self.finished_count

    @property
    def unfinished_fraction(self) -> float:
        return self.unfinished_count / self.count if self.count else 0.0

    def mean_ms(self, penalize_unfinished_ns: Optional[int] = None) -> float:
        """Exact (sum/count, not estimated), same semantics as
        :meth:`FctStats.mean_ms`."""
        total = self._fct_sum_ns
        n = self.finished_count
        if penalize_unfinished_ns is not None:
            total += penalize_unfinished_ns * self.unfinished_count
            n += self.unfinished_count
        if n == 0:
            return float("nan")
        return total / n / 1e6

    def median_ms(self) -> float:
        return self.percentile_ms(50.0)

    def p99_ms(self) -> float:
        return self.percentile_ms(99.0)

    def percentile_ms(self, q: float) -> float:
        """Percentile (``q`` in [0, 100]); NaN when empty."""
        value_ns, _ = self.quantile_ns(q)
        return float("nan") if value_ns is None else value_ns / 1e6

    def quantile_ns(self, q: float) -> Tuple[Optional[float], str]:
        """(value_ns, estimator) — see :meth:`estimators`;
        ``(None, "none")`` for an empty bucket."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        name = self._estimator()
        if name == "exact":
            return percentile(sorted(self._fcts), q), name
        if name == "tdigest":
            return self._digest.quantile(q / 100.0), name
        return None, name

    def _estimator(self) -> str:
        if self.finished_count == 0:
            return "none"
        return "exact" if self._fcts is not None else "tdigest"

    def estimators(self) -> Dict[str, str]:
        """Which estimator produces each reported percentile:
        ``"exact"`` while the bucket keeps every FCT, else
        ``"tdigest"``.  Reading the label leaves the digest as it is."""
        name = self._estimator()
        # Same selection rule for every q; spelled per-percentile so the
        # summary stays self-describing if the rule ever differentiates.
        return {"p50": name, "p99": name}

    def total_retransmissions(self) -> int:
        return self._retransmissions

    def total_timeouts(self) -> int:
        return self._timeouts

    def memory_items(self) -> int:
        """Retained items across all buckets (kept FCTs, or digest
        centroids + buffer) — the bounded-memory assertion target."""
        if self._fcts is not None:
            own = len(self._fcts)
        else:
            own = self._digest.memory_items()
        for bucket in (getattr(self, "small", None), getattr(self, "large", None)):
            if isinstance(bucket, StreamingFctStats):
                own += bucket.memory_items()
        return own

    # ------------------------------------------------------------------ #
    # Unsupported parts of the exact surface
    # ------------------------------------------------------------------ #

    @property
    def records(self) -> tuple:
        """Always empty: a streaming collector keeps no per-flow
        records.  Exporters that need them must run exact."""
        return ()

    def subset(self, predicate) -> "FctStats":
        raise NotImplementedError(
            "StreamingFctStats cannot evaluate arbitrary predicates — "
            "per-flow records are not retained; run with "
            "streaming_stats=False for subset queries"
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe full state; :meth:`from_dict` restores it exactly."""
        out = self._one_to_dict()
        out["small"] = self.small._one_to_dict()
        out["large"] = self.large._one_to_dict()
        return out

    def _one_to_dict(self) -> Dict[str, Any]:
        return {
            "small_bytes": self.small_bytes,
            "large_bytes": self.large_bytes,
            "count": self.count,
            "finished_count": self.finished_count,
            "fct_sum_ns": self._fct_sum_ns,
            "retransmissions": self._retransmissions,
            "timeouts": self._timeouts,
            "fcts": None if self._fcts is None else list(self._fcts),
            "digest": None if self._digest is None else self._digest.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StreamingFctStats":
        stats = cls._one_from_dict(data, _buckets=True)
        if "small" in data:
            stats.small = cls._one_from_dict(data["small"], _buckets=False)
        if "large" in data:
            stats.large = cls._one_from_dict(data["large"], _buckets=False)
        return stats

    @classmethod
    def _one_from_dict(
        cls, data: Dict[str, Any], _buckets: bool
    ) -> "StreamingFctStats":
        stats = cls(data["small_bytes"], data["large_bytes"], _buckets)
        stats.count = int(data["count"])
        stats.finished_count = int(data["finished_count"])
        stats._fct_sum_ns = int(data["fct_sum_ns"])
        stats._retransmissions = int(data["retransmissions"])
        stats._timeouts = int(data["timeouts"])
        if data["digest"] is None:
            stats._fcts = [int(v) for v in data["fcts"]]
        else:
            stats._fcts = None
            stats._digest = TDigest.from_dict(data["digest"])
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingFctStats(n={self.count}, "
            f"finished={self.finished_count}, "
            f"memory_items={self.memory_items()})"
        )
