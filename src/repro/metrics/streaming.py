"""Bounded-memory FCT statistics behind the exact collector's surface.

:class:`~repro.metrics.fct.FctStats` keeps every flow record and sorts
the FCT list for percentiles — O(flows) memory, which caps single-cell
workloads far below the million-flow scale the ROADMAP targets.
:class:`StreamingFctStats` offers the same read surface (``count`` /
``finished_count`` / ``unfinished_fraction`` / ``mean_ms`` /
``median_ms`` / ``p99_ms`` / ``small`` / ``large`` /
``total_retransmissions``) while retaining only O(centroids) state:

* exact counters (counts, FCT sum, retransmissions, timeouts) — means
  and fractions are *exact*, never estimated;
* one :class:`~repro.telemetry.digest.TDigest` per flow-size bucket
  (all / small / large) for percentiles;
* one seeded :class:`~repro.telemetry.digest.ReservoirSampler` per
  bucket as the cross-check estimator.  While a run is small enough
  that the reservoir still holds every FCT, the reservoir *is* exact
  and is used as the estimator of record; past that point the t-digest
  takes over.  :meth:`estimators` reports which one produced each
  percentile — carried into ``ResultSummary.percentile_estimators`` so
  a summary is explicit about estimated vs exact tails.

Collectors from parallel shards/workers merge associatively with
:meth:`merge`, and :meth:`to_dict` / :meth:`from_dict` round-trip the
full state through JSON (how the experiment service ships streaming
results over the wire).

What it does *not* offer: ``records`` (there are none — that is the
point) and ``subset`` (arbitrary predicates need records).  Callers
that require per-flow records must run with ``streaming_stats=False``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.metrics.fct import (
    LARGE_FLOW_BYTES,
    SMALL_FLOW_BYTES,
    FlowRecord,
)
from repro.telemetry.digest import ReservoirSampler, TDigest

__all__ = ["StreamingFctStats", "STREAMING_AUTO_FLOWS"]

#: Flow count at which the runner switches to streaming collection when
#: ``ExperimentConfig.streaming_stats`` is left at ``None`` (auto).
#: Below this, exact records stay cheap and some consumers (save_result
#: CSV export, recovery forensics) want them.
STREAMING_AUTO_FLOWS = 200_000

#: Reservoir size: runs with up to this many finished flows get exact
#: percentiles from the reservoir; larger runs use the t-digest.
DEFAULT_RESERVOIR = 4096

#: t-digest compression: ~2x centroids; <1% relative error at p50/p99
#: on the FCT distributions the workload generator produces.
DEFAULT_COMPRESSION = 400.0


class StreamingFctStats:
    """Mergeable constant-memory stand-in for :class:`FctStats`.

    Args:
        small_bytes / large_bytes: bucket boundaries, pre-scaled by the
            caller exactly like :class:`FctStats`.
        compression: t-digest accuracy knob.
        reservoir_capacity: cross-check sample size.
        seed: reservoir seed — collectors that must merge
            deterministically should use the experiment seed.
    """

    #: Discriminator for code handling both collector flavours.
    is_streaming = True

    def __init__(
        self,
        small_bytes: int = SMALL_FLOW_BYTES,
        large_bytes: int = LARGE_FLOW_BYTES,
        compression: float = DEFAULT_COMPRESSION,
        reservoir_capacity: int = DEFAULT_RESERVOIR,
        seed: int = 1,
        _buckets: bool = True,
    ) -> None:
        self.small_bytes = small_bytes
        self.large_bytes = large_bytes
        self.compression = compression
        self.reservoir_capacity = reservoir_capacity
        self.seed = seed
        self._digest = TDigest(compression)
        self._reservoir = ReservoirSampler(reservoir_capacity, seed=seed)
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
            self.small = StreamingFctStats(
                small_bytes, large_bytes, compression,
                reservoir_capacity, seed + 1, _buckets=False,
            )
            self.large = StreamingFctStats(
                small_bytes, large_bytes, compression,
                reservoir_capacity, seed + 2, _buckets=False,
            )

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
            self._digest.add(float(fct_ns))
            self._reservoir.add(float(fct_ns))

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
        """Estimated percentile (``q`` in [0, 100]); NaN when empty."""
        value_ns, _ = self.quantile_ns(q)
        return float("nan") if value_ns is None else value_ns / 1e6

    def quantile_ns(self, q: float) -> Tuple[Optional[float], str]:
        """(value_ns, estimator) — estimator is ``"reservoir"`` while
        the reservoir still holds every FCT (exact), else
        ``"tdigest"``; ``(None, "none")`` for an empty bucket."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.finished_count == 0:
            return None, "none"
        if self._reservoir.exact:
            return self._reservoir.quantile(q / 100.0), "reservoir"
        return self._digest.quantile(q / 100.0), "tdigest"

    def cross_check_ms(self, q: float) -> float:
        """The *other* estimator's value for ``q`` — reservoir when the
        digest answered, digest otherwise.  Large disagreement between
        the two flags an estimator bug (asserted by
        ``tests/test_streaming_stats.py``)."""
        if self.finished_count == 0:
            return float("nan")
        if self._reservoir.exact:
            return self._digest.quantile(q / 100.0) / 1e6
        return self._reservoir.quantile(q / 100.0) / 1e6

    def estimators(self) -> Dict[str, str]:
        """Which estimator produced each reported percentile."""
        _, name = self.quantile_ns(50.0)
        # Same selection rule for every q; spelled per-percentile so the
        # summary stays self-describing if the rule ever differentiates.
        return {"p50": name, "p99": name}

    def total_retransmissions(self) -> int:
        return self._retransmissions

    def total_timeouts(self) -> int:
        return self._timeouts

    def memory_items(self) -> int:
        """Retained items across all buckets (centroids + buffers +
        reservoir samples) — the bounded-memory assertion target."""
        own = self._digest.memory_items() + len(self._reservoir.sample)
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
    # Merge (shard composition)
    # ------------------------------------------------------------------ #

    def merge(self, other: "StreamingFctStats") -> None:
        """Absorb another collector (e.g. a parallel shard's).

        Counters add exactly; digests merge associatively; reservoirs
        merge by weighted resampling.  Bucket boundaries must match —
        merging differently-scaled cells would silently mix units.
        """
        if (self.small_bytes, self.large_bytes) != (
            other.small_bytes, other.large_bytes
        ):
            raise ValueError(
                "cannot merge collectors with different size buckets: "
                f"{(self.small_bytes, self.large_bytes)} vs "
                f"{(other.small_bytes, other.large_bytes)}"
            )
        self._merge_one(other)
        for name in ("small", "large"):
            mine = getattr(self, name, None)
            theirs = getattr(other, name, None)
            if isinstance(mine, StreamingFctStats) and isinstance(
                theirs, StreamingFctStats
            ):
                mine._merge_one(theirs)

    def _merge_one(self, other: "StreamingFctStats") -> None:
        self.count += other.count
        self.finished_count += other.finished_count
        self._fct_sum_ns += other._fct_sum_ns
        self._retransmissions += other._retransmissions
        self._timeouts += other._timeouts
        self._digest.merge(other._digest)
        self._reservoir = self._reservoir.merged(other._reservoir)

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
            "compression": self.compression,
            "reservoir_capacity": self.reservoir_capacity,
            "seed": self.seed,
            "count": self.count,
            "finished_count": self.finished_count,
            "fct_sum_ns": self._fct_sum_ns,
            "retransmissions": self._retransmissions,
            "timeouts": self._timeouts,
            "digest": self._digest.to_dict(),
            "reservoir": self._reservoir.to_dict(),
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
        stats = cls(
            small_bytes=data["small_bytes"],
            large_bytes=data["large_bytes"],
            compression=data["compression"],
            reservoir_capacity=data["reservoir_capacity"],
            seed=data["seed"],
            _buckets=_buckets,
        )
        stats.count = int(data["count"])
        stats.finished_count = int(data["finished_count"])
        stats._fct_sum_ns = int(data["fct_sum_ns"])
        stats._retransmissions = int(data["retransmissions"])
        stats._timeouts = int(data["timeouts"])
        stats._digest = TDigest.from_dict(data["digest"])
        stats._reservoir = ReservoirSampler.from_dict(data["reservoir"])
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingFctStats(n={self.count}, "
            f"finished={self.finished_count}, "
            f"memory_items={self.memory_items()})"
        )
