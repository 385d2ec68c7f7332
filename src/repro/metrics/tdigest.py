"""Merging t-digest: bounded-memory quantile sketch, deterministic.

The variant implemented here is the *merging* digest (Dunning & Ertl,
"Computing extremely accurate quantiles using t-digests"): incoming
values buffer until a threshold, then buffer + existing centroids are
sorted and re-clustered in one linear pass under the arcsine scale
function

    k(q) = (compression / 2pi) * asin(2q - 1)

which caps every cluster at one unit of k-size.  Near q=0 and q=1 the
scale function is steep, so tail clusters stay tiny and tail quantiles
stay sharp — exactly where FCT analysis (p99) needs them.

Design constraints this implementation honours:

* **Deterministic.**  No randomness; clustering is a pure function of
  the sorted (mean, weight) multiset, so replaying the same stream
  reproduces the same centroids bit-for-bit and serialization
  round-trips exactly — both are load-bearing for the result cache and
  the golden tests.  (Different insertion *orders* may flush the buffer
  at different points and land on slightly different — equally valid —
  centroids; only quantile-level agreement is promised across orders.)
* **Bounded.**  At most ~``2 * COMPRESSION`` centroids survive a
  compression pass, and the buffer is capped, so memory is
  O(compression) regardless of how many values stream through.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List

__all__ = ["TDigest", "COMPRESSION"]

#: The t-digest's delta: ~2x centroids; <1% relative error at p50/p99 on
#: heavy-tailed FCT distributions (100 is the usual library default).
COMPRESSION = 400.0

#: Buffered values per compression pass: large enough to amortize the
#: sort, small enough that flushing stays cheap and memory bounded.
_BUFFER_LIMIT = int(4 * COMPRESSION)


class TDigest:
    """Streaming quantile sketch with O(compression) memory."""

    __slots__ = ("_means", "_weights", "_total", "_buffer", "_min", "_max")

    def __init__(self) -> None:
        self._means: List[float] = []
        self._weights: List[float] = []
        self._total = 0.0
        self._buffer: List[float] = []
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------ #
    # Ingest
    # ------------------------------------------------------------------ #

    def add(self, value: float) -> None:
        """Fold one observation into the sketch."""
        if not math.isfinite(value):
            raise ValueError(f"t-digest values must be finite, got {value}")
        self._buffer.append(float(value))
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._buffer) >= _BUFFER_LIMIT:
            self._compress()

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    # ------------------------------------------------------------------ #
    # Clustering
    # ------------------------------------------------------------------ #

    @staticmethod
    def _k(q: float) -> float:
        """Scale function: position of quantile ``q`` in k-space."""
        q = min(1.0, max(0.0, q))
        return COMPRESSION / (2.0 * math.pi) * math.asin(2.0 * q - 1.0)

    @staticmethod
    def _q_right(k: float) -> float:
        """Inverse scale: the q where cluster ``k`` must end (k + 1)."""
        sin_arg = 2.0 * math.pi * k / COMPRESSION
        if sin_arg >= math.pi / 2.0:
            return 1.0
        if sin_arg <= -math.pi / 2.0:
            return 0.0
        return (math.sin(sin_arg) + 1.0) / 2.0

    def _compress(self) -> None:
        """Merge buffer + centroids into a fresh centroid list (pure
        function of the sorted multiset — determinism lives here)."""
        if not self._buffer:
            return
        pairs = sorted(
            list(zip(self._means, self._weights))
            + [(value, 1.0) for value in self._buffer]
        )
        self._buffer = []
        total = math.fsum(w for _, w in pairs)
        means: List[float] = []
        weights: List[float] = []
        cur_mean, cur_weight = pairs[0]
        weight_so_far = 0.0
        q_limit = self._q_right(self._k(0.0) + 1.0)
        for mean, weight in pairs[1:]:
            if weight_so_far + cur_weight + weight <= q_limit * total:
                # Same cluster: weighted-mean update.
                cur_weight += weight
                cur_mean += (mean - cur_mean) * (weight / cur_weight)
            else:
                means.append(cur_mean)
                weights.append(cur_weight)
                weight_so_far += cur_weight
                q_limit = self._q_right(
                    self._k(weight_so_far / total) + 1.0
                )
                cur_mean, cur_weight = mean, weight
        means.append(cur_mean)
        weights.append(cur_weight)
        self._means = means
        self._weights = weights
        self._total = total

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def count(self) -> float:
        """Total ingested weight."""
        return self._total + len(self._buffer)

    def memory_items(self) -> int:
        """Retained items (centroids + buffered values) — the number the
        bounded-memory tests assert on."""
        return len(self._means) + len(self._buffer)

    @property
    def min(self) -> float:
        if self.count == 0:
            raise ValueError("empty t-digest has no minimum")
        return self._min

    @property
    def max(self) -> float:
        if self.count == 0:
            raise ValueError("empty t-digest has no maximum")
        return self._max

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]).

        Linear interpolation between centroid means, anchored at the
        exact min/max at the extremes (so q=0 and q=1 are exact).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        self._compress()
        if self._total == 0:
            raise ValueError("quantile of an empty t-digest")
        means, weights = self._means, self._weights
        if len(means) == 1:
            return means[0]
        target = q * self._total
        # Centroid i's mass is centred at cum_{i-1} + w_i / 2.
        prev_center = 0.0
        prev_value = self._min
        cumulative = 0.0
        for mean, weight in zip(means, weights):
            center = cumulative + weight / 2.0
            if target < center:
                span = center - prev_center
                frac = (target - prev_center) / span if span > 0 else 0.0
                return prev_value + frac * (mean - prev_value)
            cumulative += weight
            prev_center = center
            prev_value = mean
        span = self._total - prev_center
        frac = (target - prev_center) / span if span > 0 else 1.0
        return prev_value + min(1.0, frac) * (self._max - prev_value)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe state; ``from_dict`` restores it bit-identically."""
        self._compress()
        return {
            "count": self._total,
            "min": self._min if self._total else None,
            "max": self._max if self._total else None,
            "means": list(self._means),
            "weights": list(self._weights),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TDigest":
        digest = cls()
        digest._means = [float(m) for m in data["means"]]
        digest._weights = [float(w) for w in data["weights"]]
        digest._total = float(data["count"])
        if data.get("min") is not None:
            digest._min = float(data["min"])
        if data.get("max") is not None:
            digest._max = float(data["max"])
        return digest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TDigest(count={self.count:g}, centroids={len(self._means)})"
        )
