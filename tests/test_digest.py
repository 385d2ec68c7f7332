"""Property tests for the t-digest behind streaming FCT statistics.

The t-digest's contract — <1% relative error at p50/p99, bounded
memory, bit-identical serialization round-trips — is what lets
million-flow cells report percentiles from O(centroids) state.
These tests pin that contract across distribution shapes (uniform,
heavy-tailed, bimodal) and seeds, because an estimator that is only
accurate on friendly data is worse than none.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.metrics.fct import percentile
from repro.metrics.tdigest import COMPRESSION, TDigest


def _uniform(rng, n):
    return [rng.uniform(0.0, 1e6) for _ in range(n)]


def _heavy_tailed(rng, n):
    # Lognormal with a fat tail — the shape FCT distributions take.
    return [rng.lognormvariate(12.0, 1.8) for _ in range(n)]


def _bimodal(rng, n):
    # Mice and elephants: two tight modes three decades apart.
    return [
        rng.gauss(1e3, 50.0) if rng.random() < 0.7 else rng.gauss(1e6, 2e4)
        for _ in range(n)
    ]


DISTRIBUTIONS = {
    "uniform": _uniform,
    "heavy_tailed": _heavy_tailed,
    "bimodal": _bimodal,
}


def _rel_err(estimate: float, truth: float) -> float:
    return abs(estimate - truth) / max(1e-12, abs(truth))


class TestTDigestAccuracy:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("seed", [1, 7])
    def test_p50_p99_within_one_percent(self, name, seed):
        rng = random.Random(seed)
        values = DISTRIBUTIONS[name](rng, 50_000)
        digest = TDigest()
        digest.extend(values)
        ordered = sorted(values)
        for q in (50.0, 99.0):
            truth = percentile(ordered, q)
            assert _rel_err(digest.quantile(q / 100.0), truth) < 0.01, (
                f"{name} p{q:g} off by more than 1%"
            )

    def test_extremes_exact(self):
        rng = random.Random(3)
        values = _heavy_tailed(rng, 10_000)
        digest = TDigest()
        digest.extend(values)
        assert digest.quantile(0.0) == min(values)
        assert digest.quantile(1.0) == max(values)
        assert digest.min == min(values)
        assert digest.max == max(values)

    def test_memory_bounded(self):
        digest = TDigest()
        rng = random.Random(5)
        for _ in range(200_000):
            digest.add(rng.random())
        # Centroids + buffer stay O(compression) no matter the stream.
        assert digest.memory_items() < COMPRESSION * 6
        assert digest.count == 200_000

    def test_rejects_bad_input(self):
        digest = TDigest()
        with pytest.raises(ValueError):
            digest.add(float("nan"))
        with pytest.raises(ValueError):
            digest.quantile(1.5)
        with pytest.raises(ValueError):
            TDigest().quantile(0.5)  # empty


class TestTDigestSerialization:
    @pytest.mark.parametrize("name", sorted(DISTRIBUTIONS))
    def test_round_trip_bit_identical(self, name):
        rng = random.Random(31)
        digest = TDigest()
        digest.extend(DISTRIBUTIONS[name](rng, 10_000))
        # Through actual JSON text, not just dicts: floats must survive
        # the repr round-trip, and the doc must be deterministic.
        text = json.dumps(digest.to_dict(), sort_keys=True)
        restored = TDigest.from_dict(json.loads(text))
        assert restored.to_dict() == digest.to_dict()
        assert json.dumps(restored.to_dict(), sort_keys=True) == text
        for q in (0.5, 0.99):
            assert restored.quantile(q) == digest.quantile(q)

    def test_replay_deterministic(self):
        """Same stream, same order → bit-identical centroids."""
        rng = random.Random(37)
        values = _bimodal(rng, 8_000)
        a, b = TDigest(), TDigest()
        a.extend(values)
        b.extend(values)
        assert a.to_dict() == b.to_dict()

    def test_empty_round_trip(self):
        restored = TDigest.from_dict(TDigest().to_dict())
        assert restored.count == 0
