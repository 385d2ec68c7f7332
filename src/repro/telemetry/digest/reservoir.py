"""Seeded reservoir sampler — the digest's cross-check estimator.

Algorithm R over a splitmix64 generator.  The stdlib ``random.Random``
would work, but its Mersenne state is a 625-integer tuple that makes
JSON round-trips ugly; splitmix64's state is a single integer, so a
serialized sampler resumes *exactly* where it left off — the same
determinism contract the rest of the repo holds (replaying a run
reproduces the sampler bit-for-bit).

Two properties the streaming collector leans on:

* Below ``capacity`` the reservoir has kept *every* value, so its
  quantiles are exact — small runs get exact percentiles labelled
  ``reservoir`` while big runs switch to the t-digest.
* The sample is uniform over the stream, so reservoir quantiles are an
  unbiased (if noisy) check on the digest's: a large disagreement means
  an estimator bug, not an unlucky distribution.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

__all__ = ["ReservoirSampler"]

_MASK64 = (1 << 64) - 1


class _SplitMix64:
    """Tiny deterministic PRNG with a single-integer, JSON-safe state."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        # Modulo bias is ~n / 2**64 — irrelevant for sampling decisions.
        return self.next_u64() % n


class ReservoirSampler:
    """Uniform sample of a stream in O(capacity) memory (Algorithm R)."""

    __slots__ = ("capacity", "seed", "count", "sample", "_rng")

    def __init__(self, capacity: int = 4096, seed: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seed = seed
        self.count = 0
        self.sample: List[float] = []
        self._rng = _SplitMix64(seed)

    @property
    def exact(self) -> bool:
        """True while the reservoir still holds the entire stream."""
        return self.count <= self.capacity

    def add(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"reservoir values must be finite, got {value}")
        self.count += 1
        if len(self.sample) < self.capacity:
            self.sample.append(float(value))
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                self.sample[slot] = float(value)

    def quantile(self, q: float) -> float:
        """Sample quantile (``q`` in [0, 1]), linear interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.sample:
            raise ValueError("quantile of an empty reservoir")
        ordered = sorted(self.sample)
        if len(ordered) == 1:
            return ordered[0]
        rank = (len(ordered) - 1) * q
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] + (ordered[hi] - ordered[lo]) * frac

    def merged(self, other: "ReservoirSampler") -> "ReservoirSampler":
        """Combine two reservoirs into one representing both streams.

        Each output slot draws from either input with probability
        proportional to its stream length — the standard distributed
        merge.  Deterministic (seed is the symmetric XOR of both seeds)
        but, unlike the t-digest, not exactly commutative: the reservoir
        is the noisy cross-check, not the estimator of record.
        """
        out = ReservoirSampler(
            max(self.capacity, other.capacity),
            seed=(self.seed ^ other.seed) or 1,
        )
        out.count = self.count + other.count
        mine = list(self.sample)
        theirs = list(other.sample)
        weight_mine, weight_theirs = self.count, other.count
        while len(out.sample) < out.capacity and (mine or theirs):
            take_mine = bool(mine) and (
                not theirs
                or out._rng.randrange(weight_mine + weight_theirs) < weight_mine
            )
            source = mine if take_mine else theirs
            index = out._rng.randrange(len(source))
            out.sample.append(source.pop(index))
        return out

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe state (including the PRNG position, so a restored
        sampler continues the exact random sequence)."""
        return {
            "capacity": self.capacity,
            "seed": self.seed,
            "count": self.count,
            "sample": list(self.sample),
            "rng_state": self._rng.state,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReservoirSampler":
        sampler = cls(data["capacity"], seed=data["seed"])
        sampler.count = int(data["count"])
        sampler.sample = [float(v) for v in data["sample"]]
        sampler._rng.state = int(data["rng_state"]) & _MASK64
        return sampler

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReservoirSampler(capacity={self.capacity}, count={self.count}, "
            f"held={len(self.sample)})"
        )
