"""Empirical flow-size distributions (paper Fig. 7).

Each distribution is a piecewise-linear CDF over flow size in bytes,
sampled by inverse transform.  The point sets follow the published
traces:

* **web-search** — the DCTCP paper's production cluster: flows from
  ~10 KB to 30 MB, mean ≈ 1.6 MB, ~60% of flows under 100 KB yet ~95% of
  bytes from flows over 1 MB;
* **data-mining** — VL2's cluster: 80% of flows under 10 KB, a long tail
  to 1 GB; ~95% of bytes in the few percent of flows above 35 MB.

Benchmarks may scale sizes down by a constant factor
(:meth:`FlowSizeDistribution.scaled`) to keep CPython runtimes sane; the
scaling factor is always printed with the results.
"""

from __future__ import annotations

import bisect
import random
from typing import List, Sequence, Tuple

KB = 1_000
MB = 1_000_000


class FlowSizeDistribution:
    """Piecewise-linear CDF over flow sizes in bytes.

    Args:
        name: label used in reports.
        points: ``(size_bytes, cdf)`` knots; cdf must be non-decreasing,
            start at 0.0 and end at 1.0.
    """

    def __init__(self, name: str, points: Sequence[Tuple[float, float]]) -> None:
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        sizes = [float(s) for s, _ in points]
        cdfs = [float(c) for _, c in points]
        if cdfs[0] != 0.0 or cdfs[-1] != 1.0:
            raise ValueError("CDF must start at 0.0 and end at 1.0")
        if any(b < a for a, b in zip(cdfs, cdfs[1:])):
            raise ValueError("CDF must be non-decreasing")
        if any(b < a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be non-decreasing")
        if sizes[0] < 1.0:
            raise ValueError("smallest flow must be at least 1 byte")
        self.name = name
        self._sizes = sizes
        self._cdfs = cdfs

    def sample(self, rng: random.Random) -> int:
        """Draw one flow size in bytes (inverse-transform sampling)."""
        u = rng.random()
        idx = bisect.bisect_left(self._cdfs, u)
        if idx == 0:
            return max(1, int(self._sizes[0]))
        lo_c, hi_c = self._cdfs[idx - 1], self._cdfs[idx]
        lo_s, hi_s = self._sizes[idx - 1], self._sizes[idx]
        if hi_c == lo_c:
            return max(1, int(hi_s))
        frac = (u - lo_c) / (hi_c - lo_c)
        return max(1, int(lo_s + frac * (hi_s - lo_s)))

    def mean(self) -> float:
        """Expected flow size in bytes (piecewise-linear integration)."""
        total = 0.0
        for i in range(1, len(self._sizes)):
            mass = self._cdfs[i] - self._cdfs[i - 1]
            total += mass * (self._sizes[i] + self._sizes[i - 1]) / 2.0
        return total

    def scaled(self, factor: float) -> "FlowSizeDistribution":
        """A copy with every size multiplied by ``factor`` (min 1 byte)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        points = [
            (max(1.0, s * factor), c) for s, c in zip(self._sizes, self._cdfs)
        ]
        # Enforce monotone sizes after the 1-byte clamp.
        for i in range(1, len(points)):
            if points[i][0] < points[i - 1][0]:
                points[i] = (points[i - 1][0], points[i][1])
        return FlowSizeDistribution(f"{self.name}x{factor:g}", points)

    def points(self) -> List[Tuple[float, float]]:
        """The CDF knots (copy), for plotting Fig. 7."""
        return list(zip(self._sizes, self._cdfs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowSizeDistribution({self.name}, mean={self.mean():.0f}B)"


#: Web-search (DCTCP, Alizadeh et al. 2010).
WEB_SEARCH = FlowSizeDistribution(
    "web-search",
    [
        (6 * KB, 0.0),
        (6 * KB, 0.15),
        (13 * KB, 0.28),
        (19 * KB, 0.39),
        (33 * KB, 0.49),
        (53 * KB, 0.63),
        (133 * KB, 0.69),
        (667 * KB, 0.72),
        (1467 * KB, 0.77),
        (3333 * KB, 0.83),
        (6667 * KB, 0.89),
        (20 * MB, 0.97),
        (30 * MB, 1.0),
    ],
)

#: Data-mining (VL2, Greenberg et al. 2009).
DATA_MINING = FlowSizeDistribution(
    "data-mining",
    [
        (100, 0.0),
        (180, 0.1),
        (250, 0.2),
        (560, 0.3),
        (900, 0.4),
        (1_100, 0.5),
        (1_870, 0.6),
        (3_160, 0.7),
        (10 * KB, 0.8),
        (400 * KB, 0.9),
        (3_160 * KB, 0.95),
        (100 * MB, 0.98),
        (1_000 * MB, 1.0),
    ],
)

_BY_NAME = {d.name: d for d in (WEB_SEARCH, DATA_MINING)}


def distribution_by_name(name: str) -> FlowSizeDistribution:
    """Look up a built-in distribution by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown workload {name!r}; known: {known}") from None
