"""Path selection logic of Algorithm 2 (where to (re)route).

Two entry points mirror the algorithm's two branches:

* :meth:`ReroutingPolicy.initial_path` — lines 3–12: place a new flow, a
  timed-out flow, or a flow whose path failed, preferring *good* paths
  with the least local sending rate ``r_p`` (to prevent local hotspots),
  then *gray* paths, then a random non-failed path;
* :meth:`ReroutingPolicy.reroute_from_congested` — lines 13–23: move a
  flow off a congested path only to a *notably better* good (or gray)
  path; return ``None`` to stay put.

The vigorous variant (``require_notably=False``) drops the
notably-better margins — used by the Fig. 18 ablation to demonstrate why
caution matters.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Set

from repro.core.parameters import HermesParams
from repro.core.sensing import (
    PATH_FAILED,
    PATH_GOOD,
    PATH_GRAY,
    HermesLeafState,
)


class ReroutingPolicy:
    """Stateless path chooser over a rack's sensed path table."""

    def __init__(
        self,
        leaf_state: HermesLeafState,
        params: HermesParams,
        rng: random.Random,
    ) -> None:
        self.leaf_state = leaf_state
        self.params = params
        self.rng = rng

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    #: r_p values within this of the minimum count as tied (bits/s).
    RP_TIE_BPS = 1e6

    def _argmin_rp(self, dst_leaf: int, candidates: Sequence[int]) -> int:
        """The candidate with the least aggregate local sending rate.

        Near-ties are broken randomly — a deterministic tie-break would
        herd every idle-fabric placement onto the lowest path id.
        """
        now = self.leaf_state.sim.now
        rates = [
            (self.leaf_state.state(dst_leaf, path).rp_bps(now), path)
            for path in candidates
        ]
        best_rp = min(rate for rate, _ in rates)
        tied = [path for rate, path in rates if rate - best_rp <= self.RP_TIE_BPS]
        return tied[0] if len(tied) == 1 else self.rng.choice(tied)

    def _by_class(
        self, dst_leaf: int, paths: Iterable[int], excluded: Set[int]
    ) -> tuple:
        """Split paths into (good, gray, usable-non-failed)."""
        good: List[int] = []
        gray: List[int] = []
        usable: List[int] = []
        for path in paths:
            if path in excluded:
                continue
            kind = self.leaf_state.classify(dst_leaf, path)
            if kind == PATH_FAILED:
                continue
            usable.append(path)
            if kind == PATH_GOOD:
                good.append(path)
            elif kind == PATH_GRAY:
                gray.append(path)
        return good, gray, usable

    # ------------------------------------------------------------------ #
    # Algorithm 2
    # ------------------------------------------------------------------ #

    def initial_path(
        self, dst_leaf: int, paths: Sequence[int], excluded: Set[int]
    ) -> int:
        """Place a new / timed-out / failed-path flow (lines 3–12)."""
        good, gray, usable = self._by_class(dst_leaf, paths, excluded)
        if good:
            return self._argmin_rp(dst_leaf, good)
        if gray:
            return self._argmin_rp(dst_leaf, gray)
        if usable:
            return self.rng.choice(usable)
        # Everything is failed or excluded: last resort, any alive path —
        # a wrong path beats dropping the flow on the floor.
        remaining = [p for p in paths if p not in excluded] or list(paths)
        return self.rng.choice(remaining)

    def reroute_from_congested(
        self,
        dst_leaf: int,
        paths: Sequence[int],
        current: int,
        excluded: Set[int],
        require_notably: bool = True,
    ) -> Optional[int]:
        """Pick a better path for a flow on a congested path (lines 13–23).

        Returns ``None`` when no acceptable alternative exists (the flow
        stays on its path — line 23).
        """
        good, gray, _usable = self._by_class(dst_leaf, paths, excluded)
        for bucket in (good, gray):
            candidates = [
                p
                for p in bucket
                if p != current
                and (
                    not require_notably
                    or self.leaf_state.notably_better(dst_leaf, p, current)
                )
            ]
            if candidates:
                return self._argmin_rp(dst_leaf, candidates)
        return None
