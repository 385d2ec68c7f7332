"""CLOVE-ECN: edge-based flowlet switching with ECN-derived path weights.

Katta et al.'s readily-deployable edge scheme: the source hypervisor
splits flows into flowlets and picks paths by weighted round-robin, where
a path's weight decays every time an ECN-marked ACK returns over it (the
weight is redistributed to the other paths).  Visibility is limited to
what the flows themselves piggyback — no probing — which is the
shortcoming Hermes' active probing addresses.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from repro.lb.base import LoadBalancer
from repro.sim.engine import microseconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.base import FlowBase

MIN_WEIGHT = 0.02


class CloveEcnLB(LoadBalancer):
    """Per-flowlet weighted round-robin with multiplicative ECN decrease."""

    name = "clove-ecn"
    granularity = "flowlet"

    def __init__(
        self,
        host,
        fabric,
        rng,
        flowlet_timeout_ns: int = microseconds(150),
        beta: float = 0.25,
    ) -> None:
        super().__init__(host, fabric, rng)
        if flowlet_timeout_ns <= 0:
            raise ValueError("flowlet timeout must be positive")
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        self.flowlet_timeout_ns = flowlet_timeout_ns
        self.beta = beta
        self._weights: Dict[int, Dict[int, float]] = {}  # dst_leaf -> path -> w
        self._paths: Dict[int, int] = {}
        self.flowlets = 0

    def _weights_for(self, dst_leaf: int) -> Dict[int, float]:
        weights = self._weights.get(dst_leaf)
        if weights is None:
            paths = self.topology.paths(self.host.leaf, dst_leaf)
            weights = {p: 1.0 / len(paths) for p in paths}
            self._weights[dst_leaf] = weights
        return weights

    def _weighted_pick(self, dst_leaf: int, weights: Dict[int, float]) -> int:
        detector = self.detector
        if detector is not None:
            live = {
                p: w
                for p, w in weights.items()
                if not detector.is_failed(dst_leaf, p)
            }
            if live:
                weights = live
        total = sum(weights.values())
        mark = self.rng.random() * total
        acc = 0.0
        for path, weight in weights.items():
            acc += weight
            if mark <= acc:
                return path
        return next(reversed(weights))  # floating-point slack

    def select_path(self, flow: "FlowBase", wire_bytes: int) -> int:
        now = self.fabric.sim.now
        path = self._paths.get(flow.flow_id)
        if (
            path is None
            or now - flow.last_tx_time > self.flowlet_timeout_ns
            or (
                self.detector is not None
                and self.path_down(self.topology.leaf_of(flow.dst), path)
            )
        ):
            dst_leaf = self.topology.leaf_of(flow.dst)
            path = self._weighted_pick(dst_leaf, self._weights_for(dst_leaf))
            self._paths[flow.flow_id] = path
            self.flowlets += 1
            return self._note_path(flow, path)
        return path

    def on_ack(self, flow: "FlowBase", path_id: int, ece: bool, rtt_ns: int,
               is_retx: bool) -> None:
        detector = self.detector
        if detector is not None and path_id >= 0:
            detector.note_ok(self.topology.leaf_of(flow.dst), path_id)
        if not ece or path_id < 0:
            return
        weights = self._weights_for(self.topology.leaf_of(flow.dst))
        if len(weights) < 2 or path_id not in weights:
            return
        # Move beta of the marked path's weight to the others, evenly.
        delta = weights[path_id] * self.beta
        floor_delta = weights[path_id] - MIN_WEIGHT
        delta = max(0.0, min(delta, floor_delta))
        if delta <= 0.0:
            return
        weights[path_id] -= delta
        share = delta / (len(weights) - 1)
        for p in weights:
            if p != path_id:
                weights[p] += share

    def on_flow_done(self, flow: "FlowBase") -> None:
        self._paths.pop(flow.flow_id, None)
