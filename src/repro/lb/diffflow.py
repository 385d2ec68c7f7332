"""DiffFlow: differentiated routing for short and long flows.

Carpio et al.'s scheme (arXiv 1604.05107): short flows — the vast
majority of datacenter flows, carrying a minority of the bytes — are
sprayed per packet (Random Packet Spraying) because their handful of
packets cannot build a queue and finish fastest on whatever capacity is
idle; long flows are pinned ECMP-style so their bulk bytes do not
reorder.  Classification is by *bytes sent so far* against a threshold
(the paper's switches count packets per flow for the same reason): every
flow starts life sprayed and graduates to a pinned path once it crosses
``threshold_bytes``, so no prior size knowledge is needed.

The threshold is configurable through ``ExperimentConfig.lb_params``
(``threshold_bytes``); the experiment runner scales its default by
``size_scale`` exactly like Hermes' ``S`` gate, so scaled runs keep the
paper's short/long boundary.

Failure awareness (our extension for the Fig. 16/17 recovery
comparison — the original design predates the fault model): RTOs and
retransmission bursts feed the rack's shared detector, by default the
:class:`~repro.detect.transport.TransportDetector` table; sprayed
packets avoid failed paths, and a pinned long flow whose path fails is
re-pinned onto a trusted one at its next packet."""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

import zlib

from repro.lb.base import LoadBalancer

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.base import FlowBase

#: Short/long boundary: 100 KB — the paper's (and the literature's)
#: usual mice/elephant cut, scaled by the runner on scaled runs.
DEFAULT_THRESHOLD_BYTES = 100_000


class DiffFlowLB(LoadBalancer):
    """Spray short flows per packet, pin long flows ECMP-style."""

    name = "diffflow"
    granularity = "packet"
    default_detector = "transport"

    def __init__(
        self, host, fabric, rng, threshold_bytes: int = DEFAULT_THRESHOLD_BYTES
    ) -> None:
        super().__init__(host, fabric, rng)
        if threshold_bytes < 1:
            raise ValueError("threshold_bytes must be >= 1")
        self.threshold_bytes = threshold_bytes
        #: flow_id -> pinned path of a graduated (long) flow.
        self._pinned: Dict[int, int] = {}
        #: flow_id -> pin evictions so far; salts the re-pin hash so a
        #: flow fleeing a failed path cannot deterministically re-hash
        #: onto the very path it just left.
        self._epoch: Dict[int, int] = {}
        self.sprayed_pkts = 0
        self.pinned_pkts = 0

    def _hash_path(self, flow: "FlowBase", paths) -> int:
        epoch = self._epoch.get(flow.flow_id, 0)
        digest = zlib.crc32(
            f"{flow.flow_id}:{flow.src}:{flow.dst}:{epoch}".encode("ascii")
        )
        return paths[digest % len(paths)]

    def select_path(self, flow: "FlowBase", wire_bytes: int) -> int:
        dst_leaf = self.topology.leaf_of(flow.dst)
        paths = self.topology.paths(self.host.leaf, dst_leaf)
        if flow.bytes_sent < self.threshold_bytes:
            # Short (so far): random packet spraying over trusted paths.
            self.sprayed_pkts += 1
            candidates = self.detector.alive(dst_leaf, paths)
            return self._note_path(flow, self.rng.choice(candidates))
        # Long: ECMP-style pin, kept until failure evicts it.
        self.pinned_pkts += 1
        path = self._pinned.get(flow.flow_id)
        if path is not None and path not in paths:
            path = None  # pinned path was cut from under the flow
        if path is not None and self.detector.is_failed(dst_leaf, path):
            path = None
        if path is None:
            if flow.flow_id in self._pinned:
                # Evicting an established pin: bump the hash salt.
                self._epoch[flow.flow_id] = (
                    self._epoch.get(flow.flow_id, 0) + 1
                )
            candidates = self.detector.alive(dst_leaf, paths)
            path = self._hash_path(flow, candidates)
            self._pinned[flow.flow_id] = path
            return self._note_path(flow, path)
        return path

    def on_timeout(self, flow: "FlowBase", path_id: int) -> None:
        super().on_timeout(flow, path_id)
        # A pinned flow stalled on its path: re-pin at the next packet.
        if self._pinned.get(flow.flow_id) == path_id:
            del self._pinned[flow.flow_id]
            self._epoch[flow.flow_id] = self._epoch.get(flow.flow_id, 0) + 1

    def on_flow_done(self, flow: "FlowBase") -> None:
        self._pinned.pop(flow.flow_id, None)
        self._epoch.pop(flow.flow_id, None)
