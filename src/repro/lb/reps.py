"""REPS: recycled-entropy packet spraying with failure mitigation.

Bonato et al.'s scheme (arXiv 2407.21625): packets are sprayed per
packet like DRB, but the spray is *biased by feedback* — every ACK that
returns clean (no ECN echo, not a retransmission) proves its packet's
path entropy was good, so the sender **recycles** it into a per-flow
FIFO cache and prefers cached entropies over fresh random draws.  Under
congestion the marked paths stop being recycled and the cache drains
toward the good ones; on a clean fabric REPS degenerates to uniform
spraying.

Failure mitigation follows the paper's two rules:

* an RTO **flushes the flow's entire entropy cache** (every cached
  entropy is stale evidence once the flow stalls) and reports the path
  to the rack's shared detector — by default the
  :class:`~repro.detect.transport.TransportDetector` table, which fails
  it immediately;
* retransmissions evict the implicated entropy from the cache and feed
  the table's windowed retransmission counter, so a lossy-but-alive link
  is also detected and avoided.

Fresh entropies are drawn uniformly from the paths the detector still
trusts, which is what steers traffic off a dead spine within one RTO —
the behaviour the Fig. 16/17 recovery timelines measure.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, TYPE_CHECKING

from repro.lb.base import LoadBalancer

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.base import FlowBase

#: Per-flow entropy cache bound — about one congestion window's worth of
#: in-flight packets; recycling more than that only repeats information.
DEFAULT_CACHE_SIZE = 32


class RepsLB(LoadBalancer):
    """Per-packet spraying that recycles ACK-proven good entropies."""

    name = "reps"
    granularity = "packet"
    default_detector = "transport"

    def __init__(
        self, host, fabric, rng, cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        super().__init__(host, fabric, rng)
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.cache_size = cache_size
        #: flow_id -> FIFO of recycled path entropies.
        self._cache: Dict[int, Deque[int]] = {}
        #: Entropies served from the cache vs drawn fresh (introspection).
        self.recycled = 0
        self.fresh = 0

    def select_path(self, flow: "FlowBase", wire_bytes: int) -> int:
        dst_leaf = self.topology.leaf_of(flow.dst)
        paths = self.topology.paths(self.host.leaf, dst_leaf)
        cache = self._cache.get(flow.flow_id)
        if cache:
            detector = self.detector
            while cache:
                entropy = cache.popleft()
                # A cached entropy may have gone stale: its path can be
                # cut (topology change) or freshly failed.  Skip, don't
                # re-queue — staleness is why it is being discarded.
                if entropy in paths and not detector.is_failed(dst_leaf, entropy):
                    self.recycled += 1
                    return self._note_path(flow, entropy)
        alive = self.detector.alive(dst_leaf, paths)
        self.fresh += 1
        return self._note_path(flow, self.rng.choice(alive))

    def on_ack(self, flow: "FlowBase", path_id: int, ece: bool, rtt_ns: int,
               is_retx: bool) -> None:
        # Any round trip is proof of life for the path (clears false
        # failure verdicts) ...
        super().on_ack(flow, path_id, ece, rtt_ns, is_retx)
        # ... but only clean ones prove a *good* entropy worth recycling.
        if path_id < 0 or ece or is_retx:
            return
        cache = self._cache.get(flow.flow_id)
        if cache is None:
            cache = deque()
            self._cache[flow.flow_id] = cache
        if len(cache) < self.cache_size:
            cache.append(path_id)

    def on_timeout(self, flow: "FlowBase", path_id: int) -> None:
        # Failure mitigation: the stall invalidates everything the flow
        # thought it knew about good entropies.
        self._cache.pop(flow.flow_id, None)
        super().on_timeout(flow, path_id)

    def on_retransmit(self, flow: "FlowBase", path_id: int) -> None:
        cache = self._cache.get(flow.flow_id)
        if cache and path_id in cache:
            self._cache[flow.flow_id] = deque(
                e for e in cache if e != path_id
            )
        super().on_retransmit(flow, path_id)

    def on_flow_done(self, flow: "FlowBase") -> None:
        self._cache.pop(flow.flow_id, None)
