"""Fabric: glues the topology, hosts and flows into one running network.

The fabric owns the flow registry and the packet forwarding loop.  Hosts
hand packets to :meth:`Fabric.send`; ports call :meth:`Fabric.forward`
after each link traversal; the final hop lands in :meth:`Host.receive`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.net.host import Host
from repro.net.packet import Packet, PacketKind, PacketPool
from repro.net.topology import LeafSpineTopology, TopologyConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.base import FlowBase

#: Probe-plane packet kinds, as a tuple for the drop-branch membership
#: test (drops are rare; this is off the per-packet hot path).
_PROBE_KINDS = (PacketKind.PROBE, PacketKind.PROBE_REPLY)


class Fabric:
    """A running leaf–spine fabric.

    Args:
        sim: event engine.
        config: the fabric's shape and link rates.
        rng: seeded random streams shared by all components.
    """

    def __init__(
        self,
        sim: Simulator,
        config: TopologyConfig,
        rng: Optional[RngStreams] = None,
    ) -> None:
        self.sim = sim
        self.rng = rng if rng is not None else RngStreams(0)
        self.config = config
        self.topology = LeafSpineTopology(sim, config, self.forward)
        self.hosts: List[Host] = [
            Host(h, self.topology.leaf_of(h), self)
            for h in range(config.n_hosts)
        ]
        self.flows: Dict[int, "FlowBase"] = {}
        self._next_flow_id = 0
        self.on_flow_done: Optional[Callable[["FlowBase"], None]] = None
        #: Optional invariant checker (see :mod:`repro.validate`).
        #: Attach via :func:`repro.hooks.attach`.
        self._checker = None
        #: Optional tracer (see :mod:`repro.telemetry`): receives packet
        #: send/hop/deliver and flow start/finish callbacks.
        self._tracer = None
        #: Free list for DATA/ACK/probe packets.  Transports and probers
        #: *acquire* from here unconditionally; the fabric *releases* a
        #: packet at its end of life (delivered or dropped) — but only on
        #: the unobserved fast path, because the invariant checker tracks
        #: packets by identity and tracers may keep references in flight
        #: records.  With hooks attached the free list simply never
        #: refills, and every acquire falls through to a fresh Packet.
        self.packet_pool = PacketPool()
        #: Precomputed hooks-off flag for the send/forward hot path (and
        #: the packet-release gate).  Set by :func:`repro.hooks.attach`.
        self._fast = True
        #: In-flight packet counts per flow id, enabled by
        #: :meth:`enable_flow_eviction` (streaming-stats runs).  ``None``
        #: keeps the hot path free of the bookkeeping.
        self._inflight: Optional[Dict[int, int]] = None
        #: Finished flows waiting for their last in-network packet to
        #: drain before they can leave :attr:`flows`.
        self._evict_on_quiesce: set = set()
        #: PROBE/PROBE_REPLY packets that died anywhere in the fabric —
        #: admin-down links, injected drops, full buffers.  A heartbeat
        #: dying on a dead link *is* the detection signal, so these
        #: deaths must be countable rather than vanishing silently.
        self.probe_drops = 0
        #: (agent host, probe id) -> (on_reply, on_lost): the one owner
        #: of each probe stream — see :meth:`claim_probes`.
        self._probe_owners: Dict[Tuple[int, int], tuple] = {}

    # ------------------------------------------------------------------ #
    # Flow registry
    # ------------------------------------------------------------------ #

    def allocate_flow_id(self) -> int:
        """Hand out a unique flow id."""
        flow_id = self._next_flow_id
        self._next_flow_id += 1
        return flow_id

    def register_flow(self, flow: "FlowBase") -> None:
        """Make a flow reachable from both endpoints."""
        self.flows[flow.flow_id] = flow
        if self._tracer is not None:
            self._tracer.on_flow_start(flow)

    def flow_finished(self, flow: "FlowBase") -> None:
        """Called by a flow when it completes; fans out to the harness."""
        if self._tracer is not None:
            self._tracer.on_flow_finish(flow)
        if self.on_flow_done is not None:
            self.on_flow_done(flow)

    def enable_flow_eviction(self) -> None:
        """Turn on per-flow in-flight accounting so finished flows can be
        evicted from :attr:`flows` the moment nothing of theirs remains in
        the network.  Used by streaming-stats runs; costs one dict update
        per packet birth/death, which is why it is opt-in."""
        if self._inflight is None:
            self._inflight = {}

    def retire_flow(self, flow_id: int) -> None:
        """Evict a finished flow from the registry — now if the network is
        already quiet for it, otherwise as soon as its last in-flight
        packet dies.  Deferral is what keeps streaming runs bit-identical
        to exact runs: a straggler (a retransmitted segment, the ACK it
        provokes) must still find the flow object and elicit exactly the
        response it would have in a run that never evicts."""
        if self._inflight is None or self._inflight.get(flow_id, 0) == 0:
            self.flows.pop(flow_id, None)
        else:
            self._evict_on_quiesce.add(flow_id)

    def _packet_born(self, flow_id: int) -> None:
        inflight = self._inflight
        if inflight is not None:
            inflight[flow_id] = inflight.get(flow_id, 0) + 1

    def _packet_died(self, flow_id: int) -> None:
        inflight = self._inflight
        if inflight is None:
            return
        n = inflight.get(flow_id, 0)
        if n > 1:
            inflight[flow_id] = n - 1
            return
        inflight.pop(flow_id, None)
        if flow_id in self._evict_on_quiesce:
            self._evict_on_quiesce.discard(flow_id)
            self.flows.pop(flow_id, None)

    # ------------------------------------------------------------------ #
    # Probe streams
    # ------------------------------------------------------------------ #

    def claim_probes(
        self,
        host: int,
        probe_id: int,
        on_reply: Callable[[Packet], None],
        on_lost: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        """Make ``on_reply`` the owner of the probes ``host`` sends with
        flow id ``probe_id``: every PROBE_REPLY of that stream arriving
        at ``host`` goes to it, and ``on_lost`` (if given) hears of every
        probe or reply of the stream that dies in-fabric.  A stream has
        one owner: claiming it twice is a ``ValueError``."""
        key = (host, probe_id)
        if key in self._probe_owners:
            raise ValueError(
                f"probe stream {probe_id} of host {host} is already claimed"
            )
        self._probe_owners[key] = (on_reply, on_lost)

    def _probe_dropped(self, packet: Packet) -> None:
        """A PROBE/PROBE_REPLY died in-fabric: count it and charge the
        loss to the stream's owner — the sender of a probe, the
        addressee of a reply (the packet is still live; callers release
        it to the pool only afterwards)."""
        self.probe_drops += 1
        host = packet.src if packet.kind == PacketKind.PROBE else packet.dst
        owner = self._probe_owners.get((host, packet.flow_id))
        if owner is not None and owner[1] is not None:
            owner[1](packet)

    # ------------------------------------------------------------------ #
    # Packet plumbing
    # ------------------------------------------------------------------ #

    def send(self, packet: Packet) -> bool:
        """Inject a packet at its source host over ``packet.path_id``.

        On the unobserved fast path a dropped packet is released to the
        pool immediately — the sender forfeits the reference either way
        (exactly like a real NIC: losses surface only through timeouts).
        """
        packet.route = self.topology.route(packet.src, packet.dst, packet.path_id)
        packet.hop = 0
        if self._fast:
            accepted = packet.route[0].enqueue(packet)
            if not accepted:
                if packet.kind in _PROBE_KINDS:
                    self._probe_dropped(packet)
                self.packet_pool.release(packet)
            elif self._inflight is not None:
                self._packet_born(packet.flow_id)
            return accepted
        if self._checker is not None:
            self._checker.on_send(packet)
        accepted = packet.route[0].enqueue(packet)
        if not accepted and packet.kind in _PROBE_KINDS:
            self._probe_dropped(packet)
        if accepted and self._inflight is not None:
            self._packet_born(packet.flow_id)
        if self._tracer is not None:
            self._tracer.on_send(packet)
        return accepted

    def forward(self, packet: Packet) -> None:
        """Advance a packet one hop (port callback after propagation).

        End of life happens here: a packet dropped mid-route or handed to
        its destination host goes back to the pool (fast path only — see
        :attr:`packet_pool` for why hooks suspend recycling).
        """
        if self._fast:
            hop = packet.hop + 1
            packet.hop = hop
            if hop < len(packet.route):
                if not packet.route[hop].enqueue(packet):
                    flow_id = packet.flow_id
                    if packet.kind in _PROBE_KINDS:
                        self._probe_dropped(packet)
                    self.packet_pool.release(packet)
                    if self._inflight is not None:
                        self._packet_died(flow_id)
            else:
                flow_id = packet.flow_id
                self.hosts[packet.dst].receive(packet)
                self.packet_pool.release(packet)
                # After receive(): anything the delivery provoked (a dup
                # ACK, say) is already counted, so the flow's in-flight
                # count never dips to zero while a response is pending.
                if self._inflight is not None:
                    self._packet_died(flow_id)
            return
        if self._tracer is not None:
            self._tracer.on_forward(packet)
        packet.hop += 1
        if packet.hop < len(packet.route):
            if not packet.route[packet.hop].enqueue(packet):
                if packet.kind in _PROBE_KINDS:
                    self._probe_dropped(packet)
                if self._inflight is not None:
                    self._packet_died(packet.flow_id)
        else:
            if self._checker is not None:
                self._checker.on_deliver(packet)
            self.hosts[packet.dst].receive(packet)
            if self._inflight is not None:
                self._packet_died(packet.flow_id)
