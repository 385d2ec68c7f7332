"""End host (hypervisor) model.

A host terminates flows and runs the per-host load-balancing agent — the
simulated equivalent of the paper's kernel module sitting between the
TCP/IP stack and qdisc.  Probe request/reply handling lives here too.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.net.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.lb.base import LoadBalancer
    from repro.net.fabric import Fabric


class Host:
    """One end host.

    Attributes:
        host_id: global host index.
        leaf: leaf switch index.
        lb: the load-balancing agent consulted for every outgoing data
            packet (installed by the experiment harness).

    Probe replies go to the owner of their stream (see
    :meth:`Fabric.claim_probes <repro.net.fabric.Fabric.claim_probes>`);
    an unclaimed reply is dropped.
    """

    __slots__ = ("host_id", "leaf", "fabric", "lb")

    def __init__(self, host_id: int, leaf: int, fabric: "Fabric") -> None:
        self.host_id = host_id
        self.leaf = leaf
        self.fabric = fabric
        self.lb: Optional["LoadBalancer"] = None

    def receive(self, packet: Packet) -> None:
        """Dispatch an arriving packet to the right consumer."""
        kind = packet.kind
        if kind == PacketKind.DATA or kind == PacketKind.UDP:
            flow = self.fabric.flows.get(packet.flow_id)
            if flow is not None:
                flow.on_data(packet)
        elif kind == PacketKind.ACK:
            flow = self.fabric.flows.get(packet.flow_id)
            if flow is not None:
                flow.on_ack(packet)
        elif kind == PacketKind.PROBE:
            reply = self.fabric.packet_pool.probe_reply(packet)
            self.fabric.send(reply)
        elif kind == PacketKind.PROBE_REPLY:
            owner = self.fabric._probe_owners.get((self.host_id, packet.flow_id))
            if owner is not None:
                owner[0](packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.host_id} @leaf{self.leaf})"
