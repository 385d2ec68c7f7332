"""Packet model.

A single mutable packet object travels the whole route (no copying): the
fabric is single-threaded, and ownership passes hop by hop.  ACKs, probes
and probe replies are separate packet instances.
"""

from __future__ import annotations

from typing import Tuple


class PacketKind:
    """Integer packet-kind tags (cheaper than an Enum in the hot path)."""

    DATA = 0
    ACK = 1
    PROBE = 2
    PROBE_REPLY = 3
    UDP = 4

    NAMES = {0: "DATA", 1: "ACK", 2: "PROBE", 3: "PROBE_REPLY", 4: "UDP"}


HEADER_BYTES = 40
ACK_BYTES = 64
PROBE_BYTES = 64

#: Priority levels for the strict-priority queues.  The paper's testbed
#: classifies pure ACKs into the high-priority queue for accurate RTT
#: measurement; we do the same for ACKs and probe replies.
PRIO_HIGH = 0
PRIO_LOW = 1


class Packet:
    """A packet in flight.

    Attributes:
        flow_id: owning flow (or probe id for probe packets).
        src / dst: host ids.
        seq: data packet index within the flow (-1 for control packets).
        size: wire size in bytes (headers included).
        kind: one of :class:`PacketKind`.
        ack_seq: cumulative ACK (first not-yet-received seq), ACKs only.
        path_id: spine index chosen by the sender (-1 = intra-rack).
        ce: congestion-experienced mark set by queues (ECN CE codepoint).
        ece: ECN echo carried by ACKs / probe replies.
        ts_echo: sender timestamp, echoed back for RTT measurement.
        is_retx: True if this transmission is a retransmission.
        conga_metric: max quantized DRE utilization along the forward path
            (stamped by ports; used by CONGA feedback).
        route: tuple of :class:`OutputPort` the packet still traverses.
        hop: index of the *current* port in ``route``.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "seq",
        "size",
        "kind",
        "ack_seq",
        "path_id",
        "ecn_capable",
        "ce",
        "ece",
        "ts_echo",
        "is_retx",
        "priority",
        "conga_metric",
        "route",
        "hop",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        size: int,
        kind: int,
        path_id: int = -1,
        ecn_capable: bool = True,
        priority: int = PRIO_LOW,
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.size = size
        self.kind = kind
        self.ack_seq = -1
        self.path_id = path_id
        self.ecn_capable = ecn_capable
        self.ce = False
        self.ece = False
        self.ts_echo = 0
        self.is_retx = False
        self.priority = priority
        self.conga_metric = 0
        self.route: Tuple = ()
        self.hop = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = PacketKind.NAMES.get(self.kind, "?")
        return (
            f"Packet({kind} flow={self.flow_id} {self.src}->{self.dst} "
            f"seq={self.seq} path={self.path_id} size={self.size})"
        )


def clone_packet(packet: Packet) -> Packet:
    """A plain (never pooled) field-for-field copy.

    Used where a component must *retain* packet state past the deliver/
    drop point — e.g. the reorder-masking receiver's gap timer — without
    holding the live object that the fabric's pool may recycle.
    """
    copy = Packet(
        flow_id=packet.flow_id,
        src=packet.src,
        dst=packet.dst,
        seq=packet.seq,
        size=packet.size,
        kind=packet.kind,
        path_id=packet.path_id,
        ecn_capable=packet.ecn_capable,
        priority=packet.priority,
    )
    copy.ack_seq = packet.ack_seq
    copy.ce = packet.ce
    copy.ece = packet.ece
    copy.ts_echo = packet.ts_echo
    copy.is_retx = packet.is_retx
    copy.conga_metric = packet.conga_metric
    return copy


class PacketPool:
    """Free list of :class:`Packet` objects.

    Ownership contract (see DESIGN.md "Pooling lifecycle"): a packet
    belongs to the fabric from ``send()`` until it is delivered or
    dropped.  At that point the fabric releases it back here, and **no
    component may retain the reference** — copy the scalars you need (as
    every load balancer and transport already does) or
    :func:`clone_packet` it.  Pooling is bypassed entirely while
    observation hooks (checker/tracer) are attached, because the
    invariant checker tracks packets by identity.
    """

    __slots__ = ("_free", "allocated", "reused", "released")

    def __init__(self) -> None:
        self._free: list = []
        #: Fresh constructions (pool was empty).
        self.allocated = 0
        #: Acquisitions served from the free list.
        self.reused = 0
        #: Packets returned via :meth:`release`.
        self.released = 0

    def acquire(
        self,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        size: int,
        kind: int,
        path_id: int = -1,
        ecn_capable: bool = True,
        priority: int = PRIO_LOW,
    ) -> Packet:
        """A packet with *every* field reset — bit-for-bit what the
        ``Packet`` constructor would produce."""
        free = self._free
        if free:
            self.reused += 1
            packet = free.pop()
            packet.flow_id = flow_id
            packet.src = src
            packet.dst = dst
            packet.seq = seq
            packet.size = size
            packet.kind = kind
            packet.ack_seq = -1
            packet.path_id = path_id
            packet.ecn_capable = ecn_capable
            packet.ce = False
            packet.ece = False
            packet.ts_echo = 0
            packet.is_retx = False
            packet.priority = priority
            packet.conga_metric = 0
            packet.route = ()
            packet.hop = 0
            return packet
        self.allocated += 1
        return Packet(
            flow_id, src, dst, seq, size, kind,
            path_id=path_id, ecn_capable=ecn_capable, priority=priority,
        )

    def release(self, packet: Packet) -> None:
        """Return a packet to the free list.  The caller forfeits the
        reference; the route tuple is dropped so ports are not pinned."""
        packet.route = ()
        self.released += 1
        self._free.append(packet)

    # ------------------------------------------------------------------ #
    # Control-packet construction (pooled mirrors of the make_* builders)
    # ------------------------------------------------------------------ #

    def ack(self, data: Packet, ack_seq: int, now: int) -> Packet:
        """Pooled :func:`make_ack`."""
        ack = self.acquire(
            data.flow_id, data.dst, data.src, data.seq, ACK_BYTES,
            PacketKind.ACK, path_id=data.path_id, ecn_capable=False,
            priority=PRIO_HIGH,
        )
        ack.ack_seq = ack_seq
        ack.ece = data.ce
        ack.ts_echo = data.ts_echo
        ack.is_retx = data.is_retx
        ack.conga_metric = data.conga_metric
        return ack

    def probe(
        self, probe_id: int, src: int, dst: int, path_id: int, now: int
    ) -> Packet:
        """Pooled :func:`make_probe`."""
        probe = self.acquire(
            probe_id, src, dst, -1, PROBE_BYTES, PacketKind.PROBE,
            path_id=path_id, ecn_capable=True, priority=PRIO_LOW,
        )
        probe.ts_echo = now
        return probe

    def probe_reply(self, probe: Packet) -> Packet:
        """Pooled :func:`make_probe_reply`."""
        reply = self.acquire(
            probe.flow_id, probe.dst, probe.src, -1, PROBE_BYTES,
            PacketKind.PROBE_REPLY, path_id=probe.path_id,
            ecn_capable=False, priority=PRIO_HIGH,
        )
        reply.ece = probe.ce
        reply.ts_echo = probe.ts_echo
        return reply

    def stats(self) -> dict:
        return {
            "allocated": self.allocated,
            "reused": self.reused,
            "released": self.released,
            "free": len(self._free),
        }


def make_ack(data: Packet, ack_seq: int, now: int) -> Packet:
    """Build the ACK for a received data packet.

    The ACK echoes the data packet's CE mark (``ece``), path id, and the
    sender timestamp, and travels the *same* spine in the reverse direction
    so RTT measurements reflect the probed path.
    """
    ack = Packet(
        flow_id=data.flow_id,
        src=data.dst,
        dst=data.src,
        seq=data.seq,
        size=ACK_BYTES,
        kind=PacketKind.ACK,
        path_id=data.path_id,
        ecn_capable=False,
        priority=PRIO_HIGH,
    )
    ack.ack_seq = ack_seq
    ack.ece = data.ce
    ack.ts_echo = data.ts_echo
    ack.is_retx = data.is_retx  # Karn's rule: RTO ignores retransmit samples
    ack.conga_metric = data.conga_metric
    return ack


def make_probe(probe_id: int, src: int, dst: int, path_id: int, now: int) -> Packet:
    """Build a probe packet (64 B, travels the normal-priority queue so it
    experiences real queueing delay and ECN marking)."""
    probe = Packet(
        flow_id=probe_id,
        src=src,
        dst=dst,
        seq=-1,
        size=PROBE_BYTES,
        kind=PacketKind.PROBE,
        path_id=path_id,
        ecn_capable=True,
        priority=PRIO_LOW,
    )
    probe.ts_echo = now
    return probe


def make_probe_reply(probe: Packet) -> Packet:
    """Build the reply for a probe: high priority, echoes CE and timestamp."""
    reply = Packet(
        flow_id=probe.flow_id,
        src=probe.dst,
        dst=probe.src,
        seq=-1,
        size=PROBE_BYTES,
        kind=PacketKind.PROBE_REPLY,
        path_id=probe.path_id,
        ecn_capable=False,
        priority=PRIO_HIGH,
    )
    reply.ece = probe.ce
    reply.ts_echo = probe.ts_echo
    return reply
