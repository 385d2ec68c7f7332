"""TCP New Reno.

Window-based sender with slow start, congestion avoidance, fast
retransmit / New Reno fast recovery with partial-ACK retransmission, and
RFC 6298 RTO with the paper's 10 ms floor.  The receiver ACKs every data
packet (cumulative ACKs, no delayed ACK) — ACKs travel the reverse of the
data packet's path in the high-priority queue, mirroring the paper's
testbed configuration for accurate RTT measurement.

Every outgoing data packet consults the host's load-balancing agent for a
path, which is what makes per-packet rerouting schemes (Hermes, Presto*,
DRB, DRILL) expressible.
"""

from __future__ import annotations

import zlib
from typing import Optional, TYPE_CHECKING

from repro.net.packet import HEADER_BYTES, Packet, PacketKind
from repro.sim.engine import Event
from repro.transport.base import FlowBase
from repro.transport.reorder import DUPTHRESH, Receiver
from repro.transport.rto import RtoEstimator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric

MSS = 1460  # payload bytes per packet


class TcpFlow(FlowBase):
    """A TCP New Reno flow.

    Args:
        fabric: the network.
        src / dst: endpoint host ids.
        size_bytes: application bytes to transfer.
        init_cwnd: initial window in packets (paper: 10).
        max_cwnd: cap on the congestion window in packets.
        reorder_mask_ns: if set, the receiver masks reordering for this
            long before emitting duplicate ACKs (Presto*/DRB evaluation).
    """

    def __init__(
        self,
        fabric: "Fabric",
        src: int,
        dst: int,
        size_bytes: int,
        init_cwnd: int = 10,
        max_cwnd: float = 800.0,
        reorder_mask_ns: Optional[int] = None,
        min_rto_ns: int = 10_000_000,
    ) -> None:
        super().__init__(fabric, src, dst, size_bytes)
        self.mss = MSS
        self.n_pkts = (size_bytes + MSS - 1) // MSS
        self._last_payload = size_bytes - (self.n_pkts - 1) * MSS
        self.cwnd = float(init_cwnd)
        self.ssthresh = float(max_cwnd)
        self.max_cwnd = max_cwnd
        # Classic TCP is not ECN-capable here; DCTCP flips this on.  The
        # flag propagates to every data packet so switches only CE-mark
        # traffic whose transport will react.
        self.ecn_capable = False
        self.snd_una = 0
        self.snd_nxt = 0
        self.dup_acks = 0
        self.in_recovery = False
        self.recover = 0
        self.rto = RtoEstimator(init_rto_ns=min_rto_ns, min_rto_ns=min_rto_ns)
        self._rto_event: Optional[Event] = None
        self._intra_rack = (
            fabric.topology.leaf_of(src) == fabric.topology.leaf_of(dst)
        )
        self._fallback_path: Optional[int] = None
        # Path each in-flight segment was last sent on, so retransmissions
        # are attributed to the path that lost the packet (Hermes' per-path
        # retransmission accounting depends on this).
        self._path_of: dict[int, int] = {}
        self.receiver = Receiver(
            self.sim, self._emit_ack, mask_timeout_ns=reorder_mask_ns
        )

    # ------------------------------------------------------------------ #
    # Sender
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Record the start time and push the initial window."""
        self.start_time = self.sim.now
        self._maybe_send()

    def _select_path(self, wire_bytes: int) -> int:
        """Ask the host agent for a path (XPath-style source pinning)."""
        if self._intra_rack:
            return -1
        agent = self.fabric.hosts[self.src].lb
        if agent is not None:
            return agent.select_path(self, wire_bytes)
        # No agent installed: static ECMP-like hash so the flow still runs.
        if self._fallback_path is None:
            paths = self.fabric.topology.paths_between_hosts(self.src, self.dst)
            digest = zlib.crc32(f"{self.flow_id}:{self.src}:{self.dst}".encode())
            self._fallback_path = paths[digest % len(paths)]
        return self._fallback_path

    def _transmit(self, seq: int, retx: bool) -> None:
        payload = self.mss if seq < self.n_pkts - 1 else self._last_payload
        wire = payload + HEADER_BYTES
        path = self._select_path(wire)
        self.current_path = path
        packet = self.fabric.packet_pool.acquire(
            self.flow_id, self.src, self.dst, seq, wire, PacketKind.DATA,
            path_id=path, ecn_capable=self.ecn_capable,
        )
        packet.ts_echo = self.sim.now
        packet.is_retx = retx
        self.last_tx_time = self.sim.now
        self.pkts_sent += 1
        if not retx:
            self.bytes_sent += payload
        else:
            self.retx_count += 1
            lost_path = self._path_of.get(seq, path)
            agent = self.fabric.hosts[self.src].lb
            if agent is not None:
                # Blame the path that carried the lost copy, not the one
                # the retransmission happens to use.
                agent.on_retransmit(self, lost_path)
            tracer = self.fabric._tracer
            if tracer is not None:
                tracer.on_retransmit(self, seq, lost_path)
        self._path_of[seq] = path
        self._rate_add(wire)
        self.fabric.send(packet)
        if self._rto_event is None:
            self._arm_rto()

    def _maybe_send(self) -> None:
        """Fill the window with new data."""
        window = max(1, int(self.cwnd))
        while (
            not self.finished
            and self.snd_nxt < self.n_pkts
            and self.snd_nxt - self.snd_una < window
        ):
            self._transmit(self.snd_nxt, retx=False)
            self.snd_nxt += 1

    def on_ack(self, ack: Packet) -> None:
        if self.finished:
            return
        rtt = self.sim.now - ack.ts_echo
        if not ack.is_retx:
            self.rto.update(rtt)
        self._ecn_feedback(ack, rtt)
        agent = self.fabric.hosts[self.src].lb
        if agent is not None:
            agent.on_ack(self, ack.path_id, ack.ece, rtt, ack.is_retx)
            agent.on_path_feedback(self, ack.path_id, ack.conga_metric)
        ack_seq = ack.ack_seq
        if ack_seq > self.snd_una:
            newly = ack_seq - self.snd_una
            for seq in range(self.snd_una, ack_seq):
                self._path_of.pop(seq, None)
            self.snd_una = ack_seq
            self.dup_acks = 0
            if self.in_recovery:
                if ack_seq >= self.recover:
                    self.in_recovery = False
                    self.cwnd = self.ssthresh
                else:
                    # New Reno partial ACK: retransmit the next hole,
                    # deflate by the amount acked.
                    self._transmit(self.snd_una, retx=True)
                    self.cwnd = max(self.cwnd - newly + 1.0, 1.0)
            else:
                self._increase_cwnd(newly)
            self._restart_rto()
            if self.snd_una >= self.n_pkts:
                self._complete()
                return
        elif ack_seq == self.snd_una and self.snd_nxt > self.snd_una:
            self.dup_acks += 1
            if self.in_recovery:
                self.cwnd += 1.0  # window inflation per extra dup ACK
            elif self.dup_acks >= DUPTHRESH:
                self._enter_recovery()
        self._maybe_send()

    def _increase_cwnd(self, newly_acked: int) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + newly_acked, self.max_cwnd)
        else:
            self.cwnd = min(self.cwnd + newly_acked / self.cwnd, self.max_cwnd)

    def _enter_recovery(self) -> None:
        flight = self.snd_nxt - self.snd_una
        self.ssthresh = max(flight / 2.0, 2.0)
        self.cwnd = self.ssthresh + float(DUPTHRESH)
        self.in_recovery = True
        self.recover = self.snd_nxt
        self._transmit(self.snd_una, retx=True)

    def _ecn_feedback(self, ack: Packet, rtt_ns: int) -> None:
        """ECN reaction hook — New Reno ignores ECE; DCTCP overrides."""

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #

    def _arm_rto(self) -> None:
        # At most one live RTO event per flow, enforced here: an orphaned
        # second event fires as a phantom timeout whose handler re-arms
        # itself, multiplying events under sustained timeouts (_on_rto
        # used to double-arm via _transmit's tail plus its own call).
        if self._rto_event is not None:
            self._rto_event.cancel()
        # A handle, not a post: the next ACK cancels it.
        self._rto_event = self.sim.schedule(self.rto.rto_ns, self._on_rto)

    def _restart_rto(self) -> None:
        self._arm_rto()

    def _on_rto(self) -> None:
        self._rto_event = None
        if self.finished or self.snd_una >= self.n_pkts:
            return
        self.timeout_count += 1
        self.if_timeout = True  # Hermes reroutes this flow at the next packet
        self.rto.backoff()
        flight = self.snd_nxt - self.snd_una
        self.ssthresh = max(flight / 2.0, 2.0)
        self.cwnd = 1.0
        self.in_recovery = False
        self.dup_acks = 0
        agent = self.fabric.hosts[self.src].lb
        if agent is not None:
            agent.on_timeout(self, self.current_path)
        tracer = self.fabric._tracer
        if tracer is not None:
            tracer.on_timeout(self, self.current_path)
        # Go-back-N restart from the first unacked segment.
        self.snd_nxt = self.snd_una + 1
        self._transmit(self.snd_una, retx=True)
        self._arm_rto()

    def _complete(self) -> None:
        self.finish_time = self.sim.now
        self._path_of.clear()
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        agent = self.fabric.hosts[self.src].lb
        if agent is not None:
            agent.on_flow_done(self)
        self.fabric.flow_finished(self)

    # ------------------------------------------------------------------ #
    # Receiver
    # ------------------------------------------------------------------ #

    def on_data(self, packet: Packet) -> None:
        self.receiver.on_data(packet)

    def _emit_ack(self, template: Packet, copies: int) -> None:
        pool = self.fabric.packet_pool
        for _ in range(copies):
            ack = pool.ack(template, self.receiver.rcv_next, self.sim.now)
            self.fabric.send(ack)
