"""Constant-rate UDP source.

Used by the congestion-mismatch microbenchmarks (paper Fig. 2: a 9 Gbps
rate-limited UDP flow shares the fabric with a sprayed DCTCP flow).  The
receiver side counts delivered bytes, from which
:meth:`UdpFlow.mean_goodput_gbps` gives the delivered rate.
"""

from __future__ import annotations

import zlib
from typing import Optional, TYPE_CHECKING

from repro.net.packet import HEADER_BYTES, PacketKind
from repro.transport.base import FlowBase

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric


class UdpFlow(FlowBase):
    """Open-loop UDP sender pacing packets at a fixed rate.

    Args:
        rate_bps: sending rate.
        duration_ns: stop sending after this long (``None`` = forever).
        packet_bytes: wire size per packet.
        fixed_path: pin all packets to one spine; if ``None``, the host's
            load-balancing agent is consulted per packet (so UDP can be
            sprayed by Presto/DRB like any other traffic).
    """

    def __init__(
        self,
        fabric: "Fabric",
        src: int,
        dst: int,
        rate_bps: float,
        duration_ns: Optional[int] = None,
        packet_bytes: int = 1500,
        fixed_path: Optional[int] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"UDP rate must be positive, got {rate_bps}")
        if packet_bytes <= HEADER_BYTES:
            raise ValueError("packet size must exceed the header")
        expected = (
            int(rate_bps / 8 * duration_ns / 1e9) if duration_ns else 1 << 60
        )
        super().__init__(fabric, src, dst, max(expected, 1))
        self.rate_bps = rate_bps
        self.duration_ns = duration_ns
        self.packet_bytes = packet_bytes
        self.fixed_path = fixed_path
        self.interval_ns = int(packet_bytes * 8 * 1e9 / rate_bps)
        self.rx_bytes = 0
        self._last_rx_ns = 0
        self._seq = 0
        self._intra_rack = (
            fabric.topology.leaf_of(src) == fabric.topology.leaf_of(dst)
        )
        self._fallback_path: Optional[int] = None
        # One pacing timer, re-armed per tick (no per-packet Event
        # allocation; a re-arm draws a fresh sequence number, so dispatch
        # order is identical to scheduling a new event).
        self._tick_event = self.sim.timer(self._tick)

    def start(self) -> None:
        self.start_time = self.sim.now
        self._tick()

    def stop(self) -> None:
        """Stop sending (receiver statistics stay available)."""
        self.finish_time = self.sim.now

    def _select_path(self, wire_bytes: int) -> int:
        if self._intra_rack:
            return -1
        if self.fixed_path is not None:
            return self.fixed_path
        agent = self.fabric.hosts[self.src].lb
        if agent is not None:
            return agent.select_path(self, wire_bytes)
        if self._fallback_path is None:
            paths = self.fabric.topology.paths_between_hosts(self.src, self.dst)
            digest = zlib.crc32(f"udp:{self.flow_id}".encode())
            self._fallback_path = paths[digest % len(paths)]
        return self._fallback_path

    def _tick(self) -> None:
        if self.finished:
            return
        if (
            self.duration_ns is not None
            and self.start_time is not None
            and self.sim.now - self.start_time >= self.duration_ns
        ):
            self.finish_time = self.sim.now
            return
        path = self._select_path(self.packet_bytes)
        self.current_path = path
        packet = self.fabric.packet_pool.acquire(
            self.flow_id, self.src, self.dst, self._seq, self.packet_bytes,
            PacketKind.UDP, path_id=path,
        )
        self._seq += 1
        self.pkts_sent += 1
        self.bytes_sent += self.packet_bytes - HEADER_BYTES
        self.last_tx_time = self.sim.now
        self._rate_add(self.packet_bytes)
        self.fabric.send(packet)
        self.sim.rearm(self._tick_event, self.interval_ns)

    # ------------------------------------------------------------------ #
    # Receiver
    # ------------------------------------------------------------------ #

    def on_data(self, packet: Packet) -> None:
        self.rx_bytes += packet.size
        self._last_rx_ns = self.sim.now

    def on_ack(self, packet: Packet) -> None:  # pragma: no cover - no ACKs
        pass

    def mean_goodput_gbps(self) -> float:
        """Average received rate from first send to last receive (queued
        packets that drain after the sender stops still count as the
        bottleneck delivering them, not as extra rate)."""
        if self.start_time is None:
            return 0.0
        end = self.finish_time if self.finish_time is not None else self.sim.now
        end = max(end, self._last_rx_ns)
        elapsed = end - self.start_time
        if elapsed <= 0:
            return 0.0
        return self.rx_bytes * 8 / elapsed
