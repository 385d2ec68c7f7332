"""Receiver-side in-order tracking and ACK policy.

Two policies are provided:

* the default acknowledges every arrival immediately (per-packet ACKs,
  cumulative) — out-of-order arrivals produce duplicate ACKs, which is
  what makes packet spraying hurt plain TCP;
* the *reorder-masking* policy (JUGGLER-style, used for Presto*/DRB in
  the paper's evaluation) suppresses duplicate ACKs while a gap is
  younger than a flush timeout.  If the gap persists (a real loss), the
  receiver emits a burst of duplicate ACKs to trigger fast retransmit.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.net.packet import Packet, clone_packet
from repro.sim.engine import Event, Simulator

#: Duplicate ACKs the sender needs for fast retransmit; the masking
#: receiver's flush burst sends this many.
DUPTHRESH = 3


class Receiver:
    """Tracks in-order delivery and decides when to emit ACKs.

    Args:
        sim: event engine.
        send_ack: callback ``(template_packet, n_copies)`` — emits that
            many identical cumulative ACKs echoing the template's path,
            CE mark and timestamp.
        mask_timeout_ns: if set, reordering is masked: no duplicate ACKs
            until a gap has persisted this long.
    """

    __slots__ = (
        "sim",
        "send_ack",
        "mask_timeout_ns",
        "rcv_next",
        "_ooo",
        "_gap_timer",
    )

    def __init__(
        self,
        sim: Simulator,
        send_ack: Callable[[Packet, int], None],
        mask_timeout_ns: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.send_ack = send_ack
        self.mask_timeout_ns = mask_timeout_ns
        self.rcv_next = 0
        self._ooo: Set[int] = set()
        self._gap_timer: Optional[Event] = None

    @property
    def has_gap(self) -> bool:
        return bool(self._ooo)

    def on_data(self, packet: Packet) -> None:
        """Process one data arrival and emit the appropriate ACK(s)."""
        seq = packet.seq
        if seq == self.rcv_next:
            self.rcv_next += 1
            ooo = self._ooo
            while self.rcv_next in ooo:
                ooo.remove(self.rcv_next)
                self.rcv_next += 1
            if not ooo and self._gap_timer is not None:
                self._gap_timer.cancel()
                self._gap_timer = None
            self.send_ack(packet, 1)
        elif seq > self.rcv_next:
            self._ooo.add(seq)
            if self.mask_timeout_ns is None:
                self.send_ack(packet, 1)  # immediate duplicate ACK
            elif self._gap_timer is None:
                # The timer outlives the delivery: clone the packet so the
                # template survives the fabric recycling the live object
                # (pooling lifecycle — no retention past deliver/drop).
                self._gap_timer = self.sim.schedule(
                    self.mask_timeout_ns, self._flush_gap, clone_packet(packet)
                )
        else:
            # Stale duplicate (e.g. spurious retransmission): ACK it so the
            # sender's cumulative state stays fresh.
            self.send_ack(packet, 1)

    def _flush_gap(self, template: Packet) -> None:
        """A gap outlived the masking window: treat it as a loss and emit
        enough duplicate ACKs to trigger the sender's fast retransmit."""
        self._gap_timer = None
        if not self._ooo:
            return
        self.send_ack(template, DUPTHRESH)
        # Re-arm in case the retransmission is lost too.
        self._gap_timer = self.sim.schedule(
            self.mask_timeout_ns, self._flush_gap, template
        )
