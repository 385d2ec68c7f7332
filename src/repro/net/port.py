"""Output port: a strict-priority drop-tail queue feeding a serializing link.

Each port models one directed link of the fabric: the switch/host output
queue, the serialization delay (``size * 8 / rate``), and the propagation
delay.  ECN CE marking happens at enqueue when the instantaneous backlog
exceeds the marking threshold, which is how commodity switches implement
DCTCP-style marking.

The port also carries a DRE (Discounting Rate Estimator) — the
exponentially decayed byte counter CONGA uses to estimate link utilization
— implemented lazily (decay computed on read) so it costs no timer events.
It runs only after :meth:`OutputPort.enable_dre`, which CONGA's installer
calls on every port; the other schemes never read it and never pay for it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, List, Optional, Tuple, TYPE_CHECKING

from repro.net.packet import Packet, PacketKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Number of strict priority levels (0 = highest).
NUM_PRIORITIES = 2

#: CONGA quantizes DRE utilization to 3 bits.
DRE_QUANTA = 7


class OutputPort:
    """A unidirectional link with a strict-priority drop-tail queue.

    Args:
        sim: the event engine.
        name: human-readable name, e.g. ``"leaf0->spine2"``.
        rate_bps: link rate in bits/second.
        prop_delay_ns: propagation delay in nanoseconds.
        buffer_bytes: shared buffer across priorities; excess is dropped.
        ecn_threshold_bytes: CE-mark arriving ECN-capable packets when the
            backlog exceeds this (0 disables marking).
        forward: callback invoked when a packet has fully arrived at the
            other end of the link.
        dre_tau_ns: time constant of the DRE utilization estimator.
    """

    __slots__ = (
        "sim",
        "name",
        "rate_bps",
        "_rate_num",
        "_rate_den",
        "_tx_cache",
        "_post",
        "_tx_done_bound",
        "_guarded",
        "_inflight",
        "prop_delay_ns",
        "buffer_bytes",
        "ecn_threshold_bytes",
        "forward",
        "_queues",
        "backlog_bytes",
        "busy",
        "admin_down",
        "drop_predicates",
        "bytes_sent",
        "pkts_sent",
        "drops_overflow",
        "drops_injected",
        "drops_linkdown",
        "max_backlog",
        "dre_tau_ns",
        "_dre_on",
        "_dre_value",
        "_dre_last",
        "ecn_marks",
        "_checker",
        "_tracer",
    )

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        rate_bps: float,
        prop_delay_ns: int,
        buffer_bytes: int,
        ecn_threshold_bytes: int,
        forward: Optional[Callable[[Packet], None]] = None,
        dre_tau_ns: int = 100_000,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        self.sim = sim
        self.name = name
        self.rate_bps = rate_bps
        # Exact serialization time: express the (possibly float) rate as
        # an exact integer ratio so tx times are pure integer arithmetic —
        # bit-reproducible across platforms, as the engine promises.  The
        # common case (integral bps) has den == 1.
        self._rate_num, self._rate_den = rate_bps.as_integer_ratio()
        self._tx_cache: dict = {}
        # Both events of a transmission (completion, then arrival at the
        # far end) are posted: nobody cancels either.  Bound methods are
        # cached once — ``self._tx_done`` per packet would allocate one.
        # The packet on the wire rides in ``_inflight`` (``None`` if idle).
        self._post = sim.post
        self._tx_done_bound = self._tx_done
        self._inflight: Optional[Packet] = None
        self.prop_delay_ns = prop_delay_ns
        self.buffer_bytes = buffer_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.forward = forward
        self._queues: List[deque] = [deque() for _ in range(NUM_PRIORITIES)]
        self.backlog_bytes = 0
        self.busy = False
        #: Admin-down (scheduled ``link_down``): new arrivals are dropped,
        #: queued packets stall, the in-flight packet drains normally.
        self.admin_down = False
        #: Installed failure predicates ``(packet, now) -> drop?``.  A
        #: tuple so the only writers are add/remove_drop_predicate, which
        #: keep ``_guarded`` honest; read it freely (``in``, truthiness).
        self.drop_predicates: Tuple[Callable[[Packet, int], bool], ...] = ()
        # Statistics.
        self.bytes_sent = 0
        self.pkts_sent = 0
        self.drops_overflow = 0
        self.drops_injected = 0
        self.drops_linkdown = 0
        self.max_backlog = 0
        self.ecn_marks = 0
        # DRE state (idle until enable_dre()).
        self.dre_tau_ns = dre_tau_ns
        self._dre_on = False
        self._dre_value = 0.0
        self._dre_last = 0
        #: Optional invariant checker (see :mod:`repro.validate`); one
        #: ``is not None`` branch per enqueue/dequeue when disabled.
        #: Attach via :func:`repro.hooks.attach`.
        self._checker = None
        #: Optional tracer (see :mod:`repro.telemetry`): receives drop
        #: callbacks; same nullable zero-cost pattern.
        self._tracer = None
        #: Precomputed "anything watching or failing?" flag: True while
        #: admin-down, drop predicates, a checker or a tracer require the
        #: slow enqueue path.  Kept honest by _refresh_fast_path(),
        #: called from every site that flips one of those inputs.
        self._guarded = False

    def _refresh_fast_path(self) -> None:
        """Recompute the enqueue guard flag.  Every input that can force
        the slow path funnels through here: admin state, failure
        predicates, and :func:`repro.hooks.attach`."""
        self._guarded = (
            self.admin_down
            or bool(self.drop_predicates)
            or self._checker is not None
            or self._tracer is not None
        )

    def add_drop_predicate(
        self, predicate: Callable[[Packet, int], bool]
    ) -> None:
        """Install a failure predicate: every arriving packet for which
        ``predicate(packet, now)`` is true is dropped as *injected*."""
        self.drop_predicates += (predicate,)
        self._refresh_fast_path()

    def remove_drop_predicate(
        self, predicate: Callable[[Packet, int], bool]
    ) -> None:
        """Uninstall one predicate (``ValueError`` if it is not there)."""
        remaining = list(self.drop_predicates)
        remaining.remove(predicate)
        self.drop_predicates = tuple(remaining)
        self._refresh_fast_path()

    # ------------------------------------------------------------------ #
    # Enqueue / transmit
    # ------------------------------------------------------------------ #

    def tx_time_ns(self, size_bytes: int) -> int:
        """Serialization delay for ``size_bytes`` on this link.

        Computed as ``size_bytes * 8 * 10**9 // rate`` in exact integer
        arithmetic (the rate's exact num/den ratio), so the result is
        identical on every platform regardless of FPU behaviour.  Packet
        sizes repeat constantly, so results are memoized per port.
        """
        tx = self._tx_cache.get(size_bytes)
        if tx is None:
            tx = size_bytes * 8_000_000_000 * self._rate_den // self._rate_num
            self._tx_cache[size_bytes] = tx
        return tx

    def enqueue(self, packet: Packet) -> bool:
        """Accept a packet into the queue.

        Returns ``False`` if the packet was dropped (buffer overflow or an
        injected failure); the caller never learns which — exactly like a
        real network, losses surface only through transport timeouts.

        The common case — link up, no failure predicates, no hooks — is
        precomputed into ``_guarded`` so the hot path pays one local
        truthiness check instead of four attribute probes per packet.
        Check order (overflow, then ECN) matches the guarded path
        exactly, so results are identical.  The two bodies stay apart on
        measurement: folded into one behind the same flag, the port chain
        read about 1 % slower (PR 18, CHANGES.md).
        """
        if self._guarded:
            return self._enqueue_guarded(packet)
        size = packet.size
        backlog = self.backlog_bytes + size
        if backlog > self.buffer_bytes:
            self.drops_overflow += 1
            return False
        if (
            self.ecn_threshold_bytes > 0
            and packet.ecn_capable
            and self.backlog_bytes >= self.ecn_threshold_bytes
        ):
            packet.ce = True
            self.ecn_marks += 1
        self.backlog_bytes = backlog
        if backlog > self.max_backlog:
            self.max_backlog = backlog
        if self.busy:
            self._queues[packet.priority].append(packet)
        else:
            # Idle and unguarded means both queues are empty (only an
            # admin-down stall leaves packets behind an idle link, and
            # that is guarded): the arrival goes straight onto the wire.
            self.busy = True
            self._inflight = packet
            tx = self._tx_cache.get(size)
            if tx is None:
                tx = self.tx_time_ns(size)
            self._post(tx, self._tx_done_bound)
        return True

    def _enqueue_guarded(self, packet: Packet) -> bool:
        """Full enqueue: admin state, failure predicates, hooks — and always
        the deque, so the checker's shadow FIFO sees every packet."""
        if self.admin_down:
            self.drops_linkdown += 1
            if self._checker is not None:
                self._checker.on_injected_drop(self, packet)
            if self._tracer is not None:
                self._tracer.on_drop(self, packet, "link-down")
            return False
        if self.drop_predicates:
            now = self.sim.now
            for predicate in self.drop_predicates:
                if predicate(packet, now):
                    self.drops_injected += 1
                    if self._checker is not None:
                        self._checker.on_injected_drop(self, packet)
                    if self._tracer is not None:
                        self._tracer.on_drop(self, packet, "injected")
                    return False
        size = packet.size
        backlog = self.backlog_bytes + size
        if backlog > self.buffer_bytes:
            self.drops_overflow += 1
            if self._checker is not None:
                self._checker.on_overflow_drop(self, packet)
            if self._tracer is not None:
                self._tracer.on_drop(self, packet, "overflow")
            return False
        if (
            self.ecn_threshold_bytes > 0
            and packet.ecn_capable
            and self.backlog_bytes >= self.ecn_threshold_bytes
        ):
            packet.ce = True
            self.ecn_marks += 1
        self.backlog_bytes = backlog
        if backlog > self.max_backlog:
            self.max_backlog = backlog
        self._queues[packet.priority].append(packet)
        if self._checker is not None:
            self._checker.on_enqueued(self, packet, backlog - size)
        if not self.busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        """Begin serializing the head-of-line packet (strict priority) on
        a link that is up and idle.

        The cold entry to the tx chain (guarded enqueue on an idle link,
        admin-up resume); :meth:`_tx_done` and the unguarded idle
        :meth:`enqueue` carry the same steps in line.  Whoever posts it,
        a packet put on the wire draws one sequence number.
        """
        for queue in self._queues:
            if queue:
                packet = queue.popleft()
                self.busy = True
                self._inflight = packet
                self._post(self.tx_time_ns(packet.size), self._tx_done_bound)
                return
        self.busy = False
        self._inflight = None

    def _tx_done(self) -> None:
        """The last bit has left: account, stamp DRE (if on), propagate,
        then put the next head-of-line packet on the wire.

        Runs once per transmitted packet, so it calls nothing it can do
        itself: the arrival is posted to ``forward`` and the next
        completion from here (``tx_time_ns()`` only on a memo miss).
        """
        packet = self._inflight
        size = packet.size
        self.backlog_bytes -= size
        self.bytes_sent += size
        self.pkts_sent += 1
        if self._dre_on:
            self._dre_add(size)
            kind = packet.kind
            if kind == PacketKind.DATA or kind == PacketKind.UDP:
                metric = self.dre_quantized()
                if metric > packet.conga_metric:
                    packet.conga_metric = metric
        if self._checker is not None:
            self._checker.on_tx_done(self, packet)
        if self.forward is not None:
            self._post(self.prop_delay_ns, self.forward, packet)
        if not self.admin_down:
            for queue in self._queues:
                if queue:
                    packet = queue.popleft()
                    self._inflight = packet
                    tx = self._tx_cache.get(packet.size)
                    if tx is None:
                        tx = self.tx_time_ns(packet.size)
                    self._post(tx, self._tx_done_bound)
                    return
        # Nothing queued, or admin-down (the queue stalls until the link
        # is up again): the wire is idle and holds no packet.
        self.busy = False
        self._inflight = None

    # ------------------------------------------------------------------ #
    # Runtime reconfiguration (the dynamic fault plane)
    # ------------------------------------------------------------------ #

    def set_rate(self, rate_bps: float) -> None:
        """Change the link rate at the current instant.

        Takes effect for the *next* packet to start serializing; the
        packet already on the wire finishes at its old rate (its tx-done
        event is committed).  The memoized serialization times are
        recomputed lazily from the new exact integer ratio.
        """
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if rate_bps == self.rate_bps:
            return
        self.rate_bps = rate_bps
        self._rate_num, self._rate_den = rate_bps.as_integer_ratio()
        self._tx_cache.clear()

    def set_admin_down(self, down: bool) -> None:
        """Take the link administratively down (or bring it back up).

        Down: new arrivals are dropped (no carrier), already-queued
        packets stall in place, and the packet currently serializing
        drains normally — deterministic, no event cancellation.  Up:
        transmission of the stalled backlog resumes immediately.
        """
        if down == self.admin_down:
            return
        self.admin_down = down
        self._refresh_fast_path()
        if not down and not self.busy:
            self._start_next()

    # ------------------------------------------------------------------ #
    # DRE utilization estimator (CONGA §4; lazy exponential decay)
    # ------------------------------------------------------------------ #

    def enable_dre(self) -> None:
        """Start the estimator, from zero at ``sim.now`` (idempotent).

        Whoever reads ``dre_*()`` or ``packet.conga_metric`` calls this on
        the ports it needs — in its installer, before the first packet.
        """
        if not self._dre_on:
            self._dre_on = True
            self._dre_last = self.sim.now

    def _dre_decay(self, now: int) -> None:
        dt = now - self._dre_last
        if dt > 0:
            self._dre_value *= math.exp(-dt / self.dre_tau_ns)
            self._dre_last = now

    def _dre_add(self, size_bytes: int) -> None:
        self._dre_decay(self.sim.now)
        self._dre_value += size_bytes

    def dre_utilization(self) -> float:
        """Estimated utilization in [0, ~1+]: decayed bytes over ``tau * C``."""
        if not self._dre_on:
            raise RuntimeError(
                f"DRE is off on port {self.name}; call enable_dre() first"
            )
        self._dre_decay(self.sim.now)
        capacity_bytes = self.rate_bps / 8.0 * (self.dre_tau_ns / 1e9)
        return self._dre_value / capacity_bytes

    def dre_quantized(self) -> int:
        """3-bit quantized utilization, the metric CONGA carries."""
        util = self.dre_utilization()
        return min(DRE_QUANTA, int(util * DRE_QUANTA + 0.5))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def total_drops(self) -> int:
        """All losses at this port, injected failures included."""
        return self.drops_overflow + self.drops_injected + self.drops_linkdown

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OutputPort({self.name} {self.rate_bps / 1e9:.1f}Gbps "
            f"backlog={self.backlog_bytes}B)"
        )
