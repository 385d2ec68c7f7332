"""Structured event tracer: a bounded ring buffer of typed trace records.

The tracer observes the whole life of the simulation — packet movements
(send / hop / deliver / drop), flow lifecycle (start / finish), and
transport recovery (timeout / retransmit) — through the same nullable
hook pattern :mod:`repro.validate` uses: every hook site in the runtime
is one ``is not None`` branch on an attribute that defaults to ``None``,
so an untraced run pays nothing.

Records live in a ``deque(maxlen=capacity)`` ring buffer: tracing a run
that produces more events than the capacity silently evicts the oldest
records (the count of evictions is reported, never hidden), which bounds
memory for arbitrarily long simulations.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.net.port import OutputPort
    from repro.sim.engine import Simulator
    from repro.transport.base import FlowBase

# Trace record kinds (ints in the hot path, names at the export edge).
EV_SEND = 0
EV_HOP = 1
EV_DELIVER = 2
EV_DROP = 3
EV_FLOW_START = 4
EV_FLOW_FINISH = 5
EV_TIMEOUT = 6
EV_RETRANSMIT = 7
EV_FAULT = 8

KIND_NAMES = {
    EV_SEND: "send",
    EV_HOP: "hop",
    EV_DELIVER: "deliver",
    EV_DROP: "drop",
    EV_FLOW_START: "flow_start",
    EV_FLOW_FINISH: "flow_finish",
    EV_TIMEOUT: "timeout",
    EV_RETRANSMIT: "retx",
    EV_FAULT: "fault",
}


class TraceRecord:
    """One observed event.

    ``kind_id`` is the integer tag; :attr:`kind` is its exported name.
    Packet fields are ``-1``/``None`` for flow-lifecycle records, and
    ``note`` carries the drop reason ("overflow"/"injected") or other
    short context.
    """

    __slots__ = (
        "time_ns",
        "kind_id",
        "flow_id",
        "packet_kind",
        "src",
        "dst",
        "seq",
        "path_id",
        "size",
        "port",
        "note",
    )

    def __init__(
        self,
        time_ns: int,
        kind_id: int,
        flow_id: int,
        packet_kind: int = -1,
        src: int = -1,
        dst: int = -1,
        seq: int = -1,
        path_id: int = -1,
        size: int = 0,
        port: Optional[str] = None,
        note: Optional[str] = None,
    ) -> None:
        self.time_ns = time_ns
        self.kind_id = kind_id
        self.flow_id = flow_id
        self.packet_kind = packet_kind
        self.src = src
        self.dst = dst
        self.seq = seq
        self.path_id = path_id
        self.size = size
        self.port = port
        self.note = note

    @property
    def kind(self) -> str:
        return KIND_NAMES.get(self.kind_id, "?")

    @property
    def packet_kind_name(self) -> str:
        from repro.net.packet import PacketKind

        return PacketKind.NAMES.get(self.packet_kind, "-")

    def to_dict(self) -> Dict:
        """JSON-ready form (used by the JSONL/CSV/Perfetto exporters)."""
        return {
            "t": self.time_ns,
            "kind": self.kind,
            "flow": self.flow_id,
            "pkt": self.packet_kind_name,
            "src": self.src,
            "dst": self.dst,
            "seq": self.seq,
            "path": self.path_id,
            "size": self.size,
            "port": self.port,
            "note": self.note,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceRecord(t={self.time_ns} {self.kind} flow={self.flow_id} "
            f"seq={self.seq} path={self.path_id} port={self.port})"
        )


class TracerHooks:
    """The hook protocol the runtime calls on ``fabric.tracer`` /
    ``port.tracer``.  Every method is a no-op here; subclasses override
    what they care about (:class:`EventTracer` records everything)."""

    def on_send(self, packet: "Packet") -> None:
        """``Fabric.send`` injected a packet at its source."""

    def on_forward(self, packet: "Packet") -> None:
        """``Fabric.forward`` is about to advance a packet one hop (or
        deliver it, when the route is exhausted)."""

    def on_drop(self, port: "OutputPort", packet: "Packet", reason: str) -> None:
        """A port dropped a packet (``reason``: overflow / injected)."""

    def on_flow_start(self, flow: "FlowBase") -> None:
        """A flow was registered with the fabric."""

    def on_flow_finish(self, flow: "FlowBase") -> None:
        """A flow completed."""

    def on_timeout(self, flow: "FlowBase", path_id: int) -> None:
        """A sender RTO fired while the flow was pinned to ``path_id``."""

    def on_retransmit(self, flow: "FlowBase", seq: int, path_id: int) -> None:
        """A segment was retransmitted; ``path_id`` carried the lost copy."""

    def on_fault(self, record) -> None:
        """The fault plane applied or reverted a scheduled fault
        (``record``: a :class:`repro.faults.plane.FaultRecord`)."""


class EventTracer(TracerHooks):
    """Bounded structured tracer.

    Args:
        sim: the event engine (for timestamps).
        capacity: ring-buffer size; the oldest records are evicted past
            this (:attr:`evicted` counts how many).
        predicate: record only packets for which this returns True
            (flow-lifecycle and timeout/retx records are always kept —
            they are rare and usually the reason you are tracing).
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: int = 1_000_000,
        predicate: Optional[Callable[["Packet"], bool]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.predicate = predicate
        self._ring: deque = deque(maxlen=capacity)
        self.recorded = 0
        self.counts: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _append(self, record: TraceRecord) -> None:
        self.recorded += 1
        self.counts[record.kind_id] = self.counts.get(record.kind_id, 0) + 1
        self._ring.append(record)

    def _packet_record(
        self, kind_id: int, packet: "Packet", port: Optional[str],
        note: Optional[str] = None,
    ) -> None:
        if self.predicate is not None and not self.predicate(packet):
            return
        self._append(
            TraceRecord(
                self.sim.now,
                kind_id,
                packet.flow_id,
                packet_kind=packet.kind,
                src=packet.src,
                dst=packet.dst,
                seq=packet.seq,
                path_id=packet.path_id,
                size=packet.size,
                port=port,
                note=note,
            )
        )

    # Hook implementations -------------------------------------------- #

    def on_send(self, packet: "Packet") -> None:
        port = packet.route[0].name if packet.route else None
        self._packet_record(EV_SEND, packet, port)

    def on_forward(self, packet: "Packet") -> None:
        nxt = packet.hop + 1
        if nxt < len(packet.route):
            self._packet_record(EV_HOP, packet, packet.route[nxt].name)
        else:
            self._packet_record(EV_DELIVER, packet, None)

    def on_drop(self, port: "OutputPort", packet: "Packet", reason: str) -> None:
        self._packet_record(EV_DROP, packet, port.name, note=reason)

    def on_flow_start(self, flow: "FlowBase") -> None:
        self._append(
            TraceRecord(
                self.sim.now,
                EV_FLOW_START,
                flow.flow_id,
                src=flow.src,
                dst=flow.dst,
                size=flow.size_bytes,
            )
        )

    def on_flow_finish(self, flow: "FlowBase") -> None:
        fct = flow.fct_ns
        self._append(
            TraceRecord(
                self.sim.now,
                EV_FLOW_FINISH,
                flow.flow_id,
                src=flow.src,
                dst=flow.dst,
                size=flow.size_bytes,
                note=None if fct is None else f"fct_ns={fct}",
            )
        )

    def on_timeout(self, flow: "FlowBase", path_id: int) -> None:
        self._append(
            TraceRecord(
                self.sim.now,
                EV_TIMEOUT,
                flow.flow_id,
                src=flow.src,
                dst=flow.dst,
                path_id=path_id,
            )
        )

    def on_retransmit(self, flow: "FlowBase", seq: int, path_id: int) -> None:
        self._append(
            TraceRecord(
                self.sim.now,
                EV_RETRANSMIT,
                flow.flow_id,
                src=flow.src,
                dst=flow.dst,
                seq=seq,
                path_id=path_id,
            )
        )

    def on_fault(self, record) -> None:
        self._append(
            TraceRecord(
                self.sim.now,
                EV_FAULT,
                -1,
                port=record.target,
                note=f"{record.action} {record.phase}",
            )
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def events(self) -> List[TraceRecord]:
        """The retained records, oldest first."""
        return list(self._ring)

    @property
    def evicted(self) -> int:
        """Records pushed out of the ring by newer ones."""
        return self.recorded - len(self._ring)

    @property
    def truncated(self) -> bool:
        return self.evicted > 0

    def counts_by_kind(self) -> Dict[str, int]:
        """Total records *observed* per kind (eviction-independent)."""
        return {KIND_NAMES[k]: v for k, v in sorted(self.counts.items())}

    def paths_used(self, flow_id: int) -> List[int]:
        """Distinct path ids a flow's data packets used, in first-use order."""
        from repro.net.packet import PacketKind

        seen: List[int] = []
        for record in self._ring:
            if (
                record.flow_id == flow_id
                and record.kind_id == EV_SEND
                and record.packet_kind in (PacketKind.DATA, PacketKind.UDP)
                and record.path_id not in seen
            ):
                seen.append(record.path_id)
        return seen

    def deliveries(self, flow_id: Optional[int] = None) -> int:
        """Count of retained final-hop deliveries (optionally per flow)."""
        return sum(
            1
            for record in self._ring
            if record.kind_id == EV_DELIVER
            and (flow_id is None or record.flow_id == flow_id)
        )

    def iter_dicts(self) -> Iterator[Dict]:
        for record in self._ring:
            yield record.to_dict()

    def summary(self) -> Dict:
        return {
            "recorded": self.recorded,
            "retained": len(self._ring),
            "evicted": self.evicted,
            "by_kind": self.counts_by_kind(),
        }
