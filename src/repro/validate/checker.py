"""The runtime invariant checker.

An :class:`InvariantChecker` shadows the whole packet life cycle — every
``Fabric.send``, every port enqueue/dequeue/drop, every final delivery —
and re-derives the state the simulator *should* be in, raising a typed
:class:`~repro.validate.errors.InvariantViolation` the moment the two
disagree.  Checked invariants:

* **conservation** — every byte injected is delivered, dropped, or
  demonstrably in flight; a packet that disappears between two hops (or
  after its propagation delay elapsed) is an error;
* **per-port FIFO** — within one priority class, packets leave a port in
  exactly the order they were accepted;
* **capacity legality** — a port's backlog never goes negative, never
  exceeds its buffer, and always equals the checker's shadow count;
* **monotone clock** — the engine never fires an event scheduled in the
  past;
* **ECN legality** — CE marks appear exactly when the marking rule says
  they must (ECN-capable packet, threshold enabled, backlog at/over
  threshold) and never otherwise;
* **Algorithm 1 path states** — Hermes path characterization stays
  inside the good/gray/congested/failed machine and agrees with the
  sensed EWMA state it was derived from.

The layer is **opt-in and zero-cost when off**: every hook site in the
runtime is guarded by a single ``is not None`` test on an attribute that
defaults to ``None``, so an unvalidated run executes the same hot path
as before.  Install with :func:`install_checker` *before* any traffic is
injected.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.faults.spec import format_schedule
from repro.validate.errors import (
    CapacityError,
    ClockError,
    ConservationError,
    EcnMarkError,
    FifoOrderError,
    Fingerprint,
    InstallError,
    PathStateError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric
    from repro.net.packet import Packet
    from repro.net.port import OutputPort

#: Packet life-cycle states tracked by the checker.
_QUEUED = 0    # accepted by a port (queued or serializing)
_TRANSIT = 1   # last bit left a port; propagating toward the next hop

#: EWMA of {0, 1} samples can only leave [0, 1] through a bug; allow a
#: hair of float slack.
_EWMA_SLACK = 1e-9

_PATH_CLASS_NAMES = {0: "good", 1: "gray", 2: "congested", 3: "failed"}


class _Track:
    """Shadow state of one in-flight packet."""

    __slots__ = ("packet", "state", "eta", "ce")

    def __init__(self, packet: "Packet") -> None:
        self.packet = packet
        self.state = _QUEUED
        self.eta = 0       # arrival deadline while in _TRANSIT
        self.ce = packet.ce


class InvariantChecker:
    """Cross-layer invariant checker for one simulation run.

    Args:
        sim: the event engine of the run.
        fingerprint: replay identity stamped into every violation.

    Use :func:`install_checker` to wire one into a fabric; construct
    directly only for unit tests of single components.
    """

    def __init__(self, sim: Any, fingerprint: Optional[Fingerprint] = None) -> None:
        self.sim = sim
        self.fingerprint = fingerprint if fingerprint is not None else Fingerprint()
        # Packet ledger (bytes).
        self.injected_bytes = 0
        self.delivered_bytes = 0
        self.dropped_bytes = 0
        self.absorbed_bytes = 0  # tx-done on a port without a forward hook
        # Event counters (for reports, not correctness).
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_dropped = 0
        self.events_checked = 0
        self.enqueues_checked = 0
        self.marks_checked = 0
        self.path_classes_checked = 0
        self.path_transitions = 0
        self.violations = 0
        # Shadow structures.
        self._tracks: Dict[int, _Track] = {}
        self._ports: List["OutputPort"] = []
        self._shadow_queues: Dict[int, List[deque]] = {}
        self._shadow_backlog: Dict[int, int] = {}
        self._path_class: Dict[int, Dict[Any, int]] = {}

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def watch_port(self, port: "OutputPort") -> None:
        """Attach to one port.  The port must be idle — the checker's
        shadow accounting starts from empty queues."""
        if port.backlog_bytes != 0 or port.busy:
            raise InstallError(
                f"cannot attach checker to busy port {port.name} "
                f"(backlog={port.backlog_bytes}B): install before traffic starts"
            )
        port._checker = self
        self._ports.append(port)
        self._shadow_queues[id(port)] = [deque() for _ in port._queues]
        self._shadow_backlog[id(port)] = 0

    def _raise(self, error_cls, detail: str):
        self.violations += 1
        raise error_cls(detail, self.fingerprint)

    # ------------------------------------------------------------------ #
    # Engine hook
    # ------------------------------------------------------------------ #

    def on_advance(self, event_time: int, now: int) -> None:
        """Called by the engine as it pops each live event."""
        self.events_checked += 1
        if event_time < now:
            self._raise(
                ClockError,
                f"event scheduled at t={event_time} fired at now={now} "
                "(clock would run backwards)",
            )

    # ------------------------------------------------------------------ #
    # Fabric hooks
    # ------------------------------------------------------------------ #

    def on_send(self, packet: "Packet") -> None:
        """A packet enters the network at its source."""
        self.packets_sent += 1
        self.injected_bytes += packet.size
        self._tracks[id(packet)] = _Track(packet)

    def on_deliver(self, packet: "Packet") -> None:
        """A packet arrived at its destination host."""
        track = self._tracks.pop(id(packet), None)
        if track is None:
            self._raise(
                ConservationError,
                f"delivered packet was never injected: {packet!r}",
            )
        if track.state != _TRANSIT:
            self._raise(
                ConservationError,
                f"packet delivered while still queued on a port: {packet!r}",
            )
        self.packets_delivered += 1
        self.delivered_bytes += packet.size

    # ------------------------------------------------------------------ #
    # Port hooks
    # ------------------------------------------------------------------ #

    def _drop(self, packet: "Packet") -> None:
        self._tracks.pop(id(packet), None)
        self.packets_dropped += 1
        self.dropped_bytes += packet.size

    def on_injected_drop(self, port: "OutputPort", packet: "Packet") -> None:
        """A failure predicate ate the packet."""
        self._drop(packet)

    def on_overflow_drop(self, port: "OutputPort", packet: "Packet") -> None:
        """Drop-tail overflow.  Legal only when the packet genuinely did
        not fit the remaining buffer."""
        if port.backlog_bytes + packet.size <= port.buffer_bytes:
            self._raise(
                CapacityError,
                f"{port.name} dropped {packet!r} as overflow with "
                f"{port.buffer_bytes - port.backlog_bytes}B of buffer free",
            )
        self._drop(packet)

    def on_enqueued(
        self, port: "OutputPort", packet: "Packet", prior_backlog: int
    ) -> None:
        """A packet was accepted; ``prior_backlog`` is the backlog the
        marking decision saw (before this packet's bytes were added)."""
        self.enqueues_checked += 1
        pid = id(port)
        track = self._tracks.get(id(packet))
        if track is not None:
            track.state = _QUEUED

        # Capacity legality.
        shadow = self._shadow_backlog[pid] + packet.size
        self._shadow_backlog[pid] = shadow
        if port.backlog_bytes > port.buffer_bytes:
            self._raise(
                CapacityError,
                f"{port.name} backlog {port.backlog_bytes}B exceeds "
                f"buffer {port.buffer_bytes}B",
            )
        if port.backlog_bytes != shadow:
            self._raise(
                CapacityError,
                f"{port.name} backlog {port.backlog_bytes}B diverged from "
                f"shadow accounting {shadow}B after enqueue of {packet!r}",
            )

        # ECN mark legality.
        self.marks_checked += 1
        must_mark = (
            port.ecn_threshold_bytes > 0
            and packet.ecn_capable
            and prior_backlog >= port.ecn_threshold_bytes
        )
        was_ce = track.ce if track is not None else packet.ce
        if packet.ce and not was_ce and not must_mark:
            self._raise(
                EcnMarkError,
                f"{port.name} CE-marked {packet!r} below threshold "
                f"(backlog {prior_backlog}B < K={port.ecn_threshold_bytes}B "
                f"or packet not ECN-capable)",
            )
        if must_mark and not packet.ce:
            self._raise(
                EcnMarkError,
                f"{port.name} failed to CE-mark {packet!r} at backlog "
                f"{prior_backlog}B >= K={port.ecn_threshold_bytes}B",
            )
        if track is not None:
            track.ce = packet.ce

        # FIFO shadow.
        self._shadow_queues[pid][packet.priority].append(id(packet))

    def on_tx_done(self, port: "OutputPort", packet: "Packet") -> None:
        """The last bit of ``packet`` left ``port``."""
        pid = id(port)
        queue = self._shadow_queues[pid][packet.priority]
        if not queue or queue[0] != id(packet):
            self._raise(
                FifoOrderError,
                f"{port.name} transmitted {packet!r} out of FIFO order "
                f"within priority {packet.priority}",
            )
        queue.popleft()
        shadow = self._shadow_backlog[pid] - packet.size
        self._shadow_backlog[pid] = shadow
        if shadow < 0 or port.backlog_bytes < 0:
            self._raise(
                CapacityError,
                f"{port.name} backlog went negative after {packet!r}",
            )
        if port.backlog_bytes != shadow:
            self._raise(
                CapacityError,
                f"{port.name} backlog {port.backlog_bytes}B diverged from "
                f"shadow accounting {shadow}B after tx of {packet!r}",
            )
        track = self._tracks.get(id(packet))
        if track is not None:
            if port.forward is None:
                # Terminal port (unit-test rigs): the ledger closes here.
                del self._tracks[id(packet)]
                self.absorbed_bytes += packet.size
            else:
                track.state = _TRANSIT
                track.eta = self.sim.now + port.prop_delay_ns

    # ------------------------------------------------------------------ #
    # Hermes sensing hooks (Algorithm 1)
    # ------------------------------------------------------------------ #

    def on_path_class(
        self, leaf_state: Any, dst_leaf: int, path: int, result: int, state: Any
    ) -> None:
        """Validate one classify() result against the sensed state."""
        self.path_classes_checked += 1
        now = self.sim.now
        if result not in _PATH_CLASS_NAMES:
            self._raise(
                PathStateError,
                f"classify({dst_leaf}, {path}) returned unknown class {result}",
            )
        failed = state.failed_until > now
        if failed != (result == 3):  # PATH_FAILED
            self._raise(
                PathStateError,
                f"classify({dst_leaf}, {path}) = {_PATH_CLASS_NAMES[result]} "
                f"inconsistent with failure overlay "
                f"(failed_until={state.failed_until}, now={now})",
            )
        if not (-_EWMA_SLACK <= state.f_ecn <= 1.0 + _EWMA_SLACK):
            self._raise(
                PathStateError,
                f"path ({dst_leaf}, {path}) ECN fraction {state.f_ecn} "
                "outside [0, 1]",
            )
        if state.rtt_ns < 0:
            self._raise(
                PathStateError,
                f"path ({dst_leaf}, {path}) RTT estimate {state.rtt_ns} < 0",
            )
        if not failed:
            expected = leaf_state._congestion_class(state)
            if result != expected:
                self._raise(
                    PathStateError,
                    f"classify({dst_leaf}, {path}) = "
                    f"{_PATH_CLASS_NAMES[result]} but thresholds say "
                    f"{_PATH_CLASS_NAMES[expected]}",
                )
        table = self._path_class.setdefault(id(leaf_state), {})
        previous = table.get((dst_leaf, path))
        if previous is not None and previous != result:
            self.path_transitions += 1
        table[(dst_leaf, path)] = result

    # ------------------------------------------------------------------ #
    # Audit / finalize
    # ------------------------------------------------------------------ #

    def inflight_bytes(self) -> int:
        """Bytes currently queued, serializing, or propagating."""
        return sum(t.packet.size for t in self._tracks.values())

    def audit(self) -> None:
        """Check global consistency; callable at any quiescent point and
        automatically from :meth:`finalize`."""
        now = self.sim.now
        for port in self._ports:
            shadow = self._shadow_backlog[id(port)]
            if port.backlog_bytes != shadow:
                self._raise(
                    CapacityError,
                    f"{port.name} backlog {port.backlog_bytes}B != shadow "
                    f"{shadow}B at audit",
                )
        for track in self._tracks.values():
            if track.state == _TRANSIT and track.eta < now:
                self._raise(
                    ConservationError,
                    f"packet vanished in transit (due at t={track.eta}, "
                    f"now={now}): {track.packet!r}",
                )
        ledger = (
            self.delivered_bytes
            + self.dropped_bytes
            + self.absorbed_bytes
            + self.inflight_bytes()
        )
        if ledger != self.injected_bytes:
            self._raise(
                ConservationError,
                f"byte conservation broken: injected {self.injected_bytes}B "
                f"!= delivered {self.delivered_bytes}B + dropped "
                f"{self.dropped_bytes}B + absorbed {self.absorbed_bytes}B "
                f"+ in-flight {self.inflight_bytes()}B",
            )

    def finalize(self) -> Dict[str, int]:
        """End-of-run audit; returns the :meth:`report` on success."""
        self.audit()
        return self.report()

    def report(self) -> Dict[str, int]:
        """Counters summarizing what the checker observed."""
        return {
            "events_checked": self.events_checked,
            "packets_sent": self.packets_sent,
            "packets_delivered": self.packets_delivered,
            "packets_dropped": self.packets_dropped,
            "enqueues_checked": self.enqueues_checked,
            "marks_checked": self.marks_checked,
            "path_classes_checked": self.path_classes_checked,
            "path_transitions": self.path_transitions,
            "injected_bytes": self.injected_bytes,
            "delivered_bytes": self.delivered_bytes,
            "dropped_bytes": self.dropped_bytes,
            "inflight_bytes": self.inflight_bytes(),
            "violations": self.violations,
        }


# --------------------------------------------------------------------- #
# Wiring
# --------------------------------------------------------------------- #


def experiment_command(config: Any) -> str:
    """The ``python -m repro run`` invocation replaying ``config``.

    Topology presets are not recoverable from a :class:`TopologyConfig`,
    so the command covers the CLI-expressible knobs; the full config repr
    rides along in the fingerprint for exact reconstruction.
    """
    parts = [
        "python -m repro run",
        f"--lb {config.lb}",
        f"--workload {config.workload}",
        f"--load {config.load}",
        f"--flows {config.n_flows}",
        f"--seed {config.seed}",
        f"--size-scale {config.size_scale}",
        f"--time-scale {config.time_scale}",
        f"--transport {config.transport}",
    ]
    if config.faults:
        parts.append(f"--faults '{format_schedule(config.faults)}'")
    if config.detector is not None:
        parts.append(f"--detector '{config.detector}'")
    parts.append(f"--drain-ms {config.extra_drain_ns / 1e6}")
    parts.append(f"--scheduler {config.scheduler}")
    parts.append("--validate")
    return " ".join(parts)


def install_checker(
    fabric: "Fabric",
    config: Any = None,
    command: Optional[str] = None,
) -> InvariantChecker:
    """Attach a fresh :class:`InvariantChecker` to every layer of a fabric.

    Must run before any traffic is injected (ports are required to be
    idle).  Hermes leaf-state tables are created later by ``install_lb``;
    the experiment runner attaches them via
    ``fabric.hooks.attach(scheme=...)``.

    Args:
        fabric: the network to validate.
        config: the experiment config, used for the replay fingerprint.
        command: exact replay command; derived from ``config`` if omitted.
    """
    fingerprint = Fingerprint(
        seed=getattr(config, "seed", None),
        config=config,
        command=command
        or (experiment_command(config) if config is not None else None),
    )
    checker = InvariantChecker(fabric.sim, fingerprint)
    fabric.hooks.attach(checker=checker)
    return checker
