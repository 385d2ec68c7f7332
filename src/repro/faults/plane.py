"""The dynamic fault plane: timed failure injection driven by the engine.

A :class:`FaultSchedule` binds a declarative
:class:`~repro.faults.spec.FaultScheduleSpec` to a live fabric: every
event is scheduled on the simulator and applied (or reverted) at exactly
its nanosecond while traffic is flowing — the paper's actual subject:
malfunctions that *start*, *flap*, and *heal* while load balancers are
trying to detect and route around them.  It is the one injection path: a
malfunction that exists from the start (paper §5.3.3, Figs. 16 / 17) is
a schedule whose first event fires at t=0, before any flow arrives.

Mechanics per action family:

* ``link_down`` / ``link_up`` — both directions of the (leaf, spine)
  link enter the admin-down state (see
  :meth:`repro.net.port.OutputPort.set_admin_down`): new arrivals are
  dropped (no carrier), queued packets stall, the packet already on the
  wire drains.  ``link_up`` resumes transmission deterministically.
* ``link_degrade`` / ``link_restore`` — both directions change rate at
  the scheduled instant (next packet onward; the in-flight packet
  finishes at the old rate).  Original rates are remembered and restored.
* ``random_drop_start`` / ``stop`` and ``blackhole_on`` / ``off`` — the
  revocable handles of :mod:`repro.net.failures`, installed on the
  spine's downlinks and removed again on the revert event.
* ``flap`` — expanded at install time into alternating down/up pairs.

Every applied/reverted transition is recorded as a :class:`FaultRecord`
(the run's *fault timeline*), mirrored into the telemetry tracer and the
decision audit when those layers are attached, so ``why_left`` queries
can correlate reroutes with the failure that triggered them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.faults.spec import FaultEventSpec, FaultScheduleSpec
from repro.net.failures import (
    BlackholeFailure,
    RandomDropFailure,
    blackhole_pairs_between_racks,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric
    from repro.net.port import OutputPort


class FaultRecord:
    """One applied/reverted transition in the run's fault timeline."""

    __slots__ = ("time_ns", "action", "target", "phase", "detail")

    def __init__(
        self,
        time_ns: int,
        action: str,
        target: str,
        phase: str,
        detail: Optional[dict] = None,
    ) -> None:
        self.time_ns = time_ns
        self.action = action
        self.target = target
        self.phase = phase  # "applied" | "reverted"
        self.detail = detail if detail is not None else {}

    def to_dict(self) -> dict:
        return {
            "t": self.time_ns,
            "action": self.action,
            "target": self.target,
            "phase": self.phase,
            "detail": self.detail,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultRecord(t={self.time_ns} {self.action} {self.target} "
            f"{self.phase})"
        )


#: Revert actions (used to stamp the record phase).
_REVERTS = frozenset(
    ("link_up", "link_restore", "random_drop_stop", "blackhole_off")
)


class FaultSchedule:
    """A spec bound to one live fabric.

    Args:
        fabric: the running network.
        spec: the declarative schedule.
        rng: dedicated random stream (blackhole pair picks and drop
            coin-flips draw here, never from workload/LB streams); the
            runner passes its ``"failure"`` stream.
        audit: optional :class:`repro.telemetry.audit.DecisionAudit`;
            fault transitions are logged there when attached.

    Call :meth:`install` once, before :meth:`Simulator.run`; targets are
    validated eagerly so a misaddressed schedule fails at install time,
    not at t=fire mid-run.
    """

    def __init__(
        self,
        fabric: "Fabric",
        spec: FaultScheduleSpec,
        rng: Optional[random.Random] = None,
        audit: Optional[object] = None,
    ) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.spec = spec
        self.rng = rng if rng is not None else random.Random(0)
        self.audit = audit
        self.records: List[FaultRecord] = []
        self.applied = 0
        self.reverted = 0
        self._installed = False
        # Live handles, keyed by target.
        self._drops: Dict[int, RandomDropFailure] = {}
        self._blackholes: Dict[int, BlackholeFailure] = {}
        self._orig_rates: Dict[Tuple[int, int], Tuple[float, float]] = {}
        #: total packets eaten by this schedule's drop/blackhole handles
        #: (link-down losses are counted on the ports themselves).
        self.injected_drops = 0

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def expanded_events(self) -> List[FaultEventSpec]:
        """The schedule with every ``flap`` unrolled into down/up pairs,
        sorted by (time, spec order) — pure and deterministic."""
        from repro.faults.spec import link_down, link_up

        out: List[Tuple[int, int, FaultEventSpec]] = []
        for order, event in enumerate(self.spec.events):
            if event.action != "flap":
                out.append((event.time_ns, order, event))
                continue
            down_ns = int(round(event.period_ns * event.duty))
            t = event.time_ns
            while t < event.until_ns:
                out.append((t, order, link_down(t, event.leaf, event.spine)))
                out.append(
                    (t + down_ns, order, link_up(t + down_ns, event.leaf, event.spine))
                )
                t += event.period_ns
        out.sort(key=lambda item: (item[0], item[1]))
        return [event for _, _, event in out]

    def install(self) -> "FaultSchedule":
        """Validate every target and schedule every event on the engine."""
        if self._installed:
            raise RuntimeError("fault schedule already installed")
        self._installed = True
        events = self.expanded_events()
        for event in events:
            self._validate_target(event)
        for event in events:
            self.sim.schedule_at(event.time_ns, self._fire, event)
        return self

    def _validate_target(self, event: FaultEventSpec) -> None:
        cfg = self.fabric.config
        if event.spine >= cfg.n_spines:
            raise ValueError(
                f"{event.action} targets spine {event.spine} outside the "
                f"topology ({cfg.n_spines} spines)"
            )
        if event.action in ("link_down", "link_up", "link_degrade", "link_restore"):
            if event.leaf >= cfg.n_leaves:
                raise ValueError(
                    f"{event.action} targets leaf {event.leaf} outside the "
                    f"topology ({cfg.n_leaves} leaves)"
                )
            up, down = self._link_ports(event.leaf, event.spine)
            if up is None or down is None:
                raise ValueError(
                    f"{event.action} targets link leaf{event.leaf}<->"
                    f"spine{event.spine}, which the topology cuts statically"
                )
        if event.action == "blackhole_on":
            if event.src_leaf >= cfg.n_leaves or event.dst_leaf >= cfg.n_leaves:
                raise ValueError(
                    f"blackhole_on leaves ({event.src_leaf}, {event.dst_leaf}) "
                    f"outside the topology ({cfg.n_leaves} leaves)"
                )

    def _link_ports(
        self, leaf: int, spine: int
    ) -> Tuple[Optional["OutputPort"], Optional["OutputPort"]]:
        topo = self.fabric.topology
        return topo.leaf_up[leaf][spine], topo.spine_down[spine][leaf]

    # ------------------------------------------------------------------ #
    # Event dispatch
    # ------------------------------------------------------------------ #

    def _fire(self, event: FaultEventSpec) -> None:
        detail = getattr(self, f"_do_{event.action}")(event)
        phase = "reverted" if event.action in _REVERTS else "applied"
        record = FaultRecord(
            self.sim.now, event.action, event.target(), phase, detail
        )
        self.records.append(record)
        if phase == "applied":
            self.applied += 1
        else:
            self.reverted += 1
        tracer = self.fabric._tracer
        if tracer is not None:
            tracer.on_fault(record)
        if self.audit is not None:
            self.audit.on_fault(record)

    # --- link admin state --------------------------------------------- #

    def _do_link_down(self, event: FaultEventSpec) -> dict:
        up, down = self._link_ports(event.leaf, event.spine)
        up.set_admin_down(True)
        down.set_admin_down(True)
        return {"stalled_bytes": up.backlog_bytes + down.backlog_bytes}

    def _do_link_up(self, event: FaultEventSpec) -> dict:
        up, down = self._link_ports(event.leaf, event.spine)
        drops = up.drops_linkdown + down.drops_linkdown
        up.set_admin_down(False)
        down.set_admin_down(False)
        return {"drops_while_down": drops}

    # --- link rate ---------------------------------------------------- #

    def _do_link_degrade(self, event: FaultEventSpec) -> dict:
        up, down = self._link_ports(event.leaf, event.spine)
        key = (event.leaf, event.spine)
        if key not in self._orig_rates:
            self._orig_rates[key] = (up.rate_bps, down.rate_bps)
        new_rate = event.rate_gbps * 1e9
        old = up.rate_bps
        up.set_rate(new_rate)
        down.set_rate(new_rate)
        return {"from_gbps": old / 1e9, "to_gbps": event.rate_gbps}

    def _do_link_restore(self, event: FaultEventSpec) -> dict:
        up, down = self._link_ports(event.leaf, event.spine)
        key = (event.leaf, event.spine)
        rates = self._orig_rates.pop(key, None)
        if rates is None:
            # restore without a live degrade: idempotent no-op.
            return {"noop": True}
        up.set_rate(rates[0])
        down.set_rate(rates[1])
        return {"to_gbps": rates[0] / 1e9}

    # --- silent random drops ------------------------------------------ #

    def _do_random_drop_start(self, event: FaultEventSpec) -> dict:
        old = self._drops.pop(event.spine, None)
        if old is not None:  # restarted with a new rate: swap handles
            self.injected_drops += old.dropped
            old.uninstall()
        failure = RandomDropFailure(event.drop_rate, self.rng)
        failure.install(self.fabric.topology, event.spine)
        self._drops[event.spine] = failure
        return {"drop_rate": event.drop_rate}

    def _do_random_drop_stop(self, event: FaultEventSpec) -> dict:
        failure = self._drops.pop(event.spine, None)
        if failure is None:
            return {"noop": True}
        failure.uninstall()
        self.injected_drops += failure.dropped
        return {"dropped": failure.dropped}

    # --- blackholes --------------------------------------------------- #

    def _do_blackhole_on(self, event: FaultEventSpec) -> dict:
        old = self._blackholes.pop(event.spine, None)
        if old is not None:
            self.injected_drops += old.dropped
            old.uninstall()
        pairs = blackhole_pairs_between_racks(
            self.fabric.topology,
            event.src_leaf,
            event.dst_leaf,
            event.fraction,
            self.rng,
        )
        failure = BlackholeFailure(pairs)
        failure.install(self.fabric.topology, event.spine)
        self._blackholes[event.spine] = failure
        return {"pairs": len(pairs)}

    def _do_blackhole_off(self, event: FaultEventSpec) -> dict:
        failure = self._blackholes.pop(event.spine, None)
        if failure is None:
            return {"noop": True}
        failure.uninstall()
        self.injected_drops += failure.dropped
        return {"dropped": failure.dropped}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def timeline(self) -> Tuple[dict, ...]:
        """The fault timeline as picklable dicts (oldest first)."""
        return tuple(record.to_dict() for record in self.records)

    def first_applied_ns(self) -> Optional[int]:
        times = [r.time_ns for r in self.records if r.phase == "applied"]
        return min(times) if times else None

    def last_reverted_ns(self) -> Optional[int]:
        times = [r.time_ns for r in self.records if r.phase == "reverted"]
        return max(times) if times else None

    def total_injected_drops(self) -> int:
        """Packets eaten by drop/blackhole handles so far (live included)."""
        live = sum(f.dropped for f in self._drops.values())
        live += sum(f.dropped for f in self._blackholes.values())
        return self.injected_drops + live
