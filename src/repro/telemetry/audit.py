"""Decision audit log: *why* Hermes did what it did.

Four record kinds, one hook each:

* **Algorithm 1 (sensing)** — every :meth:`HermesLeafState.classify`
  result flows through :meth:`DecisionAudit.on_path_class`; the audit
  keeps the last class per (leaf, destination leaf, path) and records a
  transition entry whenever it changes, with the EWMA values and the
  thresholds they were compared against.
* **Detector verdicts** — every flip of any :class:`repro.detect.
  Detector` arrives through :meth:`DecisionAudit.on_verdict`.  Hermes's
  leaf table is one: an explicit ``mark_failed``, the τ-sweep's
  silent-drop rule (with the retransmission fraction that fired) and an
  agent's blackhole verdict are ``verdict`` rows like BFD's.
* **Scheduled faults** — :meth:`DecisionAudit.on_fault`.
* **Algorithm 2 (rerouting)** — every path decision of a
  :class:`~repro.core.hermes.HermesLB` agent is recorded with a reason
  code mirroring the algorithm's branches (``new-flow``, ``timeout``,
  ``failed-path``, ``congested-moved``, ``congested-stay``,
  ``gated-stay``) plus the gate/threshold values that produced it —
  enough to answer "why did flow F leave path P at time T" after the
  fact.

Like the tracer, the audit is bounded (ring buffer) and zero-cost when
no audit object is attached: each hook site is one ``is not None``
branch.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterator, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

# Record categories.
REC_DECISION = "decision"
REC_PATH_CLASS = "path_class"
REC_FAULT = "fault"
REC_VERDICT = "verdict"

_CLASS_NAMES = {0: "good", 1: "gray", 2: "congested", 3: "failed"}


class AuditRecord:
    """One audit entry.  ``category`` selects which fields are
    meaningful; ``detail`` carries the threshold/gate values."""

    __slots__ = (
        "time_ns",
        "category",
        "flow_id",
        "leaf",
        "dst_leaf",
        "path",
        "new_path",
        "reason",
        "detail",
    )

    def __init__(
        self,
        time_ns: int,
        category: str,
        flow_id: int = -1,
        leaf: int = -1,
        dst_leaf: int = -1,
        path: int = -1,
        new_path: int = -1,
        reason: str = "",
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.time_ns = time_ns
        self.category = category
        self.flow_id = flow_id
        self.leaf = leaf
        self.dst_leaf = dst_leaf
        self.path = path
        self.new_path = new_path
        self.reason = reason
        self.detail = detail if detail is not None else {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t": self.time_ns,
            "category": self.category,
            "flow": self.flow_id,
            "leaf": self.leaf,
            "dst_leaf": self.dst_leaf,
            "path": self.path,
            "new_path": self.new_path,
            "reason": self.reason,
            "detail": self.detail,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AuditRecord(t={self.time_ns} {self.category} "
            f"flow={self.flow_id} path={self.path}->{self.new_path} "
            f"{self.reason})"
        )


class DecisionAudit:
    """Bounded audit log over Hermes' Algorithm 1 + 2 machinery."""

    def __init__(self, sim: "Simulator", capacity: int = 200_000) -> None:
        if capacity < 1:
            raise ValueError(f"audit capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.recorded = 0
        self.reason_counts: Dict[str, int] = {}
        self.transitions = 0
        # Last class seen per (id(leaf_state), dst_leaf, path).
        self._last_class: Dict[tuple, int] = {}

    def _append(self, record: AuditRecord) -> None:
        self.recorded += 1
        self._ring.append(record)

    # ------------------------------------------------------------------ #
    # Algorithm 2 hook (called from HermesLB.select_path)
    # ------------------------------------------------------------------ #

    def on_decision(
        self,
        flow_id: int,
        leaf: int,
        dst_leaf: int,
        reason: str,
        old_path: int,
        new_path: int,
        detail: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.reason_counts[reason] = self.reason_counts.get(reason, 0) + 1
        self._append(
            AuditRecord(
                self.sim.now,
                REC_DECISION,
                flow_id=flow_id,
                leaf=leaf,
                dst_leaf=dst_leaf,
                path=old_path,
                new_path=new_path,
                reason=reason,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------ #
    # Algorithm 1 hooks (called from HermesLeafState)
    # ------------------------------------------------------------------ #

    def on_path_class(
        self, leaf_state: Any, dst_leaf: int, path: int, result: int, state: Any
    ) -> None:
        """Record a path characterization *transition* (steady states are
        not logged — classify() runs per packet and would swamp the ring)."""
        key = (id(leaf_state), dst_leaf, path)
        previous = self._last_class.get(key)
        if previous == result:
            return
        self._last_class[key] = result
        if previous is None and result == 0:
            # Initial classification of an untouched path is always
            # "good"; logging it adds nothing.
            return
        self.transitions += 1
        params = leaf_state.params
        self._append(
            AuditRecord(
                self.sim.now,
                REC_PATH_CLASS,
                leaf=leaf_state.leaf,
                dst_leaf=dst_leaf,
                path=path,
                reason=(
                    f"{_CLASS_NAMES.get(previous, '-')}"
                    f"->{_CLASS_NAMES.get(result, '?')}"
                ),
                detail={
                    "f_ecn": round(state.f_ecn, 6),
                    "rtt_ns": round(state.rtt_ns, 1),
                    "t_ecn": params.t_ecn,
                    "t_rtt_low_ns": params.t_rtt_low_ns,
                    "t_rtt_high_ns": params.t_rtt_high_ns,
                },
            )
        )

    # ------------------------------------------------------------------ #
    # Detector hook (called from repro.detect on every verdict flip)
    # ------------------------------------------------------------------ #

    def on_verdict(
        self,
        detector: Any,
        dst_leaf: int,
        path: int,
        old: int,
        new: int,
        cause: str,
        detail: str = "",
    ) -> None:
        """A detector changed its verdict for (dst_leaf, path).  The
        record's reason reads ``up->down (bfd-timeout)`` — the cause a
        post-mortem needs next to the fault record that provoked it."""
        from repro.detect.base import VERDICT_NAMES

        self._append(
            AuditRecord(
                self.sim.now,
                REC_VERDICT,
                leaf=getattr(detector, "leaf", -1),
                dst_leaf=dst_leaf,
                path=path,
                reason=(
                    f"{VERDICT_NAMES.get(old, '?')}->"
                    f"{VERDICT_NAMES.get(new, '?')} ({cause})"
                ),
                detail={
                    "detector": getattr(detector, "name", "?"),
                    **({"note": detail} if detail else {}),
                },
            )
        )

    # ------------------------------------------------------------------ #
    # Fault-plane hook (called from repro.faults.plane.FaultSchedule)
    # ------------------------------------------------------------------ #

    def on_fault(self, record: Any) -> None:
        """A scheduled fault was applied or reverted.  Landing these in
        the same log as path transitions lets ``path_events`` show the
        network-level cause next to its sensed effect."""
        self._append(
            AuditRecord(
                self.sim.now,
                REC_FAULT,
                reason=f"{record.action} {record.phase}",
                detail={"target": record.target, **record.detail},
            )
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def records(self) -> List[AuditRecord]:
        return list(self._ring)

    @property
    def evicted(self) -> int:
        return self.recorded - len(self._ring)

    def decisions(self, flow_id: Optional[int] = None) -> List[AuditRecord]:
        """Algorithm 2 decisions, optionally for one flow."""
        return [
            r
            for r in self._ring
            if r.category == REC_DECISION
            and (flow_id is None or r.flow_id == flow_id)
        ]

    def path_events(
        self, dst_leaf: Optional[int] = None, path: Optional[int] = None
    ) -> List[AuditRecord]:
        """Path-state transitions, detector verdict flips (Hermes's own
        marks included) and scheduled fault transitions, optionally
        filtered to one (destination leaf, path).  Fault records carry no
        (dst_leaf, path) and always pass a filter — they are the
        network-level cause of whatever sensed transitions surround them."""
        return [
            r
            for r in self._ring
            if (
                r.category in (REC_PATH_CLASS, REC_VERDICT)
                and (dst_leaf is None or r.dst_leaf == dst_leaf)
                and (path is None or r.path == path)
            )
            or r.category == REC_FAULT
        ]

    def why_left(self, flow_id: int, path: int) -> List[AuditRecord]:
        """The decisions that moved ``flow_id`` *off* ``path``."""
        return [
            r
            for r in self.decisions(flow_id)
            if r.path == path and r.new_path != path
        ]

    def explain_flow(self, flow_id: int) -> List[str]:
        """Human-readable decision history for one flow."""
        from repro.telemetry.export import explain_flow

        return explain_flow((r.to_dict() for r in self._ring), flow_id)

    def iter_dicts(self) -> Iterator[Dict[str, Any]]:
        for record in self._ring:
            yield record.to_dict()

    def summary(self) -> Dict[str, Any]:
        return {
            "recorded": self.recorded,
            "retained": len(self._ring),
            "evicted": self.evicted,
            "decisions_by_reason": dict(sorted(self.reason_counts.items())),
            "path_transitions": self.transitions,
        }
