"""Detector protocol: verdicts, the base class, and probe plumbing.

A *detector* answers one question per (dst_leaf, path) pair: is that
path usable right now?  The answer is a three-state verdict —

- ``UP``      — no adverse evidence; schemes should use the path.
- ``SUSPECT`` — evidence is accumulating (missed heartbeats, a live
  retransmission window, sub-threshold failure rate) but not yet
  conclusive.  Schemes keep using the path; combiners may weigh it.
- ``DOWN``    — conclusive evidence; schemes must steer around it.

Detectors are per-leaf objects: each leaf judges its own uplink paths
to every destination leaf.  All of them expose the same surface, so
every scheme reads whichever one its ``LoadBalancer.detector`` slot
holds; REPS, DiffFlow and RDNA route on one and default to
:class:`~repro.detect.transport.TransportDetector`.

Verdict flips are observable twice over: the audit trail receives an
``on_verdict`` record for every transition (see
:mod:`repro.telemetry.audit`), and *flip listeners* — registered by
combining detectors — get a synchronous callback so a quorum can
recompute the combined verdict at the instant a member changes its
mind, rather than polling.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

UP = 0
SUSPECT = 1
DOWN = 2

VERDICT_NAMES = {UP: "up", SUSPECT: "suspect", DOWN: "down"}

#: Reserved probe ``flow_id`` sentinels, one per probe stream: data
#: flows number from 0, so probes take negative ids, and each consumer
#: claims its ``(host, id)`` stream with :meth:`Fabric.claim_probes
#: <repro.net.fabric.Fabric.claim_probes>`.
HERMES_PROBE_FLOW_ID = -100
BFD_FLOW_ID = -101
BREAKER_FLOW_ID = -102

FlipListener = Callable[["Detector", int, int, int, int], None]


def agent_host_of(fabric, leaf: int) -> int:
    """The designated probing host of a leaf (same convention as the
    Hermes prober: the first host of the rack)."""
    return next(iter(fabric.topology.hosts_of_leaf(leaf)))


class Detector:
    """Base class for failure detectors.

    Subclasses implement :meth:`path_verdict` plus whichever evidence
    feeds they consume; everything else (live-path filtering, flip
    bookkeeping, metrics) is shared.
    """

    #: Short kind name, also used by the spec DSL.
    name = "detector"
    #: Active detectors inject packets / schedule events and therefore
    #: perturb the simulation; passive ones are bit-identity safe.
    active = False

    def __init__(self, fabric, leaf: int) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.leaf = leaf
        #: Simulation times at which a path was (newly) declared DOWN.
        self.detection_times: List[int] = []
        #: Count of UP/SUSPECT -> DOWN transitions.
        self.failed_detections = 0
        #: DOWN verdicts contradicted by proof the path was alive.
        self.false_positive_count = 0
        #: Adverse episodes absorbed without flipping to DOWN.
        self.flap_suppressions = 0
        #: Optional decision-audit hook (set via ``HookSet``).
        self.audit = None
        self._flip_listeners: List[FlipListener] = []

    # ------------------------------------------------------------------ #
    # Verdicts
    # ------------------------------------------------------------------ #

    def path_verdict(self, dst_leaf: int, path: int) -> int:
        """Judge ``path`` toward ``dst_leaf``.  Default: everything UP."""
        return UP

    def is_failed(self, dst_leaf: int, path: int) -> bool:
        """Boolean view of the verdict: DOWN means failed."""
        return self.path_verdict(dst_leaf, path) == DOWN

    def alive(self, dst_leaf: int, paths: Sequence[int]) -> Tuple[int, ...]:
        """Filter ``paths`` to those not DOWN.

        Falls back to the full set when every path is DOWN — stranding a
        destination entirely is always worse than sending into a
        possibly-dead path.
        """
        live = tuple(p for p in paths if self.path_verdict(dst_leaf, p) != DOWN)
        return live if live else tuple(paths)

    # ------------------------------------------------------------------ #
    # Evidence feeds (no-ops by default; passive detectors override)
    # ------------------------------------------------------------------ #

    def note_timeout(self, dst_leaf: int, path: int) -> bool:
        return False

    def note_retransmit(self, dst_leaf: int, path: int) -> bool:
        return False

    def note_ok(self, dst_leaf: int, path: int) -> None:
        return None

    def mark_failed(self, dst_leaf: int, path: int) -> bool:
        return False

    # ------------------------------------------------------------------ #
    # Lifecycle / composition
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Begin active operation (heartbeat rounds etc.).  Passive
        detectors need nothing; calling twice must be harmless."""

    def add_flip_listener(self, listener: FlipListener) -> None:
        """Register a callback invoked on every verdict transition."""
        self._flip_listeners.append(listener)

    def _flip(
        self,
        dst_leaf: int,
        path: int,
        old: int,
        new: int,
        cause: str,
        detail: str = "",
    ) -> None:
        """Record a verdict transition: counters, audit, listeners."""
        if new == DOWN and old != DOWN:
            self.failed_detections += 1
            self.detection_times.append(self.sim.now)
        audit = self.audit
        if audit is not None:
            audit.on_verdict(self, dst_leaf, path, old, new, cause, detail)
        for listener in self._flip_listeners:
            listener(self, dst_leaf, path, old, new)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def metrics(self) -> dict:
        """Counter snapshot for the fault-plane metrics block."""
        return {
            "detector": self.name,
            "detections": self.failed_detections,
            "false_positive_count": self.false_positive_count,
            "flap_suppressions": self.flap_suppressions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} leaf={self.leaf} "
            f"detections={self.failed_detections}>"
        )
