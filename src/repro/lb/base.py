"""Load balancer interface.

One agent instance runs per host (the paper's hypervisor module).  The
transport layer calls:

* :meth:`select_path` for **every** outgoing data packet — the agent
  returns the spine index to pin the packet to (packet granularity is
  what lets Hermes react timely; flow/flowlet schemes simply return the
  same path until their switching condition triggers);
* :meth:`on_ack` for every ACK — carrying the data packet's path, its
  ECN echo and the measured RTT (the piggybacked signals);
* :meth:`on_path_feedback` — the CONGA-style quantized utilization metric
  echoed by the receiver;
* :meth:`on_timeout` / :meth:`on_retransmit` — loss events, the signals
  Hermes uses to detect switch failures;
* :meth:`on_flow_done` when the flow completes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric
    from repro.net.host import Host
    from repro.transport.base import FlowBase


@dataclass
class InstalledScheme:
    """What ``install_lb`` wired up beyond the per-host agents — the
    handles harnesses inspect (probers, tables, detection counters).
    Every field is empty for a scheme that has no such state."""

    #: leaf index -> the scheme's rack-shared state (CONGA tables, Hermes
    #: path tables, RDNA registries).
    leaf_states: Dict[int, Any] = field(default_factory=dict)
    #: leaf index -> :mod:`repro.detect` detector bound to the agents:
    #: the configured one, or the scheme's ``default_detector``.
    detectors: Dict[int, Any] = field(default_factory=dict)
    #: leaf index -> Hermes probe agent.
    probers: Dict[int, Any] = field(default_factory=dict)
    #: The resolved ``HermesParams`` (Hermes only).
    params: Optional[Any] = None


class LoadBalancer:
    """Base agent: keeps topology handles, counts reroutes, does nothing."""

    name = "base"

    #: Decision granularity the scheme claims: ``"flow"`` (one path per
    #: flow unless rerouted), ``"flowlet"``/``"flowcell"`` (path changes
    #: at idle-gap/cell boundaries), or ``"packet"`` (every packet may
    #: take a different path).  The cross-scheme conformance suite turns
    #: this claim into reordering expectations.
    granularity = "flow"

    #: Detector spec ``install_lb`` binds when the experiment names none
    #: (``None``: no detector).  Schemes that route on a failure table
    #: name one and read :attr:`detector` without a ``None`` check.
    default_detector: Optional[str] = None

    def __init__(self, host: "Host", fabric: "Fabric", rng: random.Random) -> None:
        self.host = host
        self.fabric = fabric
        self.topology = fabric.topology
        self.rng = rng
        self.reroutes = 0  # path changes of already-placed flows
        #: Failure detector (see :mod:`repro.detect`), shared per rack
        #: and bound by ``install_lb`` before the first packet — the
        #: configured one, else :attr:`default_detector`.  ``None`` costs
        #: each hook one ``is not None`` branch and nothing else.
        self.detector = None

    # -------------------------- helpers ------------------------------- #

    def paths_to(self, dst_host: int) -> Tuple[int, ...]:
        """Alive path ids from this host's leaf to the destination's."""
        return self.topology.paths(self.host.leaf, self.topology.leaf_of(dst_host))

    def live_paths(self, dst_leaf: int, paths: Tuple[int, ...]) -> Tuple[int, ...]:
        """``paths`` minus detector-DOWN entries (full set when no
        detector is configured, or when everything is down — a suspect
        path still beats no path)."""
        detector = self.detector
        if detector is None:
            return paths
        return detector.alive(dst_leaf, paths)

    def path_down(self, dst_leaf: int, path: int) -> bool:
        """Whether the configured detector has condemned ``path``."""
        detector = self.detector
        return detector is not None and path >= 0 and detector.is_failed(
            dst_leaf, path
        )

    def _note_path(self, flow: "FlowBase", path: int) -> int:
        """Record a path decision, counting reroutes of established flows."""
        if flow.current_path >= 0 and path != flow.current_path:
            self.reroutes += 1
        return path

    # -------------------------- interface ----------------------------- #

    def select_path(self, flow: "FlowBase", wire_bytes: int) -> int:
        """Choose the spine for this packet.  Must be overridden."""
        raise NotImplementedError

    def on_ack(
        self,
        flow: "FlowBase",
        path_id: int,
        ece: bool,
        rtt_ns: int,
        is_retx: bool,
    ) -> None:
        """Piggybacked congestion signals (ECN echo + RTT) for a path.

        The default implementations of the three transport hooks feed
        the bound detector; a scheme that overrides one for its own
        state calls ``super()`` for the evidence.
        """
        detector = self.detector
        if detector is not None and path_id >= 0:
            detector.note_ok(self.topology.leaf_of(flow.dst), path_id)

    def on_path_feedback(self, flow: "FlowBase", path_id: int, metric: int) -> None:
        """CONGA-style utilization metric echoed by the far end."""

    def on_timeout(self, flow: "FlowBase", path_id: int) -> None:
        """The flow's RTO fired while pinned to ``path_id``."""
        detector = self.detector
        if detector is not None and path_id >= 0:
            detector.note_timeout(self.topology.leaf_of(flow.dst), path_id)

    def on_retransmit(self, flow: "FlowBase", path_id: int) -> None:
        """The flow retransmitted a segment on ``path_id``."""
        detector = self.detector
        if detector is not None and path_id >= 0:
            detector.note_retransmit(self.topology.leaf_of(flow.dst), path_id)

    def on_flow_done(self, flow: "FlowBase") -> None:
        """The flow completed; drop any per-flow state."""
