"""RDNA Balance: elephant isolation via strict source routing.

Valentim et al.'s scheme (arXiv 1904.05664): in an RDNA fabric every
packet carries its full path stamped at the edge (strict source
routing), which makes moving a flow a pure edge decision — exactly the
XPath-style source-stamped paths this simulator already uses
(``packet.path_id`` pins the spine at the sender).  The controller
detects **elephant flows** and isolates each on its own lightly-loaded
path, away from the mice and from each other, so a single elephant can
no longer fill the queue every short flow must cross.

Our reproduction keeps the split edge/controller roles:

* mice use plain ECMP hashing (the fabric's default routing);
* a flow that has sent more than ``elephant_threshold_bytes`` is
  reported to the rack-shared :class:`RdnaLeafState`, which assigns it
  the path currently carrying the fewest elephants (ties break on the
  lowest path id — deterministic) and tracks the assignment until the
  flow completes;
* failure awareness rides the rack's shared detector, by default the
  :class:`~repro.detect.transport.TransportDetector` table: a failed
  path's elephants are re-placed on the healthiest least-loaded path
  and mice re-hash off it, giving the scheme a finite Fig. 16-style
  recovery where plain ECMP strands its flows.

The threshold is configurable via ``ExperimentConfig.lb_params``
(``elephant_threshold_bytes``) and the runner scales its default by
``size_scale``."""

from __future__ import annotations

from typing import Dict, Tuple, TYPE_CHECKING

import zlib

from repro.lb.base import InstalledScheme, LoadBalancer

if TYPE_CHECKING:  # pragma: no cover
    from repro.transport.base import FlowBase

#: Elephant boundary: 1 MB sent, scaled by the runner on scaled runs.
DEFAULT_ELEPHANT_THRESHOLD_BYTES = 1_000_000


class RdnaLeafState:
    """Rack-shared elephant registry: who is isolated where.

    The per-path elephant counts are the scheme's balancing signal; the
    registry is deliberately ignorant of byte rates — RDNA Balance
    spreads elephants by *count*, trusting isolation to do the rest.
    Callers pass the candidate paths already filtered by the rack's
    detector.
    """

    def __init__(self) -> None:
        #: flow_id -> (dst_leaf, path) of an isolated elephant.
        self.assignments: Dict[int, Tuple[int, int]] = {}
        #: (dst_leaf, path) -> number of elephants isolated on it.
        self.elephants_on: Dict[Tuple[int, int], int] = {}
        self.elephants_seen = 0
        self.replacements = 0

    def place(self, flow_id: int, dst_leaf: int, paths: Tuple[int, ...]) -> int:
        """Isolate a newly detected elephant on the emptiest path."""
        path = min(
            paths, key=lambda p: (self.elephants_on.get((dst_leaf, p), 0), p)
        )
        self.assignments[flow_id] = (dst_leaf, path)
        self.elephants_on[(dst_leaf, path)] = (
            self.elephants_on.get((dst_leaf, path), 0) + 1
        )
        self.elephants_seen += 1
        return path

    def replace(self, flow_id: int, dst_leaf: int, paths: Tuple[int, ...]) -> int:
        """Move an elephant whose path failed (or was cut) elsewhere."""
        old = self.assignments.get(flow_id)
        self.release(flow_id)
        if old is not None:
            # Never re-place onto the path being fled, even when the
            # detector's never-strand fallback offers the full set.
            paths = tuple(p for p in paths if p != old[1]) or paths
        path = self.place(flow_id, dst_leaf, paths)
        self.elephants_seen -= 1  # a move is not a new elephant
        self.replacements += 1
        return path

    def release(self, flow_id: int) -> None:
        assignment = self.assignments.pop(flow_id, None)
        if assignment is not None:
            remaining = self.elephants_on.get(assignment, 0) - 1
            if remaining > 0:
                self.elephants_on[assignment] = remaining
            else:
                self.elephants_on.pop(assignment, None)


class RdnaBalanceLB(LoadBalancer):
    """ECMP for mice, per-elephant isolated source-routed paths."""

    name = "rdna"
    granularity = "flow"
    default_detector = "transport"

    def __init__(
        self,
        host,
        fabric,
        rng,
        registry: RdnaLeafState,
        elephant_threshold_bytes: int = DEFAULT_ELEPHANT_THRESHOLD_BYTES,
    ) -> None:
        super().__init__(host, fabric, rng)
        if elephant_threshold_bytes < 1:
            raise ValueError("elephant_threshold_bytes must be >= 1")
        self.registry = registry
        self.elephant_threshold_bytes = elephant_threshold_bytes
        #: flow_id -> hashed mouse path (dropped on failure to re-hash).
        self._mouse_path: Dict[int, int] = {}
        #: flow_id -> re-hash count; salts the mouse hash so fleeing a
        #: failed path cannot deterministically re-select it.
        self._epoch: Dict[int, int] = {}

    def select_path(self, flow: "FlowBase", wire_bytes: int) -> int:
        dst_leaf = self.topology.leaf_of(flow.dst)
        paths = self.topology.paths(self.host.leaf, dst_leaf)
        detector = self.detector
        registry = self.registry
        assignment = registry.assignments.get(flow.flow_id)
        if assignment is not None:
            path = assignment[1]
            if path in paths and not detector.is_failed(dst_leaf, path):
                return path
            # Isolated path died under the elephant: controller re-places.
            path = registry.replace(
                flow.flow_id, dst_leaf, detector.alive(dst_leaf, paths)
            )
            return self._note_path(flow, path)
        if flow.bytes_sent >= self.elephant_threshold_bytes:
            # Mouse just graduated: detect + isolate.
            self._mouse_path.pop(flow.flow_id, None)
            path = registry.place(
                flow.flow_id, dst_leaf, detector.alive(dst_leaf, paths)
            )
            return self._note_path(flow, path)
        # Mouse: static ECMP hash, re-hashed only off failed/cut paths.
        path = self._mouse_path.get(flow.flow_id)
        if (
            path is None
            or path not in paths
            or detector.is_failed(dst_leaf, path)
        ):
            if path is not None:
                self._epoch[flow.flow_id] = (
                    self._epoch.get(flow.flow_id, 0) + 1
                )
            candidates = detector.alive(dst_leaf, paths)
            if path is not None and len(candidates) > 1:
                candidates = tuple(
                    p for p in candidates if p != path
                ) or candidates
            epoch = self._epoch.get(flow.flow_id, 0)
            digest = zlib.crc32(
                f"{flow.flow_id}:{flow.src}:{flow.dst}:{epoch}".encode("ascii")
            )
            path = candidates[digest % len(candidates)]
            self._mouse_path[flow.flow_id] = path
            return self._note_path(flow, path)
        return path

    def on_flow_done(self, flow: "FlowBase") -> None:
        self.registry.release(flow.flow_id)
        self._mouse_path.pop(flow.flow_id, None)
        self._epoch.pop(flow.flow_id, None)


def install_rdna(fabric, **params) -> InstalledScheme:
    """Install RDNA Balance: one elephant registry per rack."""
    leaf_states = {leaf: RdnaLeafState() for leaf in range(fabric.config.n_leaves)}
    for host in fabric.hosts:
        host.lb = RdnaBalanceLB(
            host,
            fabric,
            fabric.rng.spawn("rdna", host.host_id),
            leaf_states[host.leaf],
            **params,
        )
    return InstalledScheme(leaf_states=leaf_states)
