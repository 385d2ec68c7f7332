"""CONGA: global congestion-aware flowlet switching at the leaf switch.

We reproduce the CONGA dataplane (Alizadeh et al., SIGCOMM 2014) in its
leaf-to-leaf form:

* every fabric port runs a DRE (exponentially decayed byte counter) and
  stamps the maximum quantized utilization seen along the forward path
  into the packet (done generically by :class:`repro.net.port.OutputPort`);
* the destination echoes the metric back (our per-packet ACKs play the
  role of CONGA's opportunistic piggybacking);
* the source **leaf** keeps a congestion-to-leaf table per (destination
  leaf, path), *aged out after 10 ms* — an entry with no feedback is
  assumed idle, which is precisely the stale-information flip-flop the
  paper's Fig. 4 demonstrates;
* on a flowlet boundary the flow moves to the path minimizing
  ``max(local uplink DRE, remote table entry)``.

The leaf-switch state is shared by all hosts of the rack — CONGA's
visibility advantage (paper Table 2).
"""

from __future__ import annotations

from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.lb.base import LoadBalancer
from repro.sim.engine import microseconds, milliseconds

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric
    from repro.transport.base import FlowBase

#: Congestion-to-leaf table entries older than this read as idle; the
#: runner scales it with ``time_scale``.
DEFAULT_AGING_NS = milliseconds(10)


class CongaLeafState:
    """Per-leaf congestion-to-leaf table with aging."""

    def __init__(self, aging_ns: int = DEFAULT_AGING_NS) -> None:
        self.aging_ns = aging_ns
        # (dst_leaf, path) -> [metric, updated_at]
        self.table: Dict[Tuple[int, int], List[int]] = {}

    def update(self, dst_leaf: int, path: int, metric: int, now: int) -> None:
        entry = self.table.get((dst_leaf, path))
        if entry is None:
            self.table[(dst_leaf, path)] = [metric, now]
        else:
            entry[0] = metric
            entry[1] = now

    def metric(self, dst_leaf: int, path: int, now: int) -> int:
        """Aged read: entries older than ``aging_ns`` read as 0 (idle) —
        the stale-information assumption CONGA actually makes."""
        entry = self.table.get((dst_leaf, path))
        if entry is None or now - entry[1] > self.aging_ns:
            return 0
        return entry[0]


class CongaLB(LoadBalancer):
    """CONGA agent — per-host front end over the shared leaf state."""

    name = "conga"
    granularity = "flowlet"

    def __init__(
        self,
        host,
        fabric: "Fabric",
        rng,
        leaf_state: CongaLeafState,
        flowlet_timeout_ns: int = microseconds(150),
    ) -> None:
        super().__init__(host, fabric, rng)
        if flowlet_timeout_ns <= 0:
            raise ValueError("flowlet timeout must be positive")
        self.leaf_state = leaf_state
        self.flowlet_timeout_ns = flowlet_timeout_ns
        self._paths: Dict[int, int] = {}
        self.flowlets = 0

    def _path_metric(self, dst_leaf: int, path: int, now: int) -> int:
        local = self.topology.leaf_up[self.host.leaf][path]
        local_metric = local.dre_quantized() if local is not None else 0
        remote = self.leaf_state.metric(dst_leaf, path, now)
        return local_metric if local_metric > remote else remote

    def _best_path(self, dst_leaf: int, now: int) -> int:
        paths = self.live_paths(
            dst_leaf, self.topology.paths(self.host.leaf, dst_leaf)
        )
        best: List[int] = []
        best_metric = 10**9
        for p in paths:
            metric = self._path_metric(dst_leaf, p, now)
            if metric < best_metric:
                best_metric = metric
                best = [p]
            elif metric == best_metric:
                best.append(p)
        return best[0] if len(best) == 1 else self.rng.choice(best)

    def select_path(self, flow: "FlowBase", wire_bytes: int) -> int:
        now = self.fabric.sim.now
        path = self._paths.get(flow.flow_id)
        if (
            path is None
            or now - flow.last_tx_time > self.flowlet_timeout_ns
            or (
                self.detector is not None
                and self.path_down(self.topology.leaf_of(flow.dst), path)
            )
        ):
            path = self._best_path(self.topology.leaf_of(flow.dst), now)
            self._paths[flow.flow_id] = path
            self.flowlets += 1
            return self._note_path(flow, path)
        return path

    def on_path_feedback(self, flow: "FlowBase", path_id: int, metric: int) -> None:
        if path_id >= 0:
            self.leaf_state.update(
                self.topology.leaf_of(flow.dst), path_id, metric,
                self.fabric.sim.now,
            )

    def on_flow_done(self, flow: "FlowBase") -> None:
        self._paths.pop(flow.flow_id, None)
