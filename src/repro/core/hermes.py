"""The Hermes per-host agent: sensing feeds + Algorithm 2 triggering.

Hermes is invoked for **every outgoing packet** (timeliness) but reroutes
only deliberately (caution):

* a packet of a *new* flow, a flow that suffered an RTO, or a flow whose
  path is failed/blackholed → initial-placement branch;
* a packet of a flow whose current path is sensed *congested* → cautious
  rerouting, gated on the flow having sent more than ``S`` bytes and
  sending below rate ``R`` (rerouting small or fast flows does not pay);
* otherwise the flow stays put.

Blackhole detection is per (destination host, path): after 3 timeouts
with zero packets ACKed on the path, the pair is written into the agent's
failed-pair set and avoided from then on (paper §3.1.2).
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple, TYPE_CHECKING

from repro.core.parameters import HermesParams
from repro.core.rerouting import ReroutingPolicy
from repro.core.sensing import PATH_CONGESTED, PATH_FAILED, HermesLeafState
from repro.lb.base import LoadBalancer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric
    from repro.net.host import Host
    from repro.transport.base import FlowBase


class HermesLB(LoadBalancer):
    """Hermes agent for one host (the paper's hypervisor kernel module)."""

    name = "hermes"
    granularity = "packet"

    def __init__(
        self,
        host: "Host",
        fabric: "Fabric",
        rng: random.Random,
        leaf_state: HermesLeafState,
        params: HermesParams,
    ) -> None:
        super().__init__(host, fabric, rng)
        self.leaf_state = leaf_state
        self.params = params
        self.policy = ReroutingPolicy(leaf_state, params, rng)
        self._host_link_bps = fabric.config.host_link_gbps * 1e9
        # flow_id -> [timeouts_on_current_path, acked_on_current_path]
        self._flow_record: Dict[int, List[int]] = {}
        # flow_id -> time of the agent's last reroute of that flow.  A
        # mid-stream reroute makes New Reno misread the reordering as
        # loss and retransmit spuriously; those retransmissions are the
        # agent's own doing and must not count as path-failure evidence.
        self._last_reroute: Dict[int, int] = {}
        self.reroute_retx_grace_ns = 1_000_000
        # Decision accounting, mirroring the branches of Algorithm 2 —
        # what the Fig. 18 deep dive inspects.
        self.decisions = {
            "new_placements": 0,        # first packet of a flow
            "timeout_reroutes": 0,      # if_timeout-triggered placements
            "failure_evacuations": 0,   # current path failed/blackholed
            "congestion_reroutes": 0,   # congested path, moved
            "congestion_stays": 0,      # congested, no notably-better path
            "gated_stays": 0,           # congested, S/R gates said no
        }
        self.failed_pairs: Set[Tuple[int, int]] = set()
        self.blackhole_detections = 0
        #: Optional decision audit (see :mod:`repro.telemetry.audit`):
        #: records every branch of Algorithm 2 with its reason code and
        #: the gate/threshold values that fired.  ``None`` (default)
        #: costs one branch per select_path.
        self.audit = None
        leaf_state.start_sweep()

    # ------------------------------------------------------------------ #
    # Algorithm 2 trigger logic
    # ------------------------------------------------------------------ #

    def select_path(self, flow: "FlowBase", wire_bytes: int) -> int:
        dst_leaf = self.topology.leaf_of(flow.dst)
        paths = self.topology.paths(self.host.leaf, dst_leaf)
        state = self.leaf_state
        current = flow.current_path if flow.current_path >= 0 else None
        excluded = {p for p in paths if (flow.dst, p) in self.failed_pairs}
        detector = self.detector
        if detector is not None:
            # A configured detector's DOWN verdicts overlay Algorithm 2's
            # own blackhole set — but never to the point of excluding
            # every path (the never-strand rule).
            down = {
                p
                for p in paths
                if p not in excluded and detector.is_failed(dst_leaf, p)
            }
            if len(excluded) + len(down) < len(paths):
                excluded |= down

        audit = self.audit
        needs_placement = (
            current is None
            or flow.if_timeout
            or current in excluded
            or state.classify(dst_leaf, current) == PATH_FAILED
        )
        if needs_placement:
            if current is None:
                self.decisions["new_placements"] += 1
                reason = "new-flow"
            elif flow.if_timeout:
                self.decisions["timeout_reroutes"] += 1
                reason = "timeout"
            else:
                self.decisions["failure_evacuations"] += 1
                reason = "failed-path"
            path = self.policy.initial_path(dst_leaf, paths, excluded)
            flow.if_timeout = False
            if current is not None and path != current:
                self.reroutes += 1
                self._reset_record(flow)
            if audit is not None:
                detail = {}
                if reason == "failed-path":
                    detail["blackholed_pair"] = current in excluded
                audit.on_decision(
                    flow.flow_id, self.host.leaf, dst_leaf, reason,
                    -1 if current is None else current, path, detail,
                )
        elif (
            self.params.timely_rerouting
            and state.classify(dst_leaf, current) == PATH_CONGESTED
        ):
            if not self._gates_allow(flow):
                self.decisions["gated_stays"] += 1
                path = current
                if audit is not None:
                    audit.on_decision(
                        flow.flow_id, self.host.leaf, dst_leaf, "gated-stay",
                        current, current, self._gate_detail(flow),
                    )
            else:
                candidate = self.policy.reroute_from_congested(
                    dst_leaf,
                    paths,
                    current,
                    excluded,
                    require_notably=self.params.cautious_rerouting,
                )
                if candidate is not None and candidate != current:
                    self.decisions["congestion_reroutes"] += 1
                    path = candidate
                    self.reroutes += 1
                    self._reset_record(flow)
                    if audit is not None:
                        audit.on_decision(
                            flow.flow_id, self.host.leaf, dst_leaf,
                            "congested-moved", current, path,
                            self._margin_detail(dst_leaf, current, path, flow),
                        )
                else:
                    self.decisions["congestion_stays"] += 1
                    path = current
                    if audit is not None:
                        audit.on_decision(
                            flow.flow_id, self.host.leaf, dst_leaf,
                            "congested-stay", current, current,
                            {
                                "delta_rtt_ns": self.params.delta_rtt_ns,
                                "delta_ecn": self.params.delta_ecn,
                                "require_notably":
                                    self.params.cautious_rerouting,
                            },
                        )
        else:
            path = current

        state.record_sent(dst_leaf, path, wire_bytes)
        return path

    def _gate_detail(self, flow: "FlowBase") -> dict:
        """Audit detail: which of the S/R caution gates blocked a reroute."""
        size_threshold = self.params.size_threshold_bytes
        rate_threshold = (
            self.params.rate_threshold_fraction * self._host_link_bps
        )
        rate = flow.rate_bps()
        return {
            "bytes_sent": flow.bytes_sent,
            "size_threshold_bytes": size_threshold,
            "size_gate_ok": flow.bytes_sent > size_threshold,
            "rate_bps": round(rate, 1),
            "rate_threshold_bps": round(rate_threshold, 1),
            "rate_gate_ok": rate < rate_threshold,
        }

    def _margin_detail(
        self, dst_leaf: int, current: int, candidate: int, flow: "FlowBase"
    ) -> dict:
        """Audit detail for a congestion reroute: the sensed values and
        the ∆_RTT/∆_ECN margins the candidate cleared."""
        cur = self.leaf_state.state(dst_leaf, current)
        cand = self.leaf_state.state(dst_leaf, candidate)
        return {
            "cur_rtt_ns": round(cur.rtt_ns, 1),
            "cand_rtt_ns": round(cand.rtt_ns, 1),
            "cur_f_ecn": round(cur.f_ecn, 4),
            "cand_f_ecn": round(cand.f_ecn, 4),
            "delta_rtt_ns": self.params.delta_rtt_ns,
            "delta_ecn": self.params.delta_ecn,
            "require_notably": self.params.cautious_rerouting,
            "bytes_sent": flow.bytes_sent,
        }

    def _gates_allow(self, flow: "FlowBase") -> bool:
        """The cautious-rerouting gates: size sent > S and rate < R."""
        if not self.params.cautious_rerouting:
            return True
        return (
            flow.bytes_sent > self.params.size_threshold_bytes
            and flow.rate_bps()
            < self.params.rate_threshold_fraction * self._host_link_bps
        )

    # ------------------------------------------------------------------ #
    # Sensing feeds
    # ------------------------------------------------------------------ #

    def on_ack(self, flow: "FlowBase", path_id: int, ece: bool, rtt_ns: int,
               is_retx: bool) -> None:
        if path_id < 0:
            return
        self.leaf_state.record_signal(
            self.topology.leaf_of(flow.dst), path_id, ece, rtt_ns
        )
        super().on_ack(flow, path_id, ece, rtt_ns, is_retx)
        if path_id == flow.current_path:
            record = self._record(flow)
            record[1] += 1  # a packet on this path was ACKed

    def on_timeout(self, flow: "FlowBase", path_id: int) -> None:
        if path_id < 0:
            return
        super().on_timeout(flow, path_id)
        record = self._record(flow)
        record[0] += 1
        if (
            record[0] >= self.params.timeout_failure_count
            and record[1] == 0
            and (flow.dst, path_id) not in self.failed_pairs
        ):
            # Blackhole: repeated timeouts and not a single ACK on the path.
            self.failed_pairs.add((flow.dst, path_id))
            self.blackhole_detections += 1
            self.leaf_state.note_blackhole(
                self.topology.leaf_of(flow.dst), path_id, flow.dst
            )

    def on_retransmit(self, flow: "FlowBase", path_id: int) -> None:
        if path_id < 0:
            return
        last = self._last_reroute.get(flow.flow_id)
        if (
            last is not None
            and self.fabric.sim.now - last < self.reroute_retx_grace_ns
        ):
            return  # self-inflicted reordering, not path evidence
        self.leaf_state.record_retransmit(
            self.topology.leaf_of(flow.dst), path_id, flow.flow_id
        )
        super().on_retransmit(flow, path_id)

    def on_flow_done(self, flow: "FlowBase") -> None:
        self._flow_record.pop(flow.flow_id, None)
        self._last_reroute.pop(flow.flow_id, None)

    # ------------------------------------------------------------------ #
    # Per-flow blackhole bookkeeping
    # ------------------------------------------------------------------ #

    def _record(self, flow: "FlowBase") -> List[int]:
        record = self._flow_record.get(flow.flow_id)
        if record is None:
            record = [0, 0]
            self._flow_record[flow.flow_id] = record
        return record

    def _reset_record(self, flow: "FlowBase") -> None:
        """Path changed: timeout/ACK evidence belongs to the old path."""
        self._flow_record[flow.flow_id] = [0, 0]
        self._last_reroute[flow.flow_id] = self.fabric.sim.now
