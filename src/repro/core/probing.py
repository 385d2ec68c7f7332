"""Active probing (paper §3.1.3, Table 6).

Visibility costs probe bandwidth.  Hermes' design point:

* **power of two choices**: each probing round samples two random paths,
  *plus* the previously observed best path (better stability and a higher
  chance of hitting an underutilized path);
* **rack-level delegation**: one hypervisor per rack acts as the probe
  agent; agents probe each other and share the results with every
  hypervisor under the rack, amortizing the probe cost across hosts.

Probes are 64-byte packets that travel the *normal-priority* queue of the
probed path (so they experience real queueing delay and ECN marking);
replies return at high priority so the measured RTT reflects the forward
path.

:func:`probe_overhead_model` is the analytical model behind Table 6.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, TYPE_CHECKING

from repro.core.parameters import HermesParams
from repro.core.sensing import HermesLeafState
from repro.detect.base import HERMES_PROBE_FLOW_ID
from repro.net.packet import PROBE_BYTES, Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric


class HermesProber:
    """Per-rack probe agent.

    Every ``probe_interval`` the agent probes, for each remote leaf, two
    random paths plus the previously best one, and feeds the replies into
    the rack's shared :class:`~repro.core.sensing.HermesLeafState`.
    """

    def __init__(
        self,
        fabric: "Fabric",
        leaf: int,
        leaf_state: HermesLeafState,
        params: HermesParams,
        rng: random.Random,
    ) -> None:
        self.fabric = fabric
        self.sim = fabric.sim
        self.topology = fabric.topology
        self.leaf = leaf
        self.leaf_state = leaf_state
        self.params = params
        self.rng = rng
        self.agent_host = next(iter(self.topology.hosts_of_leaf(leaf)))
        self._prev_best: Dict[int, int] = {}
        self.probes_sent = 0
        self.replies_received = 0
        #: Probes (or their replies) that died in-fabric — admin-down
        #: links eat probes exactly like data packets, and for a long
        #: time those deaths were invisible: ``probes_sent`` minus
        #: ``replies_received`` conflated losses with replies merely
        #: still in flight.
        self.probes_lost = 0
        self._started = False
        fabric.claim_probes(
            self.agent_host, HERMES_PROBE_FLOW_ID, self.on_reply, self.on_lost
        )

    def start(self) -> None:
        """Kick off the periodic probing loop (idempotent).  Rounds are
        jittered by the rack index so agents do not synchronize."""
        if self._started or not self.params.probing_enabled:
            return
        self._started = True
        jitter = (self.leaf * 7919) % max(1, self.params.probe_interval_ns)
        self.sim.post(jitter, self._round)

    def _round(self) -> None:
        for dst_leaf in range(self.topology.config.n_leaves):
            if dst_leaf == self.leaf:
                continue
            paths = self.topology.paths(self.leaf, dst_leaf)
            if not paths or paths == (-1,):
                continue
            for path in self._candidates(dst_leaf, paths):
                self._send_probe(dst_leaf, path)
        self.sim.post(self.params.probe_interval_ns, self._round)

    def _candidates(self, dst_leaf: int, paths) -> set:
        """Two random choices plus the previous best (deduplicated)."""
        k = min(2, len(paths))
        chosen = set(self.rng.sample(list(paths), k))
        best = self._prev_best.get(dst_leaf)
        if best is not None and best in paths:
            chosen.add(best)
        return chosen

    def _send_probe(self, dst_leaf: int, path: int) -> None:
        dst_agent = next(iter(self.topology.hosts_of_leaf(dst_leaf)))
        probe = self.fabric.packet_pool.probe(
            HERMES_PROBE_FLOW_ID, self.agent_host, dst_agent, path, self.sim.now
        )
        self.probes_sent += 1
        self.fabric.send(probe)

    def on_reply(self, reply: Packet) -> None:
        """Fold a probe reply into the shared table and track the best path."""
        self.replies_received += 1
        dst_leaf = self.topology.leaf_of(reply.src)
        rtt = self.sim.now - reply.ts_echo
        self.leaf_state.record_signal(dst_leaf, reply.path_id, reply.ece, rtt)
        best = self._prev_best.get(dst_leaf)
        if best is None or best == reply.path_id:
            self._prev_best[dst_leaf] = reply.path_id
        else:
            best_rtt = self.leaf_state.state(dst_leaf, best).rtt_ns
            if rtt < best_rtt:
                self._prev_best[dst_leaf] = reply.path_id

    def on_lost(self, packet: Packet) -> None:
        """One of our probes, or its reply, died in-fabric."""
        self.probes_lost += 1


def probe_overhead_model(
    n_leaves: int = 100,
    n_spines: int = 100,
    hosts_per_leaf: int = 100,
    link_gbps: float = 10.0,
    probe_bytes: int = PROBE_BYTES,
    probe_interval_us: float = 500.0,
    piggyback_visibility: Optional[float] = None,
) -> Dict[str, Dict[str, float]]:
    """The analytical visibility/overhead comparison of Table 6.

    Conventions (chosen to reproduce the paper's numbers; see
    EXPERIMENTS.md for the derivation):

    * *brute force* and *power of two choices* probe per destination
      **host** (each host independently probes every other host under a
      different rack over ``n_spines`` resp. 3 paths);
    * *Hermes* delegates to one probe agent per rack, which probes 3
      paths per destination **rack** and shares the results.

    Visibility is the number of parallel paths with fresh state per
    destination; overhead is probe send rate over the edge link capacity.

    Returns a mapping ``scheme -> {"visibility": ..., "overhead": ...}``
    (overhead as a fraction of link capacity, e.g. 100.0 = 100x).
    """
    if min(n_leaves, n_spines, hosts_per_leaf) < 1:
        raise ValueError("topology dimensions must be positive")
    interval_s = probe_interval_us * 1e-6
    link_bps = link_gbps * 1e9
    probe_bits = probe_bytes * 8
    remote_hosts = (n_leaves - 1) * hosts_per_leaf

    def per_host_overhead(paths_probed: int, destinations: int) -> float:
        return paths_probed * destinations * probe_bits / interval_s / link_bps

    po2c_paths = 3  # two random choices + previous best
    schemes = {
        "piggyback": {
            "visibility": (
                piggyback_visibility if piggyback_visibility is not None else 0.01
            ),
            "overhead": 0.0,
        },
        "brute-force": {
            "visibility": float(n_spines),
            "overhead": per_host_overhead(n_spines, remote_hosts),
        },
        "power-of-two-choices": {
            "visibility": float(po2c_paths),
            "overhead": per_host_overhead(po2c_paths, remote_hosts),
        },
        "hermes": {
            "visibility": float(po2c_paths),
            # One agent per rack probes per destination *rack* and shares.
            "overhead": per_host_overhead(po2c_paths, n_leaves - 1),
        },
    }
    return schemes
