"""Leaf–spine topology builder with asymmetry support.

The canonical datacenter fabric of the paper: ``n_leaves`` leaf (ToR)
switches, ``n_spines`` spine switches, ``hosts_per_leaf`` hosts per leaf.
Every leaf connects to every spine, so between two hosts under different
leaves there are exactly ``n_spines`` parallel paths, one per spine —
``path_id`` *is* the spine index.  Hosts under the same leaf have a single
path (``path_id = -1``).

Asymmetry enters two ways, matching the paper's scenarios:

* **link cuts** — remove a (leaf, spine) link entirely (testbed Fig. 8b);
* **capacity reduction** — override a (leaf, spine) link to a lower rate
  (simulation §5.3.2 reduces 20% of links from 10 to 2 Gbps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.packet import Packet
from repro.net.port import OutputPort
from repro.sim.engine import Simulator

GBPS = 1e9


def check_types(obj, ints: Sequence[str], numbers: Sequence[str]) -> None:
    """``ValueError`` for the first field of ``obj`` named in ``ints``
    that is not an ``int``, or named in ``numbers`` that is not an
    ``int`` or a ``float``; a ``bool`` is neither.  A config dict is
    outside input, and a string or a float that slipped through would
    fail later — as a ``TypeError`` in a comparison, or mid-run in a
    worker, or as a float clock in an integer-nanosecond engine."""
    for name in ints:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    for name in numbers:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be a number, got {value!r}")


#: ``TopologyConfig`` fields that must be an ``int``: counts, byte sizes
#: and nanoseconds (the engine's clock is integer).
_TOPOLOGY_INTS = ("n_leaves", "n_spines", "hosts_per_leaf", "prop_delay_ns",
                  "buffer_bytes", "ecn_threshold_bytes", "dre_tau_ns")


@dataclass
class TopologyConfig:
    """Parameters of a leaf–spine fabric.

    ``link_overrides`` maps ``(leaf, spine) -> rate_gbps``; a rate of 0
    cuts the link.  The override applies to both directions (leaf→spine
    and spine→leaf), as a physical link failure would.
    """

    n_leaves: int = 2
    n_spines: int = 2
    hosts_per_leaf: int = 6
    host_link_gbps: float = 10.0
    spine_link_gbps: float = 10.0
    link_overrides: Dict[Tuple[int, int], float] = field(default_factory=dict)
    prop_delay_ns: int = 1_000
    buffer_bytes: int = 750_000
    ecn_threshold_bytes: int = 97_500  # 65 x 1500B packets, DCTCP guideline at 10G
    dre_tau_ns: int = 100_000

    def __post_init__(self) -> None:
        check_types(self, _TOPOLOGY_INTS, ("host_link_gbps", "spine_link_gbps"))
        if not isinstance(self.link_overrides, dict):
            raise ValueError(
                "link_overrides must map (leaf, spine) to a rate, "
                f"got {self.link_overrides!r}"
            )
        if self.n_leaves < 1 or self.n_spines < 1 or self.hosts_per_leaf < 1:
            raise ValueError("topology dimensions must be positive")
        for (leaf, spine), rate in self.link_overrides.items():
            if not (0 <= leaf < self.n_leaves and 0 <= spine < self.n_spines):
                raise ValueError(f"override ({leaf},{spine}) outside topology")
            if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                raise ValueError(f"override rate must be a number, got {rate!r}")
            if rate < 0:
                raise ValueError("override rate must be >= 0 (0 cuts the link)")

    @property
    def n_hosts(self) -> int:
        return self.n_leaves * self.hosts_per_leaf

    def link_rate_gbps(self, leaf: int, spine: int) -> float:
        """Effective leaf<->spine link rate after overrides (0 = cut)."""
        return self.link_overrides.get((leaf, spine), self.spine_link_gbps)

    def one_hop_delay_ns(self) -> int:
        """Per-hop queueing delay of a fully loaded hop (K / C), the paper's
        guideline for deriving ``T_RTT_high`` and ``∆_RTT``."""
        return int(self.ecn_threshold_bytes * 8 * 1e9 / (self.spine_link_gbps * GBPS))

    def fabric_capacity_bps(self) -> float:
        """Offered-load reference capacity: the edge capacity capped by
        the aggregate leaf-spine uplink capacity.  In an oversubscribed
        fabric the core, not the host NICs, bounds the sustainable
        inter-rack load — the paper's load axis is relative to this."""
        edge = self.n_hosts * self.host_link_gbps * GBPS
        uplinks = sum(
            self.link_rate_gbps(leaf, spine) * GBPS
            for leaf in range(self.n_leaves)
            for spine in range(self.n_spines)
        )
        if self.n_leaves == 1:
            return edge
        return min(edge, uplinks)

    def base_rtt_ns(self, intra_rack: bool = False) -> int:
        """Unloaded round-trip (propagation + serialization of a full-size
        packet on each hop, both directions, no queueing)."""
        mtu_bits = 1500 * 8
        if intra_rack:
            hops = [(self.host_link_gbps, 2)]  # host->leaf, leaf->host
        else:
            hops = [(self.host_link_gbps, 2), (self.spine_link_gbps, 2)]
        one_way = 0.0
        n_links = 0
        for rate_gbps, count in hops:
            one_way += count * mtu_bits / (rate_gbps * GBPS) * 1e9
            n_links += count
        one_way += n_links * self.prop_delay_ns
        return int(2 * one_way)


class LeafSpineTopology:
    """The wired fabric: ports, path enumeration and route lookup.

    Directed ports:

    * ``host_up[h]``    — host h → its leaf switch
    * ``leaf_up[l][s]`` — leaf l → spine s (``None`` if cut)
    * ``spine_down[s][l]`` — spine s → leaf l (``None`` if cut)
    * ``leaf_down[h]``  — leaf of h → host h

    Routes are tuples of ports, cached per (src, dst, path_id).
    """

    def __init__(
        self,
        sim: Simulator,
        config: TopologyConfig,
        forward: Callable[[Packet], None],
    ) -> None:
        self.sim = sim
        self.config = config
        cfg = config

        def port(name: str, rate_gbps: float) -> OutputPort:
            # ECN threshold tracks the DCTCP guideline K ∝ C so that slower
            # links mark earlier (paper uses 32 KB at 1 Gbps).
            scale = rate_gbps / 10.0
            ecn_k = max(15_000, int(cfg.ecn_threshold_bytes * scale))
            return OutputPort(
                sim,
                name,
                rate_gbps * GBPS,
                cfg.prop_delay_ns,
                cfg.buffer_bytes,
                ecn_k,
                forward=forward,
                dre_tau_ns=cfg.dre_tau_ns,
            )

        self.host_up: List[OutputPort] = [
            port(f"host{h}->leaf{self.leaf_of(h)}", cfg.host_link_gbps)
            for h in range(cfg.n_hosts)
        ]
        self.leaf_down: List[OutputPort] = [
            port(f"leaf{self.leaf_of(h)}->host{h}", cfg.host_link_gbps)
            for h in range(cfg.n_hosts)
        ]
        self.leaf_up: List[List[Optional[OutputPort]]] = []
        self.spine_down: List[List[Optional[OutputPort]]] = [
            [None] * cfg.n_leaves for _ in range(cfg.n_spines)
        ]
        for leaf in range(cfg.n_leaves):
            row: List[Optional[OutputPort]] = []
            for spine in range(cfg.n_spines):
                rate = cfg.link_rate_gbps(leaf, spine)
                if rate <= 0:
                    row.append(None)
                else:
                    row.append(port(f"leaf{leaf}->spine{spine}", rate))
                    self.spine_down[spine][leaf] = port(
                        f"spine{spine}->leaf{leaf}", rate
                    )
            self.leaf_up.append(row)

        self._paths_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._route_cache: Dict[Tuple[int, int, int], Tuple[OutputPort, ...]] = {}

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #

    def leaf_of(self, host: int) -> int:
        """Leaf switch index a host hangs off."""
        return host // self.config.hosts_per_leaf

    def hosts_of_leaf(self, leaf: int) -> range:
        """Host ids under a leaf."""
        k = self.config.hosts_per_leaf
        return range(leaf * k, (leaf + 1) * k)

    # ------------------------------------------------------------------ #
    # Path enumeration and routing
    # ------------------------------------------------------------------ #

    def paths(self, src_leaf: int, dst_leaf: int) -> Tuple[int, ...]:
        """Alive path ids (spine indices) between two distinct leaves."""
        if src_leaf == dst_leaf:
            return (-1,)
        key = (src_leaf, dst_leaf)
        cached = self._paths_cache.get(key)
        if cached is None:
            cached = tuple(
                s
                for s in range(self.config.n_spines)
                if self.leaf_up[src_leaf][s] is not None
                and self.spine_down[s][dst_leaf] is not None
            )
            if not cached:
                raise ValueError(f"no alive path between leaves {src_leaf}->{dst_leaf}")
            self._paths_cache[key] = cached
        return cached

    def paths_between_hosts(self, src: int, dst: int) -> Tuple[int, ...]:
        """Alive path ids between two hosts (``(-1,)`` if same rack)."""
        return self.paths(self.leaf_of(src), self.leaf_of(dst))

    def route(self, src: int, dst: int, path_id: int) -> Tuple[OutputPort, ...]:
        """The ordered ports a packet traverses from ``src`` to ``dst`` over
        ``path_id``.  Raises if the path does not exist (cut link)."""
        key = (src, dst, path_id)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        src_leaf = self.leaf_of(src)
        dst_leaf = self.leaf_of(dst)
        if src == dst:
            raise ValueError("cannot route a packet to its own host")
        if src_leaf == dst_leaf:
            route = (self.host_up[src], self.leaf_down[dst])
        else:
            up = self.leaf_up[src_leaf][path_id]
            down = self.spine_down[path_id][dst_leaf]
            if up is None or down is None:
                raise ValueError(
                    f"path {path_id} between leaves {src_leaf}->{dst_leaf} is cut"
                )
            route = (self.host_up[src], up, down, self.leaf_down[dst])
        self._route_cache[key] = route
        return route

    # ------------------------------------------------------------------ #
    # Introspection for load balancers and metrics
    # ------------------------------------------------------------------ #

    def uplink_ports(self, leaf: int) -> List[Tuple[int, OutputPort]]:
        """Alive (spine, port) uplinks of a leaf (cut links omitted)."""
        return [
            (s, p) for s, p in enumerate(self.leaf_up[leaf]) if p is not None
        ]

    def all_ports(self) -> List[OutputPort]:
        """Every port in the fabric (for statistics sweeps)."""
        ports: List[OutputPort] = list(self.host_up) + list(self.leaf_down)
        for row in self.leaf_up:
            ports.extend(p for p in row if p is not None)
        for row in self.spine_down:
            ports.extend(p for p in row if p is not None)
        return ports

    def spine_ports(self, spine: int) -> List[OutputPort]:
        """The downlink ports owned by one spine switch (failure injection
        attaches here: every packet crossing the spine uses exactly one)."""
        return [p for p in self.spine_down[spine] if p is not None]
