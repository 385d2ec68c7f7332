"""Poisson flow generation targeting a fractional fabric load.

Following the paper's methodology (the flow generator of Bai et al.):
flows arrive as a Poisson process between random sender/receiver pairs
under different leaf switches.  The aggregate arrival rate is chosen so
that the offered load equals ``load`` × the fabric capacity (edge
capacity capped by the aggregate leaf-spine uplink capacity — in an
oversubscribed fabric the core, not the NICs, bounds sustainable load):

    λ = load × C_fabric / mean_flow_size
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List

from repro.net.topology import TopologyConfig
from repro.workload.distributions import FlowSizeDistribution


@dataclass(frozen=True)
class FlowArrival:
    """One generated flow: when it starts, between whom, how big."""

    time_ns: int
    src: int
    dst: int
    size_bytes: int


class FlowGenerator:
    """Generate Poisson flow arrivals for a leaf–spine fabric.

    Args:
        config: the topology (for host count and capacities).
        distribution: flow-size distribution (already scaled if desired).
        load: offered load as a fraction of the total edge capacity.
        rng: dedicated random stream.
        inter_rack_only: restrict pairs to different leaves (the paper's
            generator does; intra-rack flows bypass the fabric entirely).
    """

    def __init__(
        self,
        config: TopologyConfig,
        distribution: FlowSizeDistribution,
        load: float,
        rng: random.Random,
        inter_rack_only: bool = True,
    ) -> None:
        if not 0.0 < load:
            raise ValueError(f"load must be positive, got {load}")
        if config.n_leaves < 2 and inter_rack_only:
            raise ValueError("inter-rack generation needs at least two leaves")
        self.config = config
        self.distribution = distribution
        self.load = load
        self.rng = rng
        self.inter_rack_only = inter_rack_only
        capacity_bps = config.fabric_capacity_bps()
        self.lambda_per_ns = (
            load * capacity_bps / 8.0 / distribution.mean() / 1e9
        )

    def mean_interarrival_ns(self) -> float:
        """Expected gap between consecutive flow arrivals."""
        return 1.0 / self.lambda_per_ns

    def _pick_pair(self) -> tuple:
        n = self.config.n_hosts
        k = self.config.hosts_per_leaf
        src = self.rng.randrange(n)
        while True:
            dst = self.rng.randrange(n)
            if dst == src:
                continue
            if self.inter_rack_only and dst // k == src // k:
                continue
            return src, dst

    def arrivals(
        self, n_flows: int, start_ns: int = 0
    ) -> Iterator[FlowArrival]:
        """Yield ``n_flows`` arrivals in time order."""
        if n_flows < 0:
            raise ValueError("n_flows must be non-negative")
        t = float(start_ns)
        for _ in range(n_flows):
            t += self.rng.expovariate(self.lambda_per_ns)
            src, dst = self._pick_pair()
            size = self.distribution.sample(self.rng)
            yield FlowArrival(int(t), src, dst, size)

    def arrival_list(self, n_flows: int, start_ns: int = 0) -> List[FlowArrival]:
        """Materialized :meth:`arrivals`."""
        return list(self.arrivals(n_flows, start_ns))
