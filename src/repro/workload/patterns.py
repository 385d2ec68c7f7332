"""Synthetic traffic beyond Poisson pair traffic: incast.

The paper's discussion touches a scenario the Poisson generator cannot
express: incast (many-to-one, where MPTCP famously suffers and where a
load balancer must not spray the synchronized burst into one queue).
``examples/incast_study.py`` builds its workload with it.
"""

from __future__ import annotations

import random
from typing import List

from repro.net.topology import TopologyConfig
from repro.workload.generator import FlowArrival


def incast(
    config: TopologyConfig,
    target: int,
    n_senders: int,
    flow_bytes: int,
    rng: random.Random,
    start_ns: int = 0,
    jitter_ns: int = 10_000,
    inter_rack_only: bool = True,
) -> List[FlowArrival]:
    """A synchronized many-to-one burst into ``target``.

    Senders are drawn without replacement from the other hosts (other
    racks only, by default) and start within ``jitter_ns`` of each other.
    """
    if not 0 <= target < config.n_hosts:
        raise ValueError(f"target {target} outside the fabric")
    k = config.hosts_per_leaf
    candidates = [
        h
        for h in range(config.n_hosts)
        if h != target and (not inter_rack_only or h // k != target // k)
    ]
    if n_senders > len(candidates):
        raise ValueError(
            f"asked for {n_senders} senders, only {len(candidates)} available"
        )
    senders = rng.sample(candidates, n_senders)
    return [
        FlowArrival(
            start_ns + (rng.randrange(jitter_ns) if jitter_ns else 0),
            src,
            target,
            flow_bytes,
        )
        for src in senders
    ]

