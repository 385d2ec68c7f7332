"""Declarative topology specifications.

A :class:`TopologySpec` describes a fabric *shape* without building it:
what switches exist and how hosts attach.  ``build()`` turns the spec
into the wired topology object a :class:`Fabric` forwards through.

Two specs ship today:

* :class:`LeafSpineSpec` — the paper's two-tier fabric, wrapping the
  existing :class:`~repro.net.topology.TopologyConfig` (which stays the
  config-file / cache-key representation);
* :class:`ClosSpec` — a three-tier pod-based Clos (leaf → aggregation →
  core), the CAFT-motivated shape.

``Fabric`` accepts either a ``TopologyConfig`` (coerced through
:func:`as_topology_spec`, so every existing call site keeps working) or
a spec directly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, TYPE_CHECKING

from repro.net.topology import LeafSpineTopology, TopologyConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.sim.engine import Simulator


class TopologySpec:
    """Base class: a declarative fabric description.

    Subclasses define the shape (``n_hosts``/``n_leaves``/``leaf_of``)
    and how to wire it (``build``).  The spec itself owns no simulator
    state — the same spec object can build any number of independent
    fabrics.
    """

    #: Registry key used by :meth:`to_dict` / :func:`spec_from_dict`.
    kind: str = ""

    #: Subclasses provide ``hosts_per_leaf`` and ``prop_delay_ns`` as
    #: attributes or properties (plain class attributes here, so a
    #: frozen-dataclass subclass may define them as fields).
    #: ``prop_delay_ns`` is the delay of every inter-switch link.
    hosts_per_leaf: int = 0
    prop_delay_ns: int = 0

    @property
    def n_hosts(self) -> int:
        raise NotImplementedError

    @property
    def n_leaves(self) -> int:
        raise NotImplementedError

    def leaf_of(self, host: int) -> int:
        return host // self.hosts_per_leaf

    def hosts_of_leaf(self, leaf: int) -> range:
        k = self.hosts_per_leaf
        return range(leaf * k, (leaf + 1) * k)

    def build(self, sim: "Simulator", forward: Callable[["Packet"], None]):
        """Wire the fabric: returns the topology object (ports + routing)."""
        raise NotImplementedError

    def to_dict(self) -> Dict:
        raise NotImplementedError


@dataclass(frozen=True)
class LeafSpineSpec(TopologySpec):
    """The paper's two-tier leaf–spine fabric, as a spec.

    Wraps :class:`~repro.net.topology.TopologyConfig`: the config remains
    the serialized / cache-keyed form, the spec adds the construction
    surface.
    """

    config: TopologyConfig = field(default_factory=TopologyConfig)
    kind = "leaf-spine"

    @property
    def n_hosts(self) -> int:
        return self.config.n_hosts

    @property
    def n_leaves(self) -> int:
        return self.config.n_leaves

    @property
    def hosts_per_leaf(self) -> int:
        return self.config.hosts_per_leaf

    @property
    def prop_delay_ns(self) -> int:
        return self.config.prop_delay_ns

    def build(self, sim: "Simulator", forward: Callable[["Packet"], None]):
        return LeafSpineTopology(sim, self.config, forward)

    def to_dict(self) -> Dict:
        d = asdict(self.config)
        d["link_overrides"] = {
            f"{leaf},{spine}": rate
            for (leaf, spine), rate in self.config.link_overrides.items()
        }
        return {"kind": self.kind, "config": d}

    @classmethod
    def from_dict(cls, data: Dict) -> "LeafSpineSpec":
        cfg = dict(data["config"])
        overrides = {
            tuple(int(x) for x in key.split(",")): rate
            for key, rate in cfg.pop("link_overrides", {}).items()
        }
        return cls(TopologyConfig(link_overrides=overrides, **cfg))


@dataclass(frozen=True)
class ClosSpec(TopologySpec):
    """A three-tier pod-based Clos fabric.

    ``pods`` pods, each with ``leaves_per_pod`` leaf switches and
    ``aggs_per_pod`` aggregation switches (full leaf↔agg mesh inside the
    pod); ``n_cores`` core switches, each connected to every aggregation
    switch (flattened agg↔core mesh).  Path identifiers:

    * intra-rack: ``-1`` (host→leaf→host, no fabric hop);
    * intra-pod:  the aggregation index ``a`` in ``[0, aggs_per_pod)``;
    * inter-pod:  ``a * n_cores + c`` — up through agg ``a`` and core
      ``c``, down through the *same* agg index in the destination pod
      (symmetric up/down, so a path id names one deterministic route).
    """

    pods: int = 2
    leaves_per_pod: int = 2
    aggs_per_pod: int = 2
    n_cores: int = 2
    hosts_per_leaf: int = 4
    host_link_gbps: float = 10.0
    fabric_link_gbps: float = 10.0
    prop_delay_ns: int = 1_000
    buffer_bytes: int = 750_000
    ecn_threshold_bytes: int = 97_500
    dre_tau_ns: int = 100_000

    kind = "clos3"

    def __post_init__(self) -> None:
        if min(
            self.pods, self.leaves_per_pod, self.aggs_per_pod,
            self.n_cores, self.hosts_per_leaf,
        ) < 1:
            raise ValueError("clos dimensions must be positive")

    # `hosts_per_leaf` / `prop_delay_ns` are plain dataclass fields here,
    # shadowing the base-class properties by design.

    @property
    def n_leaves(self) -> int:
        return self.pods * self.leaves_per_pod

    @property
    def n_hosts(self) -> int:
        return self.n_leaves * self.hosts_per_leaf

    def pod_of_leaf(self, leaf: int) -> int:
        return leaf // self.leaves_per_pod

    def build(self, sim: "Simulator", forward: Callable[["Packet"], None]):
        from repro.net.clos import ClosTopology

        return ClosTopology(sim, self, forward)

    def to_dict(self) -> Dict:
        d = asdict(self)
        d["kind"] = self.kind
        return d

    @classmethod
    def from_dict(cls, data: Dict) -> "ClosSpec":
        data = {k: v for k, v in data.items() if k != "kind"}
        return cls(**data)


_SPEC_KINDS = {
    LeafSpineSpec.kind: LeafSpineSpec,
    ClosSpec.kind: ClosSpec,
}


def spec_from_dict(data: Dict) -> TopologySpec:
    """Rebuild a spec serialized with ``to_dict`` (dispatch on ``kind``)."""
    try:
        kind = data["kind"]
        cls = _SPEC_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(_SPEC_KINDS))
        raise ValueError(
            f"unknown topology spec kind {data.get('kind')!r}; known: {known}"
        ) from None
    return cls.from_dict(data)


def as_topology_spec(topology) -> TopologySpec:
    """Coerce what call sites historically pass (a ``TopologyConfig``)
    or a spec into a :class:`TopologySpec`."""
    if isinstance(topology, TopologySpec):
        return topology
    if isinstance(topology, TopologyConfig):
        return LeafSpineSpec(topology)
    raise TypeError(
        f"expected TopologySpec or TopologyConfig, got {type(topology).__name__}"
    )
