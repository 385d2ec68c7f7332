"""Load-balancer factory: build and install agents on every host.

``install_lb(fabric, "hermes")`` wires up the whole scheme: per-host
agents, shared per-leaf state where the scheme needs it (CONGA tables,
Hermes path tables), auxiliary machinery (Hermes probe agents) and the
per-leaf failure detectors the agents read.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.lb.base import InstalledScheme
from repro.lb.clove import CloveEcnLB
from repro.lb.conga import DEFAULT_AGING_NS, CongaLB, CongaLeafState
from repro.lb.diffflow import DiffFlowLB
from repro.lb.drill import DrillLB
from repro.lb.ecmp import EcmpLB
from repro.lb.flowbender import FlowBenderLB
from repro.lb.letflow import LetFlowLB
from repro.lb.presto import DrbLB, PrestoLB
from repro.lb.rdna import RdnaBalanceLB, install_rdna
from repro.lb.reps import RepsLB
from repro.net.fabric import Fabric


def _install_simple(cls: type) -> Callable[..., InstalledScheme]:
    def installer(fabric: Fabric, **params: Any) -> InstalledScheme:
        for host in fabric.hosts:
            host.lb = cls(
                host, fabric, fabric.rng.spawn(cls.name, host.host_id), **params
            )
        return InstalledScheme()

    return installer


def _install_conga(fabric: Fabric, **params: Any) -> InstalledScheme:
    # CONGA is the DRE's only consumer, so it alone switches it on.
    for port in fabric.topology.all_ports():
        port.enable_dre()
    aging_ns = params.pop("aging_ns", DEFAULT_AGING_NS)
    leaf_states = {
        leaf: CongaLeafState(aging_ns) for leaf in range(fabric.config.n_leaves)
    }
    for host in fabric.hosts:
        host.lb = CongaLB(
            host,
            fabric,
            fabric.rng.spawn("conga", host.host_id),
            leaf_states[host.leaf],
            **params,
        )
    return InstalledScheme(leaf_states=leaf_states)


def _install_hermes(fabric: Fabric, **params: Any) -> InstalledScheme:
    # Imported lazily: repro.core.hermes itself depends on repro.lb.base,
    # and a module-level import here would close that cycle.
    from repro.core.hermes import HermesLB
    from repro.core.parameters import HermesParams
    from repro.core.probing import HermesProber
    from repro.core.sensing import HermesLeafState

    hermes_params: HermesParams = params.pop("params", HermesParams())
    hermes_params = hermes_params.resolve(fabric.config)
    leaf_states = {
        leaf: HermesLeafState(fabric, leaf, hermes_params)
        for leaf in range(fabric.config.n_leaves)
    }
    probers = {}
    for leaf, state in leaf_states.items():
        prober = HermesProber(
            fabric, leaf, state, hermes_params, fabric.rng.spawn("probe", leaf)
        )
        prober.start()
        probers[leaf] = prober
    for host in fabric.hosts:
        host.lb = HermesLB(
            host,
            fabric,
            fabric.rng.spawn("hermes", host.host_id),
            leaf_states[host.leaf],
            hermes_params,
        )
    return InstalledScheme(
        leaf_states=leaf_states, probers=probers, params=hermes_params
    )


#: scheme name -> installer(fabric, **params) -> InstalledScheme
LB_REGISTRY: Dict[str, Callable[..., InstalledScheme]] = {
    "ecmp": _install_simple(EcmpLB),
    "presto": _install_simple(PrestoLB),
    "drb": _install_simple(DrbLB),
    "letflow": _install_simple(LetFlowLB),
    "clove-ecn": _install_simple(CloveEcnLB),
    "drill": _install_simple(DrillLB),
    "flowbender": _install_simple(FlowBenderLB),
    "conga": _install_conga,
    "hermes": _install_hermes,
    "reps": _install_simple(RepsLB),
    "diffflow": _install_simple(DiffFlowLB),
    "rdna": install_rdna,
}

#: Agent class behind each registry name (the conformance suite reads
#: declared ``granularity`` off these without building a fabric).
LB_CLASSES: Dict[str, type] = {
    "ecmp": EcmpLB,
    "presto": PrestoLB,
    "drb": DrbLB,
    "letflow": LetFlowLB,
    "clove-ecn": CloveEcnLB,
    "drill": DrillLB,
    "flowbender": FlowBenderLB,
    "conga": CongaLB,
    "reps": RepsLB,
    "diffflow": DiffFlowLB,
    "rdna": RdnaBalanceLB,
}


def scheme_names() -> Tuple[str, ...]:
    """Every registered scheme, alphabetically — the single source of
    truth for CLI help strings, chaos draws, and coverage assertions."""
    return tuple(sorted(LB_REGISTRY))


#: Schemes that spray *blindly* per packet and therefore reorder by
#: design; harnesses give their receivers a reordering mask so dup-ACK
#: retransmits reflect loss, not spraying.  (DRILL and Hermes also
#: decide per packet but steer toward one good path rather than spraying
#: across all of them, so they stay maskless like the paper's setups.)
SPRAYING_SCHEMES: Tuple[str, ...] = ("diffflow", "drb", "presto", "reps")


def install_lb(
    fabric: Fabric,
    name: str,
    detector: Optional[Any] = None,
    detector_time_scale: float = 1.0,
    **params: Any,
) -> InstalledScheme:
    """Install scheme ``name`` on every host of ``fabric``.

    Returns the scheme's :class:`~repro.lb.base.InstalledScheme` (all
    fields empty for stateless schemes) so harnesses can inspect
    probers, tables, detection counters, etc.

    One install order for every scheme: run the scheme's installer, then
    build one detector per leaf from ``detector`` (a :mod:`repro.detect`
    spec string or parsed spec) or, when that is ``None``, from the
    agents' ``default_detector``; bind it to each agent's ``detector``
    slot, publish the map as ``InstalledScheme.detectors`` and start it.
    ``detector_time_scale`` scales the spec's default timers; explicit
    ones are set through the spec DSL
    (``"transport:hold=…,retx_threshold=…,retx_window=…"``).
    """
    try:
        installer = LB_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(LB_REGISTRY))
        raise ValueError(f"unknown load balancer {name!r}; known: {known}") from None
    scheme = installer(fabric, **params)
    spec = detector or fabric.hosts[0].lb.default_detector
    if spec is None:
        return scheme
    # Imported lazily: repro.detect pulls in implementation modules that
    # themselves import from repro.lb.
    from repro.detect import build_leaf_detectors

    detectors = build_leaf_detectors(fabric, spec, detector_time_scale)
    for host in fabric.hosts:
        host.lb.detector = detectors[host.leaf]
    scheme.detectors = detectors
    for det in detectors.values():
        det.start()
    return scheme
