"""Load-balancer factory: build and install agents on every host.

``install_lb(fabric, "hermes", rng)`` wires up the whole scheme: per-host
agents, shared per-leaf state where the scheme needs it (CONGA tables,
Hermes path tables), and auxiliary machinery (Hermes probe agents).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.lb.base import InstalledScheme
from repro.lb.clove import CloveEcnLB
from repro.lb.conga import CongaLB, CongaLeafState
from repro.lb.diffflow import DiffFlowLB, install_diffflow
from repro.lb.drill import DrillLB
from repro.lb.ecmp import EcmpLB
from repro.lb.flowbender import FlowBenderLB
from repro.lb.letflow import LetFlowLB
from repro.lb.presto import DrbLB, PrestoLB
from repro.lb.rdna import RdnaBalanceLB, install_rdna
from repro.lb.reps import RepsLB, install_reps
from repro.net.fabric import Fabric
from repro.sim.engine import microseconds


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
    aging_ns = params.pop("aging_ns", None)
    leaf_states = {
        leaf: CongaLeafState(**({"aging_ns": aging_ns} if aging_ns else {}))
        for leaf in range(fabric.config.n_leaves)
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
    from repro.core.probing import HermesProber, install_probe_loss_accounting
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
    install_probe_loss_accounting(fabric, probers)
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
    "reps": install_reps,
    "diffflow": install_diffflow,
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


#: Schemes whose agents route on a per-leaf failure table: their
#: installers take the table as ``leaf_health``, and a configured
#: detector *is* that table instead of riding alongside it.
_HEALTH_TABLE_SCHEMES: Tuple[str, ...] = ("reps", "diffflow", "rdna")


def install_lb(fabric: Fabric, name: str, **params: Any) -> InstalledScheme:
    """Install scheme ``name`` on every host of ``fabric``.

    Returns the scheme's :class:`~repro.lb.base.InstalledScheme` (all
    fields empty for stateless schemes) so harnesses can inspect
    probers, tables, detection counters, etc.

    ``detector`` (a :mod:`repro.detect` spec string or parsed spec) and
    ``detector_time_scale`` are understood for every scheme: the factory
    builds one detector per leaf, binds it to each agent's ``detector``
    slot, publishes the map as ``InstalledScheme.detectors`` and starts
    active detectors last — after any scheme machinery (the Hermes
    prober) has claimed its probe sink, so reply demultiplexing chains
    instead of clobbering.  The health-table schemes route on those
    detectors, and get the default ``"transport"`` table when none is
    configured; its timers are set through the spec DSL
    (``"transport:hold=…,retx_threshold=…,retx_window=…"``).
    """
    try:
        installer = LB_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(LB_REGISTRY))
        raise ValueError(f"unknown load balancer {name!r}; known: {known}") from None
    detector_spec = params.pop("detector", None)
    time_scale = params.pop("detector_time_scale", 1.0)
    routes_on_table = name in _HEALTH_TABLE_SCHEMES
    if detector_spec is None and not routes_on_table:
        return installer(fabric, **params)
    # Imported lazily: repro.detect pulls in implementation modules that
    # themselves import from repro.lb.
    from repro.detect import build_leaf_detectors

    if routes_on_table:
        detectors = build_leaf_detectors(
            fabric, detector_spec or "transport", time_scale
        )
        scheme = installer(fabric, leaf_health=detectors, **params)
    else:
        scheme = installer(fabric, **params)
        # Built after the installer ran (see docstring: sink chaining).
        detectors = build_leaf_detectors(fabric, detector_spec, time_scale)
    for host in fabric.hosts:
        agent = host.lb
        if agent is not None:
            agent.detector = detectors[host.leaf]
    scheme.detectors = detectors
    for det in detectors.values():
        det.start()
    return scheme
