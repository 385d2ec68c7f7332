"""repro.hooks — wire a run's observers into its fabric, once.

Four subsystems observe a running fabric through nullable attributes
that default to ``None`` and cost one ``is not None`` branch per hook
site when off: the invariant checker (:mod:`repro.validate`), the
structured tracer and decision audit (:mod:`repro.telemetry`), and the
engine loop profiler.  :func:`attach` sets them all in one call, after
``install_lb`` and before the first event::

    attach(fabric, checker=checker, tracer=tracer, audit=audit,
           profiler=profiler, scheme=scheme)

Nothing unwires an observer: it watches its run from the first event
to the last.  An unobserved run never calls into this module.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.lb.base import InstalledScheme
    from repro.net.fabric import Fabric


def attach(
    fabric: "Fabric",
    *,
    checker: Any = None,
    tracer: Any = None,
    audit: Any = None,
    profiler: Any = None,
    scheme: Optional["InstalledScheme"] = None,
) -> None:
    """Wire the given observers into every layer of ``fabric``.

    Args:
        checker: an :class:`repro.validate.InvariantChecker`, wired into
            the fabric (send / deliver), the engine (clock monotonicity),
            every port (``watch_port`` shadow accounting — ports must be
            idle) and Hermes's leaf tables (path-class checks).
        tracer: anything implementing the
            :class:`repro.telemetry.tracer.TracerHooks` protocol, wired
            into the fabric (send / forward / flow lifecycle) and every
            port (drops).
        audit: a :class:`repro.telemetry.audit.DecisionAudit`, wired into
            every per-host agent exposing an ``audit`` attribute, every
            Hermes leaf table and every detector of ``scheme``.
        profiler: a :class:`repro.telemetry.series.LoopProfiler`, wired
            into the engine (one callback per dispatched event).
        scheme: the :class:`~repro.lb.base.InstalledScheme`
            ``install_lb`` returned; lets ``checker`` / ``audit`` reach
            its rack-shared state.
    """
    sim = fabric.sim
    if checker is not None:
        fabric._checker = checker
        sim._checker = checker
    if profiler is not None:
        sim._profiler = profiler
    if tracer is not None:
        fabric._tracer = tracer
    for port in fabric.topology.all_ports():
        if checker is not None:
            checker.watch_port(port)
        if tracer is not None:
            port._tracer = tracer
        port._refresh_fast_path()
    fabric._fast = fabric._checker is None and fabric._tracer is None
    if audit is not None:
        for host in fabric.hosts:
            agent = host.lb
            if agent is not None and hasattr(agent, "audit"):
                agent.audit = audit
    if scheme is None:
        return
    for state in scheme.leaf_states.values():
        # Only Hermes's leaf tables ``classify``; the loop below reaches
        # every other detector.
        if not hasattr(state, "classify"):
            continue
        if checker is not None:
            state.checker = checker
        if audit is not None:
            state.audit = audit
    if audit is not None:
        for detector in scheme.detectors.values():
            detector.audit = audit
