"""repro.hooks — one attach/detach surface for every nullable hook.

Four subsystems observe a running fabric through nullable attributes
that default to ``None`` and cost one ``is not None`` branch per hook
site when off: the invariant checker (:mod:`repro.validate`), the
structured tracer and decision audit (:mod:`repro.telemetry`), and the
engine loop profiler.  Historically each subsystem hand-wired its own
attributes (``fabric.tracer``, ``port.tracer``, ``port.checker``,
``sim.profiler``, ...) with its own occupancy checks; :class:`HookSet`
replaces that with a single fabric-bound surface::

    fabric.hooks.attach(checker=checker, tracer=tracer)
    ...
    fabric.hooks.detach(tracer=True)    # or detach_all()

Attach refuses to overwrite an occupied slot (``InstallError``-free:
plain ``RuntimeError``, checked for *all* requested slots before any
wiring happens, so a failed attach changes nothing).  The per-object
attributes (``fabric.checker``, ``sim.profiler``, ``port.tracer``, ...)
are **read-only** properties: assigning one is an ``AttributeError``,
because the fast-path flags (``Fabric._fast``, ``OutputPort._guarded``)
are refreshed only by ``attach``/``detach`` and a bypassing write would
install a hook the hot path never consults.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.lb.base import InstalledScheme
    from repro.net.fabric import Fabric

#: HookSet slot names, in attach/report order.
SLOTS = ("checker", "tracer", "audit", "profiler")


class HookSet:
    """The attach/detach surface of one fabric's observability hooks.

    Built by :class:`repro.net.fabric.Fabric` as ``fabric.hooks``; holds
    at most one occupant per slot:

    * ``checker`` — wired into the fabric (send/deliver), the engine
      (clock monotonicity) and every port (``watch_port`` shadow
      accounting — ports must be idle);
    * ``tracer`` — wired into the fabric (send/forward/flow lifecycle)
      and every port (drops);
    * ``audit`` — wired into every per-host agent exposing an ``audit``
      attribute and, when ``scheme`` is given, every detector of the
      scheme: Hermes's leaf tables in ``scheme.leaf_states`` (detectors
      that also ``classify``) and everything in ``scheme.detectors``;
    * ``profiler`` — wired into the engine (one callback per dispatched
      event).
    """

    def __init__(self, fabric: "Fabric") -> None:
        self._fabric = fabric
        self._occupants: Dict[str, Any] = {name: None for name in SLOTS}
        #: The scheme captured at audit attach, for clean detach.
        self._audit_scheme: Optional["InstalledScheme"] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def occupant(self, slot: str) -> Any:
        """Current occupant of ``slot`` (``None`` when free)."""
        return self._occupants[slot]

    def occupied(self) -> Dict[str, Any]:
        """Mapping of the non-empty slots to their occupants."""
        return {k: v for k, v in self._occupants.items() if v is not None}

    # ------------------------------------------------------------------ #
    # Attach
    # ------------------------------------------------------------------ #

    def attach(
        self,
        *,
        checker: Any = None,
        tracer: Any = None,
        audit: Any = None,
        profiler: Any = None,
        scheme: Optional["InstalledScheme"] = None,
    ) -> "HookSet":
        """Wire the given observers into the fabric.  Atomic: every
        requested slot is checked for occupancy *before* any wiring, so
        on ``RuntimeError`` nothing has changed.

        Args:
            checker: an :class:`repro.validate.InvariantChecker`; ports
                must be idle (its ``watch_port`` precondition).
            tracer: anything implementing the
                :class:`repro.telemetry.tracer.TracerHooks` protocol.
            audit: a :class:`repro.telemetry.audit.DecisionAudit`.
            profiler: a :class:`repro.telemetry.series.LoopProfiler`.
            scheme: the :class:`~repro.lb.base.InstalledScheme`
                ``install_lb`` returned; lets ``checker``/``audit``
                reach Hermes leaf-state tables and detectors.  May be
                passed alone to extend an already-attached
                checker/audit to a freshly installed scheme.

        Returns:
            self, for chaining.
        """
        requested = {
            "checker": checker,
            "tracer": tracer,
            "audit": audit,
            "profiler": profiler,
        }
        for slot, value in requested.items():
            if value is None:
                continue
            occupant = self._occupants[slot]
            if occupant is not None and occupant is not value:
                raise RuntimeError(
                    f"fabric already has a {slot} attached "
                    f"({occupant!r}); detach it first (one {slot} per fabric)"
                )
        fabric = self._fabric
        if checker is not None and self._occupants["checker"] is None:
            fabric._checker = checker
            fabric.sim._checker = checker
            for port in fabric.topology.all_ports():
                checker.watch_port(port)
                port._refresh_fast_path()
            fabric._refresh_fast_path()
            self._occupants["checker"] = checker
        if tracer is not None and self._occupants["tracer"] is None:
            fabric._tracer = tracer
            for port in fabric.topology.all_ports():
                port._tracer = tracer
                port._refresh_fast_path()
            fabric._refresh_fast_path()
            self._occupants["tracer"] = tracer
        if profiler is not None and self._occupants["profiler"] is None:
            fabric.sim._profiler = profiler
            self._occupants["profiler"] = profiler
        if audit is not None and self._occupants["audit"] is None:
            for host in fabric.hosts:
                agent = host.lb
                if agent is not None and hasattr(agent, "audit"):
                    agent.audit = audit
            self._occupants["audit"] = audit
        if scheme is not None:
            self._wire_scheme(scheme)
        return self

    def _wire_scheme(self, scheme: "InstalledScheme") -> None:
        """Extend the attached checker/audit to a scheme's rack-shared
        state (Hermes per-leaf path tables, detectors)."""
        checker = self._occupants["checker"]
        audit = self._occupants["audit"]
        for state in scheme.leaf_states.values():
            if not hasattr(state, "classify"):
                continue
            if checker is not None and hasattr(state, "checker"):
                state.checker = checker
            if audit is not None and hasattr(state, "audit"):
                state.audit = audit
        if audit is not None:
            # Detectors record verdict flips through the same audit;
            # only Hermes's tables also ``classify``, so the loop above
            # reaches those and this one the rest.
            for detector in scheme.detectors.values():
                detector.audit = audit
            self._audit_scheme = scheme

    # ------------------------------------------------------------------ #
    # Detach
    # ------------------------------------------------------------------ #

    def detach(
        self,
        *,
        checker: bool = False,
        tracer: bool = False,
        audit: bool = False,
        profiler: bool = False,
    ) -> "HookSet":
        """Unwire the named slots (each a no-op when already free)."""
        fabric = self._fabric
        if checker and self._occupants["checker"] is not None:
            fabric._checker = None
            fabric.sim._checker = None
            for port in fabric.topology.all_ports():
                port._checker = None
                port._refresh_fast_path()
            fabric._refresh_fast_path()
            self._occupants["checker"] = None
        if tracer and self._occupants["tracer"] is not None:
            fabric._tracer = None
            for port in fabric.topology.all_ports():
                port._tracer = None
                port._refresh_fast_path()
            fabric._refresh_fast_path()
            self._occupants["tracer"] = None
        if profiler and self._occupants["profiler"] is not None:
            fabric.sim._profiler = None
            self._occupants["profiler"] = None
        if audit and self._occupants["audit"] is not None:
            for host in fabric.hosts:
                agent = host.lb
                if agent is not None and hasattr(agent, "audit"):
                    agent.audit = None
            if self._audit_scheme is not None:
                for state in self._audit_scheme.leaf_states.values():
                    if hasattr(state, "audit"):
                        state.audit = None
                for detector in self._audit_scheme.detectors.values():
                    detector.audit = None
                self._audit_scheme = None
            self._occupants["audit"] = None
        return self

    def detach_all(self) -> "HookSet":
        """Release every occupied slot."""
        return self.detach(checker=True, tracer=True, audit=True, profiler=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        occupied = ", ".join(self.occupied()) or "empty"
        return f"HookSet({occupied})"
