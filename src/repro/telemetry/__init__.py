"""repro.telemetry — unified observability: tracing, audit, metrics, export.

Four pieces, all opt-in and zero-cost when off (the same nullable-hook
pattern as :mod:`repro.validate` — one ``is not None`` branch per hook
site, attributes default to ``None``):

* :mod:`repro.telemetry.tracer` — bounded ring-buffer structured event
  tracer: packet send/hop/deliver/drop, flow start/finish, timeout,
  retransmit;
* :mod:`repro.telemetry.audit` — decision audit log: every Algorithm 1
  path-state transition and every Algorithm 2 (re)placement with its
  reason code and the threshold values that fired;
* :mod:`repro.telemetry.series` — time-series samplers (queue backlog)
  on cancellable timer events, plus the engine
  :class:`~repro.telemetry.series.LoopProfiler`;
* :mod:`repro.telemetry.export` — JSONL / CSV / Perfetto-compatible
  Chrome-trace exporters.

Enable per run with ``ExperimentConfig(trace=True)``, per invocation
with ``python -m repro trace run ...``, or globally with
``REPRO_TRACE=1`` (which, like ``REPRO_VALIDATE``, bypasses the result
cache so a cached summary is never served silently untraced).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.telemetry.audit import AuditRecord, DecisionAudit
from repro.telemetry.series import LoopProfiler, PeriodicSampler, QueueSampler
from repro.telemetry.tracer import EventTracer, TraceRecord, TracerHooks

if TYPE_CHECKING:  # pragma: no cover
    from repro.lb.base import InstalledScheme
    from repro.net.fabric import Fabric


class Telemetry:
    """Bundle of one run's observability state.

    Built by :func:`install_telemetry`; hand-construct only in unit
    tests of single components.
    """

    def __init__(self, sim: Any) -> None:
        self.sim = sim
        self.tracer = EventTracer(sim)
        self.audit = DecisionAudit(sim)
        self.profiler = LoopProfiler(sim)

    def summary(self) -> Dict[str, Any]:
        """One dict answering "what did this run do" at a glance."""
        return {
            "trace": self.tracer.summary(),
            "audit": self.audit.summary(),
            "loop": self.profiler.summary(),
        }


def install_telemetry(fabric: "Fabric") -> Telemetry:
    """Attach a fresh :class:`Telemetry` to every layer of a fabric.

    Wires the tracer into the fabric (send / forward / flow lifecycle)
    and every port (drops), and the profiler into the engine.  Hermes
    audit hooks are created later by ``install_lb``; attach them with
    :func:`watch_lb` once the scheme is installed.
    """
    telemetry = Telemetry(fabric.sim)
    fabric.hooks.attach(
        tracer=telemetry.tracer, profiler=telemetry.profiler
    )
    return telemetry


def watch_lb(
    telemetry: Telemetry,
    fabric: "Fabric",
    scheme: Optional["InstalledScheme"] = None,
) -> None:
    """Attach the decision audit to an installed scheme.

    Hooks every per-host agent exposing an ``audit`` attribute (Hermes)
    and, given the ``scheme`` that ``install_lb`` returned, every Hermes
    leaf-state table and every detector in it; a no-op for schemes with
    none of those.
    """
    fabric.hooks.attach(audit=telemetry.audit, scheme=scheme)


__all__ = [
    "Telemetry",
    "install_telemetry",
    "watch_lb",
    "EventTracer",
    "TracerHooks",
    "TraceRecord",
    "DecisionAudit",
    "AuditRecord",
    "PeriodicSampler",
    "QueueSampler",
    "LoopProfiler",
]
