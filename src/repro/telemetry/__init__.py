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
* :mod:`repro.telemetry.series` — time-series samplers (queue backlog,
  ECN fraction) on cancellable timer events, plus the engine
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
from repro.telemetry.series import (
    EcnFractionSeries,
    LoopProfiler,
    PeriodicSampler,
    QueueSampler,
)
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
        #: name -> sampler; populated by :meth:`add_series`.
        self.series: Dict[str, PeriodicSampler] = {}

    def add_series(
        self, name: str, sampler: PeriodicSampler, start: bool = True
    ) -> PeriodicSampler:
        """Register (and by default start) a time-series sampler."""
        self.series[name] = sampler
        if start:
            sampler.start()
        return sampler

    def stop_series(self) -> None:
        """Cancel every registered sampler's pending tick."""
        for sampler in self.series.values():
            sampler.stop()

    def counter_series(self) -> Dict[str, list]:
        """Per-port counter tracks for the Perfetto export."""
        out: Dict[str, list] = {}
        for name, sampler in self.series.items():
            samples = getattr(sampler, "samples", None)
            if isinstance(samples, dict):
                for port_name, points in samples.items():
                    out[f"{name} {port_name}"] = points
        return out

    def summary(self) -> Dict[str, Any]:
        """One dict answering "what did this run do" at a glance."""
        return {
            "trace": self.tracer.summary(),
            "audit": self.audit.summary(),
            "loop": self.profiler.summary(),
        }


def install_telemetry(
    fabric: "Fabric", sample_period_ns: Optional[int] = None
) -> Telemetry:
    """Attach a fresh :class:`Telemetry` to every layer of a fabric.

    Wires the tracer into the fabric (send / forward / flow lifecycle)
    and every port (drops), and the profiler into the engine.  Hermes
    audit hooks are created later by ``install_lb``; attach them with
    :func:`watch_lb` once the scheme is installed.

    Args:
        fabric: the network to observe.
        sample_period_ns: if set, start queue-backlog and ECN-fraction
            samplers over every port at this period.
    """
    telemetry = Telemetry(fabric.sim)
    fabric.hooks.attach(
        tracer=telemetry.tracer, profiler=telemetry.profiler
    )
    if sample_period_ns is not None:
        ports = fabric.topology.all_ports()
        telemetry.add_series(
            "backlog", QueueSampler(fabric.sim, ports, sample_period_ns)
        )
        telemetry.add_series(
            "ecn_fraction",
            EcnFractionSeries(fabric.sim, ports, sample_period_ns),
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
    "EcnFractionSeries",
    "LoopProfiler",
]
