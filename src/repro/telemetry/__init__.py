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

Enable per run with ``ExperimentConfig(trace=True)`` or per invocation
with ``python -m repro trace run ...``; the runner builds one
:class:`Telemetry` and wires it in with :func:`repro.hooks.attach`.  A
traced cell never touches the result cache, so a cached summary is never
served silently untraced.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.telemetry.audit import AuditRecord, DecisionAudit
from repro.telemetry.series import LoopProfiler, PeriodicSampler, QueueSampler
from repro.telemetry.tracer import EventTracer, TraceRecord, TracerHooks


class Telemetry:
    """Bundle of one run's observability state.

    Built by the runner for a traced run and wired in by
    :func:`repro.hooks.attach` (tracer, audit and profiler).
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


__all__ = [
    "Telemetry",
    "EventTracer",
    "TracerHooks",
    "TraceRecord",
    "DecisionAudit",
    "AuditRecord",
    "PeriodicSampler",
    "QueueSampler",
    "LoopProfiler",
]
