"""What one experiment returns: the field list, declared once.

:class:`ResultSummary` is the record — everything a bench prints, in
picklable form; it is what pool workers return, what the result cache
stores and what :func:`repro.api.save_result` writes.
:class:`ExperimentResult` is the same record plus the live handles an
in-process :func:`~repro.experiments.runner.run_experiment` can also
offer (the fabric, the installed scheme, the telemetry bundle), which
hold the simulator and cannot cross a process boundary.

Everything that copies or serializes a result — :meth:`ResultSummary.
from_result`, ``save_result`` / ``load_result``, ``summary_dict`` —
iterates ``dataclasses.fields(ResultSummary)``, so a new result field is
one line here and cannot be added to one view and forgotten in another.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.experiments.config import ExperimentConfig
from repro.lb.base import InstalledScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric


@dataclass
class ResultSummary:
    """Everything a bench needs to print a paper row, in picklable form.

    ``stats`` is a :class:`~repro.metrics.fct.FctStats` (exact, holds
    per-flow records) or a
    :class:`~repro.metrics.streaming.StreamingFctStats` (bounded
    memory, no records) depending on ``config.streaming_enabled()``;
    both pickle cleanly, expose the same aggregate read surface and an
    ``is_streaming`` discriminator.
    """

    config: ExperimentConfig
    stats: Any
    sim_time_ns: int
    events: int
    total_reroutes: int
    visibility_switch_pair: Optional[float] = None
    visibility_host_pair: Optional[float] = None
    #: Applied/reverted fault transitions (dicts, oldest first) when the
    #: run carried a fault schedule; empty otherwise.
    fault_timeline: Tuple[dict, ...] = ()
    #: Time from the first applied fault to the scheme's first failure
    #: detection at/after it (``None``: no faults, or never detected —
    #: schemes without a failure detector, e.g. ECMP, never detect).
    detection_ns: Optional[int] = None
    #: Time from the last reverted fault until the last timeout-afflicted
    #: flow finished — how long the scheme needed to drain the damage
    #: after the network healed.  ``0`` if no flow suffered a timeout;
    #: ``None`` if any timeout-afflicted flow never finished (see
    #: ``unrecovered_timeouts``) or the schedule never reverted.
    recovery_ns: Optional[int] = None
    #: Flows that suffered timeouts and were still unfinished at the end
    #: of the run — the signature of a scheme that never recovered.
    unrecovered_timeouts: int = 0
    #: Which engine actually ran the cell (after env resolution).
    scheduler_info: Dict[str, Any] = field(default_factory=dict)
    #: Aggregated counters of the configured :mod:`repro.detect` plane
    #: (folded over all leaves; combiners nest a ``members`` list):
    #: detections, false positives, flap suppressions and — when the run
    #: carried a fault schedule — ``detection_ns`` measured from the
    #: first applied fault.  Empty when ``config.detector`` is unset.
    detector_metrics: Dict[str, Any] = field(default_factory=dict)
    #: Probe packets (Hermes probes, BFD heartbeats, breaker trials and
    #: their replies) dropped in-fabric during the run.
    probe_losses: int = 0
    #: The invariant checker's end-of-run report when the run was
    #: validated (``config.validate`` / ``REPRO_VALIDATE``).
    invariants: Optional[Dict[str, int]] = None
    #: ``Telemetry.summary()`` when the run was traced
    #: (``config.trace`` / ``REPRO_TRACE``).
    telemetry_summary: Optional[Dict[str, Any]] = None
    #: Why the cell produced no result (``None`` for a successful run).
    #: Set for cells that exceeded their budget (``cell_timeout_s`` or
    #: ``REPRO_CELL_TIMEOUT``); failed cells are never written to the
    #: cache.
    error: Optional[str] = None

    @property
    def mean_fct_ms(self) -> float:
        return self.stats.mean_ms()

    def mean_fct_ms_with_penalty(self) -> float:
        """Average FCT counting unfinished flows at the full run length —
        how the paper's blackhole figures account for them."""
        return self.stats.mean_ms(penalize_unfinished_ns=self.sim_time_ns)

    @property
    def percentile_estimators(self) -> Dict[str, str]:
        """Which estimator produced each reported percentile:
        ``"exact"`` (sorted FCTs — every exact run, and a streaming run
        whose bucket finished at most ``EXACT_LIMIT`` flows),
        ``"tdigest"`` (estimated, <1% relative error at p50/p99), or
        ``"none"`` (no finished flows).  A summary is thereby explicit
        about which numbers are measurements and which are estimates."""
        return self.stats.estimators()

    @staticmethod
    def total_fields() -> Tuple[dataclasses.Field, ...]:
        """The flat fields — every one except ``config`` and ``stats``,
        which serializers give a form of their own; the rest they copy
        verbatim under the field's name."""
        return tuple(
            f
            for f in dataclasses.fields(ResultSummary)
            if f.name not in ("config", "stats")
        )

    def totals(self) -> Dict[str, Any]:
        """The values of :meth:`total_fields`, by name."""
        return {f.name: getattr(self, f.name) for f in self.total_fields()}

    @classmethod
    def from_result(cls, result: "ResultSummary") -> "ResultSummary":
        """The picklable record of ``result`` (live handles dropped)."""
        return cls(
            **{
                f.name: getattr(result, f.name)
                for f in dataclasses.fields(ResultSummary)
            }
        )


@dataclass
class ExperimentResult(ResultSummary):
    """A :class:`ResultSummary` plus the live objects of the run that
    produced it — only an in-process ``run_experiment`` returns one."""

    fabric: Optional["Fabric"] = None
    #: What ``install_lb`` wired up (leaf tables, detectors, probers).
    scheme: InstalledScheme = field(default_factory=InstalledScheme)
    #: The run's :class:`repro.telemetry.Telemetry` when tracing was on.
    telemetry: Optional[Any] = None
