"""Experiment configuration."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Optional

from repro.faults.spec import FaultEventSpec, FaultScheduleSpec
from repro.net.topology import TopologyConfig
from repro.sim.engine import DEFAULT_SCHEDULER, SCHEDULERS, seconds

TRANSPORTS = ("dctcp", "tcp")


def _reject_unknown_keys(section: str, data: Dict[str, Any], cls: type) -> None:
    """``ValueError`` naming the keys of ``data`` that are not fields of
    the dataclass ``cls`` (a config dict is outside input: the dataclass
    constructor's bare ``TypeError`` reads as a crash, not a bad request)."""
    known = {spec.name for spec in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {section} keys: {sorted(unknown)}; known: {sorted(known)}"
        )


@dataclass
class ExperimentConfig:
    """One simulation run.

    Attributes:
        topology: the fabric.
        lb: load-balancer name (see ``repro.lb.LB_REGISTRY``).
        lb_params: extra keyword arguments for the scheme installer.
        transport: ``"dctcp"`` (default, as in the paper) or ``"tcp"``.
        workload: ``"web-search"`` or ``"data-mining"``.
        load: offered load as a fraction of edge capacity.
        n_flows: how many flows to generate.
        seed: master random seed.
        size_scale: flow sizes are multiplied by this (<1 speeds up
            CPython runs; reported with every bench).
        time_scale: every protocol wall-clock timer (RTO floor, probe
            interval, failure sweep/hold, CONGA table aging) is
            multiplied by this.  Shrinking it together with
            ``size_scale`` keeps the paper's timescale ratios (RTO vs
            FCT, detection delay vs run span) intact on scaled runs.
        reorder_mask_us: receiver-side reordering mask for Presto*/DRB.
        hermes_overrides: field overrides applied on top of the
            automatically scaled Hermes parameters (e.g. a failure bench
            that scales the injected drop rate by ``1/size_scale`` must
            scale ``retx_fraction_threshold`` identically to keep the
            detector between congestion noise and failure signal).
        max_cwnd: congestion-window cap in packets.
        faults: optional time-scheduled fault plane (see
            :mod:`repro.faults`) — link down/up, degrade/restore, random
            drops, blackholes and flapping, each applied/reverted at its
            scheduled nanosecond mid-run; a malfunction that exists from
            the start (paper §5.3.3) is an event at t=0.  Fault RNG draws
            come from a dedicated stream, so runs are bit-identical
            outside the fault window.  Part of the result-cache key.
        extra_drain_ns: how long past the last arrival the run may last
            before unfinished flows are declared (blackholed ECMP flows
            never finish — the paper's Fig. 17b).
        visibility_sampling: enable the Table 2 sampler.
        validate: run under the full :mod:`repro.validate` invariant
            layer (byte conservation, FIFO/capacity legality, monotone
            clock, ECN-mark legality, Algorithm 1 path states).  Off by
            default — an unvalidated run pays nothing; on, the result's
            ``invariants`` field carries the checker's report.  The
            ``REPRO_VALIDATE=1`` environment switch forces it on (and
            bypasses the result cache) without touching configs.
        trace: attach the :mod:`repro.telemetry` layer (structured event
            tracer, decision audit, engine profiler) to the run; the
            result's ``telemetry`` field then carries it (and
            ``telemetry_summary`` its picklable summary).  Off by
            default — an untraced run pays one ``is not None`` branch
            per hook site.  ``REPRO_TRACE=1`` forces it on for every
            run; traced runs always bypass the result cache (a cached
            summary carries no trace).
        streaming_stats: FCT statistics collection mode.  ``False``:
            the exact :class:`~repro.metrics.fct.FctStats` collector —
            every flow record retained, exact percentiles.  ``True``:
            the bounded-memory
            :class:`~repro.metrics.streaming.StreamingFctStats`
            collector — bounded state (exact percentiles up to 4 096
            finished flows per bucket, a t-digest past that), exact
            means/counts, no per-flow records; finished flows are also
            evicted from the fabric registry as they complete, so a
            million-flow cell no longer holds a million flow objects.
            ``None`` (default): auto — streaming kicks in at
            ``STREAMING_AUTO_FLOWS`` (200k) flows, below that exact.
            Part of the result-cache key like every other field.
        scheduler: event-queue engine: ``"wheel"`` (slotted timer wheel,
            the default) or ``"heap"`` (binary heap, the original
            engine).  Both produce bit-identical results (enforced by
            the golden grid and the scheduler-differential suite).
            ``REPRO_SCHEDULER`` overrides every config (and bypasses
            the result cache).  Not part of the result, only of how
            fast it is computed — but kept in the cache key so A/B
            benches never share entries.
        detector: optional failure-detector spec (see
            :mod:`repro.detect`): ``"transport"``,
            ``"bfd:tx=100us,mult=3"``, ``"breaker:threshold=0.5"``,
            ``"quorum:transport+bfd"`` or ``"fastest:transport+bfd"``.
            ``None`` (default) keeps each scheme's built-in sensing —
            Hermes' Algorithm 1; for REPS, DiffFlow and RDNA the default
            ``"transport"`` table, whose timers (``"transport:hold=…,
            retx_threshold=…,retx_window=…"``) are set here and nowhere
            else — and adds zero cost.  When set, every scheme consults
            the configured detector for path verdicts and the result
            reports its counters (``detector_metrics``); time-valued
            *defaults* in the spec scale with ``time_scale``.  A plain
            string, so it is part of the result-cache key automatically.
    """

    topology: TopologyConfig
    lb: str = "ecmp"
    lb_params: Dict[str, Any] = field(default_factory=dict)
    transport: str = "dctcp"
    workload: str = "web-search"
    load: float = 0.5
    n_flows: int = 200
    seed: int = 1
    size_scale: float = 1.0
    time_scale: float = 1.0
    reorder_mask_us: Optional[float] = None
    max_cwnd: float = 800.0
    hermes_overrides: Dict[str, Any] = field(default_factory=dict)
    faults: Optional[FaultScheduleSpec] = None
    extra_drain_ns: int = seconds(2.0)
    visibility_sampling: bool = False
    validate: bool = False
    trace: bool = False
    streaming_stats: Optional[bool] = None
    scheduler: str = DEFAULT_SCHEDULER
    detector: Optional[str] = None

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; known: {TRANSPORTS}"
            )
        if not 0.0 < self.load:
            raise ValueError("load must be positive")
        if self.n_flows < 1:
            raise ValueError("need at least one flow")
        if self.size_scale <= 0:
            raise ValueError("size_scale must be positive")
        if self.time_scale <= 0:
            raise ValueError("time_scale must be positive")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; known: {SCHEDULERS}"
            )
        if self.streaming_stats not in (None, True, False):
            raise ValueError(
                "streaming_stats must be True, False or None (auto), "
                f"got {self.streaming_stats!r}"
            )
        if self.detector is not None:
            # Validate eagerly so a typo fails at config time, not three
            # layers deep in an installer.  Imported here: repro.detect
            # pulls in lb/net modules this module must not depend on.
            from repro.detect.spec import parse_detector

            parse_detector(self.detector)

    def streaming_enabled(self) -> bool:
        """Whether this run collects FCT statistics via the streaming
        collector: explicit ``streaming_stats`` wins; ``None`` auto-
        enables it at :data:`~repro.metrics.streaming.STREAMING_AUTO_FLOWS`
        flows, where exact collection's O(flows) memory stops being a
        reasonable default."""
        if self.streaming_stats is not None:
            return self.streaming_stats
        from repro.metrics.streaming import STREAMING_AUTO_FLOWS

        return self.n_flows >= STREAMING_AUTO_FLOWS

    # ------------------------------------------------------------------ #
    # Plain-dict round trip (JSON-safe)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable dict that :meth:`from_dict` restores
        exactly.

        Nested specs become plain dicts; ``topology.link_overrides``
        (tuple keys — not JSON-representable as a mapping) becomes a list
        of ``[leaf, spine, rate_gbps]`` triples.
        """
        out: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "topology":
                topo = asdict(value)
                topo["link_overrides"] = [
                    [leaf, spine, rate]
                    for (leaf, spine), rate in sorted(
                        value.link_overrides.items()
                    )
                ]
                out["topology"] = topo
            elif spec.name == "faults":
                out["faults"] = (
                    None
                    if value is None
                    else {"events": [asdict(e) for e in value.events]}
                )
            else:
                out[spec.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output (or any dict in
        that shape — unknown keys are rejected, missing keys take their
        defaults; ``topology`` is required)."""
        data = dict(data)
        _reject_unknown_keys("config", data, cls)
        if "topology" not in data:
            raise ValueError("config dict must carry a 'topology' section")
        topo = data["topology"]
        if isinstance(topo, dict):
            topo = dict(topo)
            overrides = topo.get("link_overrides", [])
            if isinstance(overrides, list):
                topo["link_overrides"] = {
                    (int(leaf), int(spine)): rate
                    for leaf, spine, rate in overrides
                }
            _reject_unknown_keys("topology", topo, TopologyConfig)
            data["topology"] = TopologyConfig(**topo)
        if "faults" in data and isinstance(data["faults"], dict):
            events = data["faults"].get("events", ())
            for event in events:
                _reject_unknown_keys("faults.events[]", event, FaultEventSpec)
            data["faults"] = FaultScheduleSpec(
                events=tuple(FaultEventSpec(**event) for event in events)
            )
        if "lb_params" in data and data["lb_params"] is None:
            data["lb_params"] = {}
        if "hermes_overrides" in data and data["hermes_overrides"] is None:
            data["hermes_overrides"] = {}
        return cls(**data)
