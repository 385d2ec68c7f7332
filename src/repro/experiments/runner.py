"""Build a fabric from a config, run the flows, collect the results."""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional

from repro.core.parameters import HermesParams
from repro.detect.base import Detector
from repro.experiments.config import ExperimentConfig
from repro.experiments.result import ExperimentResult
from repro.faults.plane import FaultSchedule
from repro.lb.base import InstalledScheme
from repro.lb.conga import DEFAULT_AGING_NS
from repro.lb.diffflow import DEFAULT_THRESHOLD_BYTES
from repro.lb.factory import install_lb
from repro.lb.rdna import DEFAULT_ELEPHANT_THRESHOLD_BYTES
from repro.metrics.fct import (
    LARGE_FLOW_BYTES,
    SMALL_FLOW_BYTES,
    FctStats,
    FlowRecord,
)
from repro.metrics.visibility import VisibilitySampler
from repro.net.fabric import Fabric
from repro.sim.engine import make_simulator, microseconds
from repro.sim.rng import RngStreams
from repro.transport.dctcp import DctcpFlow
from repro.transport.tcp import TcpFlow
from repro.workload.distributions import distribution_by_name
from repro.workload.generator import FlowGenerator


def _flow_record(f) -> FlowRecord:
    """Snapshot one flow object into an immutable record."""
    return FlowRecord(
        flow_id=f.flow_id,
        src=f.src,
        dst=f.dst,
        size_bytes=f.size_bytes,
        start_ns=f.start_time if f.start_time is not None else 0,
        fct_ns=f.fct_ns,
        retransmissions=f.retx_count,
        timeouts=f.timeout_count,
    )


def _resolved_lb_params(config: ExperimentConfig) -> Dict[str, Any]:
    """The scheme parameters ``install_lb`` receives for this config —
    ``config.lb_params`` plus the scale-derived defaults.
    """
    lb_params = dict(config.lb_params)
    if config.lb == "hermes" and "params" not in lb_params:
        # Flow sizes are scaled down for CPython speed, so the S gate
        # (minimum size sent before rerouting) must scale with them —
        # otherwise caution would freeze into never-reroute.  Timers
        # scale with time_scale to preserve timescale ratios.
        params = HermesParams(
            size_threshold_bytes=int(
                HermesParams.size_threshold_bytes * config.size_scale
            )
        )
        if config.time_scale != 1.0:
            params = params.time_scaled(config.time_scale)
        if config.hermes_overrides:
            params = replace(params, **config.hermes_overrides)
        lb_params["params"] = params
    if config.lb == "conga" and config.time_scale != 1.0 and "aging_ns" not in lb_params:
        lb_params["aging_ns"] = max(1, int(DEFAULT_AGING_NS * config.time_scale))
    # Byte thresholds track size_scale like Hermes' S gate.
    if config.lb == "diffflow":
        lb_params.setdefault(
            "threshold_bytes",
            max(1, int(DEFAULT_THRESHOLD_BYTES * config.size_scale)),
        )
    elif config.lb == "rdna":
        lb_params.setdefault(
            "elephant_threshold_bytes",
            max(1, int(DEFAULT_ELEPHANT_THRESHOLD_BYTES * config.size_scale)),
        )
    return lb_params


def _flow_kwargs(config: ExperimentConfig) -> Dict[str, Any]:
    """Constructor kwargs for every flow of this config."""
    kwargs: Dict[str, Any] = {
        "max_cwnd": config.max_cwnd,
        "min_rto_ns": max(1, int(10_000_000 * config.time_scale)),
    }
    if config.reorder_mask_us is not None:
        kwargs["reorder_mask_ns"] = microseconds(config.reorder_mask_us)
    return kwargs


def _arrival_list(config: ExperimentConfig, rng: RngStreams):
    """The config's deterministic flow-arrival schedule (the "workload"
    stream is derived from the seed alone)."""
    distribution = distribution_by_name(config.workload)
    if config.size_scale != 1.0:
        distribution = distribution.scaled(config.size_scale)
    generator = FlowGenerator(
        config.topology,
        distribution,
        config.load,
        rng.get("workload"),
        # A single-leaf fabric has no inter-rack pairs at all; fall back
        # to intra-rack traffic instead of refusing to generate.
        inter_rack_only=config.topology.n_leaves > 1,
    )
    return generator.arrival_list(config.n_flows)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run one configured experiment to completion.

    The run ends when every flow finished or ``extra_drain_ns`` elapsed
    past the last arrival, whichever comes first; flows still active then
    are reported as unfinished.
    """
    sim = make_simulator()
    rng = RngStreams(config.seed)
    fabric = Fabric(sim, config.topology, rng)
    # Spec-DSL *default* timers scale with time_scale (explicit values
    # are taken literally) so hold and heartbeat windows keep their
    # ratio to the scaled RTO floor.
    scheme = install_lb(
        fabric,
        config.lb,
        detector=config.detector,
        detector_time_scale=config.time_scale,
        **_resolved_lb_params(config),
    )
    # Observers are imported lazily: an unobserved run (the default)
    # never loads them.  They attach in one call, while the ports are
    # idle and before the first event.
    observers: Dict[str, Any] = {}
    checker = None
    if config.validate:
        from repro.validate import install_checker

        checker = observers["checker"] = install_checker(fabric, config=config)
    telemetry = None
    if config.trace:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(sim)
        observers.update(
            tracer=telemetry.tracer,
            audit=telemetry.audit,
            profiler=telemetry.profiler,
        )
    if observers:
        from repro.hooks import attach

        attach(fabric, scheme=scheme, **observers)
    fault_plane: Optional[FaultSchedule] = None
    if config.faults is not None and config.faults:
        fault_plane = FaultSchedule(
            fabric,
            config.faults,
            rng.get("failure"),
            audit=telemetry.audit if telemetry is not None else None,
        ).install()

    arrivals = _arrival_list(config, rng)

    sampler: Optional[VisibilitySampler] = None
    if config.visibility_sampling:
        sampler = VisibilitySampler(fabric)
        sampler.start()

    flow_kwargs = _flow_kwargs(config)
    flow_cls = DctcpFlow if config.transport == "dctcp" else TcpFlow

    small_b = int(SMALL_FLOW_BYTES * config.size_scale)
    large_b = int(LARGE_FLOW_BYTES * config.size_scale)
    stats_stream = None
    if config.streaming_enabled():
        # Lazy import, same policy as validate/telemetry: the exact path
        # must not pay for the streaming machinery.
        from repro.metrics.streaming import StreamingFctStats

        stats_stream = StreamingFctStats(small_b, large_b)
        fabric.enable_flow_eviction()
    # Exact mode keeps every flow object for end-of-run record building.
    # Streaming mode keeps none: outcomes fold into the collector as
    # flows finish and finished flows are evicted from the fabric
    # registry, so peak memory is O(in-flight + centroids) rather than
    # O(n_flows).  Only timeout-afflicted flows (the recovery metric's
    # input — a small set by construction) are snapshotted as records.
    flows: List[TcpFlow] = []
    afflicted_records: List[FlowRecord] = []
    remaining = len(arrivals)
    # The run may not stop while fault events are still scheduled: a
    # revert that never fires would leave the timeline (and the recovery
    # metric) incomplete.  Capped at the drain deadline below.
    fault_end_ns = 0
    if fault_plane is not None:
        fault_end_ns = max(e.time_ns for e in fault_plane.expanded_events())

    def on_done(flow) -> None:
        nonlocal remaining
        remaining -= 1
        if sampler is not None:
            sampler.flow_finished(flow)
        if stats_stream is not None:
            stats_stream.add(
                flow.size_bytes, flow.fct_ns, flow.retx_count,
                flow.timeout_count,
            )
            if flow.timeout_count > 0:
                afflicted_records.append(_flow_record(flow))
            # Evict once the network is quiet for this flow.  Immediate
            # removal would silently swallow stragglers (a retransmitted
            # segment still elicits an ACK from a finished flow), so the
            # fabric defers until the last in-flight packet dies —
            # keeping streaming runs bit-identical to exact runs.
            fabric.retire_flow(flow.flow_id)
        if remaining == 0:
            if sim.now >= fault_end_ns:
                sim.stop()
            else:
                sim.post(fault_end_ns - sim.now, sim.stop)

    fabric.on_flow_done = on_done

    def start_flow(arrival) -> None:
        flow = flow_cls(
            fabric, arrival.src, arrival.dst, arrival.size_bytes, **flow_kwargs
        )
        fabric.register_flow(flow)
        if stats_stream is None:
            flows.append(flow)
        if sampler is not None:
            sampler.flow_started(flow)
        flow.start()

    for arrival in arrivals:
        sim.post(arrival.time_ns - sim.now, start_flow, arrival)

    deadline = arrivals[-1].time_ns + config.extra_drain_ns
    # One uninterrupted run: the last flow's completion callback calls
    # sim.stop(), ending the loop at exactly that event — no slice polling.
    sim.run(until=deadline)
    if sampler is not None:
        sampler.stop()

    if stats_stream is not None:
        # Whatever is still registered and unfinished: fold it in (the
        # collector counts it as unfinished) and snapshot it if the
        # recovery metric will need it.  Finished flows may linger here
        # too — retired while packets of theirs were still in flight at
        # stop time — but those were already folded in on_done.
        for f in fabric.flows.values():
            if f.finished:
                continue
            stats_stream.add(
                f.size_bytes, f.fct_ns, f.retx_count, f.timeout_count
            )
            if f.timeout_count > 0:
                afflicted_records.append(_flow_record(f))
        fabric.flows.clear()
        # The recovery metric only looks at timeout-afflicted flows, so
        # the afflicted subset is a faithful substitute for the full
        # record list.
        records = afflicted_records
    else:
        records = [_flow_record(f) for f in flows]

    # Fields are set where they are computed; everything a run did not
    # produce keeps the default ResultSummary declares for it.
    result = ExperimentResult(
        config=config,
        stats=(
            stats_stream
            if stats_stream is not None
            else FctStats(records, small_bytes=small_b, large_bytes=large_b)
        ),
        sim_time_ns=sim.now,
        events=sim.events_fired,
        total_reroutes=sum(
            host.lb.reroutes for host in fabric.hosts if host.lb is not None
        ),
        probe_losses=fabric.probe_drops,
        fabric=fabric,
        scheme=scheme,
        telemetry=telemetry,
    )
    if checker is not None:
        result.invariants = checker.finalize()
    if telemetry is not None:
        result.telemetry_summary = telemetry.summary()
    if sampler is not None:
        result.visibility_switch_pair = sampler.switch_pair_visibility()
        result.visibility_host_pair = sampler.host_pair_visibility()
    first_apply: Optional[int] = None
    if fault_plane is not None:
        first_apply = fault_plane.first_applied_ns()
        result.fault_timeline = fault_plane.timeline()
        result.detection_ns = _detection_latency_ns(first_apply, scheme)
        result.recovery_ns, result.unrecovered_timeouts = (
            _recovery_latency_ns(fault_plane, records)
        )
    if config.detector is not None:
        result.detector_metrics = _fold_detector_metrics(
            list(scheme.detectors.values()), first_apply
        )
    return result


def _detection_latency_ns(
    first_apply: Optional[int], scheme: InstalledScheme
) -> Optional[int]:
    """Nanoseconds from the first applied fault to the scheme's first
    failure detection at/after it (``None`` when the scheme has no
    failure detector, or never fired one — e.g. ECMP)."""
    if first_apply is None:
        return None
    # Hermes' leaf tables are detectors too.
    tables = (*scheme.leaf_states.values(), *scheme.detectors.values())
    detections = [
        t
        for d in tables
        if isinstance(d, Detector)
        for t in d.detection_times
        if t >= first_apply
    ]
    return min(detections) - first_apply if detections else None


def _fold_detector_metrics(
    detectors: List[Any], first_apply: Optional[int]
) -> Dict[str, Any]:
    """Fold per-leaf detector counters into one run-level block.

    Combiners recurse member-wise (member ``i`` of every leaf folds into
    one nested block), so a combiner's frontier point and each layer's
    contribution are both readable from the summary."""
    out: Dict[str, Any] = {
        "detector": detectors[0].name,
        "detections": 0,
        "false_positive_count": 0,
        "flap_suppressions": 0,
        "detection_ns": None,
    }
    times: List[int] = []
    for det in detectors:
        out["detections"] += len(det.detection_times)
        out["false_positive_count"] += int(det.false_positive_count)
        out["flap_suppressions"] += int(det.flap_suppressions)
        times.extend(det.detection_times)
    if first_apply is not None:
        hits = [t for t in times if t >= first_apply]
        if hits:
            out["detection_ns"] = min(hits) - first_apply
    members = getattr(detectors[0], "members", None)
    if members:
        out["members"] = [
            _fold_detector_metrics(
                [det.members[i] for det in detectors], first_apply
            )
            for i in range(len(members))
        ]
    return out


def _recovery_latency_ns(
    plane: FaultSchedule, records: List[FlowRecord]
) -> tuple:
    """(recovery_ns, unrecovered_timeouts) — see ResultSummary docs.

    Scheme-agnostic: measured purely from per-flow records.  A flow is
    *afflicted* if it suffered a timeout while alive during the fault
    window [first apply, last revert] — timeouts of flows that ran
    entirely outside the window are congestion noise, not fault damage.
    Recovery is over when the last afflicted flow finished; the latency
    is measured from the last reverted fault (the instant the network
    was healthy again)."""
    first_apply = plane.first_applied_ns()
    last_revert = plane.last_reverted_ns()
    if first_apply is None:
        return None, 0
    window_end = last_revert if last_revert is not None else None
    afflicted = [
        r
        for r in records
        if r.timeouts > 0
        and (window_end is None or r.start_ns <= window_end)
        and (r.fct_ns is None or r.start_ns + r.fct_ns >= first_apply)
    ]
    unrecovered = sum(1 for r in afflicted if r.fct_ns is None)
    if last_revert is None or unrecovered:
        return None, unrecovered
    if not afflicted:
        return 0, 0
    last_done = max(r.start_ns + r.fct_ns for r in afflicted)
    return max(0, last_done - last_revert), 0
