"""Seeded chaos harness: randomized scenarios under full invariant checking.

One integer seed deterministically expands into a complete scenario —
topology shape, link degradations and cuts, load-balancing scheme,
transport, workload, offered load, flow count, and an optional switch
malfunction — which then runs with every :mod:`repro.validate` invariant
enabled.  The hand-written test suite covers the states we thought of;
the chaos harness walks the randomized corners (asymmetry + failure +
scheme interactions) where load-balancer bugs actually live.

Replay is one paste: every case prints/raises with
``python -m repro chaos --seed N`` (CLI) or
``REPRO_CHAOS_SEED=N pytest tests/chaos/test_chaos.py -q -k replay``
(pytest), both of which re-enter the exact same run.

:func:`shrink_case` greedily minimizes a failing configuration — drop
the fault schedule, then single events of it, shrink the flow count,
collapse the topology, simplify scheme/transport — re-running each
candidate and keeping it only while the violation persists, so the
config that lands in a bug report is the smallest one that still breaks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, List, Optional

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.spec import (
    FaultEventSpec,
    FaultScheduleSpec,
    blackhole_off,
    blackhole_on,
    flap,
    link_degrade,
    link_down,
    link_restore,
    link_up,
    random_drop_start,
    random_drop_stop,
    schedule,
)
from repro.lb.factory import SPRAYING_SCHEMES, scheme_names
from repro.net.topology import TopologyConfig
from repro.validate.errors import InvariantViolation

#: Every registered scheme is fair game — derived from the factory so a
#: newly registered scheme is fuzzed automatically, no sync to forget.
CHAOS_SCHEMES = scheme_names()

#: Scenario envelope: small enough that one case runs in well under a
#: second on CPython, varied enough to reach asymmetric/failure corners.
_SIZE_SCALE = 0.03

#: Drain cap (simulated ns past the last arrival).  The default 2 s is
#: sized for full experiments; under chaos a blackholed flow that can
#: never finish would drag Hermes' 0.03x-scaled timers (15 µs probe
#: rounds) through millions of pointless events.  50 ms still covers
#: ~150 RTOs and thousands of probe/sweep rounds — plenty of runway for
#: every invariant to be exercised — while keeping each case sub-second.
_EXTRA_DRAIN_NS = 50_000_000


def chaos_command(seed: int, with_faults: Optional[bool] = None) -> str:
    """The exact CLI invocation replaying one chaos case."""
    flag = " --faults" if with_faults else ""
    return (
        f"python -m repro chaos --seed {seed}{flag}  "
        f"(or: REPRO_CHAOS_SEED={seed} pytest tests/chaos/test_chaos.py "
        f"-q -k replay)"
    )


#: Fault-schedule shapes the chaos harness draws from (see
#: :func:`_draw_fault_schedule`).  Each is a distinct stressor of the
#: dynamic fault plane: a clean outage-and-heal, an outage healed before
#: any detector can plausibly fire, capacity loss without loss of
#: connectivity, a rapidly flapping link, a lossy spine window, and a
#: silent per-pair blackhole window.
_FAULT_SHAPES = (
    "down_up",
    "heal_before_detection",
    "degrade_restore",
    "rapid_flap",
    "drop_burst",
    "blackhole_window",
)


def _draw_fault_schedule(
    rng: random.Random,
    n_leaves: int,
    n_spines: int,
    overrides: dict,
) -> FaultScheduleSpec:
    """Draw one randomized fault schedule fitting the chaos envelope.

    Times stay well inside the 50 ms drain cap so every revert fires
    before the run's deadline; link targets skip links the topology
    already cut statically (``override == 0.0`` — the fault plane
    rejects scheduling on a nonexistent link, by design)."""
    live_links = [
        (leaf, spine)
        for leaf in range(n_leaves)
        for spine in range(n_spines)
        if overrides.get((leaf, spine)) != 0.0
    ]
    leaf, spine = rng.choice(live_links)
    start = rng.randrange(200_000, 5_000_000)  # 0.2–5 ms in
    shape = rng.choice(_FAULT_SHAPES)
    if shape == "down_up":
        width = rng.randrange(500_000, 10_000_000)  # 0.5–10 ms outage
        return schedule(
            link_down(start, leaf=leaf, spine=spine),
            link_up(start + width, leaf=leaf, spine=spine),
        )
    if shape == "heal_before_detection":
        # Shorter than one scaled Hermes probe/sweep round: the link is
        # healthy again before any detector could plausibly conclude
        # failure.  Exercises transient-outage handling.
        width = rng.randrange(5_000, 100_000)  # 5–100 µs blip
        return schedule(
            link_down(start, leaf=leaf, spine=spine),
            link_up(start + width, leaf=leaf, spine=spine),
        )
    if shape == "degrade_restore":
        width = rng.randrange(1_000_000, 15_000_000)
        return schedule(
            link_degrade(
                start, leaf=leaf, spine=spine,
                rate_gbps=rng.choice((1.0, 2.0, 5.0)),
            ),
            link_restore(start + width, leaf=leaf, spine=spine),
        )
    if shape == "rapid_flap":
        period = rng.randrange(100_000, 600_000)  # 0.1–0.6 ms cycles
        cycles = rng.randint(3, 12)
        return schedule(
            flap(
                start, leaf=leaf, spine=spine, period_ns=period,
                duty=rng.choice((0.3, 0.5, 0.7)),
                until_ns=start + cycles * period,
            )
        )
    if shape == "drop_burst":
        width = rng.randrange(1_000_000, 15_000_000)
        return schedule(
            random_drop_start(
                start, spine=spine, drop_rate=rng.choice((0.05, 0.15, 0.3))
            ),
            random_drop_stop(start + width, spine=spine),
        )
    # blackhole_window: silent loss between two racks through one spine.
    width = rng.randrange(1_000_000, 15_000_000)
    src = rng.randrange(n_leaves)
    dst = rng.choice([l for l in range(n_leaves) if l != src])
    return schedule(
        blackhole_on(
            start, spine=spine, src_leaf=src, dst_leaf=dst,
            fraction=rng.choice((0.5, 1.0)),
        ),
        blackhole_off(start + width, spine=spine),
    )


def _draw_detector(rng: random.Random) -> str:
    """Draw one randomized detector spec fitting the chaos envelope.

    Explicit timer values are spelled out (in the 0.03x-scaled regime:
    tens of microseconds) about half the time; the other half relies on
    the spec DSL's time-scaled defaults, so both paths get fuzzed."""
    kind = rng.choice(("transport", "bfd", "fastest"))
    if kind == "transport":
        if rng.random() < 0.5:
            return "transport"
        return (
            f"transport:hold={rng.randrange(200_000, 3_000_000)},"
            f"retx_threshold={rng.randint(2, 12)}"
        )
    if kind == "bfd":
        if rng.random() < 0.5:
            return "bfd"
        return (
            f"bfd:tx={rng.randrange(5_000, 50_000)},"
            f"mult={rng.randint(2, 5)}"
        )
    return "fastest:transport+bfd"


def chaos_config(seed: int, with_faults: Optional[bool] = None) -> ExperimentConfig:
    """Deterministically expand ``seed`` into one randomized scenario.

    Args:
        seed: the case seed.
        with_faults: ``True`` always attaches a randomized time-scheduled
            fault schedule, ``False`` never does, ``None`` (default)
            attaches one with probability ~0.45.  The schedule draw is
            part of the same seeded stream, so ``(seed, with_faults)``
            fully determines the scenario.
    """
    rng = random.Random(f"repro-chaos-{seed}")
    n_leaves = rng.randint(2, 3)
    n_spines = rng.randint(2, 3)
    hosts_per_leaf = rng.randint(2, 3)

    overrides = {}
    roll = rng.random()
    if roll < 0.25:
        # Degrade one leaf-spine link (the paper's §5.3.2 asymmetry).
        overrides[(rng.randrange(n_leaves), rng.randrange(n_spines))] = (
            rng.choice((2.0, 5.0))
        )
    elif roll < 0.40:
        # Cut one link outright; n_spines >= 2 keeps every pair routable.
        overrides[(rng.randrange(n_leaves), rng.randrange(n_spines))] = 0.0

    topology = TopologyConfig(
        n_leaves=n_leaves,
        n_spines=n_spines,
        hosts_per_leaf=hosts_per_leaf,
        host_link_gbps=10.0,
        spine_link_gbps=10.0,
        link_overrides=overrides,
        prop_delay_ns=1_000,
        buffer_bytes=750_000,
        ecn_threshold_bytes=97_500,
    )

    lb = rng.choice(CHAOS_SCHEMES)
    # A switch broken from the start (paper §5.3.3): the t=0 event.
    events: List[FaultEventSpec] = []
    if rng.random() < 0.35:
        if rng.random() < 0.5:
            events.append(random_drop_start(
                0, spine=rng.randrange(n_spines),
                drop_rate=rng.choice((0.02, 0.05)),
            ))
        else:
            # rack 0 -> rack 1, half the pairs: the builder's defaults
            events.append(blackhole_on(0, spine=rng.randrange(n_spines)))

    transport = "tcp" if rng.random() < 0.25 else "dctcp"
    workload = rng.choice(("web-search", "data-mining"))
    load = round(rng.uniform(0.3, 0.8), 2)
    n_flows = rng.randint(10, 40)

    # Drawn last so the base scenario is identical with and without a
    # fault schedule — a faulted case differs from its unfaulted twin
    # only by the schedule itself.
    if with_faults is None:
        with_faults = rng.random() < 0.45
    if with_faults:
        events.extend(_draw_fault_schedule(
            random.Random(f"repro-chaos-faults-{seed}"),
            n_leaves, n_spines, overrides,
        ).events)

    # Detector coin drawn after the faults coin (appending to the main
    # stream keeps every pre-existing seed's scenario unchanged); params
    # come from their own named stream so the shape of one draw cannot
    # perturb the next field.
    detector: Optional[str] = None
    if rng.random() < 0.35:
        detector = _draw_detector(random.Random(f"repro-chaos-detector-{seed}"))

    return ExperimentConfig(
        topology=topology,
        lb=lb,
        transport=transport,
        workload=workload,
        load=load,
        n_flows=n_flows,
        seed=seed,
        size_scale=_SIZE_SCALE,
        time_scale=_SIZE_SCALE,
        reorder_mask_us=100.0 if lb in SPRAYING_SCHEMES else None,
        faults=schedule(events) if events else None,
        detector=detector,
        extra_drain_ns=_EXTRA_DRAIN_NS,
        validate=True,
    )


@dataclass
class CaseResult:
    """Outcome of one chaos case."""

    seed: int
    config: ExperimentConfig
    error: Optional[InvariantViolation]
    invariants: Optional[dict]
    events: int
    mean_fct_ms: float
    unfinished: int

    @property
    def ok(self) -> bool:
        return self.error is None


def run_case(
    seed: int,
    config: Optional[ExperimentConfig] = None,
    raise_error: bool = True,
    with_faults: Optional[bool] = None,
) -> CaseResult:
    """Run one chaos case under full invariant checking.

    Args:
        seed: the case seed (also the simulation's master seed).
        config: pre-built config (defaults to ``chaos_config(seed)``).
        raise_error: re-raise violations (default); ``False`` returns
            them in the :class:`CaseResult` for sweep-style reporting.
        with_faults: forwarded to :func:`chaos_config` (ignored when
            ``config`` is given).
    """
    if config is None:
        config = chaos_config(seed, with_faults=with_faults)
    try:
        result = run_experiment(config)
    except InvariantViolation as exc:
        # Stamp the chaos replay command over the generic run command:
        # the randomized topology is only reachable through the seed.
        exc.fingerprint.command = chaos_command(seed, with_faults)
        amended = type(exc)(exc.detail, exc.fingerprint)
        if raise_error:
            raise amended from exc
        return CaseResult(
            seed=seed,
            config=config,
            error=amended,
            invariants=None,
            events=0,
            mean_fct_ms=0.0,
            unfinished=0,
        )
    return CaseResult(
        seed=seed,
        config=config,
        error=None,
        invariants=result.invariants,
        events=result.events,
        mean_fct_ms=result.mean_fct_ms,
        unfinished=result.stats.unfinished_count,
    )


def run_sweep(
    seeds: Iterable[int],
    raise_error: bool = False,
    with_faults: Optional[bool] = None,
) -> List[CaseResult]:
    """Run a batch of chaos cases; violations are collected, not raised."""
    return [
        run_case(seed, raise_error=raise_error, with_faults=with_faults)
        for seed in seeds
    ]


# --------------------------------------------------------------------- #
# Shrinking
# --------------------------------------------------------------------- #


def _valid_overrides(overrides: dict, n_leaves: int, n_spines: int) -> dict:
    return {
        (leaf, spine): rate
        for (leaf, spine), rate in overrides.items()
        if leaf < n_leaves and spine < n_spines
    }


def _reductions(config: ExperimentConfig) -> Iterator[ExperimentConfig]:
    """Candidate simplifications, most drastic first.  Each candidate is
    a fresh config; the caller keeps it only if it still fails."""
    topo = config.topology
    if config.faults is not None:
        yield replace(config, faults=None)
        events = config.faults.events
        if len(events) > 1:
            for i in range(len(events)):
                try:
                    yield replace(
                        config, faults=schedule(events[:i] + events[i + 1:])
                    )
                except ValueError:  # a revert would lose its apply
                    continue
    if config.detector is not None:
        yield replace(config, detector=None)
    if config.n_flows > 2:
        yield replace(config, n_flows=max(2, config.n_flows // 2))
    if topo.link_overrides:
        yield replace(config, topology=replace(topo, link_overrides={}))
    for field_name, floor in (("n_leaves", 2), ("n_spines", 2), ("hosts_per_leaf", 2)):
        value = getattr(topo, field_name)
        if value > floor:
            smaller = replace(topo, **{field_name: floor})
            smaller = replace(
                smaller,
                link_overrides=_valid_overrides(
                    smaller.link_overrides, smaller.n_leaves, smaller.n_spines
                ),
            )
            yield replace(config, topology=smaller)
    if config.lb != "ecmp":
        yield replace(config, lb="ecmp", reorder_mask_us=None)
    if config.transport != "dctcp":
        yield replace(config, transport="dctcp")
    if config.workload != "web-search":
        yield replace(config, workload="web-search")


def _default_probe(config: ExperimentConfig) -> Optional[InvariantViolation]:
    try:
        run_experiment(replace(config, validate=True))
    except InvariantViolation as exc:
        return exc
    return None


@dataclass
class ShrinkResult:
    """A minimized failing configuration and its violation."""

    config: ExperimentConfig
    error: InvariantViolation
    attempts: int


def shrink_case(
    config: ExperimentConfig,
    probe: Optional[
        Callable[[ExperimentConfig], Optional[InvariantViolation]]
    ] = None,
    max_attempts: int = 40,
) -> ShrinkResult:
    """Greedily minimize a failing config while the violation persists.

    Args:
        config: a config known to violate an invariant under validation.
        probe: runs a candidate and returns its violation (or ``None``
            if it passes).  Defaults to a plain validated run; tests
            inject probes that apply a mutation first.
        max_attempts: cap on candidate runs (each is a full simulation).

    Raises:
        ValueError: if ``config`` does not fail under ``probe``.
    """
    probe = probe or _default_probe
    error = probe(config)
    if error is None:
        raise ValueError("shrink_case needs a failing config to start from")
    attempts = 1
    current = config
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _reductions(current):
            if attempts >= max_attempts:
                break
            attempts += 1
            candidate_error = probe(candidate)
            if candidate_error is not None:
                current, error = candidate, candidate_error
                improved = True
                break
    return ShrinkResult(config=current, error=error, attempts=attempts)
