"""Every table and figure of the paper's evaluation, once, as data.

``FIGURES`` holds one :class:`Figure` per artefact: the paper's claim in
prose (``paper``), how to measure it (``measure``: labelled
``ExperimentConfig`` cells for the grid artefacts, a function for the
hand-built ones), which reduced metric goes in which column (``tables``)
and the claim as predicates (``claims``).  One runner reads them::

    PYTHONPATH=src python benchmarks/figures.py [name ...]  # all, or fig13 ...

It prints each table, writes ``benchmarks/results/<name>.txt``, and
rewrites those figures' rows in ``BENCH_paper.json`` and the scorecard
block of ``EXPERIMENTS.md``.  Runs are deterministic, so both files are
golden data (CI gates on ``git diff``); a failing claim is a recorded
reading — the command exits 0 whatever the verdicts.  Grid cells fan out
over ``REPRO_JOBS`` processes and the result cache, as everywhere.

A claim holds iff its ``margin(results) >= 0``: ``a < k*b`` reads
``1 - a/(k*b)``, ``a > k*b`` reads ``a/(k*b) - 1`` (so a tie reads as
holding, strict or not), a boolean — or a comparison against a zero
bound, which has no ratio — reads ``+1`` / ``-1``; a ``None`` or NaN
operand reads ``-1``, never an exception.  A comparison words itself from its operands and constants, so the text in
the scorecard cannot drift from the predicate that was evaluated.
"""

from __future__ import annotations

import json
import operator
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Union

from repro.api import (
    DctcpFlow,
    ExperimentConfig,
    Fabric,
    QueueSampler,
    RngStreams,
    Simulator,
    TopologyConfig,
    bench_topology,
    format_table,
    install_lb,
    run_grid,
    testbed_topology,
)
from repro.core.parameters import HermesParams
from repro.core.probing import probe_overhead_model
from repro.faults.spec import (
    blackhole_on,
    link_down,
    link_up,
    random_drop_start,
    schedule,
)
from repro.net.packet import PROBE_BYTES
from repro.sim.engine import microseconds
from repro.transport.tcp import MSS
from repro.transport.udp import UdpFlow
from repro.workload.distributions import DATA_MINING, WEB_SEARCH

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_DIR = os.path.join(ROOT, "benchmarks", "results")
SCORES_PATH = os.path.join(ROOT, "BENCH_paper.json")
SCORECARD_PATH = os.path.join(ROOT, "EXPERIMENTS.md")
SCORECARD_BEGIN = "<!-- scorecard:begin -->"
SCORECARD_END = "<!-- scorecard:end -->"

Cells = Dict[Any, List[ExperimentConfig]]


@dataclass(frozen=True)
class Claim:
    """One directional claim: holds iff ``margin(results) >= 0``."""

    text: str
    margin: Callable[[Any], float]


@dataclass(frozen=True)
class Figure:
    """One paper artefact.  ``measure`` is either ``{label: [config per
    seed]}`` (run through the grid runner; the results arrive under the
    same labels) or a function returning ``{row: {field: value}}``; every
    entry of ``tables`` renders one block of text from the results."""

    name: str
    title: str
    paper: str
    measure: Union[Cells, Callable[[], Any]]
    tables: Sequence[Callable[[Any], str]]
    claims: Sequence[Claim]

    def __post_init__(self) -> None:
        texts = [claim.text for claim in self.claims]
        if not texts or len(set(texts)) < len(texts):
            raise ValueError(
                f"{self.name}: needs at least one claim, each worded once")


# ---------------------------------------------------- operands and claims

@dataclass(frozen=True)
class Operand:
    """A number read off the results, and how a claim words it."""

    text: str
    value: Callable[[Any], Any]


def of(row, field: str = "fct_ms") -> Operand:
    """``results[row][field]``, worded ``field[row]``."""
    name = ", ".join(map(str, row)) if isinstance(row, tuple) else row
    return Operand(f"{field}[{name}]", lambda results: results[row][field])


def extreme(pick, operands: Sequence[Operand]) -> Operand:
    """``min`` / ``max`` over operands."""
    return Operand(
        f"{pick.__name__}({', '.join(o.text for o in operands)})",
        lambda results: pick(o.value(results) for o in operands),
    )


COMPARISONS = {"<": operator.lt, "<=": operator.le,
               ">": operator.gt, ">=": operator.ge}


def compare(a: Operand, op: str, b, k: float = 1.0) -> Claim:
    """``a op k*b`` for ``op`` in ``< <= > >=``; ``b`` is an operand or a
    plain number."""
    if not isinstance(b, Operand):
        b = Operand(f"{b:g}", lambda _, number=b: number)

    def margin(results) -> float:
        try:
            value, bound = a.value(results), k * b.value(results)
            if bound == 0:  # no ratio to take: the comparison, as a boolean
                return 1.0 if COMPARISONS[op](value, bound) else -1.0
            ratio = value / bound
        except TypeError:
            return -1.0
        margin = ratio - 1.0 if op.startswith(">") else 1.0 - ratio
        return margin if margin == margin else -1.0

    bound = b.text if k == 1.0 else f"{k:g} x {b.text}"
    return Claim(f"{a.text} {op} {bound}", margin)


def below(workload, a, b, load, k=1.0, field="fct_ms") -> Claim:
    """Scheme ``a`` under ``k`` x scheme ``b`` on one (workload, load)."""
    return compare(of((workload, a, load), field), "<",
                   of((workload, b, load), field), k)


def both(first: Claim, second: Claim) -> Claim:
    """A chained comparison: as tight as the tighter of its two halves."""
    return Claim(
        f"{first.text} and {second.text}",
        lambda results: min(first.margin(results), second.margin(results)),
    )


def holds(text: str, predicate) -> Claim:
    """A boolean claim: margin ``+1`` if ``predicate(results)`` else ``-1``."""
    return Claim(text, lambda results: 1.0 if predicate(results) else -1.0)


# ---------------------------------------------------------- cells and grids

#: What a table column or a claim can read off one run, by name.
METRICS = {
    "fct_ms": lambda r: r.mean_fct_ms,
    "small_fct_ms": lambda r: r.stats.small.mean_ms(),
    "small_p99_ms": lambda r: r.stats.small.p99_ms(),
    "large_fct_ms": lambda r: r.stats.large.mean_ms(),
    "reroutes": lambda r: float(r.total_reroutes),
    "penalized_fct_ms": lambda r: r.mean_fct_ms_with_penalty(),
    "unfinished": lambda r: r.stats.unfinished_fraction,
    "switch_pair": lambda r: r.visibility_switch_pair,
    "host_pair": lambda r: r.visibility_host_pair,
}


class Cell:
    """One grid cell's per-seed runs; ``cell[metric]`` is the seed mean, so
    a grid's results read like a hand-built figure's ``{row: {field:
    value}}``."""

    def __init__(self, runs):
        self.runs = runs

    def __getitem__(self, metric: str) -> float:
        values = [METRICS[metric](run) for run in self.runs]
        return sum(values) / len(values)


SEEDS = (1,)
WORKLOADS = ("web-search", "data-mining")


def sweep(points: Dict[Any, dict], seeds=SEEDS, **common) -> Cells:
    """``{label: fields}`` -> ``{label: [one config per seed]}``."""
    return {
        label: [
            ExperimentConfig(seed=seed, **{**common, **fields})
            for seed in seeds
        ]
        for label, fields in points.items()
    }


def grid(topology, schemes, loads, workloads, presto_weighted=False,
         hermes_overrides=None, **config_fields) -> Cells:
    """The (workload x scheme x load) grid, labelled in that order.
    Presto* sprays packets, not flowcells (paper §5.1), optionally with the
    paper's static capacity weights; Presto* / DRB get the receiver
    reordering mask the paper uses to isolate congestion mismatch — it must
    cover cross-path skew, which scales with serialization time, so 1 Gbps
    fabrics need a longer one.  ``hermes_overrides`` reach Hermes only."""
    points = {}
    for lb in schemes:
        fields: Dict[str, Any] = {"lb": lb}
        if lb == "presto":
            fields["lb_params"] = {"flowcell_bytes": 1500}
            if presto_weighted:
                fields["lb_params"]["weight_by_capacity"] = True
        if lb in ("presto", "drb"):
            slow = topology.host_link_gbps <= 2.0
            fields["reorder_mask_us"] = 800.0 if slow else 100.0
        if lb == "hermes" and hermes_overrides:
            fields["hermes_overrides"] = hermes_overrides
        for workload in workloads:
            for load in loads:
                points[(workload, lb, load)] = {
                    **fields, "workload": workload, "load": load,
                }
    return sweep(points, topology=topology, **config_fields)


# ----------------------------------------------------------------- tables

def table(headers, rows, heading=""):
    """A block: ``rows(results)`` under ``headers`` (and a ``[heading]``)."""
    def render(results):
        text = format_table(headers, rows(results))
        return f"[{heading}]\n{text}" if heading else text
    return render


def records(corner, columns: Dict[str, str], rows=None):
    """One column per ``header: field``, one row per ``(text, row)`` of the
    results (default: every row, under its own name)."""
    return table([corner, *columns], lambda results: [
        [text] + [results[row][field] for field in columns.values()]
        for text, row in (rows or [(row, row) for row in results])
    ])


def by_load(workload, schemes, loads, field="fct_ms", name="avg FCT (ms)",
            heading="", norm_to=None):
    """The paper's layout: one row per scheme, one column per load;
    ``norm_to`` divides each column by that scheme's value (Figs. 13/14)."""
    def rows(results):
        def value(lb, load):
            return results[workload, lb, load][field]
        return [
            [lb] + [
                value(lb, load) / value(norm_to, load) if norm_to
                else value(lb, load)
                for load in loads
            ]
            for lb in schemes
        ]
    headers = ["scheme"] + [f"{name} @{load:.0%}" for load in loads]
    return table(headers, rows, heading)


# ------------------------- hand-built measurements (Table 6, Figs. 1-4, 7)

def table6_probing():
    """The analytical model at the paper's scale (conventions derived in
    EXPERIMENTS.md) plus one measured point: a live prober's send rate
    over 10 ms on a 4x4 fabric, confirming the per-rack amortization."""
    model = probe_overhead_model(
        n_leaves=100, n_spines=100, hosts_per_leaf=100,
        link_gbps=10.0, probe_bytes=PROBE_BYTES, probe_interval_us=500.0,
        piggyback_visibility=0.009,
    )
    fabric = Fabric(Simulator(), bench_topology(hosts_per_leaf=4),
                    RngStreams(1))
    shared = install_lb(fabric, "hermes")
    horizon_ns = 10_000_000
    fabric.sim.run(until=horizon_ns)
    bits = shared.probers[0].probes_sent * PROBE_BYTES * 8
    rate_bps = bits / (horizon_ns / 1e9)
    model["hermes"]["live_overhead"] = rate_bps / (
        fabric.config.host_link_gbps * 1e9)
    return model


FIG1_FLOWS = 12
FIG1_SIZE = 3_000 * MSS  # ~4.4 MB each


def fig1_scheme(lb: str, aggressive: bool = False):
    fabric = Fabric(
        Simulator(),
        bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=FIG1_FLOWS),
        RngStreams(3),
    )
    kwargs = {}
    if lb == "hermes":
        if aggressive:
            cfg = fabric.config
            kwargs["params"] = HermesParams(
                t_rtt_high_ns=cfg.base_rtt_ns()
                + int(0.9 * cfg.one_hop_delay_ns())
            )
    else:
        kwargs["flowlet_timeout_ns"] = microseconds(150)
    install_lb(fabric, lb, **kwargs)
    flows = []
    for i in range(FIG1_FLOWS):
        flow = DctcpFlow(fabric, i, FIG1_FLOWS + i, FIG1_SIZE)
        flow.current_path = 1  # the figure's starting state
        agent = fabric.hosts[i].lb
        if hasattr(agent, "_paths"):
            agent._paths[flow.flow_id] = 1
        fabric.register_flow(flow)
        flows.append(flow)
        fabric.sim.schedule_at(i * 500_000, flow.start)
    fabric.sim.run(until=200_000_000_000)
    fcts = [f.fct_ns / 1e6 for f in flows if f.finished]
    return {
        "fct_ms": sum(fcts) / len(fcts),
        "reroutes": sum(h.lb.reroutes for h in fabric.hosts if h.lb),
        "all_finished": len(fcts) == FIG1_FLOWS,
    }


FIG2_RUN_NS = 30_000_000  # 30 ms
FIG2_A_SIZE = 50_000 * MSS  # effectively unbounded within the run


def fig2_scheme(lb: str):
    config = TopologyConfig(  # 10 Gbps everywhere, as by default
        n_leaves=3, n_spines=2, hosts_per_leaf=2,
        link_overrides={(0, 1): 0.0},  # broken leaf0 - spine1 link
    )
    fabric = Fabric(Simulator(), config, RngStreams(1))
    if lb == "presto":
        install_lb(fabric, "presto", flowcell_bytes=64 * 1024)
    else:
        install_lb(fabric, lb)
    hot_port = fabric.topology.spine_down[0][2]  # spine0 -> leaf2
    sampler = QueueSampler(fabric.sim, [hot_port], period_ns=100_000)
    sampler.start()

    flow_b = UdpFlow(fabric, 0, 4, rate_bps=9e9, fixed_path=0)
    mask = 200_000 if lb == "presto" else None
    flow_a = DctcpFlow(fabric, 2, 5, FIG2_A_SIZE, reorder_mask_ns=mask)
    for flow in (flow_b, flow_a):
        fabric.register_flow(flow)
        flow.start()
    fabric.sim.run(until=FIG2_RUN_NS)
    return {
        "gbps": flow_a.bytes_sent * 8 / FIG2_RUN_NS,  # ~delivered within run
        "queue_stddev_kb": sampler.stddev_backlog(hot_port.name) / 1_000,
    }


FIG3_RUN_NS = 40_000_000


def fig3_scheme(lb: str):
    config = TopologyConfig(
        n_leaves=2, n_spines=2, hosts_per_leaf=2,
        host_link_gbps=20.0,  # hosts can source more than either path
        link_overrides={(0, 0): 1.0, (1, 0): 1.0},  # path 0 is 1 Gbps
    )
    fabric = Fabric(Simulator(), config, RngStreams(1))
    if lb == "presto":
        install_lb(fabric, "presto", flowcell_bytes=64 * 1024,
                   weight_by_capacity=True)
    else:
        install_lb(fabric, lb)
    mask = 500_000 if lb == "presto" else None
    flow = DctcpFlow(fabric, 0, 2, 100_000 * MSS, reorder_mask_ns=mask,
                     max_cwnd=2_000.0)
    fabric.register_flow(flow)
    flow.start()
    fabric.sim.run(until=FIG3_RUN_NS)
    return {"gbps": flow.bytes_sent * 8 / FIG3_RUN_NS}


FIG4_RUN_NS = 100_000_000  # 100 ms: ten pause cycles
PAUSE_EVERY_NS = 10_000_000
PAUSE_FOR_NS = 3_000_000


class PausingFlow(DctcpFlow):
    """DCTCP flow that pauses 3 ms every 10 ms (creates flowlet gaps)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._paused = False
        self.path_history = []

    def start(self):
        super().start()
        self.sim.schedule(PAUSE_EVERY_NS - PAUSE_FOR_NS, self._pause)

    def _pause(self):
        self._paused = True
        self.sim.schedule(PAUSE_FOR_NS, self._resume)

    def _resume(self):
        self._paused = False
        self._maybe_send()
        self.sim.schedule(PAUSE_EVERY_NS - PAUSE_FOR_NS, self._pause)

    def _maybe_send(self):
        if self._paused:
            return
        super()._maybe_send()

    def _transmit(self, seq, retx):
        super()._transmit(seq, retx)
        if not self.path_history or self.path_history[-1] != self.current_path:
            self.path_history.append(self.current_path)


def fig4_scheme(lb: str):
    config = TopologyConfig(n_leaves=3, n_spines=2, hosts_per_leaf=2)
    fabric = Fabric(Simulator(), config, RngStreams(2))
    install_lb(fabric, lb)
    ports = [fabric.topology.spine_down[s][2] for s in (0, 1)]
    sampler = QueueSampler(fabric.sim, ports, period_ns=50_000)
    sampler.start()
    flow_a = PausingFlow(fabric, 0, 4, 10**6 * MSS)
    flow_b = DctcpFlow(fabric, 2, 5, 10**6 * MSS)
    for flow in (flow_b, flow_a):
        fabric.register_flow(flow)
        flow.start()
    fabric.sim.run(until=FIG4_RUN_NS)
    return {
        "flips": max(0, len(flow_a.path_history) - 1),
        "peak_kb": max(sampler.max_backlog(p.name) for p in ports) / 1_000,
    }


FIG7_SAMPLES = 100_000


def fig7_workloads():
    stats = {}
    rng = random.Random(7)
    for dist in (WEB_SEARCH, DATA_MINING):
        samples = sorted(dist.sample(rng) for _ in range(FIG7_SAMPLES))
        total = sum(samples)
        big = [s for s in samples if s > 35_000_000]
        stats[dist.name] = {
            "mean_mb": dist.mean() / 1e6,
            "median_kb": samples[len(samples) // 2] / 1e3,
            "frac_flows_over_35mb": len(big) / len(samples),
            "frac_bytes_over_35mb": sum(big) / total,
            "frac_small_flows": sum(1 for s in samples if s < 100_000)
            / len(samples),
        }
    return stats


def fig7_cdf_knots(_stats) -> str:
    return "CDF knots:\n" + "\n".join(
        f"{dist.name}: "
        + "  ".join(f"({int(s)}B,{c:.2f})" for s, c in dist.points())
        for dist in (WEB_SEARCH, DATA_MINING)
    )


# ----------------------------------------------- shared pieces of the grids

TABLE2_ORDER = [(w, load) for w in ("data-mining", "web-search")
                for load in (0.6, 0.8)]

#: The simulation figures' scale-down: the shape-preserving 4x4 / 32-host
#: fabric (the paper: 8x8, 128 hosts; same 2:1 oversubscription and
#: speeds), flow sizes scaled 0.2x with every timer scaled identically.
SCALED = dict(size_scale=0.2, time_scale=0.2)
#: The same fabric with 20% of randomly chosen leaf-spine links reduced
#: from 10 to 2 Gbps (§5.3.2).
ASYM_FABRIC = bench_topology(asymmetric=True)
ASYM_SCHEMES = ("conga", "letflow", "clove-ecn", "presto", "hermes")
HOP_NS = ASYM_FABRIC.one_hop_delay_ns()
BASE_RTT_NS = ASYM_FABRIC.base_rtt_ns()
#: The testbed figures keep the paper's fabric (12 servers, 2 leaves, 1
#: Gbps, 3:2 oversubscription) with sizes and timers scaled 0.3x and far
#: fewer flows than its multi-minute runs — a burst, not a steady state,
#: which compresses the paper's 10-38% margins (see EXPERIMENTS.md).
TESTBED = dict(n_flows=100, size_scale=0.3, time_scale=0.3)
TESTBED_SCHEMES = ("ecmp", "clove-ecn", "presto", "hermes")
#: The failure figures run *unscaled* sizes and timers on a smaller
#: fabric: detection runs on wall-clock timers (10 ms RTO, tau sweep) and
#: the loss process cannot be size-scaled without collapsing the
#: detection-to-FCT ratio (see EXPERIMENTS.md).
FAILURE_FABRIC = bench_topology(n_leaves=4, n_spines=4, hosts_per_leaf=3)
FAILURE_SCHEMES = ("ecmp", "presto", "letflow", "conga", "hermes")

FIG10_CELLS = grid(testbed_topology(asymmetric=True), TESTBED_SCHEMES,
                   (0.3, 0.5, 0.7), WORKLOADS, presto_weighted=True, **TESTBED)
FIG18_VARIANTS = {
    "hermes (full)": {},
    "without probing": {"probing_enabled": False},
    "without rerouting": {"timely_rerouting": False},
    "without both": {"probing_enabled": False, "timely_rerouting": False},
}
FIG18_PROBES = {f"{us}us probes": {"probe_interval_ns": microseconds(us)}
                for us in (100, 500)}
#: Fig. 19 sweeps each threshold as a multiple of the one-hop delay.
FIG19_HOPS = {"t_rtt_high": (0.9, 1.2, 1.8), "delta_rtt": (0.5, 1.0, 2.0)}


def fig19_overrides(param, hops):
    if param == "t_rtt_high":
        return {"t_rtt_high_ns": BASE_RTT_NS + int(hops * HOP_NS)}
    return {"delta_rtt_ns": int(hops * HOP_NS)}


MS = 1_000_000
RECOVERY_SCHEMES = ("ecmp", "letflow", "conga", "hermes")
#: One clean outage cycle: down at 20 ms (mid-run, traffic flowing),
#: healed at 55 ms — long enough to outlast several RTOs, so detection
#: has unambiguous evidence to fire on.
RECOVERY_FAULTS = schedule(
    link_down(20 * MS, leaf=0, spine=0),
    link_up(55 * MS, leaf=0, spine=0),
)


def _ms(value_ns):
    return "-" if value_ns is None else f"{value_ns / MS:.3f}"


def recovery_rows(results):
    return [
        [lb, _ms(r.detection_ns), _ms(r.recovery_ns), r.unrecovered_timeouts,
         f"{r.mean_fct_ms_with_penalty():.3f}"]
        for lb in RECOVERY_SCHEMES
        for r in results["web-search", lb, 0.5].runs
    ]


def recovery_fault_timeline(results) -> str:
    timeline = results["web-search", "ecmp", 0.5].runs[0].fault_timeline
    return "fault timeline: " + "; ".join(
        f"t={r['t'] / MS:g}ms {r['action']} {r['target']} ({r['phase']})"
        for r in timeline
    )


def every_run(text, label, predicate) -> Claim:
    """``predicate`` holds on every seed's run of the cell ``label``."""
    return holds(text, lambda results: all(map(predicate, results[label].runs)))


# What the fault plane reports about one run (Figs. 16 / 17, the timeline).
def detects(run) -> bool:
    return run.detection_ns is not None


def never_detects(run) -> bool:
    return run.detection_ns is None


def strands_flows(run) -> bool:
    return run.unrecovered_timeouts > 0


# ------------------------------------------------------------- the table

FIGURES: List[Figure] = [
    # Paper values (8x8 leaf-spine, 128 hosts, 2 s trace): switch pair
    # 1.725 / 2.344 / 4.173 / 5.859, host pair 0.007 / 0.009 / 0.016 /
    # 0.022 (data-mining 60 / 80 %, web-search 60 / 80 %).  Here: the 4x4
    # fabric under ECMP, sizes scaled 0.1x, a far shorter trace.
    Figure(
        "table2_visibility", "Table 2: visibility (concurrent flows)",
        "ToR-switch pairs see hundreds of times more concurrent flows on"
        " parallel paths than host pairs (why Hermes probes actively)",
        sweep({(w, load): {"workload": w, "load": load}
               for w, load in TABLE2_ORDER},
              topology=bench_topology(), lb="ecmp", n_flows=250,
              size_scale=0.1, visibility_sampling=True),
        [table(
            ["observer"] + [f"{w} @{load:.0%}" for w, load in TABLE2_ORDER],
            lambda results: [
                [who] + [results[key][field] for key in TABLE2_ORDER]
                for who, field in (("switch pair", "switch_pair"),
                                   ("host pair", "host_pair"))
            ],
        )],
        [compare(of(key, "switch_pair"), ">", of(key, "host_pair"), 50)
         for key in TABLE2_ORDER]
        # visibility grows with load
        + [compare(of(("web-search", 0.8), "switch_pair"), ">",
                   of(("web-search", 0.6), "switch_pair"))],
    ),
    Figure(
        "table6_probing", "Table 6: probing visibility vs overhead",
        "(100x100 leaf-spine, 64 B probes every 500 us) visibility /"
        " overhead: piggyback <0.01 / -, brute force 100 / 100x,"
        " power-of-two-choices >3 / 3x, Hermes >3 / 3%",
        table6_probing,
        [records("scheme", {"visibility": "visibility",
                            "overhead (x capacity)": "overhead"}),
         lambda results: "measured:   live 4x4 prober agent overhead = "
                         f"{results['hermes']['live_overhead']:.5f}x capacity"],
        [
            compare(of("brute-force", "overhead"), ">", 50),
            both(compare(of("power-of-two-choices", "overhead"), ">", 1),
                 compare(of("power-of-two-choices", "overhead"), "<", 10)),
            both(compare(of("hermes", "overhead"), ">", 0.01),
                 compare(of("hermes", "overhead"), "<", 0.1)),
            holds("overhead[piggyback] == 0",
                  lambda results: results["piggyback"]["overhead"] == 0.0),
            # well under 1% of the edge link
            compare(of("hermes", "live_overhead"), "<", 0.01),
        ],
    ),
    # 12 large DCTCP flows pinned onto path 1 with staggered starts; path 0
    # idle.  The collision must be heavy: DCTCP's standing queue sits at the
    # marking threshold — one hop delay — so only aggregate-window pressure
    # pushes RTT and ECN fraction into Hermes' *congested* region.
    # ``hermes`` runs the Fig. 19-endorsed aggressive T_RTT_high (base +
    # 0.9 x hop; the paper reports aggressive settings win on steady
    # traffic); the default (base + 1.5 x hop) ignores single-hop congestion
    # by design and is shown as ``hermes-passive``.  New Reno's slow-start
    # transients give CONGA / LetFlow a few accidental flowlet gaps (ns-3's
    # DCTCP is less bursty), so they escape the collision partially.
    Figure(
        "fig1_flowlet_timeliness", "Fig. 1: flowlet passiveness",
        "DCTCP leaves flowlet schemes no gaps to split colliding flows at:"
        " the collision persists (~2x FCT); timely rerouting nearly halves it",
        lambda: {
            "conga": fig1_scheme("conga"),
            "letflow": fig1_scheme("letflow"),
            "hermes-passive": fig1_scheme("hermes", aggressive=False),
            "hermes": fig1_scheme("hermes", aggressive=True),
        },
        [records("scheme", {"avg FCT (ms)": "fct_ms", "reroutes": "reroutes"})],
        [
            holds("every flow finishes under every scheme", lambda results:
                  all(row["all_finished"] for row in results.values())),
            # acts without waiting for flowlet gaps
            compare(of("hermes", "reroutes"), ">=", 1),
            # close to halving the stuck FCT
            compare(of("hermes"), "<", of("hermes-passive"), 0.7),
            compare(of("hermes"), "<",
                    extreme(min, [of("conga"), of("letflow")]), 1.3),
        ],
    ),
    # Example 2: 3x2 leaf-spine, leaf0-spine1 link broken.  Flow B: 9 Gbps
    # UDP leaf0 -> leaf2 (forced through spine 0); flow A: DCTCP leaf1 ->
    # leaf2, sprayed by Presto over both spines, kept on the clean one by
    # Hermes.  ECN marks from the shared path throttle all of sprayed A.
    Figure(
        "fig2_presto_asymmetry", "Fig. 2: congestion mismatch (Presto)",
        "Presto's flow A collapses to ~1 Gbps with large queue oscillations;"
        " a path-aware scheme keeps A at ~10 Gbps",
        lambda: {lb: fig2_scheme(lb) for lb in ("presto", "hermes")},
        [records("scheme", {
            "flow A goodput (Gbps)": "gbps",
            "spine0->leaf2 queue stddev (KB)": "queue_stddev_kb"})],
        [compare(of("presto", "gbps"), "<", of("hermes", "gbps"), 0.5),
         # the clean upper path could serve A at near line rate
         compare(of("hermes", "gbps"), ">", 6.0)],
    ),
    # Example 3: a 1 Gbps and a 10 Gbps path; Presto sprays flowcells 1:10
    # to match, but one window cannot track both; Hermes pins the fast path.
    Figure(
        "fig3_weighted_presto", "Fig. 3: weighted spraying mismatch",
        "(ideal aggregate = 11 Gbps) weighted Presto reaches only ~5 Gbps"
        " (congestion mismatch); single-path ~10 Gbps",
        lambda: {lb: fig3_scheme(lb) for lb in ("presto", "hermes")},
        [records("scheme", {"flow A goodput (Gbps)": "gbps"})],
        [compare(of("presto", "gbps"), "<", 8.0),
         compare(of("hermes", "gbps"), ">", of("presto", "gbps")),
         compare(of("hermes", "gbps"), ">", 7.0)],
    ),
    # Example 4: flow A (leaf0 -> leaf2) pauses 3 ms every 10 ms, creating
    # flowlet gaps; flow B (leaf1 -> leaf2) sends steadily.  Hermes' probes
    # keep both path states fresh; its cautious margins suppress blind flips.
    Figure(
        "fig4_conga_flipflop", "Fig. 4: hidden terminal flip-flop",
        "CONGA's flow A flips at nearly every flowlet (stale 10 ms-aged"
        " state); each flip spikes the queue at the shared port",
        lambda: {lb: fig4_scheme(lb) for lb in ("conga", "hermes")},
        [records("scheme", {"flow A path flips": "flips",
                            "peak spine->leaf2 queue (KB)": "peak_kb"})],
        [compare(of("conga", "flips"), ">=", 5),
         compare(of("hermes", "flips"), "<=", of("conga", "flips"), 0.5)],
    ),
    Figure(
        "fig7_workloads", "Fig. 7: workload distributions",
        "data-mining has 95% of bytes in the 3.6% of flows >35MB; web-search"
        " is less skewed but more bursty",
        fig7_workloads,
        [records("workload", {
            "mean (MB)": "mean_mb", "median (KB)": "median_kb",
            "flows >35MB": "frac_flows_over_35mb",
            "bytes from >35MB": "frac_bytes_over_35mb",
            "flows <100KB": "frac_small_flows"}),
         fig7_cdf_knots],
        [
            compare(of("data-mining", "frac_bytes_over_35mb"), ">", 0.75),
            compare(of("data-mining", "frac_flows_over_35mb"), "<", 0.06),
            compare(of("data-mining", "median_kb"), "<", 10),
            compare(of("web-search", "mean_mb"), ">", 1.0),
            compare(of("data-mining", "frac_small_flows"), ">",
                    of("web-search", "frac_small_flows")),
        ],
    ),
    Figure(
        "fig9_testbed_symmetric", "Fig. 9: testbed symmetric avg FCT",
        "Hermes 10-38% better than ECMP (growing with load), 9-15% better"
        " than CLOVE-ECN, close to Presto*",
        grid(testbed_topology(), TESTBED_SCHEMES, (0.3, 0.6, 0.9), WORKLOADS,
             **TESTBED),
        [by_load(w, TESTBED_SCHEMES, (0.3, 0.6, 0.9), heading=w)
         for w in WORKLOADS],
        [below(w, "hermes", other, load, k)
         for w in WORKLOADS
         for other, load, k in (("ecmp", 0.6, 1.05), ("ecmp", 0.9, 1.05),
                                ("presto", 0.6, 1.5))],
    ),
    # Fig. 9's testbed with one physical leaf0-spine link cut (bisection
    # drops to 75%), Presto* with the paper's static topology weights.
    Figure(
        "fig10_testbed_asymmetric", "Fig. 10: testbed asymmetric avg FCT",
        "ECMP degrades past 40-50% load; Hermes 12-30% better than"
        " CLOVE-ECN; weighted Presto* still suffers congestion mismatch",
        FIG10_CELLS,
        [by_load(w, TESTBED_SCHEMES, (0.3, 0.5, 0.7), heading=w)
         for w in WORKLOADS],
        [below(w, "hermes", "ecmp", load)
         for w in WORKLOADS for load in (0.5, 0.7)],
    ),
    # Fig. 10's web-search cells up to 50% load, split into small
    # (<100 KB) average, small 99th percentile and large (>10 MB) average.
    Figure(
        "fig11_testbed_breakdown",
        "Fig. 11: testbed asymmetric web-search breakdown",
        "Hermes leads every group at 30-65% load",
        {(w, lb, load): cell for (w, lb, load), cell in FIG10_CELLS.items()
         if w == "web-search" and load <= 0.5},
        [by_load("web-search", TESTBED_SCHEMES, (0.3, 0.5), field, name)
         for name, field in (("small avg (ms)", "small_fct_ms"),
                             ("small p99 (ms)", "small_p99_ms"),
                             ("large avg (ms)", "large_fct_ms"))],
        # Hermes' small flows do not collapse under the asymmetry
        [below("web-search", "hermes", "ecmp", 0.5, 1.5, "small_fct_ms")],
    ),
    Figure(
        "fig12_baseline", "Fig. 12: symmetric baseline avg FCT",
        "web-search — Hermes beats ECMP up to 55%, within 17% of CONGA;"
        " data-mining — Hermes slightly beats CONGA",
        grid(bench_topology(), ("ecmp", "conga", "hermes"), (0.6, 0.8),
             WORKLOADS, n_flows=200, **SCALED),
        [by_load(w, ("ecmp", "conga", "hermes"), (0.6, 0.8), heading=w)
         for w in WORKLOADS],
        [below(w, "hermes", other, load, k)
         for w in WORKLOADS
         for other, load, k in (("ecmp", 0.8, 1.0), ("conga", 0.6, 1.35))]
        # data-mining is where timeliness pays: Hermes at least matches CONGA
        + [below("data-mining", "hermes", "conga", 0.8, 1.15)],
    ),
    # FCT normalized to Hermes; Presto* with static capacity weights.
    Figure(
        "fig13_asym_websearch", "Fig. 13: asymmetric web-search",
        "CONGA ~10% ahead overall; Hermes/CLOVE/LetFlow comparable; flowlet"
        " schemes' small-flow FCT degrades 1.5-3.3x at 90% load",
        grid(ASYM_FABRIC, ASYM_SCHEMES, (0.5, 0.8), ("web-search",),
             presto_weighted=True, n_flows=200, **SCALED),
        [by_load("web-search", ASYM_SCHEMES, (0.5, 0.8), field, name, heading,
                 norm_to="hermes")
         for heading, name, field in (
             ("overall avg", "norm FCT", "fct_ms"),
             ("small avg", "norm small", "small_fct_ms"),
             ("small p99", "norm small p99", "small_p99_ms"))],
        [
            # Hermes in the same league as the flowlet schemes overall
            compare(of(("web-search", "hermes", 0.5)), "<", extreme(min, [
                of(("web-search", lb, 0.5))
                for lb in ("conga", "letflow", "clove-ecn")]), 1.4),
            # weighted Presto* does not beat Hermes under asymmetry
            compare(of(("web-search", "presto", 0.8)), ">",
                    of(("web-search", "hermes", 0.8)), 0.9),
        ],
    ),
    Figure(
        "fig14_asym_datamining", "Fig. 14: asymmetric data-mining",
        "Hermes 5-10% better than CONGA and 13-20% better than"
        " CLOVE-ECN/LetFlow (no flowlet gaps in steady traffic)",
        grid(ASYM_FABRIC, ASYM_SCHEMES, (0.5, 0.8), ("data-mining",),
             presto_weighted=True, n_flows=150, **SCALED),
        [by_load("data-mining", ASYM_SCHEMES, (0.5, 0.8), field, name, heading,
                 norm_to="hermes")
         for heading, name, field in (
             ("overall avg", "norm FCT", "fct_ms"),
             ("large avg", "norm large", "large_fct_ms"))],
        # timeliness wins on steady traffic: Hermes leads the flowlet pack
        [below("data-mining", "hermes", other, load, k)
         for load in (0.5, 0.8)
         for other, k in (("letflow", 1.0), ("clove-ecn", 1.05),
                          ("conga", 1.15))],
    ),
    # Web-search at 80% load on the asymmetric fabric, reordering masked
    # (as the paper does).
    Figure(
        "fig15_conga_timeout", "Fig. 15: CONGA flowlet-timeout sweep",
        "150us ~6% better than 500us; 50us ~30% worse than 150us"
        " (congestion mismatch from vigorous path changing)",
        sweep({f"{us}us": {"lb_params":
                           {"flowlet_timeout_ns": microseconds(us)}}
               for us in (50, 150, 500)},
              topology=ASYM_FABRIC, lb="conga", workload="web-search",
              load=0.8, n_flows=200, reorder_mask_us=100.0, **SCALED),
        [records("flowlet timeout", {"avg FCT (ms)": "fct_ms",
                                     "flowlet reroutes": "reroutes"})],
        [
            # smaller timeout => more vigorous path changing ...
            both(compare(of("50us", "reroutes"), ">", of("150us", "reroutes")),
                 compare(of("150us", "reroutes"), ">", of("500us", "reroutes"))),
            # ... and no benefit (usually a penalty) from the 50us vigour
            compare(of("50us"), ">", of("150us"), 0.95),
        ],
    ),
    # One spine silently drops 2% of packets; the paper goes to 70% load.
    Figure(
        "fig16_random_drop", "Fig. 16: silent random packet drops",
        "Hermes best by >32%; ECMP 1.7-2.3x worse; CONGA tracks ECMP"
        " (paradoxically attracts traffic to the quiet failed paths);"
        " Presto* hit hardest; LetFlow in between",
        grid(FAILURE_FABRIC, FAILURE_SCHEMES, (0.3, 0.5), ("web-search",),
             n_flows=100, extra_drain_ns=3_000_000_000,
             faults=schedule(random_drop_start(0, spine=0, drop_rate=0.02))),
        [by_load("web-search", FAILURE_SCHEMES, (0.3, 0.5))],
        # Hermes (detects and avoids) beats the oblivious schemes
        [below("web-search", "hermes", other, load, k)
         for load in (0.3, 0.5)
         for other, k in (("ecmp", 1.0), ("conga", 1.05))]
        + [every_run(f"{text} [web-search, {lb}, {load}]",
                     ("web-search", lb, load), predicate)
           for load in (0.3, 0.5)
           for text, lb, predicate in (
               ("hermes detects the lossy spine", "hermes", detects),
               ("ecmp never detects", "ecmp", never_detects))],
    ),
    # One spine deterministically drops packets for half of the (src, dst)
    # pairs from rack 0 to rack 1.  Unfinished flows are charged the full
    # run length in the penalized mean, as the paper's averages do.
    Figure(
        "fig17_blackhole", "Fig. 17: packet blackhole",
        "Hermes finishes everything and is >1.6x better; ECMP ~1.5%"
        " unfinished (9-22x worse); CONGA as bad or worse than ECMP; Presto*"
        " finishes but slowly; LetFlow second best",
        grid(FAILURE_FABRIC, FAILURE_SCHEMES, (0.4,), ("web-search",),
             n_flows=120, extra_drain_ns=3_000_000_000,
             faults=schedule(blackhole_on(0, spine=0, src_leaf=0, dst_leaf=1,
                                          fraction=0.5))),
        [records("scheme", {
            "avg FCT incl. unfinished (ms)": "penalized_fct_ms",
            "unfinished fraction": "unfinished"},
            [(lb, ("web-search", lb, 0.4)) for lb in FAILURE_SCHEMES])],
        [
            holds("unfinished[web-search, hermes, 0.4] == 0", lambda results:
                  results["web-search", "hermes", 0.4]["unfinished"] == 0.0),
            compare(of(("web-search", "presto", 0.4), "unfinished"), "<=",
                    of(("web-search", "ecmp", 0.4), "unfinished")),
        ] + [below("web-search", "hermes", other, 0.4, k, "penalized_fct_ms")
             for other, k in (("ecmp", 1.0), ("presto", 1.0),
                              ("letflow", 1.15))]
        + [every_run(text, ("web-search", lb, 0.4), predicate)
           for text, lb, predicate in (
               ("hermes detects the blackhole", "hermes", detects),
               ("ecmp never detects", "ecmp", never_detects),
               ("ecmp strands flows (unrecovered_timeouts > 0)", "ecmp",
                strands_flows))],
    ),
    # Data-mining at 70% load on the asymmetric fabric: Hermes with probing
    # and / or timely rerouting switched off (18a), and a probe-interval
    # sweep (18b).
    Figure(
        "fig18_ablation", "Fig. 18: Hermes ablation",
        "probing ~20% and rerouting ~10% of the overall FCT; 500us probes"
        " give 11-15% over none, 100us adds 1-3% more",
        sweep({name: {"hermes_overrides": overrides} for name, overrides
               in {**FIG18_VARIANTS, **FIG18_PROBES}.items()},
              topology=ASYM_FABRIC, lb="hermes", workload="data-mining",
              load=0.7, n_flows=150, **SCALED),
        [records("variant", {"avg FCT (ms)": "fct_ms",
                             "large avg (ms)": "large_fct_ms",
                             "reroutes": "reroutes"})],
        # full Hermes is never notably worse than any ablated variant
        [compare(of("hermes (full)"), "<=", of(name), 1.1)
         for name in FIG18_VARIANTS if name != "hermes (full)"],
    ),
    Figure(
        "fig19_sensitivity", "Fig. 19: parameter sensitivity",
        "stable near the suggested values; conservative settings favour"
        " bursty web-search, aggressive settings favour steady data-mining",
        sweep({(param, w, hops): {"workload": w, "hermes_overrides":
                                  fig19_overrides(param, hops)}
               for w in WORKLOADS
               for param, sweep_hops in FIG19_HOPS.items()
               for hops in sweep_hops},
              topology=ASYM_FABRIC, lb="hermes", load=0.7, n_flows=150,
              **SCALED),
        [table(
            ["workload"] + [f"{param}={h}xhop" for h in hops],
            lambda results, param=param, hops=hops: [
                [w] + [results[param, w, h]["fct_ms"] for h in hops]
                for w in WORKLOADS
            ],
        ) for param, hops in FIG19_HOPS.items()],
        # stability: FCT varies by less than 2x across each sweep
        [compare(extreme(max, [of((param, w, h)) for h in hops]), "<",
                 extreme(min, [of((param, w, h)) for h in hops]), 2.0)
         for param, hops in FIG19_HOPS.items() for w in WORKLOADS],
    ),
    # §5.3, the dynamic reading of Figs. 16-18, whose malfunction exists
    # from t=0 and never heals: here one leaf-spine link goes admin-down
    # mid-run and comes back 35 ms later.  detect = first applied fault ->
    # the scheme's first failure detection (tau sweep, RTO attribution or
    # per-flow blackhole evidence); recover = last reverted fault -> last
    # timeout-afflicted flow drained; stranded flows surface as
    # ``unrecovered`` timeouts, the Fig. 17b signature.
    Figure(
        "recovery_timeline", "Detection/recovery on a link outage",
        "Hermes detects within its timeout/sweep timescale and drains the"
        " damage once the link heals; ECMP never detects and strands the"
        " flows hashed onto the dark link",
        grid(FAILURE_FABRIC, RECOVERY_SCHEMES, (0.5,), ("web-search",),
             seeds=(2,), n_flows=100, faults=RECOVERY_FAULTS,
             extra_drain_ns=40 * MS),
        [table(["scheme", "detect (ms)", "recover (ms)", "unrecovered",
                "FCT+penalty (ms)"], recovery_rows),
         recovery_fault_timeline],
        [every_run(text, ("web-search", lb, 0.5), predicate)
         for text, lb, predicate in (
             ("hermes detects the outage", "hermes", detects),
             ("hermes drains the damage", "hermes",
              lambda r: r.recovery_ns is not None),
             ("hermes strands no flow", "hermes",
              lambda r: r.unrecovered_timeouts == 0),
             ("ecmp never detects (it has no failure detector)", "ecmp",
              never_detects),
             ("ecmp strands the flows hashed onto the dark link", "ecmp",
              strands_flows))],
    ),
    # TCP instead of DCTCP: Hermes senses with RTT only (no ECN), delta_RTT
    # and T_RTT_high set 1.5x larger.  TCP's loss-driven sawtooth is
    # burstier, so flowlet schemes get more gaps and CONGA's relative
    # position improves.  Here: the asymmetric fabric at 60% load.
    Figure(
        "sec54_tcp_transport", "§5.4: plain-TCP transport",
        "(no figure) with TCP, Hermes senses via RTT only and stays within"
        " 10-25% of CONGA (web-search) / matches it (data-mining)",
        grid(ASYM_FABRIC, ("ecmp", "conga", "hermes"), (0.6,), WORKLOADS,
             transport="tcp", n_flows=150, **SCALED,
             hermes_overrides={
                 "use_ecn": False,
                 "t_rtt_high_ns": BASE_RTT_NS + int(1.5 * 1.2 * HOP_NS),
                 "delta_rtt_ns": int(1.5 * HOP_NS)}),
        [by_load(w, ("ecmp", "conga", "hermes"), (0.6,),
                 heading=f"{w}, plain TCP") for w in WORKLOADS],
        [below(w, "hermes", "conga", 0.6, 1.5) for w in WORKLOADS]
        # all flows finish under loss-driven TCP too
        + [every_run(f"every flow finishes [{w}, {lb}, 0.6]", (w, lb, 0.6),
                     lambda r: r.stats.unfinished_count == 0)
           for w in WORKLOADS for lb in ("ecmp", "conga", "hermes")],
    ),
]


def index(figures: Sequence[Figure]) -> Dict[str, Figure]:
    """Figures by full name and by short one (``fig13``); a name that two
    figures answer to is refused."""
    by_name: Dict[str, Figure] = {}
    for figure in figures:
        for name in {figure.name, figure.name.split("_")[0]}:
            if name in by_name:
                raise ValueError(f"two figures answer to {name!r}")
            by_name[name] = figure
    return by_name


BY_NAME = index(FIGURES)


# ------------------------------------------------------------- the runner

def emit(name: str, title: str, body: str) -> None:
    """Print a report and persist it under ``benchmarks/results``."""
    text = f"\n=== {title} ===\n{body}\n"
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text)


def measure(figure: Figure):
    """The figure's results: its function's, or its cells' runs, one
    :class:`Cell` per label."""
    if callable(figure.measure):
        return figure.measure()
    cells = figure.measure
    runs = iter(run_grid([c for seeds in cells.values() for c in seeds]))
    return {label: Cell([next(runs) for _ in seeds])
            for label, seeds in cells.items()}


def scale_line(cells: Cells) -> str:
    """How the grid was scaled, read off its first cell (one scale per
    figure: ``tests/test_figures.py`` holds every grid to that)."""
    seeds = next(iter(cells.values()))
    c = seeds[0]
    t = c.topology
    return (f"({t.n_leaves}x{t.n_spines}x{t.hosts_per_leaf} fabric, {c.n_flows}"
            f" flows x{len(seeds)} seed(s), size scale {c.size_scale:g},"
            f" time scale {c.time_scale:g})")


def run(figure: Figure) -> List[dict]:
    """Measure, render and score one figure: its ``BENCH_paper.json`` rows."""
    results = measure(figure)
    blocks = [block(results) for block in figure.tables]
    if not callable(figure.measure):
        blocks.append(scale_line(figure.measure))
    rows = []
    for claim in figure.claims:
        margin = claim.margin(results)
        rows.append({"figure": figure.name, "claim": claim.text,
                     "holds": margin >= 0, "margin": round(margin, 4) + 0.0})
    blocks += [f"paper: {figure.paper}", "claims:\n" + "\n".join(
        f"  {'holds' if r['holds'] else 'FAILS'} {r['margin']:+.4f}  {r['claim']}"
        for r in rows
    )]
    emit(figure.name, figure.title, "\n\n".join(blocks))
    return rows


def write_scores(fresh: List[dict]) -> None:
    """Replace the re-run figures' rows in ``BENCH_paper.json`` and
    regenerate the EXPERIMENTS.md scorecard (between its two markers; at
    the end if they are missing) from the whole file."""
    try:
        with open(SCORES_PATH) as fh:
            kept = json.load(fh)
    except FileNotFoundError:
        kept = []
    rerun = {row["figure"] for row in fresh}
    rows = [row for figure in FIGURES
            for row in (fresh if figure.name in rerun else kept)
            if row["figure"] == figure.name]
    with open(SCORES_PATH, "w") as fh:
        fh.write("[\n" + ",\n".join(" " + json.dumps(r) for r in rows) + "\n]\n")

    card = ["| figure | claim | holds | margin |", "|---|---|---|---|"] + [
        f"| `{r['figure']}` | {r['claim']} | "
        f"{'yes' if r['holds'] else '**no**'} | {r['margin']:+.4f} |"
        for r in rows
    ]
    with open(SCORECARD_PATH) as fh:
        head, _, rest = fh.read().partition(SCORECARD_BEGIN)
    tail = rest.partition(SCORECARD_END)[2]
    with open(SCORECARD_PATH, "w") as fh:
        fh.write("\n".join([head + SCORECARD_BEGIN, *card, SCORECARD_END + tail]))


def select(names: Sequence[str]) -> List[Figure]:
    """The named figures (``fig13`` or ``fig13_asym_websearch``), or all."""
    unknown = [name for name in names if name not in BY_NAME]
    if unknown:
        raise SystemExit(f"unknown figure {unknown}; known: "
                         + ", ".join(figure.name for figure in FIGURES))
    return [BY_NAME[name] for name in names] or list(FIGURES)


def main(argv: Sequence[str]) -> int:
    rows = [row for figure in select(argv) for row in run(figure)]
    write_scores(rows)
    failing = sum(not row["holds"] for row in rows)
    print(f"{len(rows) - failing} of {len(rows)} claims hold; "
          f"{failing} recorded as failing")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
