"""Cross-scheme conformance: the executable contract every load
balancer in the factory registry must honour.

New schemes land against this spec instead of ad-hoc tests.  The
contract, parametrized over ``repro.lb.factory.LB_REGISTRY``:

* **registered** — the scheme appears in the EXPECTATIONS table below
  (so its claims are declared, not implied) and its class declares the
  same decision granularity;
* **deterministic replay** — the same config produces bit-identical
  per-flow records and event counts on every run;
* **serial == parallel** — running the scheme inside a worker process
  pool reproduces the in-process records bit for bit;
* **clean fabric** — under byte-conservation invariant checking, every
  flow finishes with zero timeouts and zero retransmissions: no scheme
  may lose or corrupt traffic on a healthy network;
* **bounded reordering** — a scheme's reroute count must match its
  declared granularity (flow-pinned schemes may not silently spray);
* **fault schedule sanity** — a link_down -> link_up cycle mid-run must
  not crash the scheme, must leave a complete applied/reverted timeline,
  must account for every flow, and must replay deterministically;
* **engine equivalence** — the heap and wheel event engines produce
  bit-identical records.

A scheme registered in the factory but missing from EXPECTATIONS fails
``test_scheme_is_declared`` with instructions, which is the point: the
table is the spec, and growing the zoo means extending it consciously.
"""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import run_cells
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology
from repro.faults.spec import link_down, link_up, schedule
from repro.lb.factory import LB_CLASSES, LB_REGISTRY, SPRAYING_SCHEMES

MS = 1_000_000
N_FLOWS = 25

#: The per-scheme declarations this suite enforces.  ``granularity`` is
#: the path-decision unit the scheme claims (checked against the agent
#: class); ``max_clean_reroutes`` bounds path changes of established
#: flows on a clean fabric — the "bounded reordering" claim.  Packet
#: sprayers declare ``None`` (reordering is their design), flow-pinned
#: schemes declare a small multiple of the flow count.
EXPECTATIONS = {
    "ecmp":       {"granularity": "flow",     "max_clean_reroutes": 0},
    "flowbender": {"granularity": "flow",     "max_clean_reroutes": 4 * N_FLOWS},
    "rdna":       {"granularity": "flow",     "max_clean_reroutes": 4 * N_FLOWS},
    "letflow":    {"granularity": "flowlet",  "max_clean_reroutes": 20 * N_FLOWS},
    "conga":      {"granularity": "flowlet",  "max_clean_reroutes": 20 * N_FLOWS},
    "clove-ecn":  {"granularity": "flowlet",  "max_clean_reroutes": 20 * N_FLOWS},
    "presto":     {"granularity": "flowcell", "max_clean_reroutes": None},
    "drb":        {"granularity": "packet",   "max_clean_reroutes": None},
    "drill":      {"granularity": "packet",   "max_clean_reroutes": None},
    "hermes":     {"granularity": "packet",   "max_clean_reroutes": 4 * N_FLOWS},
    "reps":       {"granularity": "packet",   "max_clean_reroutes": None},
    "diffflow":   {"granularity": "packet",   "max_clean_reroutes": None},
}

SCHEMES = sorted(LB_REGISTRY)
ENGINES = ("heap", "wheel")


def conformance_config(scheme, **overrides):
    """The shared conformance cell: small, deterministic, validated."""
    defaults = dict(
        topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2),
        lb=scheme,
        workload="web-search",
        load=0.4,
        n_flows=N_FLOWS,
        seed=1,
        size_scale=0.05,
        time_scale=0.05,
        reorder_mask_us=100.0 if scheme in SPRAYING_SCHEMES else None,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


FAULT_SCHEDULE = schedule(
    link_down(1 * MS, leaf=0, spine=0),
    link_up(3 * MS, leaf=0, spine=0),
)

#: Run cache: every contract below shares these results instead of
#: re-simulating, so the suite stays a per-scheme matrix, not a grid of
#: redundant runs.  Keyed (scheme, variant).
_RUNS = {}


def _run(scheme, variant="base", **overrides):
    key = (scheme, variant)
    if key not in _RUNS:
        _RUNS[key] = run_experiment(conformance_config(scheme, **overrides))
    return _RUNS[key]


def _same_results(a, b):
    return (
        a.stats.records == b.stats.records
        and a.events == b.events
        and a.sim_time_ns == b.sim_time_ns
    )


@pytest.fixture(scope="module")
def parallel_results():
    """One process-pool batch over every scheme (amortizes pool spawn)."""
    grid = [conformance_config(scheme) for scheme in SCHEMES]
    results = run_cells(grid, jobs=2, use_cache=False)
    return dict(zip(SCHEMES, results))


@pytest.mark.parametrize("scheme", SCHEMES)
class TestSchemeConformance:
    def test_scheme_is_declared(self, scheme):
        assert scheme in EXPECTATIONS, (
            f"scheme {scheme!r} is registered in LB_REGISTRY but not "
            f"declared in tests/test_scheme_conformance.py::EXPECTATIONS "
            f"— add a row stating its granularity and reordering claim"
        )
        declared = EXPECTATIONS[scheme]["granularity"]
        if scheme in LB_CLASSES:  # hermes builds its class lazily
            actual = getattr(LB_CLASSES[scheme], "granularity", None)
            assert actual == declared, (
                f"{scheme}: EXPECTATIONS says granularity={declared!r} "
                f"but the agent class declares {actual!r}"
            )

    def test_deterministic_replay(self, scheme):
        base = _run(scheme)
        replay = run_experiment(conformance_config(scheme))
        assert _same_results(base, replay), (
            f"{scheme}: two runs of the same config diverged — the "
            f"scheme draws randomness outside its seeded rng stream"
        )

    def test_serial_matches_parallel(self, scheme, parallel_results):
        assert _same_results(_run(scheme), parallel_results[scheme]), (
            f"{scheme}: worker-process run diverged from in-process run"
        )

    def test_clean_fabric_loses_nothing(self, scheme):
        result = _run(scheme, "validated", validate=True)
        stats = result.stats
        assert stats.finished_count == stats.count == N_FLOWS
        timeouts = sum(r.timeouts for r in stats.records)
        retx = sum(r.retransmissions for r in stats.records)
        assert timeouts == 0, f"{scheme}: timeouts on a clean fabric"
        assert retx == 0, f"{scheme}: lost packets on a clean fabric"

    def test_reordering_stays_bounded(self, scheme):
        bound = EXPECTATIONS[scheme]["max_clean_reroutes"]
        if bound is None:
            return  # sprays by design; reordering is the mechanism
        reroutes = _run(scheme).total_reroutes
        assert reroutes <= bound, (
            f"{scheme} claims {EXPECTATIONS[scheme]['granularity']!r} "
            f"granularity but rerouted {reroutes} times (> {bound}) on "
            f"a clean fabric"
        )

    def test_fault_schedule_sanity(self, scheme):
        result = _run(scheme, "faulted", faults=FAULT_SCHEDULE)
        assert [r["phase"] for r in result.fault_timeline] == [
            "applied", "reverted"
        ]
        stats = result.stats
        assert stats.count == N_FLOWS, (
            f"{scheme}: flows went missing under a fault schedule"
        )
        # The link comes back: nothing may stay stranded forever.
        assert stats.finished_count == N_FLOWS, (
            f"{scheme}: {stats.unfinished_count} flows never finished "
            f"although the link recovered mid-run"
        )
        replay = run_experiment(
            conformance_config(scheme, faults=FAULT_SCHEDULE)
        )
        assert _same_results(result, replay), (
            f"{scheme}: faulted run is not deterministic"
        )

    @pytest.mark.parametrize("engine", [e for e in ENGINES if e != "wheel"])
    def test_engine_equivalence(self, scheme, engine):
        # "wheel" is the base run (the default engine) — compare the
        # other engines against it.
        base = _run(scheme)
        other = _run(scheme, f"engine:{engine}", scheduler=engine)
        assert _same_results(base, other), (
            f"{scheme}: {engine} engine diverged from wheel engine"
        )


def test_expectations_match_registry():
    """The spec table and the factory registry stay in lockstep both
    ways: no undeclared schemes, no stale declarations."""
    assert set(EXPECTATIONS) == set(LB_REGISTRY)


def test_factory_error_lists_schemes_alphabetically():
    from repro.lb.factory import install_lb
    from tests.conftest import make_fabric

    with pytest.raises(ValueError) as err:
        install_lb(make_fabric(), "no-such-scheme")
    message = str(err.value)
    listed = message.split("known: ", 1)[1].split(", ")
    assert listed == sorted(LB_REGISTRY)
