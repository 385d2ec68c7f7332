"""Seeded chaos harness: randomized scenarios under full invariant checking.

Three layers:

* a sweep of >= 50 deterministic seeds, every invariant enabled, all of
  which must pass (the "simulator is self-consistent" contract);
* mutation checks proving the invariants have teeth — an intentionally
  injected accounting bug (a vanished packet, a leaked backlog byte)
  must be *caught*, with a replayable fingerprint;
* shrinking: a failing config minimizes to a smaller config that still
  fails.

Replay one case from a violation fingerprint with::

    REPRO_CHAOS_SEED=<n> pytest tests/chaos/test_chaos.py -q -k replay
"""

import os

import pytest

from repro.net.fabric import Fabric
from repro.net.port import OutputPort
from repro.validate.errors import (
    CapacityError,
    ConservationError,
    InvariantViolation,
)
from repro.validate.fuzz import chaos_config, run_case, shrink_case

#: The two switch malfunctions a chaos case may carry from t=0.
STATIC_FAILURES = ("random_drop_start", "blackhole_on")


def static_failure(config):
    """The config's t=0 malfunction event, or ``None``."""
    events = config.faults.events if config.faults else ()
    return next(
        (e for e in events if e.time_ns == 0 and e.action in STATIC_FAILURES),
        None,
    )

#: The CI sweep: >= 50 fixed seeds, each expanding into a randomized
#: topology/scheme/workload/failure scenario.
CHAOS_SEEDS = list(range(1, 57))


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_case_holds_invariants(seed):
    case = run_case(seed)  # raises InvariantViolation on any breach
    assert case.ok
    inv = case.invariants
    assert inv is not None, "validated run must publish its invariant report"
    assert inv["violations"] == 0
    assert inv["packets_sent"] > 0
    assert inv["events_checked"] == case.events
    # Ledger identity, re-stated from the published counters.
    assert (
        inv["delivered_bytes"] + inv["dropped_bytes"] + inv["inflight_bytes"]
        <= inv["injected_bytes"]
    )


def test_chaos_is_deterministic():
    first = run_case(11)
    second = run_case(11)
    assert first.events == second.events
    assert first.mean_fct_ms == second.mean_fct_ms
    assert first.invariants == second.invariants


def test_chaos_covers_failures_and_schemes():
    """The sweep draws from the factory registry itself, so *every*
    registered scheme — including ones landed after this test was
    written — must appear across the >= 50 seeds."""
    from repro.lb.factory import scheme_names

    configs = [chaos_config(seed) for seed in CHAOS_SEEDS]
    schemes = {config.lb for config in configs}
    assert schemes == set(scheme_names()), (
        f"sweep missed {sorted(set(scheme_names()) - schemes)}"
    )
    assert {static_failure(c).action for c in configs
            if static_failure(c)} == set(STATIC_FAILURES)
    assert any(config.topology.link_overrides for config in configs)
    assert any(config.transport == "tcp" for config in configs)


#: One pinned seed per post-2017 zoo scheme: these specific draws are
#: load-bearing (they guarantee the new schemes meet the invariant
#: checker even if the sweep's seed list shifts).
ZOO_PINNED_SEEDS = {"reps": 5, "diffflow": 8, "rdna": 7}


@pytest.mark.parametrize("scheme,seed", sorted(ZOO_PINNED_SEEDS.items()))
def test_zoo_scheme_pinned_chaos_seed(scheme, seed):
    assert chaos_config(seed).lb == scheme, (
        f"seed {seed} no longer draws {scheme}; re-pin ZOO_PINNED_SEEDS"
    )
    case = run_case(seed)
    assert case.ok
    assert case.invariants["violations"] == 0


def test_replay_seed_from_environment():
    """Entry point for fingerprint replay lines (see chaos_command)."""
    raw = os.environ.get("REPRO_CHAOS_SEED")
    if raw is None:
        pytest.skip("set REPRO_CHAOS_SEED=<n> to replay one chaos case")
    case = run_case(int(raw))
    assert case.ok


# --------------------------------------------------------------------- #
# Mutation checks: injected bugs must be caught, with a usable
# fingerprint.
# --------------------------------------------------------------------- #


class _vanishing_forward:
    """Context manager: Fabric.forward silently drops the Nth delivery.

    Patching the *class* before the fabric is built means the bound
    method every port captures is already the broken one — exactly the
    shape of a real accounting bug (a code path that forgets a packet).
    """

    def __init__(self, nth: int = 5):
        self.nth = nth
        self.vanished = 0

    def __enter__(self):
        original = Fabric.forward
        state = self

        def forward(self, packet):
            packet.hop += 1
            if packet.hop < len(packet.route):
                packet.route[packet.hop].enqueue(packet)
                return
            if state.nth > 0:
                state.nth -= 1
                if state.nth == 0:
                    state.vanished += 1  # packet silently evaporates
                    return
            if self.checker is not None:
                self.checker.on_deliver(packet)
            self.hosts[packet.dst].receive(packet)

        self._original = original
        Fabric.forward = forward
        return self

    def __exit__(self, *exc_info):
        Fabric.forward = self._original
        return False


def test_mutation_vanished_packet_is_caught():
    """An intentionally injected accounting bug: one packet is forwarded
    into the void.  The conservation audit must notice the ledger no
    longer balances and name the missing packet."""
    with _vanishing_forward(nth=5) as mutation:
        with pytest.raises(ConservationError) as excinfo:
            run_case(1)
    assert mutation.vanished == 1
    message = str(excinfo.value)
    assert "python -m repro chaos --seed 1" in message, (
        "violation must carry the exact replay command"
    )
    assert excinfo.value.fingerprint.seed == 1


def test_mutation_backlog_leak_is_caught():
    """A port that mis-accounts its backlog (classic off-by-a-packet
    drain bug) must trip the capacity/shadow-queue invariant."""
    original = OutputPort._tx_done
    leaked = {"count": 0}

    def leaky(self):
        packet = self._inflight
        original(self)
        if leaked["count"] == 0 and packet.size > 0:
            leaked["count"] += 1
            self.backlog_bytes += packet.size  # phantom bytes appear
    OutputPort._tx_done = leaky
    try:
        with pytest.raises(CapacityError):
            run_case(1)
    finally:
        OutputPort._tx_done = original
    assert leaked["count"] == 1


def test_mutation_violation_shrinks_to_minimal_config():
    """Under a mutation that always fires, shrinking walks the failing
    config down to the smallest scenario that still reproduces it."""
    from dataclasses import replace

    from repro.experiments.runner import run_experiment

    def probe(config):
        with _vanishing_forward(nth=3):
            try:
                run_experiment(replace(config, validate=True))
            except InvariantViolation as exc:
                return exc
        return None

    start = chaos_config(3)  # draws a blackhole from t=0
    assert static_failure(start).action == "blackhole_on"
    shrunk = shrink_case(start, probe=probe, max_attempts=12)
    assert isinstance(shrunk.error, ConservationError)
    assert shrunk.config.faults is None, "failure injection shrunk away"
    assert shrunk.config.n_flows < start.n_flows
    # The shrunken config must still fail on its own.
    assert probe(shrunk.config) is not None


# --------------------------------------------------------------------- #
# Dynamic fault schedules under chaos
# --------------------------------------------------------------------- #

#: Smoke slice of the faulted sweep; CI runs the full >= 50-seed sweep
#: via ``python -m repro chaos --faults``.
FAULTED_SMOKE_SEEDS = list(range(1, 13))


@pytest.mark.parametrize("seed", FAULTED_SMOKE_SEEDS)
def test_chaos_with_fault_schedule_holds_invariants(seed):
    case = run_case(seed, with_faults=True)
    assert case.ok
    assert case.config.faults is not None
    assert case.invariants is not None
    assert case.invariants["violations"] == 0


def test_faulted_case_is_deterministic():
    first = run_case(4, with_faults=True)
    second = run_case(4, with_faults=True)
    assert first.events == second.events
    assert first.mean_fct_ms == second.mean_fct_ms
    assert first.invariants == second.invariants


def test_forcing_faults_keeps_base_scenario():
    """with_faults only adds the schedule: topology, scheme, workload and
    flow count are untouched, so a faulted case diffs cleanly against
    its unfaulted twin."""
    from dataclasses import replace

    plain = chaos_config(6, with_faults=False)
    faulted = chaos_config(6, with_faults=True)
    assert plain.faults is None
    assert faulted.faults is not None
    assert replace(faulted, faults=None) == plain
    # A case that already fails from t=0 keeps that event, first.
    plain = chaos_config(3, with_faults=False)
    faulted = chaos_config(3, with_faults=True)
    assert plain.faults.events == (static_failure(plain),)
    assert faulted.faults.events[:1] == plain.faults.events
    assert len(faulted.faults.events) > 1
    assert replace(faulted, faults=plain.faults) == plain


def test_fault_draw_covers_shapes_and_avoids_cut_links():
    configs = [
        chaos_config(seed, with_faults=True) for seed in range(1, 57)
    ]
    actions = {e.action for c in configs for e in c.faults.events
               if e.time_ns > 0}
    # Every shape family must appear across the sweep.
    assert {"link_down", "link_degrade", "flap",
            "random_drop_start", "blackhole_on"} <= actions
    for config in configs:
        cut = {
            link for link, rate in config.topology.link_overrides.items()
            if rate == 0.0
        }
        for event in config.faults.events:
            if event.action in ("link_down", "link_degrade", "flap"):
                assert (event.leaf, event.spine) not in cut, (
                    f"schedule targets statically cut link in {config}"
                )


def test_shrinking_drops_fault_schedule_first():
    from repro.validate.fuzz import _reductions

    from itertools import takewhile

    config = chaos_config(3, with_faults=True)  # t=0 blackhole + a window
    first, *singles = takewhile(
        lambda c: c.faults != config.faults, _reductions(config)
    )
    assert first.faults is None
    # ... then single events; dropping the degrade alone would leave its
    # restore without an apply, so that candidate is skipped.
    blackhole, degrade, restore = config.faults.events
    assert [c.faults.events for c in singles] == [
        (degrade, restore), (blackhole, degrade)
    ]
