"""Failure-injection edge cases, run under the invariant checker.

The basic failure tests (``tests/test_failures.py``) install a
malfunction before any traffic exists.  Real switches do not wait for
quiet periods: these tests cover the racy timelines — a failure landing
mid-flow, a failure catching an active probe in flight, and a
malfunction that recovers before Hermes' τ-sweep ever gets to observe
it — and assert both the behavioural outcome and that every
:mod:`repro.validate` invariant (conservation, FIFO, capacity, clock)
holds throughout.
"""

import random

from repro.hooks import attach
from repro.lb.factory import install_lb
from repro.net.failures import BlackholeFailure, RandomDropFailure
from repro.transport.dctcp import DctcpFlow
from repro.transport.tcp import MSS
from repro.validate import install_checker
from tests.conftest import make_fabric

MS = 1_000_000


def _install_on_all_spines(fabric, failure):
    for spine in range(fabric.config.n_spines):
        failure.install(fabric.topology, spine)


def _remove_from_all_spines(fabric, failure):
    for spine in range(fabric.config.n_spines):
        for port in fabric.topology.spine_ports(spine):
            port.remove_drop_predicate(failure)


class TestFailureMidFlow:
    def test_failure_landing_mid_flow_keeps_ledger_balanced(self):
        """A 100% drop failure installed while a transfer is in full
        swing: the flow stalls, every lost byte shows up in the drop
        ledger, and conservation still balances at the horizon."""
        fabric = make_fabric()
        install_lb(fabric, "ecmp")
        checker = install_checker(fabric)
        attach(fabric, checker=checker)
        flow = DctcpFlow(fabric, 0, 2, 500 * MSS)
        fabric.register_flow(flow)
        flow.start()

        failure = RandomDropFailure(1.0, random.Random(0))
        fabric.sim.schedule(
            50_000, _install_on_all_spines, fabric, failure
        )
        fabric.sim.run(until=20 * MS)

        assert not flow.finished, "total blackout must stall the flow"
        assert failure.dropped > 0, "failure must have caught live packets"
        report = checker.finalize()  # raises on any invariant breach
        assert report["violations"] == 0
        assert report["packets_dropped"] >= failure.dropped
        assert report["dropped_bytes"] > 0

    def test_failure_mid_flow_then_recovery_lets_flow_finish(self):
        """Install at 50 µs, recover at 2 ms: the transfer must ride out
        the outage through RTO recovery and still complete."""
        fabric = make_fabric()
        install_lb(fabric, "ecmp")
        checker = install_checker(fabric)
        attach(fabric, checker=checker)
        flow = DctcpFlow(fabric, 0, 2, 50 * MSS, min_rto_ns=1 * MS)
        fabric.register_flow(flow)
        flow.start()

        failure = RandomDropFailure(1.0, random.Random(0))
        fabric.sim.schedule(50_000, _install_on_all_spines, fabric, failure)
        fabric.sim.schedule(2 * MS, _remove_from_all_spines, fabric, failure)
        fabric.sim.run(until=200 * MS)

        assert failure.dropped > 0
        assert flow.finished, "flow must recover once the failure clears"
        assert checker.finalize()["violations"] == 0


class TestFailureDuringProbe:
    def test_failure_catches_probe_in_flight(self):
        """Probes launch at t=0; the spine dies while they are still
        propagating.  Every probe is swallowed, no reply ever returns,
        and the probe bytes are properly accounted as drops."""
        fabric = make_fabric()
        shared = install_lb(fabric, "hermes")
        checker = install_checker(fabric)
        attach(fabric, checker=checker, scheme=shared)
        probers = shared.probers

        failure = RandomDropFailure(1.0, random.Random(0))
        # t=1 µs: after the first probe round left the hosts (t=0 for
        # leaf 0) but before any probe reached a spine downlink.
        fabric.sim.schedule(1_000, _install_on_all_spines, fabric, failure)
        fabric.sim.run(until=3 * MS)

        sent = sum(prober.probes_sent for prober in probers.values())
        replies = sum(prober.replies_received for prober in probers.values())
        assert sent > 0, "probing must have started before the failure"
        assert replies == 0, "a total blackout must eat every probe"
        assert failure.dropped > 0
        assert checker.finalize()["violations"] == 0

    def test_probe_caught_mid_flight_does_not_corrupt_path_table(self):
        """The swallowed probes must leave the Algorithm 1 table in a
        legal state: classify() still returns a valid class for every
        path (validated by the checker's path-state hook)."""
        fabric = make_fabric()
        shared = install_lb(fabric, "hermes")
        checker = install_checker(fabric)
        attach(fabric, checker=checker, scheme=shared)

        failure = RandomDropFailure(1.0, random.Random(0))
        fabric.sim.schedule(1_000, _install_on_all_spines, fabric, failure)
        fabric.sim.run(until=3 * MS)

        leaf_state = shared.leaf_states[0]
        for path in fabric.topology.paths(0, 1):
            assert leaf_state.classify(1, path) in (0, 1, 2, 3)
        assert checker.report()["path_classes_checked"] > 0


class TestRecoveryBeforeSweep:
    def test_recovery_before_sweep_causes_no_false_detection(self):
        """A malfunction that appears mid-flow and recovers before the
        first τ-sweep (10 ms) fires — and that never actually dropped a
        matching packet — must not be flagged: the sweep sees healthy
        counters and ``failed_detections`` stays zero."""
        fabric = make_fabric()
        shared = install_lb(fabric, "hermes")
        checker = install_checker(fabric)
        attach(fabric, checker=checker, scheme=shared)
        leaf_states = shared.leaf_states

        flow = DctcpFlow(fabric, 0, 2, 200 * MSS)
        fabric.register_flow(flow)
        flow.start()

        # Blackhole an (src, dst) pair that carries no traffic: the
        # malfunction is real (predicate installed) but this workload
        # never matches it.
        failure = BlackholeFailure({(1, 3)})
        fabric.sim.schedule(100_000, _install_on_all_spines, fabric, failure)
        fabric.sim.schedule(
            2 * MS, _remove_from_all_spines, fabric, failure
        )
        fabric.sim.run(until=25 * MS)  # past at least one 10 ms sweep

        assert failure.dropped == 0
        assert flow.finished
        assert all(
            state.failed_detections == 0 for state in leaf_states.values()
        ), "clean counters at sweep time must not produce detections"
        assert checker.finalize()["violations"] == 0

    def test_sweep_window_counters_reset_after_recovery(self):
        """Counters accumulated while the failure was live are consumed
        by the next sweep; the window after recovery starts clean."""
        fabric = make_fabric()
        shared = install_lb(fabric, "hermes")
        leaf_state = shared.leaf_states[0]

        flow = DctcpFlow(fabric, 0, 2, 300 * MSS)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=25 * MS)  # at least one sweep has fired

        assert flow.finished
        for state in leaf_state._table.values():
            # Post-sweep windows on a healthy fabric stay near-empty.
            assert state.retx_pkts == 0
