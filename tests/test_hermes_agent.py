"""Behavioural tests for the Hermes agent (end to end)."""

import random

import pytest

from repro.core.parameters import HermesParams
from repro.core.sensing import PATH_FAILED
from repro.lb.factory import install_lb
from repro.net.failures import BlackholeFailure, RandomDropFailure
from repro.telemetry.audit import DecisionAudit
from repro.transport.dctcp import DctcpFlow
from repro.transport.tcp import MSS
from tests.conftest import make_fabric


def hermes_fabric(seed=1, params=None, **overrides):
    fabric = make_fabric(seed=seed, **overrides)
    shared = install_lb(
        fabric, "hermes", **({"params": params} if params else {})
    )
    return fabric, shared


def run_flow(fabric, src=0, dst=2, size=50 * MSS, until_ms=5_000):
    flow = DctcpFlow(fabric, src, dst, size)
    fabric.register_flow(flow)
    flow.start()
    fabric.sim.run(until=fabric.sim.now + until_ms * 1_000_000)
    return flow


class TestBasicOperation:
    def test_clean_flow_completes_without_reroutes(self):
        fabric, _ = hermes_fabric()
        flow = run_flow(fabric)
        assert flow.finished
        assert fabric.hosts[0].lb.reroutes == 0

    def test_new_flows_spread_by_rp(self):
        """Concurrent flows from one rack take different spines."""
        fabric, _ = hermes_fabric()
        a = DctcpFlow(fabric, 0, 2, 500 * MSS)
        b = DctcpFlow(fabric, 1, 3, 500 * MSS)
        for flow in (a, b):
            fabric.register_flow(flow)
            flow.start()
        fabric.sim.run(until=200_000)
        assert a.current_path != b.current_path

    def test_sent_accounting_feeds_rp(self):
        fabric, shared = hermes_fabric()
        run_flow(fabric, size=20 * MSS)
        state = shared.leaf_states[0]
        # Some path accumulated send-rate state.
        total = sum(
            ps._rp_value for ps in state._table.values()
        )
        assert total > 0


class TestBlackholeDetection:
    def _blackholed_fabric(self):
        fabric, shared = hermes_fabric()
        failure = BlackholeFailure([(0, 2)])
        failure.install(fabric.topology, 0)
        return fabric, shared, failure

    def test_flow_escapes_blackhole(self):
        fabric, _, _ = self._blackholed_fabric()
        flow = run_flow(fabric, size=20 * MSS, until_ms=2_000)
        assert flow.finished
        # Detection needs at most 3 timeouts (paper §3.1.2).
        assert flow.timeout_count <= 4

    def test_failed_pair_recorded(self):
        fabric, _, _ = self._blackholed_fabric()
        run_flow(fabric, size=20 * MSS, until_ms=2_000)
        agent = fabric.hosts[0].lb
        # Either the pair was blackholed on path 0 and detected, or the
        # flow was initially placed on path 1 and never saw the failure.
        if agent.blackhole_detections:
            assert (2, 0) in agent.failed_pairs

    def test_detection_after_three_timeouts_no_acks(self):
        fabric, shared, _ = self._blackholed_fabric()
        audit = DecisionAudit(fabric.sim)
        fabric.hooks.attach(audit=audit, scheme=shared)
        agent = fabric.hosts[0].lb
        flow = DctcpFlow(fabric, 0, 2, 20 * MSS)
        flow.current_path = 0
        for _ in range(3):
            agent.on_timeout(flow, 0)
        assert (2, 0) in agent.failed_pairs
        assert agent.blackhole_detections == 1
        # The condemnation is on the record: when, and on what evidence.
        (row,) = audit.path_events(dst_leaf=1, path=0)
        assert row.category == "verdict"
        assert row.reason == "up->down (blackhole)"
        assert row.detail == {"detector": "hermes", "note": "dst_host=2"}
        # ... and in the table's one ledger, without a leaf-wide hold.
        table = shared.leaf_states[0]
        assert table.metrics()["detections"] == len(table.detection_times) == 1
        assert not table.is_failed(1, 0)

    def test_acked_path_not_blackholed(self):
        fabric, _ = hermes_fabric()
        agent = fabric.hosts[0].lb
        flow = DctcpFlow(fabric, 0, 2, 20 * MSS)
        flow.current_path = 0
        agent.on_ack(flow, 0, False, 50_000, False)
        for _ in range(5):
            agent.on_timeout(flow, 0)
        assert (2, 0) not in agent.failed_pairs

    def test_record_reset_on_reroute(self):
        fabric, _ = hermes_fabric()
        agent = fabric.hosts[0].lb
        flow = DctcpFlow(fabric, 0, 2, 20 * MSS)
        flow.current_path = 0
        agent.on_timeout(flow, 0)
        agent.on_timeout(flow, 0)
        agent._reset_record(flow)
        agent.on_timeout(flow, 0)
        assert (2, 0) not in agent.failed_pairs

    def test_subsequent_flows_avoid_failed_pair(self):
        fabric, _, _ = self._blackholed_fabric()
        first = run_flow(fabric, size=20 * MSS, until_ms=2_000)
        assert first.finished
        agent = fabric.hosts[0].lb
        if not agent.failed_pairs:
            pytest.skip("first flow never landed on the blackholed path")
        second = run_flow(fabric, size=20 * MSS, until_ms=2_000)
        assert second.finished
        assert second.timeout_count == 0  # placed straight onto a live path


class TestRandomDropDetection:
    def test_lossy_spine_marked_failed(self):
        fabric, shared = hermes_fabric()
        failure = RandomDropFailure(0.1, random.Random(0))
        failure.install(fabric.topology, 0)
        # Several flows generate enough per-path samples for the sweep.
        flows = [
            DctcpFlow(fabric, src, dst, 200 * MSS)
            for src, dst in [(0, 2), (1, 3), (0, 3), (1, 2)]
        ]
        for flow in flows:
            fabric.register_flow(flow)
            flow.start()
        fabric.sim.run(until=100_000_000)
        state = shared.leaf_states[0]
        assert state.failed_detections >= 1


class TestCautiousGates:
    def test_small_flow_not_rerouted(self):
        params = HermesParams(size_threshold_bytes=1_000_000)
        fabric, _ = hermes_fabric(params=params)
        agent = fabric.hosts[0].lb
        flow = DctcpFlow(fabric, 0, 2, 20 * MSS)
        flow.bytes_sent = 10_000  # below S
        assert not agent._gates_allow(flow)

    def test_fast_flow_not_rerouted(self):
        fabric, _ = hermes_fabric()
        agent = fabric.hosts[0].lb
        flow = DctcpFlow(fabric, 0, 2, 2000 * MSS)
        flow.bytes_sent = 10_000_000
        flow._rate_value = 1e9  # force a high instantaneous rate estimate
        flow._rate_last = fabric.sim.now
        assert flow.rate_bps() > 0.3 * 10e9
        assert not agent._gates_allow(flow)

    def test_large_slow_flow_allowed(self):
        fabric, _ = hermes_fabric()
        agent = fabric.hosts[0].lb
        flow = DctcpFlow(fabric, 0, 2, 2000 * MSS)
        flow.bytes_sent = 10_000_000
        assert agent._gates_allow(flow)

    def test_vigorous_mode_ignores_gates(self):
        params = HermesParams(cautious_rerouting=False)
        fabric, _ = hermes_fabric(params=params)
        agent = fabric.hosts[0].lb
        flow = DctcpFlow(fabric, 0, 2, 20 * MSS)
        assert agent._gates_allow(flow)


class TestSelfInflictedRetxGrace:
    def test_retx_right_after_reroute_not_counted(self):
        fabric, shared = hermes_fabric()
        agent = fabric.hosts[0].lb
        flow = DctcpFlow(fabric, 0, 2, 100 * MSS)
        flow.current_path = 0
        agent._reset_record(flow)  # simulates a reroute at t=now
        agent.on_retransmit(flow, 0)
        state = shared.leaf_states[0]
        assert state.state(1, 0).retx_pkts == 0

    def test_retx_after_grace_counted(self):
        fabric, shared = hermes_fabric()
        agent = fabric.hosts[0].lb
        flow = DctcpFlow(fabric, 0, 2, 100 * MSS)
        flow.current_path = 0
        agent._reset_record(flow)
        fabric.sim.run(until=fabric.sim.now + agent.reroute_retx_grace_ns + 1)
        agent.on_retransmit(flow, 0)
        state = shared.leaf_states[0]
        assert state.state(1, 0).retx_pkts == 1


class TestTimeoutTrigger:
    def test_timeout_flag_forces_placement(self):
        fabric, shared = hermes_fabric()
        agent = fabric.hosts[0].lb
        state = shared.leaf_states[0]
        flow = DctcpFlow(fabric, 0, 2, 100 * MSS)
        flow.current_path = 0
        state.mark_failed(1, 1)  # only path 0 is usable
        flow.if_timeout = True
        path = agent.select_path(flow, 1500)
        assert path == 0
        assert flow.if_timeout is False  # consumed

    def test_failed_path_evacuated(self):
        fabric, shared = hermes_fabric()
        agent = fabric.hosts[0].lb
        state = shared.leaf_states[0]
        flow = DctcpFlow(fabric, 0, 2, 100 * MSS)
        flow.current_path = 0
        state.mark_failed(1, 0)
        assert agent.select_path(flow, 1500) == 1
        assert agent.reroutes == 1
