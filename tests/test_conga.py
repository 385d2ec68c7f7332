"""Unit tests for CONGA (DRE tables, aging, flowlet rerouting)."""

from repro.api import ExperimentConfig, bench_topology, run_experiment
from repro.lb.conga import CongaLeafState
from repro.lb.factory import install_lb
from repro.transport.tcp import MSS, TcpFlow
from tests.conftest import make_fabric


class TestCongaLeafState:
    def test_update_and_read(self):
        state = CongaLeafState()
        state.update(1, 0, 5, now=1000)
        assert state.metric(1, 0, now=2000) == 5

    def test_unknown_entry_reads_zero(self):
        assert CongaLeafState().metric(1, 0, now=0) == 0

    def test_aging_resets_to_zero(self):
        state = CongaLeafState(aging_ns=10_000_000)
        state.update(1, 0, 7, now=0)
        assert state.metric(1, 0, now=5_000_000) == 7
        assert state.metric(1, 0, now=20_000_000) == 0  # aged: assumed idle

    def test_update_refreshes_age(self):
        state = CongaLeafState(aging_ns=10_000_000)
        state.update(1, 0, 7, now=0)
        state.update(1, 0, 6, now=9_000_000)
        assert state.metric(1, 0, now=15_000_000) == 6


class TestDreOwnership:
    """The DRE runs for its one consumer: CONGA's installer enables it on
    every port, no other scheme pays for it."""

    def test_conga_enables_every_port(self, fabric):
        ports = fabric.topology.all_ports()
        assert ports and not any(port._dre_on for port in ports)
        install_lb(fabric, "conga")
        assert all(port._dre_on for port in ports)
        assert all(port.dre_quantized() == 0 for port in ports)

    def test_ecmp_run_never_touches_the_estimator(self):
        result = run_experiment(ExperimentConfig(
            topology=bench_topology(), lb="ecmp", workload="web-search",
            load=0.5, n_flows=20, seed=3, size_scale=0.05, time_scale=0.05,
        ))
        ports = result.fabric.topology.all_ports()
        assert sum(port.pkts_sent for port in ports) > 0
        assert all(port._dre_value == 0.0 for port in ports)


class TestCongaAgent:
    def test_feedback_updates_leaf_table(self, fabric):
        install_lb(fabric, "conga")
        agent = fabric.hosts[0].lb
        flow = TcpFlow(fabric, 0, 2, 10 * MSS)
        agent.on_path_feedback(flow, 1, 6)
        assert agent.leaf_state.metric(1, 1, fabric.sim.now) == 6

    def test_intra_rack_feedback_ignored(self, fabric):
        install_lb(fabric, "conga")
        agent = fabric.hosts[0].lb
        flow = TcpFlow(fabric, 0, 1, 10 * MSS)
        agent.on_path_feedback(flow, -1, 6)
        assert not agent.leaf_state.table

    def test_new_flowlet_avoids_congested_path(self, fabric):
        install_lb(fabric, "conga")
        agent = fabric.hosts[0].lb
        flow = TcpFlow(fabric, 0, 2, 10 * MSS)
        agent.on_path_feedback(flow, 0, 7)  # path 0 is hot
        assert agent.select_path(flow, 1500) == 1

    def test_local_dre_considered(self, fabric):
        install_lb(fabric, "conga")
        agent = fabric.hosts[0].lb
        # Saturate the local uplink of path 1 without any remote feedback.
        up = fabric.topology.leaf_up[0][1]
        from repro.net.packet import Packet, PacketKind

        for i in range(400):
            up.enqueue(Packet(9, 0, 2, i, 1500, PacketKind.DATA, path_id=1))
        fabric.sim.run()
        flow = TcpFlow(fabric, 0, 2, 10 * MSS)
        assert agent.select_path(flow, 1500) == 0

    def test_stale_feedback_forgotten(self, fabric):
        """The Fig. 4 mechanism: after the aging period CONGA assumes an
        unheard-from path is idle and is willing to flip back to it."""
        install_lb(fabric, "conga", aging_ns=1_000_000)
        agent = fabric.hosts[0].lb
        flow = TcpFlow(fabric, 0, 2, 10 * MSS)
        agent.on_path_feedback(flow, 0, 7)
        assert agent.select_path(flow, 1500) == 1
        fabric.sim.run(until=fabric.sim.now + 2_000_000)  # let the entry age
        flow2 = TcpFlow(fabric, 0, 2, 10 * MSS)
        picks = {agent.select_path(flow2, 1500) for _ in range(20)}
        assert 0 in picks  # the hot path looks idle again

    def test_within_flowlet_no_move(self, fabric):
        install_lb(fabric, "conga", flowlet_timeout_ns=1_000_000)
        agent = fabric.hosts[0].lb
        flow = TcpFlow(fabric, 0, 2, 10 * MSS)
        first = agent.select_path(flow, 1500)
        flow.last_tx_time = fabric.sim.now
        agent.on_path_feedback(flow, first, 7)  # current path turns hot
        # Still inside the flowlet: no rerouting despite congestion.
        assert agent.select_path(flow, 1500) == first

    def test_flow_state_cleanup(self, fabric):
        install_lb(fabric, "conga")
        agent = fabric.hosts[0].lb
        flow = TcpFlow(fabric, 0, 2, 10 * MSS)
        agent.select_path(flow, 1500)
        agent.on_flow_done(flow)
        assert flow.flow_id not in agent._paths


class TestCongaEndToEnd:
    def test_two_elephants_take_disjoint_paths(self):
        """CONGA's core promise: concurrent large flows between the same
        leaves spread across spines instead of colliding."""
        fabric = make_fabric()
        install_lb(fabric, "conga")
        a = TcpFlow(fabric, 0, 2, 2000 * MSS)
        b = TcpFlow(fabric, 1, 3, 2000 * MSS)
        for flow in (a, b):
            fabric.register_flow(flow)
            flow.start()
        fabric.sim.run(until=fabric.sim.now + 500_000)
        assert a.current_path != b.current_path
