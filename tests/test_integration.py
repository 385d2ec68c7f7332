"""Cross-module integration tests."""

import pytest

from repro.core.parameters import HermesParams
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import bench_topology, simulation_topology
from repro.lb.factory import install_lb
from repro.net.fabric import Fabric
from repro.net.packet import PacketKind
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.transport.dctcp import DctcpFlow
from repro.transport.tcp import MSS, TcpFlow
from tests.conftest import make_fabric


class TestByteConservation:
    def test_edge_ports_carry_exactly_the_flow_bytes(self, fabric):
        install_lb(fabric, "ecmp")
        flow = DctcpFlow(fabric, 0, 2, 200 * MSS)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=10_000_000_000)
        assert flow.finished
        up = fabric.topology.host_up[0]
        # Data wire bytes: payload + 40B header per packet; no losses, no
        # retransmits on a clean fabric.
        expected_data = flow.size_bytes + 40 * flow.n_pkts
        assert up.bytes_sent == expected_data
        # The receiver's downlink carried the same data.
        down = fabric.topology.leaf_down[2]
        assert down.bytes_sent == expected_data

    def test_ack_bytes_flow_back(self, fabric):
        install_lb(fabric, "ecmp")
        flow = DctcpFlow(fabric, 0, 2, 50 * MSS)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=10_000_000_000)
        # One 64B ACK per data packet on the reverse edge link.
        reverse_up = fabric.topology.host_up[2]
        assert reverse_up.bytes_sent == 64 * flow.n_pkts


class TestEcnPipeline:
    def test_congestion_marks_reach_the_agent(self):
        fabric = make_fabric(hosts_per_leaf=4)
        seen = []

        class SpyHermes:
            reroutes = 0

            def select_path(self, flow, wire):
                return 0

            def on_ack(self, flow, path, ece, rtt, is_retx):
                seen.append((path, ece, rtt))

            def on_path_feedback(self, *a):
                pass

            def on_timeout(self, *a):
                pass

            def on_retransmit(self, *a):
                pass

            def on_flow_done(self, *a):
                pass

        for host in fabric.hosts[:4]:
            host.lb = SpyHermes()
        flows = [DctcpFlow(fabric, src, 4, 400 * MSS) for src in range(4)]
        for flow in flows:
            fabric.register_flow(flow)
            flow.start()
        fabric.sim.run(until=10_000_000_000)
        assert any(ece for _, ece, _ in seen)
        # RTT samples grow under congestion (queueing at spine0->leaf1).
        rtts = [rtt for _, _, rtt in seen]
        assert max(rtts) > 2 * min(rtts)


class TestHermesSharedView:
    def test_rack_mates_share_path_table(self, fabric):
        shared = install_lb(fabric, "hermes")
        a, b = fabric.hosts[0].lb, fabric.hosts[1].lb
        assert a.leaf_state is b.leaf_state
        flow = DctcpFlow(fabric, 0, 2, 10 * MSS)
        a.on_ack(flow, 1, True, 500_000, False)
        # Host b reads the same (dst_leaf=1, path=1) state.
        assert b.leaf_state.state(1, 1).f_ecn > 0

    def test_probes_fill_unvisited_paths(self):
        fabric = make_fabric(n_spines=4)
        shared = install_lb(fabric, "hermes")
        fabric.sim.run(until=10_000_000)
        state = shared.leaf_states[0]
        probed_paths = {
            path for (dst, path), ps in state._table.items() if ps.last_update
        }
        assert len(probed_paths) >= 3  # po2c + best covers >=3 paths


class TestLargeTopology:
    def test_paper_scale_fabric_builds_and_routes(self):
        config = simulation_topology()
        fabric = Fabric(Simulator(), config, RngStreams(0))
        assert len(fabric.hosts) == 128
        route = fabric.topology.route(0, 127, 5)
        assert len(route) == 4
        assert fabric.topology.paths(0, 7) == tuple(range(8))

    def test_asymmetric_paper_fabric_has_slow_links(self):
        config = simulation_topology(asymmetric=True)
        rates = {
            config.link_rate_gbps(l, s)
            for l in range(8)
            for s in range(8)
        }
        assert rates == {2.0, 10.0}

    def test_flow_crosses_paper_fabric(self):
        config = simulation_topology()
        fabric = Fabric(Simulator(), config, RngStreams(0))
        install_lb(fabric, "hermes")
        flow = DctcpFlow(fabric, 0, 127, 100 * MSS)
        fabric.register_flow(flow)
        # Stop at completion: the Hermes probers never go idle, so
        # running on to ``until`` would simulate 10 s of probing alone.
        fabric.on_flow_done = lambda done: fabric.sim.stop()
        flow.start()
        fabric.sim.run(until=10_000_000_000)
        assert flow.finished


class TestTimeScaling:
    def test_time_scale_reaches_flow_rto(self):
        result = run_experiment(
            ExperimentConfig(
                topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2),
                lb="ecmp",
                workload="web-search",
                load=0.4,
                n_flows=5,
                seed=1,
                size_scale=0.05,
                time_scale=0.1,
            )
        )
        # Indirect but sufficient: the run completed with the scaled floor.
        assert result.stats.unfinished_count == 0

    def test_time_scale_reaches_hermes_params(self):
        result = run_experiment(
            ExperimentConfig(
                topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2),
                lb="hermes",
                workload="web-search",
                load=0.4,
                n_flows=5,
                seed=1,
                size_scale=0.1,
                time_scale=0.1,
            )
        )
        params = result.scheme.params
        assert params.probe_interval_ns == 500_000  # network timescale
        assert params.retx_sweep_interval_ns == 1_000_000
        assert params.size_threshold_bytes == 60_000

    def test_hermes_overrides_reach_params(self):
        result = run_experiment(
            ExperimentConfig(
                topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2),
                lb="hermes",
                workload="web-search",
                load=0.4,
                n_flows=5,
                seed=1,
                size_scale=0.1,
                hermes_overrides={"t_ecn": 0.77},
            )
        )
        assert result.scheme.params.t_ecn == 0.77


class TestScaledBuckets:
    def test_small_large_thresholds_scale_with_sizes(self):
        result = run_experiment(
            ExperimentConfig(
                topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2),
                lb="ecmp",
                workload="web-search",
                load=0.4,
                n_flows=60,
                seed=1,
                size_scale=0.1,
            )
        )
        stats = result.stats
        assert stats.small_bytes == 10_000
        assert stats.large_bytes == 1_000_000
        # Web-search has both classes; scaled buckets must see them.
        assert stats.small.count > 0
        assert stats.large.count > 0


class TestAsymmetricCompletion:
    @pytest.mark.parametrize("lb", ["letflow", "conga", "clove-ecn", "hermes"])
    def test_schemes_complete_on_degraded_fabric(self, lb):
        result = run_experiment(
            ExperimentConfig(
                topology=bench_topology(asymmetric=True),
                lb=lb,
                workload="data-mining",
                load=0.5,
                n_flows=40,
                seed=4,
                size_scale=0.1,
                time_scale=0.1,
            )
        )
        assert result.stats.unfinished_count == 0


class TestProbeTrafficIsReal:
    def test_probe_packets_consume_bandwidth(self, fabric):
        install_lb(fabric, "hermes")
        fabric.sim.run(until=5_000_000)
        # Probe agents are host 0 (leaf 0) and host 2 (leaf 1).
        probe_bytes = fabric.topology.host_up[0].bytes_sent
        assert probe_bytes > 0
        # Non-agent hosts sent nothing.
        assert fabric.topology.host_up[1].bytes_sent == 0
