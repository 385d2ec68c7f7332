"""Unit tests for ECMP, Presto*/DRB, LetFlow and the factory."""

import pytest

from repro.lb.ecmp import EcmpLB
from repro.lb.factory import LB_REGISTRY, install_lb
from repro.lb.letflow import LetFlowLB
from repro.lb.presto import DrbLB, PrestoLB
from repro.transport.tcp import MSS, TcpFlow
from tests.conftest import make_fabric


def fresh_flow(fabric, src=0, dst=2, size=100 * MSS, flow_id=None):
    return TcpFlow(fabric, src, dst, size)


class TestFactory:
    def test_unknown_scheme_rejected(self, fabric):
        with pytest.raises(ValueError, match="unknown load balancer"):
            install_lb(fabric, "nope")

    def test_all_registered_schemes_install(self):
        for name in LB_REGISTRY:
            fabric = make_fabric()
            install_lb(fabric, name)
            assert all(h.lb is not None for h in fabric.hosts)
            assert all(h.lb.name == name for h in fabric.hosts)

    def test_conga_shares_leaf_state(self, fabric):
        shared = install_lb(fabric, "conga")
        assert fabric.hosts[0].lb.leaf_state is fabric.hosts[1].lb.leaf_state
        assert fabric.hosts[0].lb.leaf_state is shared.leaf_states[0]
        assert fabric.hosts[2].lb.leaf_state is not fabric.hosts[0].lb.leaf_state

    def test_hermes_install_returns_probers(self, fabric):
        shared = install_lb(fabric, "hermes")
        assert set(shared.probers) == {0, 1}
        assert shared.params.t_rtt_high_ns is not None


class TestEcmp:
    def test_flow_sticks_to_one_path(self, fabric):
        install_lb(fabric, "ecmp")
        agent = fabric.hosts[0].lb
        flow = fresh_flow(fabric)
        first = agent.select_path(flow, 1500)
        flow.current_path = first
        for _ in range(20):
            assert agent.select_path(flow, 1500) == first

    def test_different_flows_spread(self, fabric):
        install_lb(fabric, "ecmp")
        agent = fabric.hosts[0].lb
        paths = {agent.select_path(fresh_flow(fabric), 1500) for _ in range(64)}
        assert paths == {0, 1}

    def test_hash_deterministic(self):
        picks = []
        for _ in range(2):
            fabric = make_fabric(seed=9)
            install_lb(fabric, "ecmp")
            flow = TcpFlow(fabric, 0, 2, MSS)
            picks.append(fabric.hosts[0].lb.select_path(flow, 1500))
        assert picks[0] == picks[1]

    def test_never_reroutes(self, fabric):
        install_lb(fabric, "ecmp")
        agent = fabric.hosts[0].lb
        flow = fresh_flow(fabric)
        flow.current_path = agent.select_path(flow, 1500)
        for _ in range(50):
            agent.select_path(flow, 1500)
        assert agent.reroutes == 0


class TestPresto:
    def test_path_changes_every_flowcell(self, fabric):
        install_lb(fabric, "presto", flowcell_bytes=3_000)
        agent = fabric.hosts[0].lb
        flow = fresh_flow(fabric)
        picks = [agent.select_path(flow, 1500) for _ in range(6)]
        # 3000-byte cells of 1500-byte packets: pairs share a path.
        assert picks[0] == picks[1]
        assert picks[2] == picks[3]
        assert picks[1] != picks[2]

    def test_round_robin_alternates(self, fabric):
        install_lb(fabric, "presto", flowcell_bytes=1)
        agent = fabric.hosts[0].lb
        flow = fresh_flow(fabric)
        picks = [agent.select_path(flow, 1500) for _ in range(4)]
        assert picks[0] != picks[1]
        assert picks[0] == picks[2]

    def test_invalid_flowcell_rejected(self, fabric):
        with pytest.raises(ValueError):
            PrestoLB(fabric.hosts[0], fabric, fabric.rng.get("t"), flowcell_bytes=0)

    def test_capacity_weights(self):
        fabric = make_fabric(link_overrides={(0, 1): 5.0})
        install_lb(fabric, "presto", flowcell_bytes=1, weight_by_capacity=True)
        agent = fabric.hosts[0].lb
        flow = fresh_flow(fabric)
        picks = [agent.select_path(flow, 1500) for _ in range(30)]
        # Path 0 (10G) should carry ~2x the packets of path 1 (5G).
        assert picks.count(0) == 2 * picks.count(1)

    def test_flow_state_cleaned_up(self, fabric):
        install_lb(fabric, "presto")
        agent = fabric.hosts[0].lb
        flow = fresh_flow(fabric)
        agent.select_path(flow, 1500)
        agent.on_flow_done(flow)
        assert flow.flow_id not in agent._cell


class TestDrb:
    def test_drb_sprays_per_packet(self, fabric):
        install_lb(fabric, "drb")
        agent = fabric.hosts[0].lb
        assert isinstance(agent, DrbLB)
        flow = fresh_flow(fabric)
        picks = [agent.select_path(flow, 1500) for _ in range(4)]
        assert picks[0] != picks[1]


class TestLetFlow:
    def test_invalid_timeout_rejected(self, fabric):
        with pytest.raises(ValueError):
            LetFlowLB(fabric.hosts[0], fabric, fabric.rng.get("t"),
                      flowlet_timeout_ns=0)

    def test_path_stable_within_flowlet(self, fabric):
        install_lb(fabric, "letflow", flowlet_timeout_ns=100_000)
        agent = fabric.hosts[0].lb
        flow = fresh_flow(fabric)
        first = agent.select_path(flow, 1500)
        flow.last_tx_time = fabric.sim.now  # packet just went out
        assert agent.select_path(flow, 1500) == first

    def test_gap_creates_new_flowlet(self, fabric):
        install_lb(fabric, "letflow", flowlet_timeout_ns=100_000)
        agent = fabric.hosts[0].lb
        flow = fresh_flow(fabric)
        agent.select_path(flow, 1500)
        flow.last_tx_time = fabric.sim.now
        before = agent.flowlets
        fabric.sim.run(until=fabric.sim.now + 200_000)  # > timeout gap
        agent.select_path(flow, 1500)
        assert agent.flowlets == before + 1

    def test_random_spread_over_flowlets(self, fabric):
        install_lb(fabric, "letflow", flowlet_timeout_ns=10)
        agent = fabric.hosts[0].lb
        flow = fresh_flow(fabric)
        picks = set()
        for _ in range(40):
            picks.add(agent.select_path(flow, 1500))
            flow.last_tx_time = fabric.sim.now
            fabric.sim.run(until=fabric.sim.now + 100)
        assert picks == {0, 1}
