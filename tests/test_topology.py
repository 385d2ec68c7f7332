"""Unit tests for the leaf-spine topology builder."""

import dataclasses

import pytest

from repro.api import (
    ExperimentConfig,
    asymmetric_overrides,
    bench_topology,
    run_experiment,
)
from repro.net.fabric import Fabric
from repro.net.topology import LeafSpineTopology, TopologyConfig
from repro.sim.engine import Simulator
from tests.conftest import make_fabric, small_config


class TestConfigValidation:
    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            TopologyConfig(n_leaves=0)

    def test_rejects_out_of_range_override(self):
        with pytest.raises(ValueError):
            TopologyConfig(n_leaves=2, n_spines=2, link_overrides={(5, 0): 1.0})

    def test_rejects_negative_override_rate(self):
        with pytest.raises(ValueError):
            TopologyConfig(link_overrides={(0, 0): -1.0})

    def test_n_hosts(self):
        assert TopologyConfig(n_leaves=8, hosts_per_leaf=16).n_hosts == 128

    def test_link_rate_with_override(self):
        cfg = TopologyConfig(
            n_leaves=2, n_spines=2, spine_link_gbps=10.0,
            link_overrides={(0, 1): 2.0},
        )
        assert cfg.link_rate_gbps(0, 1) == 2.0
        assert cfg.link_rate_gbps(0, 0) == 10.0

    def test_one_hop_delay_follows_ecn_threshold(self):
        cfg = TopologyConfig(ecn_threshold_bytes=97_500, spine_link_gbps=10.0)
        assert cfg.one_hop_delay_ns() == 78_000  # 97500*8/10G

    def test_base_rtt_larger_for_inter_rack(self):
        cfg = small_config()
        assert cfg.base_rtt_ns() > cfg.base_rtt_ns(intra_rack=True)


class TestAddressing:
    def test_leaf_of(self, fabric):
        topo = fabric.topology
        assert topo.leaf_of(0) == 0
        assert topo.leaf_of(1) == 0
        assert topo.leaf_of(2) == 1

    def test_hosts_of_leaf(self, fabric):
        assert list(fabric.topology.hosts_of_leaf(1)) == [2, 3]


class TestPaths:
    def test_inter_leaf_paths_are_spines(self, fabric):
        assert fabric.topology.paths(0, 1) == (0, 1)

    def test_intra_leaf_single_path(self, fabric):
        assert fabric.topology.paths(0, 0) == (-1,)

    def test_cut_link_removes_path(self):
        fabric = make_fabric(link_overrides={(0, 1): 0.0})
        assert fabric.topology.paths(0, 1) == (0,)
        # Reverse direction through the same cut link is also gone.
        assert fabric.topology.paths(1, 0) == (0,)

    def test_all_paths_cut_raises(self):
        fabric = make_fabric(link_overrides={(0, 0): 0.0, (0, 1): 0.0})
        with pytest.raises(ValueError):
            fabric.topology.paths(0, 1)

    def test_paths_between_hosts(self, fabric):
        assert fabric.topology.paths_between_hosts(0, 2) == (0, 1)
        assert fabric.topology.paths_between_hosts(0, 1) == (-1,)


class TestRoutes:
    def test_inter_rack_route_has_four_hops(self, fabric):
        route = fabric.topology.route(0, 2, 1)
        names = [p.name for p in route]
        assert names == [
            "host0->leaf0",
            "leaf0->spine1",
            "spine1->leaf1",
            "leaf1->host2",
        ]

    def test_intra_rack_route_has_two_hops(self, fabric):
        route = fabric.topology.route(0, 1, -1)
        assert [p.name for p in route] == ["host0->leaf0", "leaf0->host1"]

    def test_route_to_self_rejected(self, fabric):
        with pytest.raises(ValueError):
            fabric.topology.route(0, 0, -1)

    def test_route_over_cut_path_rejected(self):
        fabric = make_fabric(link_overrides={(0, 1): 0.0})
        with pytest.raises(ValueError):
            fabric.topology.route(0, 2, 1)

    def test_route_cached(self, fabric):
        assert fabric.topology.route(0, 2, 0) is fabric.topology.route(0, 2, 0)

    def test_override_sets_port_rate(self):
        fabric = make_fabric(link_overrides={(0, 1): 2.0})
        up = fabric.topology.leaf_up[0][1]
        assert up.rate_bps == 2.0e9

    def test_ecn_threshold_scales_with_rate(self):
        fabric = make_fabric(link_overrides={(0, 1): 2.0})
        fast = fabric.topology.leaf_up[0][0]
        slow = fabric.topology.leaf_up[0][1]
        assert slow.ecn_threshold_bytes < fast.ecn_threshold_bytes


class TestIntrospection:
    def test_uplink_ports_skip_cut_links(self):
        fabric = make_fabric(link_overrides={(0, 1): 0.0})
        uplinks = fabric.topology.uplink_ports(0)
        assert [s for s, _ in uplinks] == [0]

    def test_spine_ports(self, fabric):
        ports = fabric.topology.spine_ports(0)
        assert sorted(p.name for p in ports) == [
            "spine0->leaf0",
            "spine0->leaf1",
        ]

    def test_all_ports_count(self, fabric):
        # 4 host_up + 4 leaf_down + 2x2 leaf_up + 2x2 spine_down
        assert len(fabric.topology.all_ports()) == 16


class TestSingleLeaf:
    """One leaf, no inter-rack traffic: the degenerate fabric must still
    run (every flow is host→leaf→host)."""

    def test_experiment_completes(self):
        result = run_experiment(ExperimentConfig(
            topology=TopologyConfig(n_leaves=1, n_spines=1, hosts_per_leaf=4),
            lb="ecmp", load=0.5, n_flows=20, seed=2,
            size_scale=0.05, time_scale=0.05,
        ))
        assert len(result.stats.records) == 20
        assert all(r.fct_ns is not None for r in result.stats.records)
        # one leaf ⇒ every pair is intra-rack
        leaf_of = result.fabric.topology.leaf_of
        assert all(leaf_of(r.src) == 0 and leaf_of(r.dst) == 0
                   for r in result.stats.records)


class TestAsymmetricUplinks:
    """Uplink capacities that differ per (leaf, spine) pair — the §5.3.2
    asymmetry setup."""

    def test_experiment_with_reduced_links_completes(self):
        overrides = asymmetric_overrides(
            n_leaves=2, n_spines=2, fraction=0.5, reduced_gbps=2.0, seed=9
        )
        assert overrides  # the draw picked at least one link
        topology = dataclasses.replace(
            bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=4),
            link_overrides=overrides,
        )
        config = ExperimentConfig(
            topology=topology, lb="hermes", load=0.5, n_flows=20,
            seed=4, size_scale=0.05, time_scale=0.05,
        )
        result = run_experiment(config)
        assert all(r.fct_ns is not None for r in result.stats.records)
