"""Tests for repro.net.spec — declarative topology specifications.

Edge cases of the spec layer: a single-leaf fabric
(everything intra-rack, no spine traffic at all), asymmetric uplink
capacities, and the three-tier Clos shape that only the spec layer can
describe.  The Clos smoke test builds a fabric with *no* load-balancing
scheme installed and asserts raw reachability: hand-injected packets
arrive at intra-rack, intra-pod and inter-pod destinations.
"""

import dataclasses

import pytest

from repro.api import (
    ClosSpec,
    ExperimentConfig,
    LeafSpineSpec,
    TopologyConfig,
    TopologySpec,
    as_topology_spec,
    asymmetric_overrides,
    bench_topology,
    run_experiment,
    spec_from_dict,
)
from repro.net.fabric import Fabric
from repro.net.packet import PacketKind
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


class TestSingleLeaf:
    """One leaf, no inter-rack traffic: the degenerate fabric must still
    run (every flow is host→leaf→host)."""

    def _config(self):
        return ExperimentConfig(
            topology=TopologyConfig(n_leaves=1, n_spines=1, hosts_per_leaf=4),
            lb="ecmp",
            load=0.5,
            n_flows=20,
            seed=2,
            size_scale=0.05,
            time_scale=0.05,
        )

    def test_experiment_completes(self):
        result = run_experiment(self._config())
        assert len(result.stats.records) == 20
        assert all(r.fct_ns is not None for r in result.stats.records)
        # one leaf ⇒ every pair is intra-rack
        spec = as_topology_spec(self._config().topology)
        assert all(spec.leaf_of(r.src) == 0 and spec.leaf_of(r.dst) == 0
                   for r in result.stats.records)


class TestAsymmetricUplinks:
    """Uplink capacities that differ per (leaf, spine) pair — the §5.3.2
    asymmetry setup — flow through the spec layer unchanged."""

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

    def test_overrides_survive_spec_round_trip(self):
        topology = dataclasses.replace(
            bench_topology(), link_overrides={(0, 1): 2.0, (1, 0): 2.0}
        )
        spec = as_topology_spec(topology)
        restored = spec_from_dict(spec.to_dict())
        assert restored == spec
        assert restored.config.link_overrides == {(0, 1): 2.0, (1, 0): 2.0}


def _delivery_sink(hits):
    class _Sink:
        def on_data(self, packet):
            hits.append((packet.flow_id, packet.src, packet.dst))

    return _Sink()


class TestClosSmoke:
    """Three-tier Clos: build with no scheme, verify structure and raw
    reachability for every distance class."""

    def _spec(self):
        return ClosSpec(pods=2, leaves_per_pod=2, aggs_per_pod=2,
                        n_cores=2, hosts_per_leaf=4)

    def _fabric(self, spec):
        return Fabric(Simulator(), spec, RngStreams(1))

    def test_dimensions(self):
        spec = self._spec()
        assert spec.n_leaves == 4
        assert spec.n_hosts == 16
        assert spec.leaf_of(0) == 0 and spec.leaf_of(15) == 3
        assert spec.pod_of_leaf(0) == 0 and spec.pod_of_leaf(3) == 1

    def test_path_counts_per_distance_class(self):
        spec = self._spec()
        topo = self._fabric(spec).topology
        assert topo.paths(0, 0) == (-1,)                    # same leaf
        assert len(topo.paths(0, 1)) == spec.aggs_per_pod   # intra-pod
        assert len(topo.paths(0, 2)) == spec.aggs_per_pod * spec.n_cores

    def test_routes_are_well_formed(self):
        """Every route starts at the source host's NIC and ends at the
        destination's leaf downlink, for every advertised path id."""
        spec = self._spec()
        topo = self._fabric(spec).topology
        pairs = [(0, 1), (0, 4), (0, 12)]  # intra-rack, intra-pod, inter-pod
        for src, dst in pairs:
            for path_id in topo.paths(topo.leaf_of(src), topo.leaf_of(dst)):
                route = topo.route(src, dst, path_id)
                assert route[0] is topo.host_up[src]
                assert route[-1] is topo.leaf_down[dst]

    def test_hosts_reachable_without_a_scheme(self):
        """Hand-injected packets reach intra-rack, intra-pod and
        inter-pod destinations over every path id — no LB agent, no
        transport, just ports and routing."""
        spec = self._spec()
        fabric = self._fabric(spec)
        topo = fabric.topology
        hits = []
        sent = []
        flow_id = 0
        for src, dst in [(0, 1), (0, 4), (0, 12)]:
            for path_id in topo.paths(topo.leaf_of(src), topo.leaf_of(dst)):
                fabric.flows[flow_id] = _delivery_sink(hits)
                packet = fabric.packet_pool.acquire(
                    flow_id, src, dst, 0, 1500, PacketKind.DATA,
                    path_id=path_id,
                )
                assert fabric.send(packet)
                sent.append((flow_id, src, dst))
                flow_id += 1
        fabric.sim.run(until=10_000_000)
        assert sorted(hits) == sorted(sent)

    def test_uplink_ports_cover_every_agg(self):
        spec = self._spec()
        topo = self._fabric(spec).topology
        for leaf in range(spec.n_leaves):
            uplinks = topo.uplink_ports(leaf)
            assert sorted(a for a, _ in uplinks) == list(
                range(spec.aggs_per_pod)
            )

    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError, match="positive"):
            ClosSpec(pods=0)


class TestSpecSerialization:
    def test_leaf_spine_round_trip(self):
        spec = LeafSpineSpec(bench_topology())
        restored = spec_from_dict(spec.to_dict())
        assert isinstance(restored, LeafSpineSpec)
        assert restored == spec

    def test_clos_round_trip(self):
        spec = ClosSpec(pods=3, leaves_per_pod=2, aggs_per_pod=4,
                        n_cores=2, hosts_per_leaf=8, prop_delay_ns=500)
        restored = spec_from_dict(spec.to_dict())
        assert isinstance(restored, ClosSpec)
        assert restored == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown topology spec kind"):
            spec_from_dict({"kind": "torus"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown topology spec kind"):
            spec_from_dict({})


class TestCoercion:
    def test_config_wraps_into_leaf_spine_spec(self):
        config = bench_topology()
        spec = as_topology_spec(config)
        assert isinstance(spec, LeafSpineSpec)
        assert spec.config is config
        assert spec.n_hosts == config.n_hosts

    def test_spec_passes_through_unchanged(self):
        spec = ClosSpec()
        assert as_topology_spec(spec) is spec

    def test_other_types_rejected(self):
        with pytest.raises(TypeError, match="TopologySpec or TopologyConfig"):
            as_topology_spec({"n_leaves": 2})

    def test_base_class_is_abstract_surface(self):
        spec = TopologySpec()
        with pytest.raises(NotImplementedError):
            spec.to_dict()
