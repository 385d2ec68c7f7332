"""Integration tests for the experiment harness."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.report import format_table, gbps
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    asymmetric_overrides,
    bench_topology,
    failure_bench_topology,
    simulation_topology,
    testbed_topology as make_testbed_topology,
)
from repro.faults.spec import blackhole_on, random_drop_start, schedule


def tiny_config(**overrides):
    defaults = dict(
        topology=bench_topology(n_leaves=2, n_spines=2, hosts_per_leaf=2),
        lb="ecmp",
        workload="web-search",
        load=0.4,
        n_flows=30,
        seed=1,
        size_scale=0.05,
        extra_drain_ns=2_000_000_000,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_transport_checked(self):
        with pytest.raises(ValueError):
            tiny_config(transport="quic")

    def test_load_checked(self):
        with pytest.raises(ValueError):
            tiny_config(load=0.0)

    def test_time_scale_checked(self):
        with pytest.raises(ValueError):
            tiny_config(time_scale=0)

    @pytest.mark.parametrize("overrides, message", [
        (dict(extra_drain_ns=-10**9), "extra_drain_ns"),
        (dict(max_cwnd=0.0), "max_cwnd"),
        (dict(max_cwnd=-3.0), "max_cwnd"),
        (dict(reorder_mask_us=-1.0), "reorder_mask_us"),
        (dict(lb="no-such-scheme"), "unknown load balancer 'no-such-scheme'"),
        (dict(workload="cache-follower"), "unknown workload 'cache-follower'"),
        (dict(n_flows=2.5), "n_flows must be an integer"),
        (dict(n_flows=True), "n_flows must be an integer"),
        (dict(seed=1.5), "seed must be an integer"),
        (dict(seed="1"), "seed must be an integer"),
        (dict(extra_drain_ns=1.5), "extra_drain_ns must be an integer"),
        (dict(load="0.5"), "load must be a number"),
        (dict(load=True), "load must be a number"),
        (dict(size_scale="1"), "size_scale must be a number"),
        (dict(time_scale=None), "time_scale must be a number"),
        (dict(max_cwnd="big"), "max_cwnd must be a number"),
        (dict(reorder_mask_us="5"), "reorder_mask_us must be a number"),
    ])
    def test_bad_input_rejected_when_built(self, overrides, message):
        """Each of these used to crash mid-run, or to return an empty
        run, or to raise a bare ``TypeError``, instead of failing here;
        ``from_dict`` (the service's way in) refuses them alike."""
        with pytest.raises(ValueError, match=message):
            tiny_config(**overrides)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict({**tiny_config().to_dict(), **overrides})

    @pytest.mark.parametrize("field, bad, message", [
        ("n_leaves", 2.5, "n_leaves must be an integer"),
        ("n_spines", "2", "n_spines must be an integer"),
        ("hosts_per_leaf", "4", "hosts_per_leaf must be an integer"),
        ("host_link_gbps", "10", "host_link_gbps must be a number"),
        ("spine_link_gbps", True, "spine_link_gbps must be a number"),
        ("link_overrides", "0,1", "link_overrides must map"),
        ("link_overrides", [[0, 1, "slow"]], "override rate must be a number"),
        ("prop_delay_ns", 1000.5, "prop_delay_ns must be an integer"),
        ("buffer_bytes", None, "buffer_bytes must be an integer"),
        ("ecn_threshold_bytes", "97500", "ecn_threshold_bytes must be an integer"),
        ("dre_tau_ns", 1e5, "dre_tau_ns must be an integer"),
    ])
    def test_topology_field_types_rejected(self, field, bad, message):
        """A topology field of the wrong type used to build and die
        mid-run, or raise a bare ``TypeError`` (a 500 from ``POST
        /submit``, where a 400 is due)."""
        data = tiny_config().to_dict()
        data["topology"][field] = bad
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(data)

    def test_scheme_registered_before_build_is_accepted(self, monkeypatch):
        from repro.lb.factory import LB_REGISTRY

        monkeypatch.setitem(LB_REGISTRY, "my-scheme", LB_REGISTRY["ecmp"])
        assert run_experiment(tiny_config(lb="my-scheme", n_flows=5)).events > 0


class TestScenarios:
    def test_testbed_shape(self):
        cfg = make_testbed_topology()
        assert cfg.n_hosts == 12
        assert cfg.host_link_gbps == 1.0

    def test_testbed_asymmetric_cut(self):
        cfg = make_testbed_topology(asymmetric=True)
        assert cfg.link_rate_gbps(0, 3) == 0.0  # one uplink cut
        # Bisection drops to 75% of the symmetric case, as in the paper.
        assert cfg.fabric_capacity_bps() == 0.875 * make_testbed_topology().fabric_capacity_bps()

    def test_simulation_shape(self):
        cfg = simulation_topology()
        assert cfg.n_hosts == 128
        assert cfg.n_leaves == cfg.n_spines == 8

    def test_asymmetric_overrides_fraction(self):
        overrides = asymmetric_overrides(8, 8, 0.20, 2.0, seed=1)
        assert len(overrides) == 13  # round(0.2 * 64)
        assert all(v == 2.0 for v in overrides.values())

    def test_asymmetric_overrides_deterministic(self):
        assert asymmetric_overrides(4, 4, 0.2, 2.0, 5) == asymmetric_overrides(
            4, 4, 0.2, 2.0, 5
        )

    def test_failure_bench_is_1g(self):
        assert failure_bench_topology().host_link_gbps == 1.0


class TestRunner:
    def test_all_flows_finish_on_clean_fabric(self):
        result = run_experiment(tiny_config())
        assert result.stats.unfinished_count == 0
        assert result.stats.finished_count == 30
        assert result.mean_fct_ms > 0

    @pytest.mark.parametrize(
        "lb",
        ["ecmp", "presto", "drb", "letflow", "conga", "clove-ecn",
         "drill", "flowbender", "hermes"],
    )
    def test_every_scheme_completes(self, lb):
        kwargs = {}
        if lb in ("presto", "drb"):
            kwargs["reorder_mask_us"] = 100.0
        result = run_experiment(tiny_config(lb=lb, n_flows=20, **kwargs))
        assert result.stats.unfinished_count == 0

    def test_tcp_transport(self):
        result = run_experiment(tiny_config(transport="tcp", lb="hermes"))
        assert result.stats.unfinished_count == 0

    def test_deterministic_given_seed(self):
        a = run_experiment(tiny_config(seed=9))
        b = run_experiment(tiny_config(seed=9))
        assert a.mean_fct_ms == b.mean_fct_ms
        assert a.events == b.events

    def test_seeds_differ(self):
        a = run_experiment(tiny_config(seed=1))
        b = run_experiment(tiny_config(seed=2))
        assert a.mean_fct_ms != b.mean_fct_ms

    def test_visibility_sampling(self):
        result = run_experiment(tiny_config(visibility_sampling=True))
        assert result.visibility_switch_pair is not None
        assert result.visibility_host_pair is not None
        assert result.visibility_switch_pair >= result.visibility_host_pair

    def test_blackhole_leaves_ecmp_flows_unfinished(self):
        # All pairs leaf0->leaf1 blackholed on spine 0: ECMP flows hashed
        # there can never finish.
        config = tiny_config(
            n_flows=60,
            extra_drain_ns=300_000_000,
            faults=schedule(blackhole_on(
                0, spine=0, src_leaf=0, dst_leaf=1, fraction=1.0,
            )),
        )
        result = run_experiment(config)
        assert result.stats.unfinished_count > 0
        penalized = result.mean_fct_ms_with_penalty()
        assert penalized > result.mean_fct_ms

    def test_hermes_finishes_through_blackhole(self):
        config = tiny_config(
            lb="hermes",
            n_flows=60,
            extra_drain_ns=2_000_000_000,
            faults=schedule(blackhole_on(
                0, spine=0, src_leaf=0, dst_leaf=1, fraction=1.0,
            )),
        )
        result = run_experiment(config)
        assert result.stats.unfinished_count == 0

    def test_random_drop_inflates_fct(self):
        clean = run_experiment(tiny_config(seed=4))
        lossy = run_experiment(
            tiny_config(
                seed=4,
                faults=schedule(random_drop_start(0, spine=0, drop_rate=0.1)),
            )
        )
        assert lossy.mean_fct_ms > clean.mean_fct_ms

    def test_reroute_counter_aggregated(self):
        result = run_experiment(tiny_config(lb="drb", n_flows=10))
        assert result.total_reroutes > 0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bee"], [[1, 2.5], [10, 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_nan_rendered_as_dash(self):
        text = format_table(["x"], [[float("nan")]])
        assert "-" in text.splitlines()[2]

    def test_gbps(self):
        assert gbps(10e9) == 10.0
