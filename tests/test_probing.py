"""Unit tests for active probing and the Table 6 overhead model."""

import pytest

from repro.core.parameters import HermesParams
from repro.core.probing import HermesProber, probe_overhead_model
from repro.core.sensing import HermesLeafState
from repro.lb.factory import install_lb
from tests.conftest import make_fabric


def make_prober(fabric, leaf=0, **param_overrides):
    params = HermesParams(**param_overrides).resolve(fabric.config)
    state = HermesLeafState(fabric, leaf, params)
    prober = HermesProber(
        fabric, leaf, state, params, fabric.rng.get("probe-test")
    )
    return prober, state


class TestProber:
    def test_round_sends_probes_to_remote_leaves(self, fabric):
        prober, _ = make_prober(fabric)
        prober.start()
        fabric.sim.run(until=600_000)
        assert prober.probes_sent >= 2  # 2 spines = 2 candidate paths

    def test_replies_update_shared_state(self, fabric):
        prober, state = make_prober(fabric)
        prober.start()
        fabric.sim.run(until=2_000_000)
        assert prober.replies_received > 0
        # RTT estimates moved off the initial value for probed paths.
        probed = [
            ps for ps in state._table.values() if ps.last_update > 0
        ]
        assert probed

    def test_prev_best_tracked(self, fabric):
        prober, _ = make_prober(fabric)
        prober.start()
        fabric.sim.run(until=2_000_000)
        assert 1 in prober._prev_best  # dst leaf 1
        assert prober._prev_best[1] in (0, 1)

    def test_candidates_include_prev_best(self, fabric):
        prober, _ = make_prober(fabric)
        prober._prev_best[1] = 0
        candidates = prober._candidates(1, (0, 1))
        assert 0 in candidates
        assert len(candidates) <= 3

    def test_probing_disabled_sends_nothing(self, fabric):
        prober, _ = make_prober(fabric, probing_enabled=False)
        prober.start()
        fabric.sim.run(until=2_000_000)
        assert prober.probes_sent == 0

    def test_rounds_continue_periodically(self, fabric):
        prober, _ = make_prober(fabric)
        prober.start()
        fabric.sim.run(until=500_000)
        first_round = prober.probes_sent
        fabric.sim.run(until=5_000_000)
        assert prober.probes_sent > first_round

    def test_probes_share_rack_state_with_agents(self):
        fabric = make_fabric()
        shared = install_lb(fabric, "hermes")
        fabric.sim.run(until=5_000_000)
        state = shared.leaf_states[0]
        agent = fabric.hosts[1].lb  # NOT the probe agent host
        assert agent.leaf_state is state
        assert any(ps.last_update > 0 for ps in state._table.values())


class TestOverheadModel:
    """Reproduces the Table 6 rows (see EXPERIMENTS.md for conventions)."""

    def test_brute_force_is_about_100x(self):
        model = probe_overhead_model()
        assert model["brute-force"]["overhead"] == pytest.approx(101.4, rel=0.02)
        assert model["brute-force"]["visibility"] == 100

    def test_po2c_is_about_3x(self):
        model = probe_overhead_model()
        assert model["power-of-two-choices"]["overhead"] == pytest.approx(
            3.04, rel=0.02
        )
        assert model["power-of-two-choices"]["visibility"] >= 3

    def test_hermes_is_about_3_percent(self):
        model = probe_overhead_model()
        assert model["hermes"]["overhead"] == pytest.approx(0.0304, rel=0.02)
        assert model["hermes"]["visibility"] >= 3

    def test_piggyback_has_no_overhead(self):
        model = probe_overhead_model(piggyback_visibility=0.009)
        assert model["piggyback"]["overhead"] == 0.0
        assert model["piggyback"]["visibility"] < 0.01

    def test_ordering_preserved_for_other_sizes(self):
        model = probe_overhead_model(n_leaves=10, n_spines=8, hosts_per_leaf=40)
        assert (
            model["brute-force"]["overhead"]
            > model["power-of-two-choices"]["overhead"]
            > model["hermes"]["overhead"]
            > model["piggyback"]["overhead"]
        )

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            probe_overhead_model(n_leaves=0)
