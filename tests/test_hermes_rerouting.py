"""Unit tests for the Algorithm 2 path-selection policy."""

import random

import pytest

from repro.core.parameters import HermesParams
from repro.core.rerouting import ReroutingPolicy
from repro.core.sensing import HermesLeafState


@pytest.fixture
def setup(fabric):
    params = HermesParams().resolve(fabric.config)
    state = HermesLeafState(fabric, 0, params)
    policy = ReroutingPolicy(state, params, random.Random(0))
    return fabric, params, state, policy


def converge(state, dst_leaf, path, ece, rtt_ns, n=60):
    for _ in range(n):
        state.record_signal(dst_leaf, path, ece, rtt_ns)


class TestInitialPlacement:
    def test_prefers_good_over_gray(self, setup):
        fabric, params, state, policy = setup
        converge(state, 1, 0, False, params.t_rtt_low_ns - 5_000)   # good
        converge(state, 1, 1, False, params.t_rtt_high_ns + 5_000)  # gray
        assert policy.initial_path(1, (0, 1), set()) == 0

    def test_good_ties_broken_by_least_rp(self, setup):
        fabric, params, state, policy = setup
        state.state(1, 0).rp_add(1_000_000, fabric.sim.now)
        assert policy.initial_path(1, (0, 1), set()) == 1

    def test_gray_used_when_no_good(self, setup):
        fabric, params, state, policy = setup
        mid = (params.t_rtt_low_ns + params.t_rtt_high_ns) // 2
        converge(state, 1, 0, False, mid)                            # gray
        converge(state, 1, 1, True, params.t_rtt_high_ns + 50_000)   # congested
        assert policy.initial_path(1, (0, 1), set()) == 0

    def test_random_non_failed_as_last_resort(self, setup):
        fabric, params, state, policy = setup
        converge(state, 1, 0, True, params.t_rtt_high_ns + 50_000)
        converge(state, 1, 1, True, params.t_rtt_high_ns + 50_000)
        state.mark_failed(1, 1)
        assert policy.initial_path(1, (0, 1), set()) == 0

    def test_excluded_paths_avoided(self, setup):
        fabric, params, state, policy = setup
        assert policy.initial_path(1, (0, 1), excluded={0}) == 1

    def test_everything_failed_still_returns_a_path(self, setup):
        fabric, params, state, policy = setup
        state.mark_failed(1, 0)
        state.mark_failed(1, 1)
        assert policy.initial_path(1, (0, 1), set()) in (0, 1)

    def test_all_excluded_still_returns_a_path(self, setup):
        fabric, params, state, policy = setup
        assert policy.initial_path(1, (0, 1), excluded={0, 1}) in (0, 1)


class TestCongestedReroute:
    def _make_congested(self, state, params, path=0):
        converge(state, 1, path, True, params.t_rtt_high_ns + 200_000)

    def test_moves_to_notably_better_good(self, setup):
        fabric, params, state, policy = setup
        self._make_congested(state, params, 0)
        converge(state, 1, 1, False, fabric.config.base_rtt_ns())
        assert policy.reroute_from_congested(1, (0, 1), 0, set()) == 1

    def test_stays_when_alternative_not_notably_better(self, setup):
        fabric, params, state, policy = setup
        self._make_congested(state, params, 0)
        converge(state, 1, 1, True, params.t_rtt_high_ns + 195_000)
        assert policy.reroute_from_congested(1, (0, 1), 0, set()) is None

    def test_vigorous_mode_skips_margins(self, setup):
        fabric, params, state, policy = setup
        self._make_congested(state, params, 0)
        mid = (params.t_rtt_low_ns + params.t_rtt_high_ns) // 2
        converge(state, 1, 1, False, mid)  # gray, not notably better
        assert (
            policy.reroute_from_congested(1, (0, 1), 0, set(), require_notably=False)
            == 1
        )

    def test_failed_candidate_ignored(self, setup):
        fabric, params, state, policy = setup
        self._make_congested(state, params, 0)
        converge(state, 1, 1, False, fabric.config.base_rtt_ns())
        state.mark_failed(1, 1)
        assert policy.reroute_from_congested(1, (0, 1), 0, set()) is None

    def test_excluded_candidate_ignored(self, setup):
        fabric, params, state, policy = setup
        self._make_congested(state, params, 0)
        converge(state, 1, 1, False, fabric.config.base_rtt_ns())
        assert (
            policy.reroute_from_congested(1, (0, 1), 0, excluded={1}) is None
        )

    def test_good_preferred_over_gray_candidate(self, setup):
        fabric = setup[0]
        params, state, policy = setup[1], setup[2], setup[3]
        # Three-path fabric for this case.
        from tests.conftest import make_fabric

        fabric3 = make_fabric(n_spines=3)
        params3 = HermesParams().resolve(fabric3.config)
        state3 = HermesLeafState(fabric3, 0, params3)
        policy3 = ReroutingPolicy(state3, params3, random.Random(0))
        converge(state3, 1, 0, True, params3.t_rtt_high_ns + 300_000)
        mid = (params3.t_rtt_low_ns + params3.t_rtt_high_ns) // 2
        converge(state3, 1, 1, False, mid)  # gray, notably better
        converge(state3, 1, 2, False, fabric3.config.base_rtt_ns())  # good
        assert policy3.reroute_from_congested(1, (0, 1, 2), 0, set()) == 2
