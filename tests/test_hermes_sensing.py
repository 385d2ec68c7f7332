"""Unit tests for Hermes sensing (Algorithm 1 and failure detection)."""

import pytest

from repro.core.parameters import HermesParams
from repro.core.sensing import (
    PATH_CONGESTED,
    PATH_FAILED,
    PATH_GOOD,
    PATH_GRAY,
    HermesLeafState,
    PathState,
)
from tests.conftest import make_fabric


def make_state(fabric, **param_overrides):
    params = HermesParams(**param_overrides).resolve(fabric.config)
    return HermesLeafState(fabric, 0, params), params


def feed(state, dst_leaf, path, ece, rtt_ns, n=50):
    """Push enough identical samples to converge the EWMAs."""
    for _ in range(n):
        state.record_signal(dst_leaf, path, ece, rtt_ns)


class TestParams:
    def test_resolve_fills_thresholds(self, fabric):
        params = HermesParams().resolve(fabric.config)
        base = fabric.config.base_rtt_ns()
        hop = fabric.config.one_hop_delay_ns()
        assert params.t_rtt_low_ns == base + 30_000
        assert params.t_rtt_high_ns == base + int(params.t_rtt_high_hops * hop)
        assert params.delta_rtt_ns == hop

    def test_paper_hop_multiplier_selectable(self, fabric):
        params = HermesParams(t_rtt_high_hops=1.5).resolve(fabric.config)
        base = fabric.config.base_rtt_ns()
        hop = fabric.config.one_hop_delay_ns()
        assert params.t_rtt_high_ns == base + int(1.5 * hop)

    def test_explicit_thresholds_kept(self, fabric):
        params = HermesParams(t_rtt_high_ns=123).resolve(fabric.config)
        assert params.t_rtt_high_ns == 123

    def test_validation(self):
        with pytest.raises(ValueError):
            HermesParams(t_ecn=0.0)
        with pytest.raises(ValueError):
            HermesParams(rate_threshold_fraction=2.0)
        with pytest.raises(ValueError):
            HermesParams(probe_interval_ns=0)

    def test_time_scaled(self):
        params = HermesParams().time_scaled(0.1)
        # Probe interval is network-timescale: untouched by time_scale.
        assert params.probe_interval_ns == 500_000
        assert params.retx_sweep_interval_ns == 1_000_000
        assert params.failure_hold_ns == 5_000_000

    def test_time_scaled_validation(self):
        with pytest.raises(ValueError):
            HermesParams().time_scaled(0)

    def test_unresolved_params_rejected_by_leaf_state(self, fabric):
        with pytest.raises(ValueError):
            HermesLeafState(fabric, 0, HermesParams())


class TestAlgorithm1:
    """The ECN x RTT characterization table (paper Table 5)."""

    def test_low_ecn_low_rtt_is_good(self, fabric):
        state, params = make_state(fabric)
        feed(state, 1, 0, ece=False, rtt_ns=params.t_rtt_low_ns - 5_000)
        assert state.classify(1, 0) == PATH_GOOD

    def test_high_ecn_high_rtt_is_congested(self, fabric):
        state, params = make_state(fabric)
        feed(state, 1, 0, ece=True, rtt_ns=params.t_rtt_high_ns + 50_000)
        assert state.classify(1, 0) == PATH_CONGESTED

    def test_high_ecn_low_rtt_is_gray(self, fabric):
        """High marks alone may just be too few samples (paper Table 5)."""
        state, params = make_state(fabric)
        feed(state, 1, 0, ece=True, rtt_ns=params.t_rtt_low_ns - 5_000)
        assert state.classify(1, 0) == PATH_GRAY

    def test_low_ecn_high_rtt_is_gray(self, fabric):
        """High RTT alone may be host network-stack latency."""
        state, params = make_state(fabric)
        feed(state, 1, 0, ece=False, rtt_ns=params.t_rtt_high_ns + 50_000)
        assert state.classify(1, 0) == PATH_GRAY

    def test_moderate_rtt_is_gray(self, fabric):
        state, params = make_state(fabric)
        mid = (params.t_rtt_low_ns + params.t_rtt_high_ns) // 2
        feed(state, 1, 0, ece=False, rtt_ns=mid)
        assert state.classify(1, 0) == PATH_GRAY

    def test_fresh_path_defaults_good(self, fabric):
        state, _ = make_state(fabric)
        assert state.classify(1, 0) == PATH_GOOD

    def test_rtt_only_mode(self, fabric):
        state, params = make_state(fabric, use_ecn=False)
        feed(state, 1, 0, ece=False, rtt_ns=params.t_rtt_high_ns + 50_000)
        assert state.classify(1, 0) == PATH_CONGESTED


class TestNotablyBetter:
    def test_requires_both_margins(self, fabric):
        state, params = make_state(fabric)
        feed(state, 1, 0, ece=True, rtt_ns=params.t_rtt_high_ns + 100_000)
        feed(state, 1, 1, ece=False, rtt_ns=fabric.config.base_rtt_ns())
        assert state.notably_better(1, candidate=1, current=0)
        assert not state.notably_better(1, candidate=0, current=1)

    def test_small_difference_not_notable(self, fabric):
        state, params = make_state(fabric)
        rtt = params.t_rtt_high_ns
        feed(state, 1, 0, ece=True, rtt_ns=rtt)
        feed(state, 1, 1, ece=True, rtt_ns=rtt - 1_000)  # 1us < delta_rtt
        assert not state.notably_better(1, candidate=1, current=0)

    def test_rtt_only_mode_ignores_ecn_margin(self, fabric):
        state, params = make_state(fabric, use_ecn=False)
        feed(state, 1, 0, ece=False, rtt_ns=params.t_rtt_high_ns + 200_000)
        feed(state, 1, 1, ece=False, rtt_ns=fabric.config.base_rtt_ns())
        assert state.notably_better(1, candidate=1, current=0)


class TestFailureDetection:
    def test_retx_sweep_marks_uncongested_lossy_path(self, fabric):
        state, params = make_state(fabric)
        state.start_sweep()
        for i in range(100):
            state.record_sent(1, 0, 1500)
        for flow_id in range(4):  # distributed across flows (cap is 3/flow)
            state.record_retransmit(1, 0, flow_id)
        fabric.sim.run(until=params.retx_sweep_interval_ns + 1)
        assert state.classify(1, 0) == PATH_FAILED
        assert state.failed_detections == 1

    def test_congested_path_exempt(self, fabric):
        """Congestion also causes retransmissions (paper §3.1.2)."""
        state, params = make_state(fabric)
        state.start_sweep()
        feed(state, 1, 0, ece=True, rtt_ns=params.t_rtt_high_ns + 100_000)
        for i in range(100):
            state.record_sent(1, 0, 1500)
        for flow_id in range(4):
            state.record_retransmit(1, 0, flow_id)
        fabric.sim.run(until=params.retx_sweep_interval_ns + 1)
        assert state.classify(1, 0) == PATH_CONGESTED

    def test_too_few_samples_not_marked(self, fabric):
        state, params = make_state(fabric)
        state.start_sweep()
        for i in range(5):
            state.record_sent(1, 0, 1500)
        state.record_retransmit(1, 0, 0)
        fabric.sim.run(until=params.retx_sweep_interval_ns + 1)
        assert state.classify(1, 0) != PATH_FAILED

    def test_per_flow_retx_cap(self, fabric):
        """One flow's spurious burst cannot fail a path by itself."""
        state, params = make_state(fabric)
        state.start_sweep()
        for i in range(400):
            state.record_sent(1, 0, 1500)
        for _ in range(50):  # one flow, huge burst (capped to 3)
            state.record_retransmit(1, 0, 7)
        fabric.sim.run(until=params.retx_sweep_interval_ns + 1)
        assert state.state(1, 0).retx_pkts == 0  # swept
        assert state.classify(1, 0) != PATH_FAILED

    def test_failure_expires_after_hold(self, fabric):
        state, params = make_state(fabric)
        state.mark_failed(1, 0)
        assert state.classify(1, 0) == PATH_FAILED
        fabric.sim.run(until=params.failure_hold_ns + 1)
        assert state.classify(1, 0) != PATH_FAILED
        with pytest.raises(ValueError):  # the table refuses, no checker needed
            state.mark_failed(1, 0, hold_ns=0)

    def test_counters_reset_each_sweep(self, fabric):
        state, params = make_state(fabric)
        state.start_sweep()
        for i in range(20):
            state.record_sent(1, 0, 1500)
        fabric.sim.run(until=params.retx_sweep_interval_ns + 1)
        assert state.state(1, 0).sent_pkts == 0


class TestRpEstimator:
    def test_rp_tracks_send_rate(self, fabric):
        state, _ = make_state(fabric)
        path_state = state.state(1, 0)
        # ~4 tau of sustained 10 Gbps so the estimator converges.
        for _ in range(700):
            path_state.rp_add(1500, fabric.sim.now)
            fabric.sim.run(until=fabric.sim.now + 1_200)
        rate = path_state.rp_bps(fabric.sim.now)
        assert rate == pytest.approx(10e9, rel=0.15)

    def test_rp_decays_to_zero(self, fabric):
        state, _ = make_state(fabric)
        path_state = state.state(1, 0)
        path_state.rp_add(150_000, 0)
        assert path_state.rp_bps(10_000_000) < 1.0
