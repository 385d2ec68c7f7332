"""Unit tests for workload distributions and the flow generator."""

import random

import pytest

from repro.workload.distributions import (
    DATA_MINING,
    WEB_SEARCH,
    FlowSizeDistribution,
    distribution_by_name,
)
from repro.workload.generator import FlowGenerator
from tests.conftest import small_config


class TestDistributionValidation:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", [(100, 0.0)])

    def test_cdf_must_span_zero_to_one(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", [(100, 0.1), (200, 1.0)])
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", [(100, 0.0), (200, 0.9)])

    def test_cdf_monotone(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", [(100, 0.0), (200, 0.5), (300, 0.4), (400, 1.0)])

    def test_sizes_monotone(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("x", [(100, 0.0), (50, 1.0)])

    def test_lookup_by_name(self):
        assert distribution_by_name("web-search") is WEB_SEARCH
        assert distribution_by_name("data-mining") is DATA_MINING
        with pytest.raises(ValueError):
            distribution_by_name("nope")


class TestSampling:
    def test_samples_within_support(self):
        rng = random.Random(0)
        for _ in range(500):
            size = WEB_SEARCH.sample(rng)
            assert 6_000 <= size <= 30_000_000

    def test_sample_mean_close_to_analytic(self):
        rng = random.Random(1)
        samples = [WEB_SEARCH.sample(rng) for _ in range(20_000)]
        empirical = sum(samples) / len(samples)
        assert empirical == pytest.approx(WEB_SEARCH.mean(), rel=0.1)

    def test_web_search_mean_plausible(self):
        # The DCTCP workload's mean is ~1.6 MB.
        assert 1_000_000 < WEB_SEARCH.mean() < 3_000_000

    def test_data_mining_more_skewed(self):
        """95% of data-mining bytes come from a tiny fraction of flows."""
        rng = random.Random(2)
        samples = sorted(DATA_MINING.sample(rng) for _ in range(20_000))
        total = sum(samples)
        top_5pct = sum(samples[int(0.95 * len(samples)):])
        assert top_5pct / total > 0.9

    def test_data_mining_mostly_tiny_flows(self):
        rng = random.Random(3)
        samples = [DATA_MINING.sample(rng) for _ in range(5_000)]
        small = sum(1 for s in samples if s <= 10_000)
        assert small / len(samples) == pytest.approx(0.8, abs=0.05)

    def test_scaled_preserves_shape(self):
        scaled = WEB_SEARCH.scaled(0.1)
        assert scaled.mean() == pytest.approx(WEB_SEARCH.mean() * 0.1, rel=0.01)

    def test_scaled_validation(self):
        with pytest.raises(ValueError):
            WEB_SEARCH.scaled(0)

    def test_points_copy(self):
        points = WEB_SEARCH.points()
        points.append((1, 2))
        assert WEB_SEARCH.points()[-1] != (1, 2)


class TestFlowGenerator:
    def _gen(self, load=0.5, inter_rack_only=True):
        return FlowGenerator(
            small_config(), WEB_SEARCH, load, random.Random(0),
            inter_rack_only=inter_rack_only,
        )

    def test_load_validated(self):
        with pytest.raises(ValueError):
            FlowGenerator(small_config(), WEB_SEARCH, 0.0, random.Random(0))

    def test_arrival_times_increase(self):
        arrivals = self._gen().arrival_list(100)
        times = [a.time_ns for a in arrivals]
        assert times == sorted(times)

    def test_pairs_inter_rack(self):
        cfg = small_config()
        for arrival in self._gen().arrival_list(200):
            assert arrival.src != arrival.dst
            assert (
                arrival.src // cfg.hosts_per_leaf
                != arrival.dst // cfg.hosts_per_leaf
            )

    def test_intra_rack_allowed_when_enabled(self):
        cfg = small_config()
        arrivals = self._gen(inter_rack_only=False).arrival_list(500)
        intra = [
            a
            for a in arrivals
            if a.src // cfg.hosts_per_leaf == a.dst // cfg.hosts_per_leaf
        ]
        assert intra  # some intra-rack pairs appear

    def test_rate_matches_load(self):
        gen = self._gen(load=0.5)
        arrivals = gen.arrival_list(5_000)
        span_s = (arrivals[-1].time_ns - arrivals[0].time_ns) / 1e9
        offered_bps = sum(a.size_bytes for a in arrivals) * 8 / span_s
        capacity = small_config().n_hosts * 10e9
        assert offered_bps / capacity == pytest.approx(0.5, rel=0.15)

    def test_higher_load_means_denser_arrivals(self):
        lo = self._gen(load=0.2).mean_interarrival_ns()
        hi = self._gen(load=0.8).mean_interarrival_ns()
        assert hi == pytest.approx(lo / 4, rel=0.01)

    def test_deterministic_with_seed(self):
        a = FlowGenerator(small_config(), WEB_SEARCH, 0.5, random.Random(7))
        b = FlowGenerator(small_config(), WEB_SEARCH, 0.5, random.Random(7))
        assert a.arrival_list(50) == b.arrival_list(50)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            self._gen().arrival_list(-1)
