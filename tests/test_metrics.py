"""Unit tests for FCT statistics, collectors and visibility sampling."""

import math

import pytest

from repro.telemetry.series import QueueSampler
from repro.metrics.fct import (
    LARGE_FLOW_BYTES,
    SMALL_FLOW_BYTES,
    FctStats,
    FlowRecord,
    percentile,
)
from repro.metrics.visibility import VisibilitySampler
from repro.net.packet import Packet, PacketKind
from repro.transport.tcp import MSS, TcpFlow
from tests.conftest import make_fabric


def record(flow_id=0, size=50_000, fct_ms=1.0, **kw):
    fct_ns = None if fct_ms is None else int(fct_ms * 1e6)
    return FlowRecord(flow_id, 0, 2, size, 0, fct_ns, **kw)


class TestPercentile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_value(self):
        assert percentile([5.0], 99) == 5.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        data = sorted(float(i) for i in range(100))
        assert percentile(data, 0) == 0.0
        assert percentile(data, 100) == 99.0


class TestFctStats:
    def test_mean(self):
        stats = FctStats([record(fct_ms=1.0), record(1, fct_ms=3.0)])
        assert stats.mean_ms() == 2.0

    def test_unfinished_excluded_from_plain_mean(self):
        stats = FctStats([record(fct_ms=1.0), record(1, fct_ms=None)])
        assert stats.mean_ms() == 1.0
        assert stats.unfinished_count == 1
        assert stats.unfinished_fraction == 0.5

    def test_unfinished_penalty(self):
        stats = FctStats([record(fct_ms=1.0), record(1, fct_ms=None)])
        assert stats.mean_ms(penalize_unfinished_ns=int(9e6)) == 5.0

    def test_empty_stats_nan(self):
        stats = FctStats([])
        assert math.isnan(stats.mean_ms())
        assert math.isnan(stats.median_ms())
        assert math.isnan(stats.p99_ms())

    def test_small_large_buckets(self):
        records = [
            record(0, size=SMALL_FLOW_BYTES - 1),
            record(1, size=SMALL_FLOW_BYTES + 1),
            record(2, size=LARGE_FLOW_BYTES + 1),
        ]
        stats = FctStats(records)
        assert stats.small.count == 1
        assert stats.large.count == 1

    def test_p99_tail(self):
        records = [record(i, fct_ms=1.0) for i in range(99)]
        records.append(record(99, fct_ms=100.0))
        stats = FctStats(records)
        # p99 interpolates toward the 100ms outlier.
        assert stats.p99_ms() > stats.median_ms()
        assert stats.p99_ms() == pytest.approx(1.99, rel=0.01)

    def test_median(self):
        stats = FctStats([record(i, fct_ms=float(i + 1)) for i in range(5)])
        assert stats.median_ms() == 3.0

    def test_retransmission_total(self):
        stats = FctStats([record(retransmissions=3), record(1, retransmissions=2)])
        assert stats.total_retransmissions() == 5

    def test_subset_predicate(self):
        stats = FctStats([record(0, fct_ms=1.0), record(1, fct_ms=9.0)])
        slow = stats.subset(lambda r: r.fct_ns > 5e6)
        assert slow.count == 1


class TestQueueSampler:
    def test_periodic_samples(self, fabric):
        port = fabric.topology.leaf_up[0][0]
        sampler = QueueSampler(fabric.sim, [port], period_ns=10_000)
        sampler.start()
        for i in range(50):
            port.enqueue(Packet(0, 0, 2, i, 1500, PacketKind.DATA))
        fabric.sim.run(until=100_000)
        samples = sampler.samples[port.name]
        assert len(samples) == 10
        assert sampler.max_backlog(port.name) > 0

    def test_stddev_measures_oscillation(self, fabric):
        port = fabric.topology.leaf_up[0][0]
        sampler = QueueSampler(fabric.sim, [port], period_ns=5_000)
        sampler.start()
        fabric.sim.run(until=30_000)
        assert sampler.stddev_backlog(port.name) == 0.0

    def test_stop(self, fabric):
        port = fabric.topology.leaf_up[0][0]
        sampler = QueueSampler(fabric.sim, [port], period_ns=5_000)
        sampler.start()
        fabric.sim.run(until=20_000)
        sampler.stop()
        n = len(sampler.samples[port.name])
        fabric.sim.run(until=100_000)
        assert len(sampler.samples[port.name]) == n

    def test_invalid_period(self, fabric):
        with pytest.raises(ValueError):
            QueueSampler(fabric.sim, [], period_ns=0)


class TestVisibilitySampler:
    def test_counts_only_inter_rack_flows(self, fabric):
        sampler = VisibilitySampler(fabric, period_ns=1_000)
        inter = TcpFlow(fabric, 0, 2, 10 * MSS)
        intra = TcpFlow(fabric, 0, 1, 10 * MSS)
        sampler.flow_started(inter)
        sampler.flow_started(intra)
        assert len(sampler._active) == 1

    def test_switch_pair_average(self, fabric):
        sampler = VisibilitySampler(fabric, period_ns=1_000)
        sampler.start()
        flow = TcpFlow(fabric, 0, 2, 10 * MSS)
        sampler.flow_started(flow)
        fabric.sim.run(until=10_000)
        # One active flow over 2 ordered leaf pairs -> 0.5 per pair.
        assert sampler.switch_pair_visibility() == pytest.approx(0.5)

    def test_host_pair_below_switch_pair(self, fabric):
        sampler = VisibilitySampler(fabric, period_ns=1_000)
        sampler.start()
        flow = TcpFlow(fabric, 0, 2, 10 * MSS)
        sampler.flow_started(flow)
        fabric.sim.run(until=10_000)
        assert sampler.host_pair_visibility() < sampler.switch_pair_visibility()

    def test_finished_flow_removed(self, fabric):
        sampler = VisibilitySampler(fabric, period_ns=1_000)
        flow = TcpFlow(fabric, 0, 2, 10 * MSS)
        sampler.flow_started(flow)
        sampler.flow_finished(flow)
        assert not sampler._active

    def test_no_samples_zero(self, fabric):
        sampler = VisibilitySampler(fabric)
        assert sampler.switch_pair_visibility() == 0.0
