"""Unit tests for the UDP constant-rate source."""

import pytest

from repro.transport.udp import UdpFlow
from tests.conftest import make_fabric


class TestUdpFlow:
    def test_rate_validated(self, fabric):
        with pytest.raises(ValueError):
            UdpFlow(fabric, 0, 2, rate_bps=0)

    def test_packet_size_validated(self, fabric):
        with pytest.raises(ValueError):
            UdpFlow(fabric, 0, 2, rate_bps=1e9, packet_bytes=10)

    def test_pacing_interval(self, fabric):
        flow = UdpFlow(fabric, 0, 2, rate_bps=1e9, packet_bytes=1500)
        assert flow.interval_ns == 12_000  # 1500B*8/1Gbps

    def test_duration_bounds_sending(self, fabric):
        flow = UdpFlow(
            fabric, 0, 2, rate_bps=1e9, duration_ns=120_000, fixed_path=0
        )
        flow.start()
        fabric.register_flow(flow)
        fabric.sim.run(until=1_000_000)
        assert flow.pkts_sent == 10  # 120us / 12us per packet

    def test_goodput_matches_rate(self, fabric):
        flow = UdpFlow(
            fabric, 0, 2, rate_bps=2e9, duration_ns=1_000_000, fixed_path=0
        )
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=5_000_000)
        assert flow.mean_goodput_gbps() * 8 == pytest.approx(2.0 * 8, rel=0.1)

    def test_stop_halts_sending(self, fabric):
        flow = UdpFlow(fabric, 0, 2, rate_bps=1e9, fixed_path=0)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=100_000)
        flow.stop()
        sent = flow.pkts_sent
        fabric.sim.run(until=1_000_000)
        assert flow.pkts_sent == sent

    def test_rate_limited_by_bottleneck(self):
        fabric = make_fabric(link_overrides={(0, 0): 1.0})
        flow = UdpFlow(
            fabric, 0, 2, rate_bps=9e9, duration_ns=2_000_000, fixed_path=0
        )
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=20_000_000)
        # Receiver cannot see more than the 1 Gbps bottleneck delivers.
        assert flow.mean_goodput_gbps() < 1.3
