"""Unit and behavioural tests for TCP New Reno."""

import pytest

from repro.net.packet import PacketKind
from repro.transport.tcp import MSS, TcpFlow
from tests.conftest import make_fabric


class PinnedPathAgent:
    """Minimal agent pinning every flow to one path."""

    def __init__(self, path):
        self.path = path
        self.reroutes = 0

    def select_path(self, flow, wire_bytes):
        return self.path

    def on_ack(self, *args):
        pass

    def on_path_feedback(self, *args):
        pass

    def on_timeout(self, *args):
        pass

    def on_retransmit(self, *args):
        pass

    def on_flow_done(self, *args):
        pass


def run_flow(fabric, src=0, dst=2, size=10 * MSS, **kwargs) -> TcpFlow:
    flow = TcpFlow(fabric, src, dst, size, **kwargs)
    fabric.register_flow(flow)
    flow.start()
    fabric.sim.run(until=fabric.sim.now + 5_000_000_000)
    return flow


class TestBasicTransfer:
    def test_single_packet_flow_completes(self, fabric):
        flow = run_flow(fabric, size=500)
        assert flow.finished
        assert flow.n_pkts == 1

    def test_multi_packet_flow_completes(self, fabric):
        flow = run_flow(fabric, size=100 * MSS)
        assert flow.finished
        assert flow.receiver.rcv_next == 100

    def test_intra_rack_flow_completes(self, fabric):
        flow = run_flow(fabric, src=0, dst=1, size=20 * MSS)
        assert flow.finished
        assert flow.current_path == -1

    def test_fct_positive_and_reasonable(self, fabric):
        flow = run_flow(fabric, size=10 * MSS)
        # 10 packets at 10G through 4 hops: minimum is tens of microseconds.
        assert 5_000 < flow.fct_ns < 1_000_000

    def test_zero_size_rejected(self, fabric):
        with pytest.raises(ValueError):
            TcpFlow(fabric, 0, 2, 0)

    def test_same_endpoints_rejected(self, fabric):
        with pytest.raises(ValueError):
            TcpFlow(fabric, 0, 0, 1500)

    def test_last_packet_smaller(self, fabric):
        flow = TcpFlow(fabric, 0, 2, int(2.5 * MSS))
        assert flow.n_pkts == 3
        assert flow._last_payload == int(2.5 * MSS) - 2 * MSS

    def test_no_retransmissions_on_clean_path(self, fabric):
        flow = run_flow(fabric, size=200 * MSS)
        assert flow.retx_count == 0
        assert flow.timeout_count == 0

    def test_bytes_sent_equals_size(self, fabric):
        flow = run_flow(fabric, size=50 * MSS)
        assert flow.bytes_sent == 50 * MSS


class TestCongestionWindow:
    def test_initial_window_ten(self, fabric):
        flow = TcpFlow(fabric, 0, 2, 100 * MSS)
        fabric.register_flow(flow)
        flow.start()
        # Exactly the initial window leaves before any ACK returns.
        assert flow.snd_nxt == 10

    def test_slow_start_doubles_per_rtt(self, fabric):
        flow = TcpFlow(fabric, 0, 2, 400 * MSS)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=fabric.sim.now + 40_000)  # ~2 RTTs
        assert flow.cwnd > 20

    def test_cwnd_capped(self, fabric):
        flow = run_flow(fabric, size=500 * MSS, max_cwnd=32.0)
        assert flow.finished
        assert flow.cwnd <= 32.0


class TestLossRecovery:
    def _lossy_fabric(self, lose_seqs):
        fabric = make_fabric()
        fabric.hosts[0].lb = PinnedPathAgent(0)  # keep the flow on path 0
        port = fabric.topology.leaf_up[0][0]
        remaining = set(lose_seqs)

        def drop_once(packet, now):
            if (
                packet.kind == PacketKind.DATA
                and packet.seq in remaining
                and not packet.is_retx
            ):
                remaining.discard(packet.seq)
                return True
            return False

        port.add_drop_predicate(drop_once)
        return fabric

    def test_fast_retransmit_recovers_single_loss(self):
        fabric = self._lossy_fabric({5})
        flow = run_flow(fabric, size=50 * MSS)
        assert flow.finished
        assert flow.retx_count >= 1
        assert flow.timeout_count == 0  # recovered without RTO

    def test_ssthresh_halved_on_loss(self):
        fabric = self._lossy_fabric({5})
        flow = run_flow(fabric, size=50 * MSS)
        assert flow.ssthresh < 50

    def test_tail_loss_needs_timeout(self):
        # The last packet has no successors to generate dup ACKs.
        fabric = self._lossy_fabric({49})
        flow = run_flow(fabric, size=50 * MSS)
        assert flow.finished
        assert flow.timeout_count >= 1
        assert flow.fct_ns > 10_000_000  # paid at least one 10ms RTO

    def test_multiple_losses_recovered(self):
        fabric = self._lossy_fabric({3, 7, 11, 19})
        flow = run_flow(fabric, size=60 * MSS)
        assert flow.finished
        assert flow.receiver.rcv_next == 60

    def test_total_blackhole_never_finishes(self):
        fabric = make_fabric()
        for port in fabric.topology.spine_ports(0):
            port.add_drop_predicate(lambda p, now: True)
        for port in fabric.topology.spine_ports(1):
            port.add_drop_predicate(lambda p, now: True)
        flow = TcpFlow(fabric, 0, 2, 10 * MSS)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=500_000_000)
        assert not flow.finished
        assert flow.timeout_count >= 3

    def test_blackhole_timeouts_backoff_exponentially(self):
        """Regression: ``_on_rto`` used to arm a *second* RTO event on
        top of the one ``_transmit`` arms.  The orphan fired as a
        phantom timeout whose handler armed two more — the live-event
        count doubled per generation, melting long degraded-fabric runs.
        With a single live timer and exponential backoff (10 ms floor,
        doubling), 500 ms of total blackhole fits only a handful of
        genuine timeouts."""
        fabric = make_fabric()
        for spine in (0, 1):
            for port in fabric.topology.spine_ports(spine):
                port.add_drop_predicate(lambda p, now: True)
        flow = TcpFlow(fabric, 0, 2, 10 * MSS)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=500_000_000)
        assert not flow.finished
        assert 3 <= flow.timeout_count <= 8, (
            f"{flow.timeout_count} timeouts in 500 ms: backoff is not "
            f"exponential or phantom RTO events are firing"
        )

    def test_timeout_sets_hermes_flag(self):
        fabric = self._lossy_fabric({49})
        flow = run_flow(fabric, size=50 * MSS)
        assert flow.timeout_count > 0  # if_timeout was set then consumed


class TestRetxPathAttribution:
    def test_retx_blamed_on_original_path(self):
        fabric = make_fabric()
        blamed = []

        class Spy:
            reroutes = 0

            def select_path(self, flow, wire):
                return 0

            def on_ack(self, *a):
                pass

            def on_path_feedback(self, *a):
                pass

            def on_timeout(self, *a):
                pass

            def on_retransmit(self, flow, path):
                blamed.append(path)

            def on_flow_done(self, *a):
                pass

        fabric.hosts[0].lb = Spy()
        port = fabric.topology.leaf_up[0][0]
        dropped = []

        def drop_five(packet, now):
            if packet.kind == PacketKind.DATA and packet.seq == 5 and not dropped:
                dropped.append(packet.seq)
                return True
            return False

        port.add_drop_predicate(drop_five)
        flow = run_flow(fabric, size=30 * MSS)
        assert flow.finished
        assert blamed and all(p == 0 for p in blamed)


class TestReorderMasking:
    def test_mask_suppresses_spurious_fast_retransmit(self, fabric):
        # Deliver one packet out of order by bouncing it through the other
        # spine with a pause: without masking this causes dup ACKs.
        flow = TcpFlow(fabric, 0, 2, 40 * MSS, reorder_mask_ns=300_000)
        fabric.register_flow(flow)
        flow.start()
        fabric.sim.run(until=fabric.sim.now + 1_000_000_000)
        assert flow.finished
        assert flow.retx_count == 0
