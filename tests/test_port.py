"""Unit tests for the output port (queue + link)."""

import pytest

from repro.net.packet import PRIO_HIGH, Packet, PacketKind
from repro.net.port import OutputPort
from repro.sim.engine import Simulator


def make_port(sim, rate_gbps=10.0, ecn_k=97_500, buffer_bytes=750_000, sink=None):
    arrived = [] if sink is None else sink
    port = OutputPort(
        sim,
        "test",
        rate_gbps * 1e9,
        prop_delay_ns=1_000,
        buffer_bytes=buffer_bytes,
        ecn_threshold_bytes=ecn_k,
        forward=arrived.append,
    )
    return port, arrived


def data(seq=0, size=1500, prio=None, ecn=True):
    packet = Packet(0, 0, 1, seq, size, PacketKind.DATA, ecn_capable=ecn)
    if prio is not None:
        packet.priority = prio
    return packet


class TestSerialization:
    def test_tx_time(self):
        sim = Simulator()
        port, _ = make_port(sim, rate_gbps=10.0)
        assert port.tx_time_ns(1500) == 1200  # 1500B * 8 / 10Gbps

    def test_delivery_after_tx_plus_prop(self):
        sim = Simulator()
        port, arrived = make_port(sim)
        port.enqueue(data())
        sim.run()
        # 1200ns serialization + 1000ns propagation
        assert sim.now == 2200
        assert len(arrived) == 1

    def test_back_to_back_serialize_sequentially(self):
        sim = Simulator()
        port, arrived = make_port(sim)
        port.enqueue(data(0))
        port.enqueue(data(1))
        sim.run()
        assert sim.now == 2 * 1200 + 1000
        assert [p.seq for p in arrived] == [0, 1]

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            OutputPort(Simulator(), "bad", 0, 0, 1000, 100)

    def test_tx_time_exact_integer_arithmetic(self):
        # tx = size * 8 * 10**9 // rate, exactly — no float truncation.
        from fractions import Fraction

        sim = Simulator()
        for rate_bps in (10e9, 1e9, 2.5e9, 40e9, 3_000_000_000, 7e9):
            port = OutputPort(sim, "x", rate_bps, 0, 10**9, 0)
            for size in (40, 1460, 1500, 9000, 12_345_678):
                exact = int(
                    Fraction(size * 8 * 10**9) / Fraction(rate_bps)
                )
                assert port.tx_time_ns(size) == exact

    def test_tx_time_integer_rate(self):
        sim = Simulator()
        port = OutputPort(sim, "int-rate", 10**10, 0, 10**9, 0)
        assert port.tx_time_ns(1500) == 1200


class TestPriority:
    def test_high_priority_jumps_queue(self):
        sim = Simulator()
        port, arrived = make_port(sim)
        port.enqueue(data(0))        # starts transmitting immediately
        port.enqueue(data(1))        # queued low
        port.enqueue(data(2, size=64, prio=PRIO_HIGH))  # queued high
        sim.run()
        assert [p.seq for p in arrived] == [0, 2, 1]

    def test_no_preemption_of_inflight_packet(self):
        sim = Simulator()
        port, arrived = make_port(sim)
        port.enqueue(data(0))
        port.enqueue(data(1, size=64, prio=PRIO_HIGH))
        sim.run()
        assert arrived[0].seq == 0  # the in-flight packet finishes first


class TestEcnMarking:
    def test_no_mark_below_threshold(self):
        sim = Simulator()
        port, _ = make_port(sim, ecn_k=10_000)
        packet = data()
        port.enqueue(packet)
        assert packet.ce is False

    def test_mark_above_threshold(self):
        sim = Simulator()
        port, _ = make_port(sim, ecn_k=3_000)
        first, second, third = data(0), data(1), data(2)
        port.enqueue(first)   # backlog 1500
        port.enqueue(second)  # backlog 3000 -> at threshold
        port.enqueue(third)   # backlog >= threshold -> marked
        assert first.ce is False
        assert third.ce is True

    def test_non_ecn_capable_never_marked(self):
        sim = Simulator()
        port, _ = make_port(sim, ecn_k=1)
        packet = data(ecn=False)
        port.enqueue(data(0))
        port.enqueue(packet)
        assert packet.ce is False

    def test_zero_threshold_disables_marking(self):
        sim = Simulator()
        port, _ = make_port(sim, ecn_k=0)
        port.enqueue(data(0))
        packet = data(1)
        port.enqueue(packet)
        assert packet.ce is False


class TestDrops:
    def test_buffer_overflow_drops(self):
        sim = Simulator()
        port, arrived = make_port(sim, buffer_bytes=2_000)
        assert port.enqueue(data(0)) is True
        assert port.enqueue(data(1)) is False  # 3000 > 2000
        assert port.drops_overflow == 1
        sim.run()
        assert len(arrived) == 1

    def test_drop_predicate(self):
        sim = Simulator()
        port, arrived = make_port(sim)
        port.add_drop_predicate(lambda p, now: p.seq == 1)
        assert port.enqueue(data(0)) is True
        assert port.enqueue(data(1)) is False
        assert port.drops_injected == 1
        assert port.total_drops == 1

    def test_drop_predicates_change_only_through_the_pair(self):
        sim = Simulator()
        port, _ = make_port(sim)
        drop_all = lambda p, now: True
        keep_all = lambda p, now: False
        port.add_drop_predicate(keep_all)
        port.add_drop_predicate(drop_all)
        assert drop_all in port.drop_predicates and port.drop_predicates
        # A direct write would leave the enqueue fast path unguarded, so
        # the view offers none.
        with pytest.raises(AttributeError):
            port.drop_predicates.append(drop_all)
        port.remove_drop_predicate(drop_all)
        assert port.enqueue(data(0)) is True
        with pytest.raises(ValueError):
            port.remove_drop_predicate(drop_all)
        port.remove_drop_predicate(keep_all)
        assert not port.drop_predicates

    def test_dropped_packet_frees_no_backlog(self):
        sim = Simulator()
        port, _ = make_port(sim, buffer_bytes=2_000)
        port.enqueue(data(0))
        backlog = port.backlog_bytes
        port.enqueue(data(1))
        assert port.backlog_bytes == backlog


def timed_port(sim, guarded=False, **kwargs):
    """A port whose sink logs ``(arrival time, seq)``.  ``guarded`` adds
    a predicate that never drops: same behaviour, but every packet takes
    the full enqueue path through the deque."""
    port, _ = make_port(sim, **kwargs)
    log = []
    port.forward = lambda packet: log.append((sim.now, packet.seq))
    if guarded:
        port.add_drop_predicate(lambda packet, now: False)
    return port, log


class TestIdleShortcut:
    """An arrival at an idle unguarded link goes onto the wire without
    touching the deque; nothing observable may depend on that."""

    @staticmethod
    def burst():
        # ECN-capable DATA around one high-priority ACK, sized so that
        # the 3000-byte marking threshold is crossed mid-burst.
        return [
            data(0),
            data(1),
            data(2, size=64, prio=PRIO_HIGH),
            data(3, size=700),
            data(4),
        ]

    @pytest.mark.parametrize("held_busy", [False, True])
    def test_shortcut_and_deque_paths_agree(self, held_busy):
        outcomes = []
        for guarded in (False, True):
            sim = Simulator()
            port, log = timed_port(sim, guarded=guarded, ecn_k=3_000)
            if held_busy:
                port.enqueue(data(99))  # the burst finds the wire taken
            burst = self.burst()
            for packet in burst:
                port.enqueue(packet)
            assert port._guarded is guarded
            sim.run()
            outcomes.append(
                (
                    log,
                    port.pkts_sent,
                    port.bytes_sent,
                    port.max_backlog,
                    port.ecn_marks,
                    [packet.ce for packet in burst],
                )
            )
            assert not port.busy and port._inflight is None
        assert outcomes[0] == outcomes[1]
        order = [seq for _, seq in outcomes[0][0]]
        if held_busy:
            # Everything queued behind 99: the ACK overtakes all DATA.
            assert order == [99, 2, 0, 1, 3, 4]
        else:
            # Packet 0 was on the wire: the ACK overtakes only 1.
            assert order == [0, 2, 1, 3, 4]
        assert outcomes[0][4] > 0

    def test_predicate_installed_mid_wire_spares_the_wire_packet(self):
        sim = Simulator()
        port, log = timed_port(sim)
        assert port.enqueue(data(0)) is True  # shortcut: on the wire
        assert port.busy and port._inflight.seq == 0
        port.add_drop_predicate(lambda packet, now: True)
        assert port.enqueue(data(1)) is False
        assert port.drops_injected == 1
        sim.run()
        assert log == [(1_200 + 1_000, 0)]
        assert port.pkts_sent == 1
        assert port.backlog_bytes == 0


class TestAdminDown:
    def test_down_mid_serialisation_leaves_no_stale_inflight(self):
        """The wire packet drains, the queue stalls with the link idle
        and holding nothing — ``_inflight`` used to keep pointing at a
        packet the fabric may already have recycled."""
        sim = Simulator()
        port, log = timed_port(sim)
        for i in range(3):
            port.enqueue(data(i))
        sim.schedule_at(600, port.set_admin_down, True)  # pkt 0 half sent
        sim.run(until=5_000)
        assert log == [(2_200, 0)]
        assert port.busy is False and port._inflight is None
        assert port.backlog_bytes == 3_000  # 1 and 2 stalled in place
        assert port.enqueue(data(3)) is False
        assert port.drops_linkdown == 1
        sim.schedule_at(10_000, port.set_admin_down, False)
        sim.run()
        # Resumed in order: 1200 ns each from the admin-up instant.
        assert log == [(2_200, 0), (12_200, 1), (13_400, 2)]
        assert port.busy is False and port._inflight is None
        assert port.pkts_sent == 3 and port.backlog_bytes == 0


class TestAccounting:
    def test_bytes_and_packets_counted(self):
        sim = Simulator()
        port, _ = make_port(sim)
        port.enqueue(data(0))
        port.enqueue(data(1, size=500))
        sim.run()
        assert port.pkts_sent == 2
        assert port.bytes_sent == 2_000

    def test_backlog_drains_to_zero(self):
        sim = Simulator()
        port, _ = make_port(sim)
        for i in range(5):
            port.enqueue(data(i))
        assert port.backlog_bytes == 7_500
        sim.run()
        assert port.backlog_bytes == 0

    def test_max_backlog_tracked(self):
        sim = Simulator()
        port, _ = make_port(sim)
        for i in range(4):
            port.enqueue(data(i))
        sim.run()
        assert port.max_backlog == 6_000


class TestDre:
    def test_dre_rises_with_traffic(self):
        sim = Simulator()
        port, _ = make_port(sim)
        port.enable_dre()
        assert port.dre_utilization() == 0.0
        # Sustain line rate for ~2 tau so the estimator converges.
        for i in range(200):
            port.enqueue(data(i))
        sim.run()
        assert port.dre_utilization() > 0.5

    def test_dre_decays_when_idle(self):
        sim = Simulator()
        port, _ = make_port(sim)
        port.enable_dre()
        for i in range(200):
            port.enqueue(data(i))
        sim.run()
        busy = port.dre_utilization()
        sim.run(until=sim.now + 1_000_000)  # 10 tau of idle decay
        assert port.dre_utilization() < busy / 100

    def test_dre_quantized_range(self):
        sim = Simulator()
        port, _ = make_port(sim)
        port.enable_dre()
        assert port.dre_quantized() == 0
        for i in range(100):
            port.enqueue(data(i))
        sim.run(until=port.tx_time_ns(1500) * 50)
        assert 0 <= port.dre_quantized() <= 7

    def test_data_packet_stamped_with_max_dre(self):
        sim = Simulator()
        port, arrived = make_port(sim)
        port.enable_dre()
        for i in range(50):
            port.enqueue(data(i))
        sim.run()
        # Later packets saw a busier link and carry a larger stamp.
        assert arrived[-1].conga_metric >= arrived[0].conga_metric
        assert arrived[-1].conga_metric > 0

    def test_reading_dre_on_a_fresh_port_raises(self):
        """The estimator is off until its consumer asks for it; a reader
        that forgot gets told, not a silent 0."""
        port, _ = make_port(Simulator())
        with pytest.raises(RuntimeError, match=r"enable_dre\(\)"):
            port.dre_utilization()
        with pytest.raises(RuntimeError, match=r"enable_dre\(\)"):
            port.dre_quantized()

    def test_dre_off_means_no_stamp_and_no_state(self):
        sim = Simulator()
        port, arrived = make_port(sim)
        for i in range(50):
            port.enqueue(data(i))
        sim.run()
        assert port._dre_value == 0.0
        assert all(packet.conga_metric == 0 for packet in arrived)

    def test_enable_dre_mid_run_starts_from_zero(self):
        sim = Simulator()
        port, _ = make_port(sim)
        for i in range(200):
            port.enqueue(data(i))
        sim.run()
        assert sim.now > 0
        port.enable_dre()
        assert port.dre_utilization() == 0.0
        assert port._dre_last == sim.now
        port.enable_dre()  # idempotent: a second call must not rewind
        port.enqueue(data(0))
        sim.run()
        assert port.dre_utilization() > 0.0
