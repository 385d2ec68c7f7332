"""Unit tests for fabric forwarding and host dispatch."""

import pytest

from repro.net.packet import Packet, PacketKind, make_probe
from tests.conftest import make_fabric


class RecordingFlow:
    """Minimal flow double recording deliveries."""

    def __init__(self, flow_id):
        self.flow_id = flow_id
        self.data = []
        self.acks = []

    def on_data(self, packet):
        self.data.append(packet)

    def on_ack(self, packet):
        self.acks.append(packet)


class TestForwarding:
    def test_data_packet_reaches_flow(self, fabric):
        flow = RecordingFlow(fabric.allocate_flow_id())
        fabric.flows[flow.flow_id] = flow
        packet = Packet(flow.flow_id, 0, 2, 0, 1500, PacketKind.DATA, path_id=0)
        fabric.send(packet)
        fabric.sim.run()
        assert flow.data == [packet]

    def test_ack_reaches_flow(self, fabric):
        flow = RecordingFlow(fabric.allocate_flow_id())
        fabric.flows[flow.flow_id] = flow
        ack = Packet(flow.flow_id, 2, 0, 0, 64, PacketKind.ACK, path_id=0)
        fabric.send(ack)
        fabric.sim.run()
        assert flow.acks == [ack]

    def test_unknown_flow_dropped_silently(self, fabric):
        packet = Packet(999, 0, 2, 0, 1500, PacketKind.DATA, path_id=1)
        fabric.send(packet)
        fabric.sim.run()  # must not raise

    def test_intra_rack_path(self, fabric):
        flow = RecordingFlow(fabric.allocate_flow_id())
        fabric.flows[flow.flow_id] = flow
        packet = Packet(flow.flow_id, 0, 1, 0, 1500, PacketKind.DATA, path_id=-1)
        fabric.send(packet)
        fabric.sim.run()
        assert flow.data == [packet]

    def test_flow_id_allocation_unique(self, fabric):
        ids = {fabric.allocate_flow_id() for _ in range(100)}
        assert len(ids) == 100


class TestProbeEcho:
    def test_probe_answered_with_reply(self, fabric):
        replies = []
        fabric.claim_probes(0, -7, replies.append)
        probe = make_probe(-7, 0, 2, 1, fabric.sim.now)
        fabric.send(probe)
        fabric.sim.run()
        assert len(replies) == 1
        assert replies[0].kind == PacketKind.PROBE_REPLY
        assert replies[0].path_id == 1

    def test_reply_rtt_positive(self, fabric):
        replies = []
        fabric.claim_probes(0, -7, replies.append)
        probe = make_probe(-7, 0, 2, 0, fabric.sim.now)
        fabric.send(probe)
        fabric.sim.run()
        rtt = fabric.sim.now - replies[0].ts_echo
        assert rtt > 0

    def test_reply_without_sink_ignored(self, fabric):
        replies = []
        fabric.claim_probes(0, -7, replies.append)
        fabric.send(make_probe(-7, 1, 2, 0, fabric.sim.now))
        fabric.send(make_probe(-8, 0, 2, 0, fabric.sim.now))
        fabric.sim.run()  # unclaimed streams: dropped, must not raise
        assert replies == []

    def test_a_probe_stream_has_one_owner(self, fabric):
        fabric.claim_probes(0, -7, print)
        fabric.claim_probes(1, -7, print)  # same id, other host: fine
        with pytest.raises(ValueError, match="already claimed"):
            fabric.claim_probes(0, -7, print)


class TestFlowDoneCallback:
    def test_flow_finished_fans_out(self, fabric):
        done = []
        fabric.on_flow_done = done.append
        sentinel = object()
        fabric.flow_finished(sentinel)
        assert done == [sentinel]

    def test_no_callback_is_fine(self, fabric):
        fabric.on_flow_done = None
        fabric.flow_finished(object())
