"""The packet-movement view of ``EventTracer``: a pcap-equivalent for
the simulated fabric.

These are the behaviours the deleted ``repro.net.trace``
``PacketTracer`` shim was tested for, asserted on the tracer it adapted
(wired in by ``repro.hooks.attach`` like every other observer).  The rest
of the tracer — drops, flow lifecycle, export — is covered in
``test_telemetry.py``.
"""

from repro.hooks import attach
from repro.lb.factory import install_lb
from repro.telemetry.tracer import EventTracer
from repro.transport.dctcp import DctcpFlow
from repro.transport.tcp import MSS

PACKET_MOVES = ("send", "hop", "deliver")


def traced_run(fabric, flows, **tracer_kwargs):
    """Run ``flows`` to completion under a fresh tracer; returns it."""
    tracer = EventTracer(fabric.sim, **tracer_kwargs)
    attach(fabric, tracer=tracer)
    for flow in flows:
        fabric.register_flow(flow)
        flow.start()
    fabric.sim.run(until=10_000_000)
    return tracer


class TestTracer:
    def test_records_send_hops_and_delivery(self, fabric):
        install_lb(fabric, "ecmp")
        tracer = traced_run(fabric, [DctcpFlow(fabric, 0, 2, MSS)])
        moves = {e.kind for e in tracer.events if e.kind in PACKET_MOVES}
        assert moves == set(PACKET_MOVES)
        # 1 data + 1 ack delivered.
        assert tracer.deliveries() == 2

    def test_filter_by_flow(self, fabric):
        install_lb(fabric, "ecmp")
        a = DctcpFlow(fabric, 0, 2, MSS)
        b = DctcpFlow(fabric, 1, 3, MSS)
        tracer = traced_run(
            fabric, [a, b], predicate=lambda p: p.flow_id == a.flow_id
        )
        moves = [e for e in tracer.events if e.kind in PACKET_MOVES]
        assert moves
        assert all(e.flow_id == a.flow_id for e in moves)

    def test_paths_used_tracks_spraying(self, fabric):
        install_lb(fabric, "drb")
        flow = DctcpFlow(fabric, 0, 2, 20 * MSS)
        tracer = traced_run(fabric, [flow])
        assert sorted(tracer.paths_used(flow.flow_id)) == [0, 1]

    def test_truncation(self, fabric):
        install_lb(fabric, "ecmp")
        tracer = traced_run(
            fabric, [DctcpFlow(fabric, 0, 2, 50 * MSS)], capacity=5
        )
        assert len(tracer.events) == 5
        assert tracer.truncated
        # The ring keeps the newest records and counts what it evicted.
        assert tracer.evicted == tracer.recorded - 5 > 0
        assert tracer.events[-1].kind == "flow_finish"

    def test_event_metadata(self, fabric):
        install_lb(fabric, "ecmp")
        tracer = traced_run(fabric, [DctcpFlow(fabric, 0, 2, MSS)])
        send = next(e for e in tracer.events if e.kind == "send")
        assert send.port == "host0->leaf0"
        assert send.packet_kind_name == "DATA"
        delivery = next(e for e in tracer.events if e.kind == "deliver")
        assert delivery.port is None
