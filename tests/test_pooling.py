"""Packet pooling: recycling must be invisible.

Pooling changes where objects come from, never what the simulation
computes.  These tests pin the three contracts:

1. ``PacketPool.acquire`` resets *every* field — a recycled packet is
   bit-for-bit what the constructor would build;
2. recycling is suspended while observation hooks are attached (the
   invariant checker tracks packets by identity);
3. ``schedule_pooled`` — events are no longer pooled; the name is an
   alias of ``schedule`` — keeps the engine's (time, seq) dispatch order
   and returns a cancellable handle.
"""

import dataclasses

from repro.net.packet import (
    ACK_BYTES,
    PRIO_HIGH,
    PRIO_LOW,
    Packet,
    PacketKind,
    PacketPool,
    clone_packet,
    make_ack,
    make_probe,
    make_probe_reply,
)
from repro.sim.engine import Simulator, WheelSimulator
from repro.experiments.runner import run_experiment
from repro.validate import golden

from tests.conftest import make_fabric


def _packet_fields(packet: Packet) -> dict:
    return {name: getattr(packet, name) for name in Packet.__slots__}


def _dirty(packet: Packet) -> None:
    """Scribble on every mutable field a previous life could have set."""
    packet.ack_seq = 99
    packet.ce = True
    packet.ece = True
    packet.ts_echo = 123_456
    packet.is_retx = True
    packet.conga_metric = 7
    packet.route = (object(),)
    packet.hop = 3


# --------------------------------------------------------------------- #
# PacketPool field hygiene
# --------------------------------------------------------------------- #


def test_acquire_resets_every_field():
    pool = PacketPool()
    first = pool.acquire(1, 0, 3, 5, 1500, PacketKind.DATA)
    _dirty(first)
    pool.release(first)
    recycled = pool.acquire(
        2, 1, 2, 0, 1500, PacketKind.DATA, path_id=1, priority=PRIO_LOW
    )
    assert recycled is first  # actually reused, not a fresh allocation
    fresh = Packet(2, 1, 2, 0, 1500, PacketKind.DATA, path_id=1)
    assert _packet_fields(recycled) == _packet_fields(fresh)


def test_pool_counters_track_lifecycle():
    pool = PacketPool()
    a = pool.acquire(1, 0, 1, 0, 1500, PacketKind.DATA)
    pool.release(a)
    pool.acquire(1, 0, 1, 1, 1500, PacketKind.DATA)
    stats = pool.stats()
    assert stats == {"allocated": 1, "reused": 1, "released": 1, "free": 0}


def test_pooled_ack_matches_make_ack():
    pool = PacketPool()
    data = Packet(4, 0, 3, 17, 1500, PacketKind.DATA, path_id=1)
    data.ce = True
    data.ts_echo = 42_000
    data.is_retx = True
    data.conga_metric = 5
    pooled = pool.ack(data, ack_seq=18, now=50_000)
    plain = make_ack(data, ack_seq=18, now=50_000)
    assert _packet_fields(pooled) == _packet_fields(plain)
    assert pooled.size == ACK_BYTES and pooled.priority == PRIO_HIGH


def test_pooled_probe_and_reply_match_builders():
    pool = PacketPool()
    pooled = pool.probe(9, 0, 3, 1, now=77_000)
    plain = make_probe(9, 0, 3, 1, now=77_000)
    assert _packet_fields(pooled) == _packet_fields(plain)
    pooled.ce = True  # marked in the fabric
    assert _packet_fields(pool.probe_reply(pooled)) == _packet_fields(
        make_probe_reply(pooled)
    )


def test_clone_packet_snapshots_fields_without_route():
    original = Packet(4, 0, 3, 17, 1500, PacketKind.DATA, path_id=1)
    _dirty(original)
    copy = clone_packet(original)
    assert copy is not original
    # Same wire-visible state...
    for name in Packet.__slots__:
        if name in ("route", "hop"):
            continue
        assert getattr(copy, name) == getattr(original, name), name
    # ...but no pinned route: the clone is a snapshot, not a live packet.
    assert copy.route == () and copy.hop == 0


# --------------------------------------------------------------------- #
# Release gating under hooks
# --------------------------------------------------------------------- #


def test_fast_path_flags_follow_hook_lifecycle():
    fabric = make_fabric()

    class _Tracer:
        def on_send(self, packet):
            pass

        def on_forward(self, packet):
            pass

        def on_flow_start(self, flow):
            pass

        def on_flow_finish(self, flow):
            pass

    ports = fabric.topology.all_ports()
    assert fabric._fast and all(not p._guarded for p in ports)
    fabric.hooks.attach(tracer=_Tracer())
    assert not fabric._fast and all(p._guarded for p in ports)
    fabric.hooks.detach(tracer=True)
    assert fabric._fast and all(not p._guarded for p in ports)


def test_drop_predicates_toggle_port_guard():
    fabric = make_fabric()
    port = fabric.topology.all_ports()[0]
    assert not port._guarded
    predicate = lambda packet, now: False
    port.add_drop_predicate(predicate)
    assert port._guarded
    port.remove_drop_predicate(predicate)
    assert not port._guarded


def test_recycling_happens_on_fast_path_runs():
    config = dataclasses.replace(
        golden.golden_configs()[0], validate=False, trace=False
    )
    result = run_experiment(config)
    stats = result.fabric.packet_pool.stats()
    assert stats["released"] > 0
    assert stats["reused"] > 0
    # Steady state: allocations are a small fraction of total traffic.
    assert stats["reused"] > stats["allocated"]


def test_recycling_suspended_under_validation():
    config = dataclasses.replace(golden.golden_configs()[0], validate=True)
    result = run_experiment(config)
    stats = result.fabric.packet_pool.stats()
    # The checker tracks packets by identity, so nothing may be released
    # back for reuse while it is attached.
    assert stats["released"] == 0
    assert stats["reused"] == 0


# --------------------------------------------------------------------- #
# The schedule_pooled alias
# --------------------------------------------------------------------- #


def test_schedule_pooled_preserves_dispatch_order():
    def workload(sim, pooled):
        order = []
        schedule = sim.schedule_pooled if pooled else sim.schedule
        for i in range(500):
            schedule((i * 131) % 977, order.append, i)
        sim.run()
        return order

    for engine in (Simulator, WheelSimulator):
        assert workload(engine(), True) == workload(engine(), False)


def test_schedule_pooled_returns_a_cancellable_handle():
    for engine in (Simulator, WheelSimulator):
        sim = engine()
        fired = []
        sim.schedule_pooled(10, fired.append, "dead").cancel()
        live = sim.schedule_pooled(10, fired.append, "live")
        assert sim.run() == 1
        assert fired == ["live"]
        assert not live.cancelled
