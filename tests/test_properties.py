"""Property-based tests (hypothesis) on core data structures and invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.fct import percentile
from repro.net.packet import Packet, PacketKind
from repro.net.port import OutputPort
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.transport.rto import RtoEstimator
from repro.workload.distributions import DATA_MINING, WEB_SEARCH


# --------------------------------------------------------------------- #
# Engine ordering
# --------------------------------------------------------------------- #

@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_engine_fires_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=100),
    st.sets(st.integers(min_value=0, max_value=99)),
)
@settings(max_examples=50, deadline=None)
def test_engine_cancellation_exactness(delays, cancel_idx):
    """Exactly the non-cancelled events fire."""
    sim = Simulator()
    fired = []
    events = [
        sim.schedule(delay, fired.append, i) for i, delay in enumerate(delays)
    ]
    cancelled = {i for i in cancel_idx if i < len(events)}
    for i in cancelled:
        events[i].cancel()
    sim.run()
    assert set(fired) == set(range(len(delays))) - cancelled


# --------------------------------------------------------------------- #
# Port conservation
# --------------------------------------------------------------------- #

@given(
    st.lists(
        st.tuples(
            st.integers(min_value=64, max_value=9000),   # size
            st.integers(min_value=0, max_value=1),       # priority
        ),
        min_size=1,
        max_size=150,
    ),
    st.integers(min_value=10_000, max_value=200_000),     # buffer
)
@settings(max_examples=50, deadline=None)
def test_port_conserves_packets(packets, buffer_bytes):
    """enqueued = delivered + dropped, and backlog drains to zero."""
    sim = Simulator()
    delivered = []
    port = OutputPort(
        sim, "p", 10e9, 1_000, buffer_bytes, 50_000, forward=delivered.append
    )
    accepted = 0
    for i, (size, prio) in enumerate(packets):
        packet = Packet(0, 0, 1, i, size, PacketKind.DATA)
        packet.priority = prio
        if port.enqueue(packet):
            accepted += 1
    sim.run()
    assert len(delivered) == accepted
    assert accepted + port.drops_overflow == len(packets)
    assert port.backlog_bytes == 0
    assert port.bytes_sent == sum(p.size for p in delivered)


@given(st.lists(st.integers(min_value=64, max_value=1500), min_size=2, max_size=50))
@settings(max_examples=30, deadline=None)
def test_port_fifo_within_priority(sizes):
    sim = Simulator()
    delivered = []
    port = OutputPort(sim, "p", 10e9, 0, 10**9, 0, forward=delivered.append)
    for i, size in enumerate(sizes):
        port.enqueue(Packet(0, 0, 1, i, size, PacketKind.DATA))
    sim.run()
    assert [p.seq for p in delivered] == list(range(len(sizes)))


# --------------------------------------------------------------------- #
# Percentile
# --------------------------------------------------------------------- #

@given(
    st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False),
             min_size=1, max_size=500),
    st.floats(min_value=0, max_value=100),
)
@settings(max_examples=100, deadline=None)
def test_percentile_bounded_by_extremes(values, q):
    data = sorted(values)
    result = percentile(data, q)
    assert data[0] <= result <= data[-1]


@given(
    st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False),
             min_size=2, max_size=200)
)
@settings(max_examples=50, deadline=None)
def test_percentile_monotone_in_q(values):
    data = sorted(values)
    results = [percentile(data, q) for q in (0, 25, 50, 75, 99, 100)]
    assert results == sorted(results)


# --------------------------------------------------------------------- #
# Flow-size distributions
# --------------------------------------------------------------------- #

@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_distribution_samples_in_support(seed):
    rng = random.Random(seed)
    for dist in (WEB_SEARCH, DATA_MINING):
        lo = dist.points()[0][0]
        hi = dist.points()[-1][0]
        sample = dist.sample(rng)
        assert lo <= sample <= hi or sample == 1


@given(st.floats(min_value=0.001, max_value=10.0),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_scaled_distribution_scales_samples(factor, seed):
    base = WEB_SEARCH
    scaled = base.scaled(factor)
    a = base.sample(random.Random(seed))
    b = scaled.sample(random.Random(seed))
    assert abs(b - a * factor) <= max(2.0, a * factor * 0.01) or b == 1


# --------------------------------------------------------------------- #
# RTO estimator
# --------------------------------------------------------------------- #

@given(st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_rto_at_least_floor_and_finite(samples):
    rto = RtoEstimator()
    for s in samples:
        rto.update(s)
    assert rto.rto_ns >= rto.min_rto_ns
    assert rto.rto_ns <= rto.max_rto_ns * 64
    assert min(samples) * 0.5 <= rto.srtt <= max(samples) * 1.5


@given(st.integers(min_value=0, max_value=20))
@settings(max_examples=30, deadline=None)
def test_rto_backoff_monotone(n_backoffs):
    rto = RtoEstimator()
    values = []
    for _ in range(n_backoffs):
        values.append(rto.rto_ns)
        rto.backoff()
    values.append(rto.rto_ns)
    assert values == sorted(values)


# --------------------------------------------------------------------- #
# RNG streams
# --------------------------------------------------------------------- #

@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.text(min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_rng_streams_reproducible(seed, name):
    a = RngStreams(seed).get(name).random()
    b = RngStreams(seed).get(name).random()
    assert a == b
