"""Engine property tests: ordering, cancellation, stop(), queue stress.

``tests/test_sim_engine.py`` pins the engine's documented behaviours one
example at a time; this file attacks the same contract with adversarial
interleavings — hypothesis-generated schedules and a fixed-seed 10k-op
random walk checked against a brain-dead reference model (a sorted
list).  Any queue corruption, FIFO tie-break slip, or cancel/stop edge
case shows up as a divergence from the model.

Every test is parametrized over BOTH engines (binary heap and calendar
wheel): the contract is one contract, and the wheel must satisfy it
verbatim — same firing order, same clock behaviour, same cancel
semantics.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator, WheelSimulator

ENGINES = pytest.mark.parametrize(
    "make_sim", [Simulator, WheelSimulator], ids=["heap", "wheel"]
)


# --------------------------------------------------------------------- #
# Same-instant FIFO
# --------------------------------------------------------------------- #


@ENGINES
@given(
    st.lists(
        st.integers(min_value=0, max_value=5),  # few distinct times: max ties
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=60, deadline=None)
def test_same_instant_events_fire_in_scheduling_order(make_sim, delays):
    sim = make_sim()
    fired = []
    for label, delay in enumerate(delays):
        sim.schedule(delay, fired.append, (delay, label))
    sim.run()
    # Stable sort by time == time-order with FIFO tie-break by schedule
    # order, which is exactly the engine's contract.
    assert fired == sorted(fired, key=lambda item: item[0])


@ENGINES
def test_same_instant_callback_can_cancel_its_successor(make_sim):
    """An event may cancel a *later-scheduled* event at the same instant
    and the victim must not fire — the transport layer relies on this
    (ACK processing cancels the retransmit timer set in the same ns)."""
    sim = make_sim()
    fired = []
    victim = None

    def assassin():
        fired.append("assassin")
        sim.cancel(victim)

    sim.schedule(10, assassin)
    victim = sim.schedule(10, fired.append, "victim")
    sim.schedule(10, fired.append, "bystander")
    sim.run()
    assert fired == ["assassin", "bystander"]


@ENGINES
def test_cancel_then_fire_same_event_object_is_inert(make_sim):
    """A cancelled event stays dead even if cancel() raced with its pop:
    double-cancel, cancel-after-fire, and firing order are all safe."""
    sim = make_sim()
    fired = []
    event = sim.schedule(5, fired.append, "once")
    sim.run()
    assert fired == ["once"]
    event.cancel()  # cancel after it already fired: no-op
    sim.cancel(event)
    sim.run()
    assert fired == ["once"]


# --------------------------------------------------------------------- #
# stop() mid-callback
# --------------------------------------------------------------------- #


@ENGINES
def test_stop_mid_callback_preserves_remaining_events(make_sim):
    """stop() ends the run *after* the current callback; everything
    still queued must survive untouched and fire on the next run()."""
    sim = make_sim()
    fired = []

    def stopper():
        fired.append("stopper")
        sim.stop()
        sim.schedule(1, fired.append, "scheduled-after-stop")

    sim.schedule(10, stopper)
    sim.schedule(10, fired.append, "same-instant-survivor")
    sim.schedule(20, fired.append, "later-survivor")
    count = sim.run()
    assert count == 1
    assert fired == ["stopper"]
    assert sim.now == 10
    assert sim.pending == 3

    # The same queue resumes exactly where it left off.
    sim.run()
    assert fired == [
        "stopper",
        "same-instant-survivor",
        "scheduled-after-stop",
        "later-survivor",
    ]


@ENGINES
def test_stop_mid_callback_beats_until_clock_advance(make_sim):
    sim = make_sim()
    sim.schedule(10, sim.stop)
    sim.run(until=1_000)
    assert sim.now == 10, "stop() must pin the clock at the stopping event"


# --------------------------------------------------------------------- #
# Queue integrity under random schedule/cancel interleavings
# --------------------------------------------------------------------- #


def _run_against_model(make_sim, seed, n_ops):
    """Drive the engine with a random post/schedule/cancel/run
    interleaving and predict every firing with a reference model (sorted
    list of (time, seq) entries, cancelled entries removed).  The model
    counts sequence numbers itself — one per post or schedule — since a
    post hands nothing back to read one from."""
    rng = random.Random(seed)
    sim = make_sim()
    fired = []
    live = []  # model: list of (time, seq, event or None, label)
    seq = 0
    for op in range(n_ops):
        roll = rng.random()
        if roll < 0.55 or not live:
            delay = rng.randrange(0, 1_000)
            label = op
            if roll < 0.25:
                sim.post(delay, fired.append, label)
                event = None
            else:
                event = sim.schedule(delay, fired.append, label)
                assert event.seq == seq
            live.append((sim.now + delay, seq, event, label))
            seq += 1
        elif roll < 0.80:
            victim = rng.choice(live)
            if victim[2] is None:
                continue  # posted: nothing to cancel it with
            sim.cancel(victim[2])
            live.remove(victim)
        else:
            # Partial run: consume a random slice of the queue.
            budget = rng.randrange(1, 8)
            expected = sorted(live)[:budget]
            before = len(fired)
            sim.run(max_events=budget)
            assert fired[before:] == [entry[3] for entry in expected]
            for entry in expected:
                live.remove(entry)
    expected = sorted(live)
    before = len(fired)
    sim.run()
    assert fired[before:] == [entry[3] for entry in expected]
    # After a full run only cancelled husks may remain queued.
    assert sim.peek_time() is None


@ENGINES
def test_queue_survives_10k_random_schedule_cancel_interleavings(make_sim):
    _run_against_model(make_sim, seed=2024, n_ops=10_000)


@ENGINES
@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_queue_matches_model_on_short_random_walks(make_sim, seed):
    _run_against_model(make_sim, seed=seed, n_ops=120)


@ENGINES
def test_dense_ties_with_in_callback_rearms_fire_in_time_seq_order(make_sim):
    """2 000 events piled on 50 distinct instants (40 per instant, so
    nearly every comparison is a tie on time), cancels before and during
    the run, and callbacks that re-arm through ``rearm`` and
    ``schedule_pooled``: every arming that was not cancelled fires, in
    exactly ``sorted((time, seq))`` order."""
    rng = random.Random(7)
    sim = make_sim()
    # Quadratic spacing: neighbours share a wheel slot early on, the tail
    # lies past the default wheel's window (overflow + refill).
    instants = [i * i * 4_001 for i in range(1, 51)]
    armed, cancelled, fired = set(), set(), []
    budget = [1_500]  # in-callback re-arms, so the run terminates

    def later():
        choices = [t for t in instants if t >= sim.now]
        return rng.choice(choices) - sim.now

    def on_fire(cell):
        event = cell[0]
        fired.append((sim.now, event.seq))
        roll = rng.random()
        if budget[0] > 0 and roll < 0.5:
            budget[0] -= 1
            if roll < 0.25:
                fresh = [None]
                fresh[0] = sim.schedule_pooled(later(), on_fire, fresh)
                armed.add((fresh[0].time, fresh[0].seq))
            else:
                sim.rearm(event, later())
                armed.add((event.time, event.seq))
        elif roll > 0.9:
            victim = rng.choice(initial)
            key = (victim.time, victim.seq)
            # Unfired, never re-armed: still its initial arming.
            if victim.time > sim.now and victim.seq < len(initial):
                victim.cancel()
                cancelled.add(key)

    initial = []
    for i in range(2_000):
        cell = [None]
        cell[0] = sim.schedule(instants[i % 50], on_fire, cell)
        initial.append(cell[0])
        armed.add((cell[0].time, cell[0].seq))
    for victim in initial[::7]:
        sim.cancel(victim)
        cancelled.add((victim.time, victim.seq))
    sim.run()
    assert len({t for t, _ in fired}) == 50
    assert len(fired) > 2_000
    assert fired == sorted(armed - cancelled)
    assert sim.peek_time() is None


@ENGINES
def test_posts_from_callbacks_keep_time_seq_order(make_sim):
    """Callbacks that post at the current instant (wheel: insort into the
    live bucket), a few slots ahead, and past the window (wheel: overflow
    heap, then refill) — mixed with handles at the same instants — fire
    in (time, call order): every post and schedule draws one seq."""
    sim = make_sim()
    window = 1 << 23  # default wheel: 4096 ns x 2048 slots
    delays = [0, 0, 1, 4_096, 3 * 4_096 + 5, window + 7, 3 * window]
    calls = [0]
    expected, fired = [], []
    budget = [400]

    def arm(delay, posted):
        label = (sim.now + delay, calls[0])
        calls[0] += 1
        expected.append(label)
        if posted:
            sim.post(delay, on_fire, label)
        else:
            sim.schedule(delay, on_fire, label)

    def on_fire(label):
        fired.append(label)
        for i, delay in enumerate(delays):
            if budget[0] > 0 and (label[1] + i) % 3 != 0:
                budget[0] -= 1
                arm(delay, posted=(label[1] + i) % 4 != 0)

    arm(10, posted=True)
    arm(10, posted=False)
    assert sim.run() == len(expected) == 402
    assert fired == sorted(expected)
    assert sim.peek_time() is None
    if isinstance(sim, WheelSimulator):
        assert sim.wheel_overflow_pushes > 0 and sim.wheel_refilled > 0


_OP = st.tuples(
    st.sampled_from(["post", "schedule", "cancel", "rearm", "run"]),
    # Few distinct delays (ties), spanning slot, window and overflow of
    # both wheel geometries (8.4 ms and 1.05 ms windows).
    st.sampled_from([0, 1, 700, 4_096, 70_000, 2_000_000, 9_000_000]),
    st.integers(min_value=0, max_value=1 << 16),
)


@given(st.lists(_OP, min_size=1, max_size=120))
@settings(max_examples=60, deadline=None)
def test_dispatch_stream_equal_on_heap_wheel_and_auto_geometry(ops):
    """One drawn mix of post / schedule / cancel / rearm / partial
    run gives the same (time, label) firing stream on the heap, the
    default wheel (4.1 us slots, 8.4 ms window) and a finer, shorter one
    (1.0 us slots, 1.05 ms window): geometry changes the wheel's shape,
    never its output."""

    def stream(sim):
        fired, handles, state = [], [], {}

        def note(label):
            fired.append((sim.now, label))
            state[label] = "fired"  # a post's label is never looked up

        for label, (op, delay, pick) in enumerate(ops):
            if op == "post":
                sim.post(delay, note, label)
            elif op == "schedule":
                handles.append((label, sim.schedule(delay, note, label)))
                state[label] = "pending"
            elif op == "run":
                sim.run(max_events=pick % 5)
            elif handles:
                owner, handle = handles[pick % len(handles)]
                if op == "cancel" and state[owner] == "pending":
                    handle.cancel()
                    state[owner] = "cancelled"
                elif op == "rearm":
                    # Valid in every state: pending, fired or cancelled.
                    sim.rearm(handle, delay)
                    state[owner] = "pending"
        sim.run()
        assert sim.peek_time() is None
        return fired

    heap = stream(Simulator())
    assert heap == stream(WheelSimulator())
    assert heap == stream(WheelSimulator(slot_ns_bits=10, num_slot_bits=10))


# --------------------------------------------------------------------- #
# rearm() against a model that cancels and schedules a fresh entry
# --------------------------------------------------------------------- #

REARM_ENGINES = pytest.mark.parametrize(
    "make_sim",
    [Simulator, WheelSimulator, lambda: WheelSimulator(4, 3)],
    ids=["heap", "wheel", "tiny-wheel"],  # tiny: 16 ns slots x 8
)


def _rearm_walk(make_sim, seed, n_ops):
    """Drive the engine with a random mix of post / schedule / cancel /
    rearm (earlier, later or the same instant as the pending target;
    after a cancel; after a fire) / run(until=...) / run(max_events=...)
    / peek_time, and check every step against a model in which a rearm
    is a cancel plus a fresh entry: one ``(time, seq, label)`` per live
    arming, seqs counted one per post, schedule or rearm.  The dispatch
    stream, the clock and ``events_fired`` must agree after every op."""
    rng = random.Random(seed)
    sim = make_sim()
    fired = []
    live = {}  # label -> (time, seq, label): the model's queue
    handles = []  # (label, Event)
    expected, seq, now = [], 0, 0
    delays = [0, 1, 5, 100, 700, 4_096, 70_000, 2_000_000, 9_000_000]

    def note(label):
        fired.append((sim.now, label))

    def model_run(until=None, max_events=None):
        nonlocal now
        order = sorted(live.values())
        due = [e for e in order if until is None or e[0] <= until]
        if max_events is not None:
            due = due[:max_events]
        for entry in due:
            del live[entry[2]]
            expected.append((entry[0], entry[2]))
            now = entry[0]
        rest = [e for e in order if e not in due]
        if until is not None and now < until and (not rest or rest[0][0] > until):
            now = until

    for op in range(n_ops):
        roll = rng.random()
        if roll < 0.15 or not handles:
            delay = rng.choice(delays)
            if roll < 0.07:
                label = ("post", op)
                sim.post(delay, note, label)
            else:
                label = ("timer", op)
                handles.append((label, sim.schedule(delay, note, label)))
            live[label] = (now + delay, seq, label)
            seq += 1
        elif roll < 0.25:
            label, event = rng.choice(handles)
            sim.cancel(event)
            live.pop(label, None)
        elif roll < 0.65:
            label, event = rng.choice(handles)
            if label in live:
                left = live[label][0] - now
                mode = rng.randrange(3)
                if mode == 0 and left > 0:
                    delay = rng.randrange(left)  # earlier
                elif mode == 1:
                    delay = left  # the same instant
                else:
                    delay = left + rng.choice(delays[1:])  # later
            else:
                delay = rng.choice(delays)  # after a cancel or a fire
            assert sim.rearm(event, delay) is event
            assert (event.time, event.seq) == (now + delay, seq)
            live[label] = (now + delay, seq, label)
            seq += 1
        elif roll < 0.75:
            head = min(live.values(), default=None)
            assert sim.peek_time() == (None if head is None else head[0])
        elif roll < 0.88:
            until = now + rng.choice(delays)
            budget = rng.choice([None, None, 1, 3])
            sim.run(until=until, max_events=budget)
            model_run(until=until, max_events=budget)
        else:
            budget = rng.randrange(1, 6)
            sim.run(max_events=budget)
            model_run(max_events=budget)
        assert fired == expected
        assert sim.now == now
        assert sim.events_fired == len(expected)
        for label, event in handles:
            assert event.armed == (label in live)
    sim.run()
    model_run()
    assert fired == expected
    assert sim.peek_time() is None
    return sim


@REARM_ENGINES
def test_rearm_matches_cancel_plus_schedule_model_on_a_long_walk(make_sim):
    sim = _rearm_walk(make_sim, seed=36, n_ops=6_000)
    # The walk exercised every way a timer entry surfaces without firing.
    assert sim.stale_refiled > 0
    assert sim.stale_dropped > 0
    assert sim.cancelled_skipped > 0


@REARM_ENGINES
@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_rearm_matches_cancel_plus_schedule_model(make_sim, seed):
    _rearm_walk(make_sim, seed=seed, n_ops=150)


@ENGINES
def test_rearm_later_files_nothing_and_earlier_files_one_entry(make_sim):
    """A pending timer pushed later builds no Event and files no queue
    entry: its entry carries it forward when it surfaces (re-filed, not
    fired, not counted).  Pulled earlier, it files one entry, and the
    old one is dropped when it surfaces."""
    sim = make_sim()
    fired = []
    event = sim.schedule(100, fired.append, "rto")
    assert sim.pending == 1
    for delay in (150, 200, 300):
        sim.rearm(event, delay)
        assert sim.pending == 1
    assert sim.run(until=250) == 0
    assert sim.now == 250
    assert sim.stale_refiled == 1  # surfaced at 100, re-filed at 300
    sim.rearm(event, 20)  # earlier than the entry queued for 300
    assert sim.pending == 2
    assert sim.run() == 1
    assert fired == ["rto"] and sim.now == 270
    assert (sim.stale_refiled, sim.stale_dropped) == (1, 1)
    assert not event.armed
    sim.rearm(event, 10)
    event.cancel()
    assert sim.run() == 0 and sim.cancelled_skipped == 1
    if isinstance(sim, WheelSimulator):
        stats = sim.wheel_stats()
        assert (stats["stale_refiled"], stats["stale_dropped"],
                stats["cancelled_skipped"]) == (1, 1, 1)


# --------------------------------------------------------------------- #
# Wheel-specific structure: slots, overflow, rollover, periodic re-arm
# --------------------------------------------------------------------- #


def test_wheel_cancel_inside_open_slot():
    """Cancel an event that already sits in the *live* bucket (the slot
    the cursor has opened) — it must be skipped, not fired, and FIFO
    order among its same-instant survivors must hold."""
    sim = WheelSimulator()
    fired = []
    victims = []

    def killer():
        fired.append("killer")
        for victim in victims:
            sim.cancel(victim)

    sim.schedule(7, killer)
    victims.append(sim.schedule(7, fired.append, "dead-1"))
    sim.schedule(7, fired.append, "alive")
    victims.append(sim.schedule(7, fired.append, "dead-2"))
    sim.run()
    assert fired == ["killer", "alive"]
    assert sim.peek_time() is None


def test_wheel_schedule_at_current_instant_from_callback():
    """schedule(0, ...) from inside a firing event lands in the already
    open bucket and still fires this instant, after its siblings."""
    sim = WheelSimulator()
    fired = []

    def spawner():
        fired.append("spawner")
        sim.schedule(0, fired.append, "same-instant-child")

    sim.schedule(3, spawner)
    sim.schedule(3, fired.append, "sibling")
    sim.run()
    assert fired == ["spawner", "sibling", "same-instant-child"]
    assert sim.now == 3


def test_wheel_overflow_and_rollover_round_trip():
    """Events far beyond the wheel horizon must overflow to the heap,
    refill on rollover, and fire in exact time order with near events."""
    sim = WheelSimulator(slot_ns_bits=4, num_slot_bits=3)  # tiny: 16ns x 8
    horizon = (1 << 4) * (1 << 3)  # 128 ns
    fired = []
    times = [1, horizon - 1, horizon + 5, 3 * horizon, 10 * horizon + 7]
    for t in times:
        sim.schedule(t, fired.append, t)
    assert sim.wheel_overflow_pushes > 0
    sim.run()
    assert fired == sorted(times)
    stats = sim.wheel_stats()
    assert stats["rollovers"] > 0
    assert stats["refilled"] >= stats["overflow_pushes"] - len(sim._overflow)


def test_wheel_periodic_rearm_stays_in_slot():
    """schedule_periodic on the wheel re-arms by event reuse: the same
    Event object fires every tick, total events == tick count."""
    sim = WheelSimulator()
    ticks = []
    event = sim.schedule_periodic(10, lambda: ticks.append(sim.now))
    sim.schedule(95, sim.stop)
    sim.run()
    assert ticks == [10, 20, 30, 40, 50, 60, 70, 80, 90]
    sim.cancel(event)
    sim.run()
    assert len(ticks) == 9, "cancelled periodic must not re-arm"
