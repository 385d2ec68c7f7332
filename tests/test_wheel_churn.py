"""Cancelled-event retention in the wheel under schedule/cancel churn.

A workload that rapidly schedules and cancels timers (abandoned flap
timers; TCP's RTO did so on every ACK before it moved in place with
``rearm``) used to leave every cancelled event in
its slot list or in the overflow heap until the cursor physically
reached it — on a long-horizon run that is unbounded memory growth.  The
wheel now purges dead events lazily (amortized O(1), counted in
``wheel_stats()["purged"]``); these tests pin the bound.
"""

from repro.sim.engine import Simulator, WheelSimulator


def _noop() -> None:
    pass


def test_slot_churn_stays_bounded():
    """Cancel-heavy churn into one in-window slot must not grow the slot
    without bound."""
    sim = WheelSimulator()
    slot_span = 1 << sim._shift
    churn = 20_000
    for _ in range(churn):
        event = sim.schedule(10 * slot_span, _noop)  # in-window slot
        event.cancel()
    # Everything scheduled was cancelled; the purge must have reclaimed
    # nearly all of it (at most one threshold's worth may linger).
    assert sim.pending < 2 * sim._slot_purge_at
    assert sim.wheel_stats()["purged"] > churn * 0.9


def test_overflow_churn_stays_bounded():
    """Same bound for far-future (overflow heap) churn."""
    sim = WheelSimulator()
    window = (1 << sim._shift) * sim._num_slots
    churn = 20_000
    for _ in range(churn):
        event = sim.schedule(10 * window, _noop)  # beyond the window
        event.cancel()
    assert len(sim._overflow) < 2 * sim._overflow_purge_at
    assert sim.wheel_stats()["purged"] > churn * 0.9


def test_pooled_churn_recycles_into_free_list():
    """Churn through ``schedule_pooled`` with posts landing in the same
    slot.  (The id predates the removal of the event free list: the name
    is an alias of ``schedule`` now and nothing is recycled.)  The lazy
    purge bounds the dead handles and must never drop a posted entry,
    which has no handle and cannot be dead."""
    sim = WheelSimulator()
    slot_span = 1 << sim._shift
    churn = 5_000
    fired = []
    for i in range(churn):
        sim.schedule_pooled(10 * slot_span, _noop).cancel()
        if i % 50 == 0:
            sim.post(10 * slot_span, fired.append, i)
    # Every schedule allocates, so what is still parked in the slot is
    # the object population — it must stay bounded by the purge
    # threshold, not grow with the churn volume.
    population = sim.pending
    assert population < 2 * sim._slot_purge_at
    assert sim.wheel_stats()["purged"] > churn * 0.9
    # And the survivors still dispatch.
    live = [sim.schedule_pooled(10 * slot_span, _noop) for _ in range(100)]
    fired_count = sim.run()
    assert fired_count == len(live) + churn // 50
    assert fired == list(range(0, churn, 50))


def test_churn_preserves_dispatch_order():
    """Purging dead events must not disturb the (time, seq) total order
    of the survivors — compare against the heap engine."""

    def workload(sim):
        order = []
        slot_span = 1 << 12
        for i in range(400):
            delay = (i * 37) % 50 * slot_span + (i % 7)
            event = sim.schedule(delay, order.append, (delay, i))
            if i % 3 == 0:
                event.cancel()
            if i % 5 == 0:
                # Extra dead weight in the same slots.
                sim.schedule(delay, order.append, ("dead", i)).cancel()
        sim.run()
        return order

    assert workload(WheelSimulator()) == workload(Simulator())


def test_purge_threshold_backs_off_for_live_events():
    """A slot genuinely full of live events must not trigger an O(n)
    sweep per append: the threshold grows past the live population."""
    sim = WheelSimulator()
    slot_span = 1 << sim._shift
    n = 4_000
    for _ in range(n):
        sim.schedule(10 * slot_span, _noop)  # all live, same slot
    assert sim._slot_purge_at > n  # threshold escaped the population
    assert sim.pending == n
    assert sim.run() == n


def test_purge_drops_entries_superseded_by_an_earlier_rearm():
    """A timer pulled earlier files a new entry and leaves its old one
    behind, stale.  The purge drops those superseded entries (keeping
    each live timer's latest one), and every timer still fires once, at
    its last target, in (time, seq) order."""
    sim = WheelSimulator()
    base = 10 << sim._shift  # one in-window slot
    fired = []
    timers = [sim.schedule(base + 4_000, fired.append, k) for k in range(1_000)]
    for offset in (3_000, 2_000, 1_000):
        for timer in timers:
            sim.rearm(timer, base + offset)  # earlier: files a new entry
    # 4 000 entries went into the slot; 3 000 of them were superseded.
    assert sim.pending < 1_000 + 2 * 512
    assert sim.wheel_stats()["purged"] > 2_000
    assert sim.run() == 1_000
    assert fired == list(range(1_000)) and sim.now == base + 1_000
