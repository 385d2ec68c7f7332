"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import (
    Event,
    NS_PER_MS,
    NS_PER_SEC,
    NS_PER_US,
    Simulator,
    WheelSimulator,
    microseconds,
    milliseconds,
    seconds,
)


class TestTimeConversions:
    def test_seconds(self):
        assert seconds(1) == NS_PER_SEC
        assert seconds(0.5) == NS_PER_SEC // 2

    def test_milliseconds(self):
        assert milliseconds(10) == 10 * NS_PER_MS

    def test_microseconds(self):
        assert microseconds(500) == 500 * NS_PER_US

    def test_fractional_rounds(self):
        assert microseconds(0.5) == 500


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(300, order.append, "c")
        sim.schedule(100, order.append, "a")
        sim.schedule(200, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self, sim):
        order = []
        for tag in "abcde":
            sim.schedule(50, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(123, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [123]
        assert sim.now == 123

    def test_schedule_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_nested_scheduling(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(10, lambda: order.append("inner"))

        sim.schedule(5, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 15

    def test_args_passed_through(self, sim):
        got = []
        sim.schedule(1, lambda a, b: got.append((a, b)), 1, "x")
        sim.run()
        assert got == [(1, "x")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(10, fired.append, 1)
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_none_is_noop(self, sim):
        sim.cancel(None)  # must not raise

    def test_double_cancel_is_safe(self, sim):
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancel_inside_callback(self, sim):
        fired = []
        later = sim.schedule(20, fired.append, "later")
        sim.schedule(10, later.cancel)
        sim.run()
        assert fired == []


class TestRunControl:
    def test_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(10, fired.append, "early")
        sim.schedule(100, fired.append, "late")
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50
        sim.run()
        assert fired == ["early", "late"]

    def test_until_advances_clock_without_events(self, sim):
        sim.run(until=1_000)
        assert sim.now == 1_000

    def test_max_events(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(i + 1, fired.append, i)
        count = sim.run(max_events=3)
        assert count == 3
        assert fired == [0, 1, 2]

    @pytest.mark.parametrize("engine", [Simulator, WheelSimulator])
    def test_event_cap_before_until_keeps_clock_monotone(self, engine):
        """Stopped by ``max_events`` with live events still due before
        ``until``, the clock stays at the last fired event — jumping to
        ``until`` would make the next run() move it backwards."""
        sim = engine()
        times = []
        for t in (10, 20, 30):
            sim.schedule(t, lambda: times.append(sim.now))
        assert sim.run(until=100, max_events=1) == 1
        assert sim.now == 10
        assert sim.peek_time() == 20
        assert sim.run(until=100) == 2
        assert times == [10, 20, 30]
        assert sim.now == 100

    def test_run_returns_events_fired(self, sim):
        for i in range(5):
            sim.schedule(i, lambda: None)
        assert sim.run() == 5
        assert sim.events_fired == 5

    def test_peek_time_skips_cancelled(self, sim):
        first = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        first.cancel()
        assert sim.peek_time() == 20

    def test_peek_time_empty(self, sim):
        assert sim.peek_time() is None


@pytest.mark.parametrize("engine", [Simulator, WheelSimulator])
class TestPost:
    """``post`` is ``schedule`` without the handle: same clock, same
    sequence-number draw, same place in the dispatch order."""

    def test_posted_and_scheduled_fire_in_call_order(self, engine):
        sim = engine()
        order = []
        sim.post(50, order.append, "a")
        sim.schedule(50, order.append, "b")
        sim.post(50, order.append, "c")
        sim.schedule_at(50, order.append, "d")
        sim.post(10, order.append, "first")
        assert sim.run() == 5
        assert order == ["first", "a", "b", "c", "d"]
        assert sim.now == 50

    def test_post_returns_no_handle_and_passes_args(self, engine):
        sim = engine()
        got = []
        assert sim.post(1, lambda a, b: got.append((a, b)), 1, "x") is None
        sim.run()
        assert got == [(1, "x")]

    def test_cancelled_handle_between_posts_is_skipped_not_counted(self, engine):
        sim = engine()
        order = []
        sim.post(10, order.append, "before")
        sim.schedule(10, order.append, "dead").cancel()
        sim.post(10, order.append, "after")
        assert sim.run() == 2
        assert order == ["before", "after"]
        assert sim.events_fired == 2

    def test_until_leaves_a_later_post_pending(self, engine):
        sim = engine()
        order = []
        sim.post(100, order.append, "at-t")
        sim.post(101, order.append, "past-t")
        assert sim.run(until=100) == 1
        assert order == ["at-t"]
        assert sim.now == 100
        assert sim.pending == 1
        assert sim.peek_time() == 101
        assert sim.run() == 1
        assert order == ["at-t", "past-t"]
        assert sim.now == 101

    @pytest.mark.parametrize("next_is_post", [True, False])
    def test_max_events_stops_with_the_next_still_first(self, engine, next_is_post):
        sim = engine()
        order = []
        for i in range(3):
            sim.post(10 + i, order.append, i)
        if next_is_post:
            sim.post(20, order.append, "next")
        else:
            sim.schedule(20, order.append, "next")
        sim.post(20, order.append, "last")
        assert sim.run(max_events=3) == 3
        assert order == [0, 1, 2]
        assert sim.now == 12
        assert sim.peek_time() == 20
        assert sim.pending == 2
        assert sim.run(max_events=1) == 1
        assert order[-1] == "next"
        sim.run()
        assert order == [0, 1, 2, "next", "last"]

    def test_negative_delay_rejected(self, engine):
        sim = engine()
        with pytest.raises(ValueError):
            sim.post(-1, lambda: None)
        assert sim.pending == 0

    def test_peek_time_and_pending_with_posts_at_the_head(self, engine):
        sim = engine()
        dead = sim.schedule(5, lambda: None)
        sim.post(7, lambda: None)
        sim.schedule(9, lambda: None)
        assert sim.pending == 3
        assert sim.peek_time() == 5
        dead.cancel()
        assert sim.peek_time() == 7  # a post is never "cancelled"
        assert sim.run() == 2


class TestStop:
    def test_stop_ends_run_at_current_event(self, sim):
        fired = []
        sim.schedule(10, fired.append, "a")

        def stop_now():
            fired.append("stop")
            sim.stop()

        sim.schedule(20, stop_now)
        sim.schedule(30, fired.append, "never")
        sim.run()
        assert fired == ["a", "stop"]
        assert sim.now == 20

    def test_stop_with_until_leaves_clock_at_stop_event(self, sim):
        sim.schedule(10, sim.stop)
        sim.schedule(20, lambda: None)
        sim.run(until=1_000)
        assert sim.now == 10  # not advanced to `until`

    def test_stop_does_not_persist_to_next_run(self, sim):
        fired = []
        sim.schedule(10, sim.stop)
        sim.run()
        sim.schedule(10, fired.append, "second-run")
        sim.run()
        assert fired == ["second-run"]

    def test_stop_outside_run_is_noop(self, sim):
        fired = []
        sim.stop()
        sim.schedule(10, fired.append, 1)
        sim.run()
        assert fired == [1]


class TestReentrancy:
    def test_reentrant_run_raises(self, sim):
        errors = []

        def nested():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule(10, nested)
        sim.run()
        assert len(errors) == 1

    def test_engine_still_usable_after_reentrant_attempt(self, sim):
        sim.schedule(10, lambda: pytest.raises(RuntimeError, sim.run))
        sim.run()
        fired = []
        sim.schedule(5, fired.append, 1)
        assert sim.run() == 1
        assert fired == [1]


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def trace():
            local = Simulator()
            order = []
            for i in range(50):
                local.schedule((i * 37) % 17 + 1, order.append, i)
            local.run()
            return order

        assert trace() == trace()


class TestEventOrdering:
    def test_event_defines_no_ordering(self):
        """Queues order ``(time, seq, ...)`` entries on the two ints;
        a comparison that reached the event would be a seq collision, and
        must fail loudly instead of taking a slow path."""
        noop = lambda: None  # noqa: E731
        with pytest.raises(TypeError):
            Event(1, 0, noop, ()) < Event(1, 1, noop, ())
