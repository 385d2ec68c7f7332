"""Event loop with an integer-nanosecond clock.

Time is kept in integer nanoseconds so that event ordering is exact and
runs are bit-reproducible across platforms.  Events scheduled for the same
instant fire in scheduling order (FIFO), which the transport layer relies
on (e.g. an ACK processed before the retransmission timer set in the same
nanosecond).

Every run executes on :class:`WheelSimulator` (what
:func:`make_simulator` builds): a hierarchical calendar queue where
near-future events land in fixed-width time slots (O(1) schedule/cancel
via slot-local lists) and far-future events overflow into a fallback heap
that refills the wheel as the cursor advances.  Its base class
:class:`Simulator` — a single binary heap, the original engine — is the
reference the tests compare it against.

Both dispatch events in exactly the same total order — ``(time, seq)``
with ``seq`` monotonically increasing per schedule — so results are
bit-identical whichever engine runs them (enforced by the golden grid and
the engine-differential test suite).  Every queue container of both
engines holds 4-tuples that start with ``(time, seq)``, so that order is
decided by C-level int comparisons inside ``heapq``/``bisect``/
``list.sort`` and never calls back into Python.

Entries come in two kinds.  A *posted* callback (:meth:`Simulator.post`:
fire-and-forget, nearly every event of a run — a port's tx completion,
the packet's arrival at the next hop, flow arrivals, probe and BFD
rounds) is ``(time, seq, fn, args)``: the queue entry is the whole event,
with no handle and nothing to cancel.  A *timer* (``schedule``,
``schedule_at``, ``rearm``, ``schedule_periodic``) is ``(time, seq,
None, event)``; one ``fn is None`` test per dispatch tells them apart
and only that branch reads an :class:`Event`.

A timer moves without churning the queue.  :meth:`Simulator.rearm`
draws the next seq — the one draw a cancel plus a fresh ``schedule``
would make — and records ``(time, seq)`` as the event's *target*, but
files a queue entry only when the target is earlier than the entry the
event already has queued.  An entry whose seq is not its event's target
is *stale*: when the loop, :meth:`~Simulator.peek_time` or a refill
meets it, the event's latest filed entry is re-filed at the target and
any older one is dropped; neither fires nor counts as an event.  So an
RTO that every ACK pushes later costs a few attribute writes per ACK and
one re-file per timeout period, and the dispatch order is still exactly
``(time, seq)``.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

#: Sentinel "never" time: larger than any reachable simulation clock.
_NEVER = (1 << 63) - 1

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


def seconds(value: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(round(value * NS_PER_SEC))


def milliseconds(value: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return int(round(value * NS_PER_MS))


def microseconds(value: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(round(value * NS_PER_US))


class Event:
    """The handle of a *timer*: a callback that may be cancelled or moved.

    Only callers that may need to ``cancel()`` or re-arm get one (the RTO,
    samplers, periodic ticks); fire-and-forget callbacks go through
    :meth:`Simulator.post` and have no ``Event`` at all.

    ``time`` and ``seq`` are the event's *target*, its place in the
    dispatch order.  :meth:`Simulator.rearm` moves the target in place
    from any state — pending, fired, cancelled or never armed — so one
    object serves a timer for its whole life.  ``filed_time`` and
    ``filed_seq`` name the latest queue entry filed for it (``filed_time
    == _NEVER``: none is queued).  The target is filed only when it is
    earlier than that entry; otherwise the entry, once it surfaces as
    *stale* (seq not the target's), is re-filed at the target.
    ``cancel()`` marks the event dead; the engine skips dead entries when
    they surface, which is cheaper than removing them from the queue.

    Events define no ordering: every queue holds ``(time, seq, None,
    event)`` entries and ``seq`` is unique, so comparisons are decided on
    machine ints in C and never reach the event.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "filed_time", "filed_seq")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Built unfiled: only Simulator.rearm files an entry.
        self.filed_time = _NEVER
        self.filed_seq = -1

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self.cancelled = True

    @property
    def armed(self) -> bool:
        """Whether the event will fire: armed, and neither fired nor
        cancelled since."""
        return not self.cancelled and self.filed_time != _NEVER

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self.armed else "cancelled" if self.cancelled else "idle"
        return f"Event(t={self.time}, fn={getattr(self.fn, '__name__', self.fn)}, {state})"


class Simulator:
    """Minimal discrete-event simulator (binary-heap scheduler).

    Usage::

        sim = Simulator()
        sim.schedule(1000, callback, arg1, arg2)
        sim.run()

    The loop stops when the queue drains, when ``until`` is reached, or
    when ``max_events`` events have fired.
    """

    def __init__(self) -> None:
        self.now: int = 0
        #: ``(time, seq, fn, args)`` / ``(time, seq, None, event)``
        #: entries, heap-ordered.
        self._queue: list[tuple] = []
        self._seq: int = 0
        self._events_fired: int = 0
        self._running = False
        self._stop_requested = False
        #: Optional invariant checker (see :mod:`repro.validate`).  When
        #: ``None`` — the default — the event loop pays one predictable
        #: branch per event and nothing else.  Attach via
        #: :func:`repro.hooks.attach`.
        self._checker = None
        #: Optional event-loop profiler (see
        #: :class:`repro.telemetry.series.LoopProfiler`); same nullable
        #: pattern — one branch per event when off.
        self._profiler = None
        # What surfaced without firing (see _skip); the wheel reports
        # them in wheel_stats().
        self.stale_refiled = 0
        self.stale_dropped = 0
        self.cancelled_skipped = 0

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def schedule(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay_ns`` nanoseconds from now."""
        return self.rearm(Event(_NEVER, -1, fn, args), delay_ns)

    # Kept for benchmarks/suite/layers.py and benchmarks/bench_hotpath.py,
    # which call it and ``.cancel()`` its result; remove with them.
    schedule_pooled = schedule

    def post(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay_ns`` nanoseconds from now, with no
        way to cancel it.

        Same clock, same one sequence-number draw, hence the same place
        in the dispatch order as :meth:`schedule` — but no :class:`Event`
        is built and no handle comes back: the queue entry is the event.
        The per-packet path (tx completion, propagation) lives on this.
        ``fn`` must be callable: ``None`` there marks a cancellable entry.
        """
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ns})")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + delay_ns, seq, fn, args))

    def schedule_at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time_ns < self.now:
            raise ValueError(
                f"cannot schedule at t={time_ns} before now={self.now}"
            )
        return self.schedule(time_ns - self.now, fn, *args)

    def timer(self, fn: Callable[..., Any], *args: Any) -> Event:
        """An unarmed handle for ``fn(*args)``: nothing fires until
        :meth:`rearm` arms it.  A timer that is armed over and over (a
        flow's RTO, a periodic tick) lives on one such handle."""
        return Event(_NEVER, -1, fn, args)

    def rearm(self, event: Event, delay_ns: int) -> Event:
        """(Re-)arm ``event`` to fire ``delay_ns`` nanoseconds from now,
        whatever its state: pending, fired, cancelled or never armed.

        Draws one fresh sequence number — the draw a ``cancel()`` plus a
        new :meth:`schedule` would make — so the event fires exactly
        where that new event would, and every engine produces the same
        dispatch stream.  No :class:`Event` is built, and a queue entry
        is filed only when the new deadline is earlier than the entry the
        event already has queued; a later one (the RTO pushed back by an
        ACK) is left for that entry to carry forward when it surfaces.
        """
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ns})")
        event.time = time = self.now + delay_ns
        event.seq = seq = self._seq
        self._seq = seq + 1
        event.cancelled = False
        if time < event.filed_time:
            event.filed_time = time
            event.filed_seq = seq
            self._insert((time, seq, None, event))
        return event

    def _insert(self, entry: tuple) -> None:
        heappush(self._queue, entry)

    def _skip(self, seq: int, event: Event) -> None:
        """Settle a timer entry ``(…, seq, None, event)``, already taken
        out of its container, that must not fire: it is stale (``seq`` is
        not the event's target) or the event is cancelled.  The latest
        filed entry of a live event is re-filed at its target.  Any other
        entry is dropped; dropping a cancelled event's latest one un-files
        the event, so its next :meth:`rearm` files afresh."""
        if seq == event.filed_seq:
            if not event.cancelled:
                event.filed_time = time = event.time
                event.filed_seq = target = event.seq
                self._insert((time, target, None, event))
                self.stale_refiled += 1
                return
            event.filed_time = _NEVER
            self.cancelled_skipped += 1
        else:
            self.stale_dropped += 1

    def schedule_periodic(
        self, period_ns: int, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``fn(*args)`` every ``period_ns``, starting one period
        from now.

        The returned handle re-arms itself (:meth:`rearm`) after each
        firing: one :class:`Event` object is reused for the whole chain.
        ``cancel()`` the handle to stop the chain — from outside or from
        within the callback itself.
        """
        if period_ns <= 0:
            raise ValueError(f"period must be positive, got {period_ns}")
        event: Optional[Event] = None

        def tick() -> None:
            fn(*args)
            if not event.cancelled:
                self.rearm(event, period_ns)

        # Keep profiler attribution on the user callback, not the shim.
        tick.__qualname__ = getattr(fn, "__qualname__", repr(fn))
        tick.__name__ = getattr(fn, "__name__", "tick")
        event = self.schedule(period_ns, tick)
        return event

    def cancel(self, event: Optional[Event]) -> None:
        """Cancel an event (no-op for ``None`` or already-cancelled events)."""
        if event is not None:
            event.cancel()

    @property
    def events_fired(self) -> int:
        """Number of events executed so far."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of entries still queued, counting the cancelled and
        stale timer entries that have not surfaced yet."""
        return len(self._queue)

    def peek_time(self) -> Optional[int]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        queue = self._queue
        while queue:
            time, seq, fn, event = queue[0]
            if fn is None and (seq != event.seq or event.cancelled):
                heappop(queue)
                self._skip(seq, event)
                continue
            return time
        return None

    def stop(self) -> None:
        """Ask the running loop to return after the current event.

        Lets a callback (e.g. "last flow finished") end the run at the
        exact event that satisfied the stop condition instead of polling
        in time slices.  A no-op outside :meth:`run`.
        """
        self._stop_requested = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop.

        Args:
            until: stop once the clock would pass this absolute time.  The
                clock is advanced to ``until`` on exit, unless a callback
                called :meth:`stop` first or ``max_events`` ended the loop
                with live events still due at or before ``until`` (jumping
                past them would make the next ``run()`` move the clock
                backwards).
            max_events: stop after this many events have fired.

        Returns:
            The number of events fired during this call.

        Raises:
            RuntimeError: if called from inside an event callback — the
                loop is not re-entrant.
        """
        if self._running:
            raise RuntimeError(
                "Simulator.run() is not re-entrant; "
                "use schedule()/stop() from within callbacks"
            )
        queue = self._queue
        pop = heappop
        horizon = _NEVER if until is None else until
        limit = _NEVER if max_events is None else max_events
        checker = self._checker
        profiler = self._profiler
        fired = 0
        self._stop_requested = False
        self._running = True
        try:
            while queue:
                # Pop first: the one entry past ``until`` / ``max_events``
                # is pushed back — ``(time, seq)`` is unique, so the heap
                # holds what it did.
                entry = pop(queue)
                time, seq, fn, args = entry
                if time > horizon or fired >= limit:
                    heappush(queue, entry)
                    break
                if fn is None:
                    # A timer: ``args`` is the Event.
                    if seq != args.seq or args.cancelled:
                        self._skip(seq, args)
                        continue
                    args.filed_time = _NEVER
                    fn, args = args.fn, args.args
                if checker is not None:
                    checker.on_advance(time, self.now)
                self.now = time
                fired += 1
                if profiler is not None:
                    profiler.on_event(time, fn)
                fn(*args)
                if self._stop_requested:
                    break
        finally:
            self._events_fired += fired
            self._running = False
        if until is not None:
            self._advance_clock(until)
        return fired

    def _advance_clock(self, until: int) -> None:
        """Move the idle clock up to ``until`` after a bounded run, unless
        :meth:`stop` ended it or live events at or before ``until`` remain
        (``max_events`` cut the loop short)."""
        if not self._stop_requested and self.now < until:
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until


class WheelSimulator(Simulator):
    """Hierarchical calendar queue: a slotted timer wheel over a fallback
    heap.

    The wheel covers a sliding window of ``num_slots`` fixed-width time
    slots ahead of the cursor.  Scheduling an event inside the window is
    an O(1) integer shift + list append; events beyond the window go to
    an **overflow heap** and are refilled into slots as the cursor
    advances (rollover).  When the cursor reaches a slot, the slot is
    *opened*: its entries are sorted once (plain C tuple sort, decided
    on ``(time, seq)``) into the drain **bucket** and popped by index;
    events scheduled at or before the cursor's slot while draining are
    merged into the bucket by binary insertion, preserving the exact
    dispatch order of the heap engine.

    Dispatch order, same-instant FIFO, cancellation semantics, ``stop()``
    and ``run(until=..., max_events=...)`` behaviour are all identical to
    :class:`Simulator` — only the queue mechanics differ.

    Args:
        slot_ns_bits: log2 of the slot width in nanoseconds (default 12 →
            4096 ns slots: one slot spans a few packet serializations at
            10 Gbps, so port tx chains stay in-slot).
        num_slot_bits: log2 of the slot count (default 11 → 2048 slots,
            an ~8.4 ms window that holds RTO timers and samplers; only
            flow arrivals and drain deadlines overflow).
    """

    def __init__(self, slot_ns_bits: int = 12, num_slot_bits: int = 11) -> None:
        super().__init__()
        if slot_ns_bits < 1 or num_slot_bits < 1:
            raise ValueError("wheel geometry bits must be positive")
        self._shift = slot_ns_bits
        self._num_slots = 1 << num_slot_bits
        self._mask = self._num_slots - 1
        #: Like every container here, slots hold the 4-tuple entries.
        self._slots: list[list] = [[] for _ in range(self._num_slots)]
        #: Absolute index of the slot the cursor occupies (== drained).
        self._cur_slot = 0
        #: Events living in slot lists (bucket and overflow not counted).
        self._wheel_count = 0
        #: Sorted drain list of the opened slot + anything scheduled at or
        #: before the cursor while draining.
        self._bucket: list[tuple] = []
        self._bucket_pos = 0
        #: Far-future events, a heap.
        self._overflow: list[tuple] = []
        # Lazy purge of dead timer entries: a schedule/cancel churn
        # workload (abandoned timers) would otherwise grow slot lists and
        # the overflow heap without bound until the cursor reaches them.
        # When a container crosses its threshold the dead entries are
        # filtered out in place; thresholds double when a purge finds
        # mostly-live entries, keeping the cost amortized O(1).
        self._slot_purge_at = 512
        self._overflow_purge_at = 256
        # Occupancy / rollover counters, surfaced via wheel_stats() and
        # the telemetry LoopProfiler.
        self.wheel_rollovers = 0
        self.wheel_overflow_pushes = 0
        self.wheel_refilled = 0
        self.wheel_cursor_jumps = 0
        self.wheel_slots_opened = 0
        self.wheel_max_bucket = 0
        self.wheel_purged = 0

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def _insert(self, entry: tuple) -> None:
        """File a handle entry; :meth:`post` carries the same three
        branches in line."""
        idx = entry[0] >> self._shift
        cur = self._cur_slot
        if idx > cur:
            if idx - cur <= self._num_slots:
                slot = self._slots[idx & self._mask]
                slot.append(entry)
                self._wheel_count += 1
                if len(slot) >= self._slot_purge_at:
                    self._purge_slot(slot)
            else:
                heappush(self._overflow, entry)
                self.wheel_overflow_pushes += 1
                if len(self._overflow) >= self._overflow_purge_at:
                    self._purge_overflow()
        else:
            # At (or before) the cursor's slot: merge into the live drain
            # bucket.  The new event's seq is the largest allocated, so
            # it lands after every equal-time event — FIFO.
            insort(self._bucket, entry, self._bucket_pos)

    @staticmethod
    def _live(entries: list) -> list:
        """The entries of ``entries`` worth keeping: posts, and the
        latest filed entry of each timer that is not cancelled (stale or
        not: a stale one is re-filed when it surfaces).  Dropping a
        cancelled timer's latest entry un-files it, as :meth:`_skip`
        does."""
        live = []
        for entry in entries:
            event = entry[3]
            if entry[2] is not None:
                live.append(entry)
            elif entry[1] == event.filed_seq:
                if event.cancelled:
                    event.filed_time = _NEVER
                else:
                    live.append(entry)
        return live

    def _purge_slot(self, slot: list) -> None:
        """Filter dead timer entries out of one slot list, in place."""
        live = self._live(slot)
        removed = len(slot) - len(live)
        if removed:
            slot[:] = live
            self._wheel_count -= removed
            self.wheel_purged += removed
        if removed * 4 < len(live):
            # Mostly genuinely-live events: raise the threshold so a full
            # slot does not trigger a fruitless O(n) sweep per append.
            self._slot_purge_at = max(self._slot_purge_at, 2 * len(live) + 64)

    def _purge_overflow(self) -> None:
        """Filter dead timer entries out of the overflow heap, in place."""
        overflow = self._overflow
        live = self._live(overflow)
        removed = len(overflow) - len(live)
        if removed:
            overflow[:] = live
            heapify(overflow)
            self.wheel_purged += removed
        self._overflow_purge_at = max(256, 2 * len(live))

    def post(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ns})")
        time = self.now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        # _insert's three branches in line: this is the per-packet path.
        idx = time >> self._shift
        cur = self._cur_slot
        if idx > cur:
            if idx - cur <= self._num_slots:
                slot = self._slots[idx & self._mask]
                slot.append((time, seq, fn, args))
                self._wheel_count += 1
                if len(slot) >= self._slot_purge_at:
                    self._purge_slot(slot)
            else:
                heappush(self._overflow, (time, seq, fn, args))
                self.wheel_overflow_pushes += 1
                if len(self._overflow) >= self._overflow_purge_at:
                    self._purge_overflow()
        else:
            insort(self._bucket, (time, seq, fn, args), self._bucket_pos)

    # ------------------------------------------------------------------ #
    # Cursor movement
    # ------------------------------------------------------------------ #

    def _refill(self, horizon_idx: int) -> None:
        """Move overflow events whose slot is now inside the window
        (``idx <= horizon_idx``) into their slots (or the live bucket)."""
        overflow = self._overflow
        shift = self._shift
        cur = self._cur_slot
        moved = 0
        while overflow:
            head = overflow[0]
            _, seq, fn, event = head
            if fn is None and (seq != event.seq or event.cancelled):
                heappop(overflow)
                self._skip(seq, event)
                continue
            idx = head[0] >> shift
            if idx > horizon_idx:
                break
            heappop(overflow)
            moved += 1
            if idx > cur:
                self._slots[idx & self._mask].append(head)
                self._wheel_count += 1
            else:
                insort(self._bucket, head, self._bucket_pos)
        if moved:
            self.wheel_refilled += moved
            self.wheel_rollovers += 1

    def _advance(self) -> bool:
        """Ensure the bucket holds the next events to dispatch.

        Returns ``False`` when nothing is pending anywhere (the bucket,
        the wheel and the overflow heap are all drained).
        """
        while True:
            if self._bucket_pos < len(self._bucket):
                return True
            # Bucket exhausted: recycle the list before moving on.
            if self._bucket:
                self._bucket.clear()
                self._bucket_pos = 0
            overflow = self._overflow
            while overflow:
                _, seq, fn, event = overflow[0]
                if fn is not None or (seq == event.seq and not event.cancelled):
                    break
                heappop(overflow)
                self._skip(seq, event)
            if overflow:
                horizon = self._cur_slot + self._num_slots
                head_idx = overflow[0][0] >> self._shift
                if self._wheel_count == 0 and head_idx > horizon:
                    # Whole revolutions of dead air: jump the cursor
                    # straight to the overflow head's slot.
                    self._cur_slot = head_idx
                    self.wheel_cursor_jumps += 1
                    horizon = head_idx + self._num_slots
                if head_idx <= horizon:
                    self._refill(horizon)
                    continue  # bucket/slots may have gained events
            if self._wheel_count == 0:
                return False
            # Scan for the next non-empty slot.  Guaranteed to terminate:
            # every slotted event satisfies cur < idx <= cur + num_slots.
            cur = self._cur_slot
            slots = self._slots
            mask = self._mask
            while True:
                cur += 1
                slot = slots[cur & mask]
                if slot:
                    break
            self._cur_slot = cur
            self._open_slot(slot)
            return True

    def _open_slot(self, slot: list) -> None:
        """Turn a slot's contents into the sorted drain bucket."""
        n = len(slot)
        self._wheel_count -= n
        self.wheel_slots_opened += 1
        if n > self.wheel_max_bucket:
            self.wheel_max_bucket = n
        bucket = self._bucket
        bucket.extend(slot)
        slot.clear()
        if n > 1:
            # C tuple sort on (time, seq): restores the heap engine's
            # exact total order however direct appends and overflow
            # refills interleaved in the slot.
            bucket.sort()
        self._bucket_pos = 0

    # ------------------------------------------------------------------ #
    # Engine API
    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        """Number of entries still queued, counting the cancelled and
        stale timer entries that have not surfaced yet."""
        return (
            self._wheel_count
            + (len(self._bucket) - self._bucket_pos)
            + len(self._overflow)
        )

    def peek_time(self) -> Optional[int]:
        # Advances the cursor as needed; the clock is untouched.
        while True:
            pos = self._bucket_pos
            if pos < len(self._bucket):
                time, seq, fn, event = self._bucket[pos]
                if fn is None and (seq != event.seq or event.cancelled):
                    self._bucket_pos = pos + 1
                    self._skip(seq, event)
                    continue
                return time
            if not self._advance():
                return None

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        if self._running:
            raise RuntimeError(
                "Simulator.run() is not re-entrant; "
                "use schedule()/stop() from within callbacks"
            )
        horizon = _NEVER if until is None else until
        limit = _NEVER if max_events is None else max_events
        checker = self._checker
        profiler = self._profiler
        fired = 0
        self._stop_requested = False
        self._running = True
        bucket = self._bucket
        try:
            while True:
                pos = self._bucket_pos
                if pos < len(bucket):
                    time, seq, fn, args = bucket[pos]
                    if time > horizon or fired >= limit:
                        break
                    self._bucket_pos = pos + 1
                    if fn is None:
                        # A timer: ``args`` is the Event.
                        if seq != args.seq or args.cancelled:
                            self._skip(seq, args)
                            continue
                        args.filed_time = _NEVER
                        fn, args = args.fn, args.args
                    if checker is not None:
                        checker.on_advance(time, self.now)
                    self.now = time
                    fired += 1
                    if profiler is not None:
                        profiler.on_event(time, fn)
                    fn(*args)
                    if self._stop_requested:
                        break
                    continue
                if not self._advance():
                    break
                bucket = self._bucket
        finally:
            self._events_fired += fired
            self._running = False
        if until is not None:
            self._advance_clock(until)
        return fired

    def wheel_stats(self) -> dict:
        """Occupancy / rollover counters (also surfaced by the telemetry
        :class:`~repro.telemetry.series.LoopProfiler`)."""
        return {
            "slot_ns": 1 << self._shift,
            "num_slots": self._num_slots,
            "pending_slots": self._wheel_count,
            "pending_bucket": len(self._bucket) - self._bucket_pos,
            "pending_overflow": len(self._overflow),
            "occupied_slots": sum(1 for slot in self._slots if slot),
            "rollovers": self.wheel_rollovers,
            "overflow_pushes": self.wheel_overflow_pushes,
            "refilled": self.wheel_refilled,
            "cursor_jumps": self.wheel_cursor_jumps,
            "slots_opened": self.wheel_slots_opened,
            "max_bucket": self.wheel_max_bucket,
            "purged": self.wheel_purged,
            "stale_refiled": self.stale_refiled,
            "stale_dropped": self.stale_dropped,
            "cancelled_skipped": self.cancelled_skipped,
        }


def make_simulator(engine: str = "wheel") -> Simulator:
    """The engine every run uses: the calendar wheel.  ``"heap"`` builds
    the reference :class:`Simulator` instead, for the benchmark's
    dispatch rung and the engine property tests."""
    if engine == "heap":
        return Simulator()
    if engine == "wheel":
        return WheelSimulator()
    raise ValueError(f"unknown engine {engine!r}; known: heap, wheel")
