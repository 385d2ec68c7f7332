"""Unified time-series samplers + event-loop profiler.

All periodic samplers share :class:`PeriodicSampler`, which holds the
engine's cancellable :class:`~repro.sim.engine.Event` for its next tick:
``stop()`` cancels the pending tick outright (nothing lingers in the
heap, so a drained queue really is drained), and ``start()`` after
``stop()`` resumes with exactly one tick chain — the
double-schedule/stale-tick bugs of the old ``metrics.collector``
samplers cannot happen by construction.

Samplers:

* :class:`QueueSampler` — per-port backlog (migrated from
  ``repro.metrics.collector``, same query API);
* :class:`LoopProfiler` — engine-side counters: events dispatched per
  callback kind, heap size and wall-clock per slab of simulated time.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import OutputPort
    from repro.sim.engine import Event, Simulator


class PeriodicSampler:
    """Base class: sample something every ``period_ns`` of sim time.

    The pending tick is a cancellable engine event; :meth:`stop` cancels
    it so no dead callback stays in the heap, and restarting after a stop
    schedules exactly one new tick chain.
    """

    def __init__(self, sim: "Simulator", period_ns: int) -> None:
        if period_ns <= 0:
            raise ValueError("sampling period must be positive")
        self.sim = sim
        self.period_ns = period_ns
        self._tick_event: Optional["Event"] = None

    @property
    def running(self) -> bool:
        return self._tick_event is not None

    def start(self) -> None:
        """Begin (or resume) sampling; idempotent while running."""
        if self._tick_event is None:
            # schedule_periodic re-arms one reusable event in place (an
            # in-slot append on the wheel engine) instead of allocating a
            # fresh event per tick.
            self._tick_event = self.sim.schedule_periodic(
                self.period_ns, self._tick
            )

    def stop(self) -> None:
        """Cancel the pending tick; idempotent.  Safe to :meth:`start`
        again afterwards."""
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None

    def _tick(self) -> None:
        self.sample(self.sim.now)

    def sample(self, now: int) -> None:
        """Take one sample at sim time ``now``.  Subclasses override."""
        raise NotImplementedError


class QueueSampler(PeriodicSampler):
    """Samples the backlog of a set of ports at a fixed period."""

    def __init__(
        self,
        sim: "Simulator",
        ports: Sequence["OutputPort"],
        period_ns: int = 100_000,
    ) -> None:
        super().__init__(sim, period_ns)
        self.ports = list(ports)
        self.samples: Dict[str, List[Tuple[int, int]]] = {
            port.name: [] for port in self.ports
        }

    def sample(self, now: int) -> None:
        for port in self.ports:
            self.samples[port.name].append((now, port.backlog_bytes))

    def max_backlog(self, port_name: str) -> int:
        """Largest sampled backlog for one port."""
        series = self.samples[port_name]
        return max((b for _, b in series), default=0)

    def mean_backlog(self, port_name: str) -> float:
        series = self.samples[port_name]
        if not series:
            return 0.0
        return sum(b for _, b in series) / len(series)

    def stddev_backlog(self, port_name: str) -> float:
        """Backlog standard deviation — the queue-oscillation measure."""
        series = self.samples[port_name]
        if len(series) < 2:
            return 0.0
        mean = self.mean_backlog(port_name)
        var = sum((b - mean) ** 2 for _, b in series) / (len(series) - 1)
        return var**0.5


class LoopProfiler:
    """Event-loop profiler, attached as ``Simulator.profiler``.

    The engine calls :meth:`on_event` once per dispatched event, just
    before the callback runs (one ``is not None`` branch when no profiler
    is attached).  Tracks:

    * events dispatched per callback kind (the function's qualname —
      ``OutputPort._tx_done``, ``TcpFlow._on_rto``, ...), which is where
      "where do events/sec go" is answered;
    * sampled wall time per callback kind: every
      :attr:`SAMPLE_EVERY`-th event is timed from the end of its
      ``on_event`` to the start of the next one — the callback plus the
      engine's fetch of the next entry — and charged to the kind that
      ran, so one sample stands for ``SAMPLE_EVERY`` events; a window
      left open when ``run()`` returns is closed by the next run's first
      event or dropped by :meth:`summary`.  Cost: an attribute read and
      two int compares per event, two ``perf_counter_ns`` calls and a
      dict update per sample (``on_event`` measured 190-260 ns without
      the timing, 220 ns with it);
    * per-slab samples of simulated time: events fired, pending-event
      count, and wall-clock spent — the events/sec trajectory of the run.

    On a :class:`~repro.sim.engine.WheelSimulator` the summary also
    carries the wheel's occupancy/rollover/overflow counters.
    """

    #: One event in this many is timed.  Prime: a power of two beats
    #: against a flow's strict tx-done / arrival alternation and times
    #: one of the two kinds only.
    SAMPLE_EVERY = 61

    def __init__(self, sim: "Simulator", slab_ns: int = 100_000_000) -> None:
        if slab_ns <= 0:
            raise ValueError("profiler slab must be positive")
        self.sim = sim
        self.slab_ns = slab_ns
        self.by_kind: Dict[str, int] = {}
        #: Sampled wall nanoseconds charged to each kind.
        self.ns_by_kind: Dict[str, int] = {}
        self.events = 0
        #: (slab_start_ns, events_so_far, pending_events, wall_elapsed_s)
        self.slabs: List[Tuple[int, int, int, float]] = []
        self._cur_slab = -1
        self._wall_start = time.perf_counter()
        #: Number of the next event to time; while ``events`` equals it,
        #: a window is open on ``_sample_kind`` since ``_sample_t0``.
        self._sample_at = self.SAMPLE_EVERY
        self._sample_t0, self._sample_kind = 0, ""

    def on_event(self, time_ns: int, fn: Any) -> None:
        events = self.events + 1
        sample_at = self._sample_at
        if events > sample_at:
            # The previous event was timed: close its window before any
            # bookkeeping of our own.
            spent = time.perf_counter_ns() - self._sample_t0
            kind = self._sample_kind
            self.ns_by_kind[kind] = self.ns_by_kind.get(kind, 0) + spent
            self._sample_at = sample_at + self.SAMPLE_EVERY
        self.events = events
        name = getattr(fn, "__qualname__", None) or repr(fn)
        self.by_kind[name] = self.by_kind.get(name, 0) + 1
        slab = time_ns // self.slab_ns
        if slab != self._cur_slab:
            self._cur_slab = slab
            self.slabs.append(
                (
                    slab * self.slab_ns,
                    events,
                    self.sim.pending,
                    time.perf_counter() - self._wall_start,
                )
            )
        if events == sample_at:  # last, so the window opens after the above
            self._sample_kind = name
            self._sample_t0 = time.perf_counter_ns()

    def top_kinds(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` callback kinds dispatched most often."""
        return sorted(self.by_kind.items(), key=lambda kv: -kv[1])[:n]

    def summary(self) -> Dict[str, Any]:
        wall = time.perf_counter() - self._wall_start
        if self.events == self._sample_at:  # open window: nothing ran after
            self._sample_at += self.SAMPLE_EVERY
        by_kind = dict(self.top_kinds(20))
        out = {
            "events": self.events,
            "wall_s": round(wall, 4),
            "events_per_sec": round(self.events / wall, 1) if wall > 0 else 0.0,
            "max_pending": max((s[2] for s in self.slabs), default=0),
            "by_kind": by_kind,
            "sample_every": self.SAMPLE_EVERY,
            "ns_by_kind": {
                kind: ns for kind, ns in self.ns_by_kind.items() if kind in by_kind
            },
        }
        wheel_stats = getattr(self.sim, "wheel_stats", None)
        if wheel_stats is not None:
            out["scheduler"] = "wheel"
            out["wheel"] = wheel_stats()
        else:
            out["scheduler"] = getattr(self.sim, "scheduler", "heap")
        return out
