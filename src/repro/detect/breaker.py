"""Circuit-breaker path detector: closed / open / half-open per path.

The breaker consumes the same passive transport evidence as
:class:`~repro.detect.transport.TransportDetector` but replaces the
fixed hold with the classic breaker lifecycle:

- ``CLOSED`` — healthy.  Successes and retransmissions are tallied in a
  sliding window; a timeout, or a windowed failure *rate* above
  ``failure_threshold`` (once ``min_volume`` samples exist), trips the
  breaker.
- ``OPEN`` — the path reads DOWN.  After ``open_timeout_ns`` the
  breaker probes for recovery instead of blindly re-admitting traffic.
- ``HALF_OPEN`` — a single *trial probe* (a real PROBE packet down the
  suspect path) is in flight; data traffic still reads DOWN.  An echo
  closes the breaker; a trial timeout re-opens it for another
  ``open_timeout_ns``.

A proof-of-life ACK landing while the breaker is OPEN closes it early
and counts a false positive — the same congested-but-alive bound
``TransportDetector`` enforces.  Adverse evidence arriving while already
OPEN is absorbed into ``flap_suppressions`` rather than re-detected.

On a clean run the breaker never trips, never schedules an event and
never sends a packet, so it is bit-identity safe like the transport
detector.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.detect.base import (
    BREAKER_FLOW_ID,
    DOWN,
    SUSPECT,
    UP,
    Detector,
    agent_host_of,
)
from repro.sim.engine import milliseconds

DEFAULT_FAILURE_THRESHOLD = 0.5
DEFAULT_WINDOW_NS = milliseconds(10)
DEFAULT_MIN_VOLUME = 4
DEFAULT_OPEN_TIMEOUT_NS = milliseconds(50)
DEFAULT_TRIAL_TIMEOUT_NS = milliseconds(25)

_CLOSED = 0
_OPEN = 1
_HALF_OPEN = 2


class _Breaker:
    """Per-(dst_leaf, path) breaker state."""

    __slots__ = ("state", "window_start", "failures", "successes", "epoch",
                 "down_since")

    def __init__(self, now: int) -> None:
        self.state = _CLOSED
        self.window_start = now
        self.failures = 0
        self.successes = 0
        #: Bumped on every state change; outstanding timers carry the
        #: epoch they were armed in and no-op if it moved on.
        self.epoch = 0
        self.down_since = -1


class CircuitBreakerDetector(Detector):
    """Failure-rate breaker with half-open trial probes."""

    name = "breaker"
    active = False  # passive until tripped; clean runs stay untouched

    def __init__(
        self,
        fabric,
        leaf: int,
        failure_threshold: float = DEFAULT_FAILURE_THRESHOLD,
        window_ns: int = DEFAULT_WINDOW_NS,
        min_volume: int = DEFAULT_MIN_VOLUME,
        open_timeout_ns: int = DEFAULT_OPEN_TIMEOUT_NS,
        trial_timeout_ns: int = DEFAULT_TRIAL_TIMEOUT_NS,
    ) -> None:
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if window_ns <= 0 or open_timeout_ns <= 0 or trial_timeout_ns <= 0:
            raise ValueError("breaker windows/timeouts must be positive")
        if min_volume < 1:
            raise ValueError("min_volume must be >= 1")
        super().__init__(fabric, leaf)
        self.failure_threshold = failure_threshold
        self.window_ns = window_ns
        self.min_volume = min_volume
        self.open_timeout_ns = open_timeout_ns
        self.trial_timeout_ns = trial_timeout_ns
        self.agent_host = agent_host_of(fabric, leaf)
        self.trials_sent = 0
        self._breakers: Dict[Tuple[int, int], _Breaker] = {}
        fabric.claim_probes(self.agent_host, BREAKER_FLOW_ID,
                            self._on_trial_reply)

    # ------------------------------------------------------------------ #
    # Verdicts
    # ------------------------------------------------------------------ #

    def path_verdict(self, dst_leaf: int, path: int) -> int:
        breaker = self._breakers.get((dst_leaf, path))
        if breaker is None:
            return UP
        if breaker.state != _CLOSED:
            return DOWN
        if (
            breaker.failures > 0
            and self.sim.now - breaker.window_start <= self.window_ns
        ):
            return SUSPECT
        return UP

    # ------------------------------------------------------------------ #
    # Evidence feeds
    # ------------------------------------------------------------------ #

    def note_ok(self, dst_leaf: int, path: int) -> None:
        if path < 0:
            return
        breaker = self._breakers.get((dst_leaf, path))
        if breaker is None:
            return
        if breaker.state == _CLOSED:
            self._roll_window(breaker)
            breaker.successes += 1
            return
        # Proof of life while tripped: an open breaker was wrong, a
        # half-open one was just raced by the real recovery.
        if breaker.state == _OPEN:
            self.false_positive_count += 1
            self._close(dst_leaf, path, breaker, "proof-of-life")
        else:
            self._close(dst_leaf, path, breaker, "recovery-raced-trial")

    def note_retransmit(self, dst_leaf: int, path: int) -> bool:
        if path < 0:
            return False
        breaker = self._get(dst_leaf, path)
        if breaker.state == _OPEN:
            self.flap_suppressions += 1
            return False
        if breaker.state == _HALF_OPEN:
            self._reopen(dst_leaf, path, breaker, "half-open-failure")
            return False
        self._roll_window(breaker)
        breaker.failures += 1
        volume = breaker.failures + breaker.successes
        if (
            volume >= self.min_volume
            and breaker.failures / volume >= self.failure_threshold
        ):
            self._trip(dst_leaf, path, breaker, "failure-rate",
                       f"{breaker.failures}/{volume} in window")
            return True
        return False

    def note_timeout(self, dst_leaf: int, path: int) -> bool:
        if path < 0:
            return False
        breaker = self._get(dst_leaf, path)
        if breaker.state == _OPEN:
            self.flap_suppressions += 1
            return False
        if breaker.state == _HALF_OPEN:
            self._reopen(dst_leaf, path, breaker, "half-open-timeout")
            return False
        self._trip(dst_leaf, path, breaker, "timeout", "")
        return True

    def mark_failed(self, dst_leaf: int, path: int) -> bool:
        return self.note_timeout(dst_leaf, path)

    # ------------------------------------------------------------------ #
    # Breaker lifecycle
    # ------------------------------------------------------------------ #

    def _get(self, dst_leaf: int, path: int) -> _Breaker:
        key = (dst_leaf, path)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = _Breaker(self.sim.now)
            self._breakers[key] = breaker
        return breaker

    def _roll_window(self, breaker: _Breaker) -> None:
        now = self.sim.now
        if now - breaker.window_start > self.window_ns:
            breaker.window_start = now
            breaker.failures = 0
            breaker.successes = 0

    def _trip(self, dst_leaf: int, path: int, breaker: _Breaker,
              cause: str, detail: str) -> None:
        old = SUSPECT if breaker.failures > 0 else UP
        breaker.state = _OPEN
        breaker.down_since = self.sim.now
        breaker.epoch += 1
        self._flip(dst_leaf, path, old, DOWN, cause, detail)
        self.sim.post(self.open_timeout_ns, self._on_open_timeout,
                      dst_leaf, path, breaker.epoch)

    def _reopen(self, dst_leaf: int, path: int, breaker: _Breaker,
                cause: str) -> None:
        """Half-open trial failed: back to OPEN for another timeout.
        The verdict never left DOWN, so this is not a new detection —
        it is a suppressed oscillation."""
        breaker.state = _OPEN
        breaker.epoch += 1
        self.flap_suppressions += 1
        audit = self.audit
        if audit is not None:
            audit.on_verdict(self, dst_leaf, path, DOWN, DOWN, cause, "")
        self.sim.post(self.open_timeout_ns, self._on_open_timeout,
                      dst_leaf, path, breaker.epoch)

    def _close(self, dst_leaf: int, path: int, breaker: _Breaker,
               cause: str) -> None:
        if breaker.state == _CLOSED:
            return
        breaker.state = _CLOSED
        breaker.epoch += 1
        breaker.window_start = self.sim.now
        breaker.failures = 0
        breaker.successes = 0
        self._flip(dst_leaf, path, DOWN, UP, cause, "")

    # ------------------------------------------------------------------ #
    # Timers and trial probes
    # ------------------------------------------------------------------ #

    def _on_open_timeout(self, dst_leaf: int, path: int, epoch: int) -> None:
        breaker = self._breakers.get((dst_leaf, path))
        if breaker is None or breaker.epoch != epoch or breaker.state != _OPEN:
            return
        breaker.state = _HALF_OPEN
        breaker.epoch += 1
        probe = self.fabric.packet_pool.probe(
            BREAKER_FLOW_ID,
            self.agent_host,
            agent_host_of(self.fabric, dst_leaf),
            path,
            self.sim.now,
        )
        self.trials_sent += 1
        self.fabric.send(probe)
        self.sim.post(self.trial_timeout_ns, self._on_trial_timeout,
                      dst_leaf, path, breaker.epoch)

    def _on_trial_timeout(self, dst_leaf: int, path: int, epoch: int) -> None:
        breaker = self._breakers.get((dst_leaf, path))
        if (
            breaker is None
            or breaker.epoch != epoch
            or breaker.state != _HALF_OPEN
        ):
            return
        self._reopen(dst_leaf, path, breaker, "trial-timeout")

    def _on_trial_reply(self, reply) -> None:
        dst_leaf = self.fabric.topology.leaf_of(reply.src)
        path = reply.path_id
        breaker = self._breakers.get((dst_leaf, path))
        if breaker is None or breaker.state == _CLOSED:
            return
        # A trial echo proves the path delivers, whether it arrives
        # during the half-open window or (late) after a re-open.
        self._close(dst_leaf, path, breaker, "trial-ok")

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def metrics(self) -> dict:
        out = super().metrics()
        out["trials_sent"] = self.trials_sent
        return out
