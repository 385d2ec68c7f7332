"""TransportDetector: the per-rack transport-evidence failure table.

The minimal sensing surface Hermes builds from transport signals
(§3.1.2) — *which paths are currently suspect* and *when each suspicion
was first raised* — without Algorithm 1's full ECN/RTT
characterization.  One instance is shared by every hypervisor under a
rack (the same rack-level aggregation the Hermes probe agents use).  It
is the table REPS, DiffFlow and RDNA Balance route on by default
(``install_lb`` builds it for them), and what ``detector="transport"``
attaches to any other scheme.

Signals in, verdicts out:

* :meth:`note_timeout` — an RTO on a path is treated as hard evidence
  and fails the path immediately for ``hold_ns`` (transport timeouts are
  the strongest end-host failure signal the paper identifies);
* :meth:`note_retransmit` — retransmissions only fail a path after
  ``retx_threshold`` of them accumulate inside one ``retx_window_ns``
  window (congestion and reordering also retransmit; a genuinely lossy
  link hits the threshold quickly, noise does not);
* :meth:`note_ok` — a completed round trip is proof of life: it clears
  the path's retransmission window and lifts a standing failure verdict
  early.  This is the false-positive bound that keeps the threshold
  signals honest — Hermes gets the same property by requiring *zero*
  ACKs alongside its timeout count (§3.1.2); a congested-but-alive path
  keeps delivering ACKs and therefore can never stay failed;
* :meth:`is_failed` / :meth:`alive` — the read side.  ``alive`` never
  returns an empty tuple: when *every* path to a destination is suspect
  the caller gets the full set back, because sending into a suspected
  path beats stranding the flow with no path at all.

``is_failed``, ``alive`` and ``note_ok`` run per packet / per ACK on the
zoo path, so each is one ``_failed_until`` lookup and never routes
through :meth:`path_verdict`.

The detector is fully passive: it schedules no events, sends no
packets and draws no randomness, so attaching it to any scheme leaves
a failure-free run bit-identical.  Detection latency is bounded below
by the transport's RTO floor — the reason :class:`~repro.detect.bfd.
BfdDetector` exists.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.detect.base import DOWN, SUSPECT, UP, Detector
from repro.sim.engine import milliseconds

#: How long a detected path stays failed (matches Hermes'
#: ``failure_hold_ns`` so zoo detection timelines are comparable).
DEFAULT_HOLD_NS = milliseconds(50)

#: Retransmissions within one window that fail a path.
DEFAULT_RETX_THRESHOLD = 10

#: Width of the retransmission-counting window (matches the Hermes
#: τ-sweep period).
DEFAULT_RETX_WINDOW_NS = milliseconds(10)


class TransportDetector(Detector):
    """Passive transport-evidence detector: the per-rack failure table.

    Args:
        fabric: the network (for the clock).
        leaf: which rack this table belongs to.
        hold_ns: how long a detection keeps a path failed.
        retx_threshold: retransmissions inside one window that fail a
            path (timeouts always fail it immediately).
        retx_window_ns: the retransmission-counting window.
    """

    name = "transport"
    active = False

    def __init__(
        self,
        fabric,
        leaf: int,
        hold_ns: int = DEFAULT_HOLD_NS,
        retx_threshold: int = DEFAULT_RETX_THRESHOLD,
        retx_window_ns: int = DEFAULT_RETX_WINDOW_NS,
    ) -> None:
        if hold_ns <= 0:
            raise ValueError("hold_ns must be positive")
        if retx_threshold < 1:
            raise ValueError("retx_threshold must be >= 1")
        if retx_window_ns <= 0:
            raise ValueError("retx_window_ns must be positive")
        super().__init__(fabric, leaf)
        self.hold_ns = hold_ns
        self.retx_threshold = retx_threshold
        self.retx_window_ns = retx_window_ns
        #: (dst_leaf, path) -> failed-until time (ns).
        self._failed_until: Dict[Tuple[int, int], int] = {}
        #: (dst_leaf, path) -> [window_start_ns, retx_count].
        self._retx: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------ #
    # Read side
    # ------------------------------------------------------------------ #

    def is_failed(self, dst_leaf: int, path: int) -> bool:
        return self.sim.now < self._failed_until.get((dst_leaf, path), -1)

    def alive(self, dst_leaf: int, paths: Tuple[int, ...]) -> Tuple[int, ...]:
        """The subset of ``paths`` not currently failed; falls back to
        the full set when everything is suspect (never strand a flow)."""
        live = tuple(p for p in paths if not self.is_failed(dst_leaf, p))
        return live if live else paths

    def path_verdict(self, dst_leaf: int, path: int) -> int:
        if self.is_failed(dst_leaf, path):
            return DOWN
        window = self._retx.get((dst_leaf, path))
        if (
            window is not None
            and window[1] > 0
            and self.sim.now - window[0] <= self.retx_window_ns
        ):
            return SUSPECT
        return UP

    # ------------------------------------------------------------------ #
    # Signal ingestion
    # ------------------------------------------------------------------ #

    def mark_failed(self, dst_leaf: int, path: int) -> bool:
        """Fail a path for ``hold_ns`` from now.

        Returns ``True`` for a *new* detection (the path was healthy);
        re-marking an already-failed path only extends the hold and does
        not inflate the detection timeline — the hold window is the flap
        suppressor.
        """
        key = (dst_leaf, path)
        now = self.sim.now
        fresh = now >= self._failed_until.get(key, -1)
        self._failed_until[key] = now + self.hold_ns
        if fresh:
            self._retx.pop(key, None)
            self._flip(dst_leaf, path, UP, DOWN, "transport-evidence")
        else:
            self.flap_suppressions += 1
        return fresh

    def note_timeout(self, dst_leaf: int, path: int) -> bool:
        """An RTO fired on the path: hard evidence, fail it now."""
        if path < 0:
            return False
        return self.mark_failed(dst_leaf, path)

    def note_ok(self, dst_leaf: int, path: int) -> None:
        """A round trip completed on the path: clear its retransmission
        window, and lift a standing failure verdict — the ACK is proof
        the path is alive, so the verdict was a false positive."""
        if path < 0:
            return
        key = (dst_leaf, path)
        self._retx.pop(key, None)
        if self.sim.now < self._failed_until.get(key, -1):
            del self._failed_until[key]
            self.false_positive_count += 1
            self._flip(dst_leaf, path, DOWN, UP, "proof-of-life")

    def note_retransmit(self, dst_leaf: int, path: int) -> bool:
        """A retransmission implicated the path: fail it only once
        ``retx_threshold`` of them land inside one window."""
        if path < 0 or self.is_failed(dst_leaf, path):
            return False
        key = (dst_leaf, path)
        now = self.sim.now
        window = self._retx.get(key)
        if window is None or now - window[0] > self.retx_window_ns:
            window = [now, 0]
            self._retx[key] = window
        window[1] += 1
        if window[1] >= self.retx_threshold:
            return self.mark_failed(dst_leaf, path)
        return False
