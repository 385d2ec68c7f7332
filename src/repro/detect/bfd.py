"""BFD-style heartbeat detector.

One :class:`BfdDetector` per leaf runs an async-mode session per
(dst_leaf, path) pair: every ``tx_interval_ns`` the leaf's agent host
transmits a heartbeat (a real PROBE packet) down each spine path to the
destination rack's agent host, which echoes it back (``Host.receive``
already answers PROBE with PROBE_REPLY).  A session that has not heard
an echo for ``detect_mult`` transmit intervals is declared Down — the
classic BFD detection time of ``mult × tx``.

Because heartbeats are ordinary in-fabric packets they die with the
link (admin-down drops them at enqueue), get delayed by real queueing
on degraded paths, and cost real bandwidth — the detector's speed and
its false-positive exposure are both physical, not modelled.

Session state machine (async mode, simplified to echo evidence):

- ``Down``: no recent echo.  The first echo moves the session to
  ``Init``; a second consecutive echo establishes ``Up`` (standing in
  for BFD's three-way handshake).
- ``Init``: one echo heard; not yet trusted.
- ``Up``: established.  Missing ~2 intervals marks the session
  SUSPECT; missing ``detect_mult`` intervals flips it DOWN.

Sessions that have *never* established read UP — a cold start must not
strand every path before the first round trip completes.

A flap shorter than the ``detect_mult`` window never reaches DOWN: the
session dips to SUSPECT and recovers, counted in ``flap_suppressions``.
An echo whose probe was launched *before* a DOWN flip (``ts_echo <
down_since``) proves the path was alive when condemned and increments
``false_positive_count``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.detect.base import (
    BFD_FLOW_ID,
    DOWN,
    SUSPECT,
    UP,
    Detector,
    agent_host_of,
)
from repro.sim.engine import microseconds

DEFAULT_TX_INTERVAL_NS = microseconds(100)
DEFAULT_DETECT_MULT = 3

_S_DOWN = 0
_S_INIT = 1
_S_UP = 2


class _Session:
    """Per-(dst_leaf, path) heartbeat session."""

    __slots__ = ("state", "last_heard", "ever_up", "suspect", "down_since",
                 "refuted")

    def __init__(self, now: int) -> None:
        self.state = _S_DOWN
        self.last_heard = now
        self.ever_up = False
        self.suspect = False
        self.down_since = -1
        #: A late echo proved the standing DOWN wrong; the flip back UP
        #: carries it.
        self.refuted = False


class BfdDetector(Detector):
    """Per-path heartbeat liveness sessions on real fabric packets."""

    name = "bfd"
    active = True

    def __init__(
        self,
        fabric,
        leaf: int,
        tx_interval_ns: int = DEFAULT_TX_INTERVAL_NS,
        detect_mult: int = DEFAULT_DETECT_MULT,
    ) -> None:
        if tx_interval_ns <= 0:
            raise ValueError("tx_interval_ns must be positive")
        if detect_mult < 1:
            raise ValueError("detect_mult must be >= 1")
        super().__init__(fabric, leaf)
        self.tx_interval_ns = tx_interval_ns
        self.detect_mult = detect_mult
        self.agent_host = agent_host_of(fabric, leaf)
        self._sessions: Dict[Tuple[int, int], _Session] = {}
        #: dst_leaf -> (agent host, probeable path ids).  Paths cut from
        #: the topology outright (static link_overrides) are unroutable
        #: and never probed; admin-down links still have a route and eat
        #: the heartbeat — which is exactly the detection signal.
        self._agents: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        self.heartbeats_sent = 0
        self.replies_heard = 0
        self._started = False
        fabric.claim_probes(self.agent_host, BFD_FLOW_ID, self._on_reply)

    # ------------------------------------------------------------------ #
    # Verdicts
    # ------------------------------------------------------------------ #

    def path_verdict(self, dst_leaf: int, path: int) -> int:
        session = self._sessions.get((dst_leaf, path))
        if session is None or not session.ever_up:
            return UP
        if session.state == _S_UP:
            return SUSPECT if session.suspect else UP
        return DOWN

    # ------------------------------------------------------------------ #
    # Heartbeat rounds
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        topo = self.fabric.topology
        config = self.fabric.config
        for dst_leaf in range(config.n_leaves):
            if dst_leaf == self.leaf:
                continue
            paths = topo.paths(self.leaf, dst_leaf)
            if not paths or paths == (-1,):
                continue
            self._agents[dst_leaf] = (
                agent_host_of(self.fabric, dst_leaf), tuple(paths)
            )
        # Deterministic per-leaf jitter de-phases the racks' rounds (the
        # same convention the Hermes prober uses) without touching RNG.
        jitter = (self.leaf * 7919) % max(1, self.tx_interval_ns)
        self.sim.post(jitter, self._round)

    def _round(self) -> None:
        now = self.sim.now
        sessions = self._sessions
        deadline = self.detect_mult * self.tx_interval_ns
        suspect_after = 2 * self.tx_interval_ns
        pool = self.fabric.packet_pool
        send = self.fabric.send
        for dst_leaf, (dst_agent, paths) in self._agents.items():
            for path in paths:
                key = (dst_leaf, path)
                session = sessions.get(key)
                if session is None:
                    session = _Session(now)
                    sessions[key] = session
                elif session.state == _S_UP:
                    idle = now - session.last_heard
                    if idle >= deadline:
                        session.state = _S_DOWN
                        session.down_since = now
                        session.suspect = False
                        self._flip(dst_leaf, path, UP, DOWN, "bfd-timeout",
                                   f"idle={idle}ns")
                    elif idle >= suspect_after and not session.suspect:
                        session.suspect = True
                        self._flip(dst_leaf, path, UP, SUSPECT, "bfd-miss",
                                   f"idle={idle}ns")
                probe = pool.probe(BFD_FLOW_ID, self.agent_host, dst_agent,
                                   path, now)
                self.heartbeats_sent += 1
                send(probe)
        self.sim.post(self.tx_interval_ns, self._round)

    # ------------------------------------------------------------------ #
    # Echo handling
    # ------------------------------------------------------------------ #

    def _on_reply(self, reply) -> None:
        session = self._sessions.get(
            (self.fabric.topology.leaf_of(reply.src), reply.path_id)
        )
        if session is None:
            return
        dst_leaf = self.fabric.topology.leaf_of(reply.src)
        path = reply.path_id
        self.replies_heard += 1
        state = session.state
        if state == _S_DOWN:
            if session.ever_up and reply.ts_echo < session.down_since:
                # The echoed probe was in flight when we declared the
                # path dead: it was alive all along.
                self.false_positive_count += 1
                session.refuted = True
            session.state = _S_INIT
        elif state == _S_INIT:
            session.state = _S_UP
            session.suspect = False
            if session.ever_up:
                self._flip(dst_leaf, path, DOWN, UP, "bfd-up", "",
                           refuted=session.refuted)
                session.refuted = False
            session.ever_up = True
        else:  # _S_UP
            if session.suspect:
                session.suspect = False
                self.flap_suppressions += 1
                self._flip(dst_leaf, path, SUSPECT, UP, "bfd-recover", "")
        session.last_heard = self.sim.now

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def metrics(self) -> dict:
        out = super().metrics()
        out["heartbeats_sent"] = self.heartbeats_sent
        out["replies_heard"] = self.replies_heard
        return out
