"""Typed errors for the runtime invariant layer.

Every violation raised by :mod:`repro.validate` derives from
:class:`InvariantViolation` and carries a **replayable fingerprint**: the
master seed, the offending configuration, and the exact shell command
that reproduces the run (``python -m repro chaos --seed N`` for fuzz
cases, ``python -m repro run ... --validate`` for grid cells).  A
violation deep inside a 4-million-event run is worthless unless the next
person can re-enter the exact same state with one paste.

This module is dependency-free on purpose: the engine, ports and sensing
layer raise these errors without importing anything above them.
"""

from __future__ import annotations

from typing import Any, Optional


class ReproError(Exception):
    """Base class for all typed errors raised by the repro package."""


class InstallError(ReproError):
    """A component could not be built or wired (bad scheme wiring,
    missing agent, ...).  Replaces bare ``assert`` sanity checks."""


class Fingerprint:
    """The (seed, config, replay command) identity of one run.

    Rendered into every violation message so failures found by the chaos
    harness — or by a validated production run — are one paste away from
    a deterministic replay.
    """

    __slots__ = ("seed", "config", "command")

    def __init__(
        self,
        seed: Optional[int] = None,
        config: Any = None,
        command: Optional[str] = None,
    ) -> None:
        self.seed = seed
        self.config = config
        self.command = command

    def render(self) -> str:
        lines = []
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        if self.command:
            lines.append(f"replay: {self.command}")
        if self.config is not None:
            lines.append(f"config: {self.config!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fingerprint(seed={self.seed}, command={self.command!r})"


class InvariantViolation(ReproError):
    """A runtime invariant of the simulator was violated.

    Attributes:
        fingerprint: replay identity of the run (may be empty when the
            checker was installed without one, e.g. in unit tests).
        detail: the invariant-specific message.
    """

    def __init__(self, detail: str, fingerprint: Optional[Fingerprint] = None) -> None:
        self.detail = detail
        self.fingerprint = fingerprint if fingerprint is not None else Fingerprint()
        rendered = self.fingerprint.render()
        message = detail if not rendered else f"{detail}\n{rendered}"
        super().__init__(message)


class ConservationError(InvariantViolation):
    """Bytes were created or destroyed: injected != delivered + dropped +
    in flight, or a packet vanished between two hops."""


class FifoOrderError(InvariantViolation):
    """A port transmitted packets of one priority out of enqueue order."""


class CapacityError(InvariantViolation):
    """A port's backlog went negative, exceeded the buffer, or diverged
    from the checker's shadow accounting."""


class ClockError(InvariantViolation):
    """The event loop tried to fire an event in the past (non-monotone
    clock / broken heap ordering)."""


class EcnMarkError(InvariantViolation):
    """A CE mark appeared (or failed to appear) in an illegal queue
    state: marking below threshold, marking a non-ECN-capable packet, or
    skipping a mandatory mark."""


class PathStateError(InvariantViolation):
    """Hermes path characterization left the Algorithm 1 state machine:
    an unknown class, or a classification inconsistent with the sensed
    state or the table's failed verdict."""
