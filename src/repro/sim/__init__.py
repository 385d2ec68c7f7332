"""Discrete-event simulation engine.

The engine is deliberately tiny: an integer-nanosecond clock, a cancellable
event queue (binary heap or slotted timer wheel — see
:data:`repro.sim.SCHEDULERS`), and seeded random-number streams.  All
higher layers (network, transport, load balancers) are built on top of it.
"""

from repro.sim.engine import (
    DEFAULT_SCHEDULER,
    SCHEDULERS,
    Event,
    Simulator,
    WheelSimulator,
    make_simulator,
    resolve_scheduler,
    scheduler_forced,
)
from repro.sim.rng import RngStreams

__all__ = [
    "Event",
    "Simulator",
    "WheelSimulator",
    "RngStreams",
    "SCHEDULERS",
    "DEFAULT_SCHEDULER",
    "make_simulator",
    "resolve_scheduler",
    "scheduler_forced",
]
