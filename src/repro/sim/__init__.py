"""Discrete-event simulation engine.

The engine is deliberately tiny: an integer-nanosecond clock, a cancellable
event queue (a slotted timer wheel over the reference binary heap — see
:mod:`repro.sim.engine`), and seeded random-number streams.  All higher
layers (network, transport, load balancers) are built on top of it.
"""

from repro.sim.engine import (
    Event,
    Simulator,
    WheelSimulator,
    make_simulator,
)
from repro.sim.rng import RngStreams

__all__ = [
    "Event",
    "Simulator",
    "WheelSimulator",
    "RngStreams",
    "make_simulator",
]
