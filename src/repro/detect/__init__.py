"""Pluggable failure-detection plane.

``repro.detect`` decouples *how a path is judged dead* from *what a load
balancer does about it*.  Every detector exposes the same protocol:

- ``path_verdict(dst_leaf, path) -> UP | SUSPECT | DOWN``
- ``alive(dst_leaf, paths)`` / ``is_failed(dst_leaf, path)``
- evidence feeds ``note_timeout`` / ``note_retransmit`` / ``note_ok``
- ``detection_times`` / ``false_positive_count`` / ``flap_suppressions``
- ``start()`` for active detectors that schedule engine events

Implementations:

- :class:`TransportDetector` — the passive timeout/retx evidence table
  (the one REPS, DiffFlow and RDNA route on by default; its defaults
  live in :mod:`repro.detect.transport`); schedules nothing, sends
  nothing.
- :class:`BfdDetector` — BFD-style async-mode heartbeat sessions per
  (dst_leaf, path); heartbeats are real in-fabric PROBE packets, so
  they die with the link and experience real queueing.
- :class:`CircuitBreakerDetector` — closed/open/half-open breaker per
  path with a failure-rate window and half-open trial probes.
- :class:`QuorumDetector` / :class:`FastestOfDetector` — combine
  member verdicts so one layer's false positive cannot strand a path.

Select via ``ExperimentConfig.detector`` (e.g. ``"bfd:tx=100us,mult=3"``,
see :func:`parse_detector`), or build directly with
:func:`build_leaf_detectors`.
"""

from repro.detect.base import (
    DOWN,
    SUSPECT,
    UP,
    VERDICT_NAMES,
    BFD_FLOW_ID,
    BREAKER_FLOW_ID,
    Detector,
    agent_host_of,
)
from repro.detect.bfd import BfdDetector
from repro.detect.breaker import CircuitBreakerDetector
from repro.detect.combine import FastestOfDetector, QuorumDetector
from repro.detect.spec import (
    DETECTOR_KINDS,
    DetectorSpec,
    build_detector,
    build_leaf_detectors,
    parse_detector,
)
from repro.detect.transport import TransportDetector

__all__ = [
    "UP",
    "SUSPECT",
    "DOWN",
    "VERDICT_NAMES",
    "BFD_FLOW_ID",
    "BREAKER_FLOW_ID",
    "Detector",
    "TransportDetector",
    "BfdDetector",
    "CircuitBreakerDetector",
    "QuorumDetector",
    "FastestOfDetector",
    "DetectorSpec",
    "DETECTOR_KINDS",
    "parse_detector",
    "build_detector",
    "build_leaf_detectors",
    "agent_host_of",
]
