"""repro.validate — opt-in runtime invariant layer + seeded chaos harness.

Three pieces:

* :mod:`repro.validate.checker` — the :class:`InvariantChecker`, hooked
  into the engine, ports, fabric and Hermes sensing.  Asserts byte
  conservation, per-port FIFO and capacity legality, a monotone clock,
  ECN-mark legality, and Algorithm 1 path-state consistency.  Every
  violation carries a replayable ``(seed, config, command)`` fingerprint.
* :mod:`repro.validate.fuzz` — seeded chaos scenarios (randomized
  topologies, schemes, workloads, failures) run under full checking,
  with greedy shrinking of failures to a minimal config.
* :mod:`repro.validate.golden` — golden regression pinning of the
  reference grid's summary statistics.

Enable per run with ``ExperimentConfig(validate=True)``, per invocation
with ``python -m repro ... --validate``, or globally with
``REPRO_VALIDATE=1``.  Disabled (the default), the layer costs one
``is not None`` branch per hook site and nothing else.
"""

from repro.validate.checker import (
    InvariantChecker,
    experiment_command,
    install_checker,
)
from repro.validate.errors import (
    CapacityError,
    ClockError,
    ConservationError,
    EcnMarkError,
    FifoOrderError,
    Fingerprint,
    InstallError,
    InvariantViolation,
    PathStateError,
    ReproError,
)

__all__ = [
    "InvariantChecker",
    "install_checker",
    "experiment_command",
    "ReproError",
    "InstallError",
    "InvariantViolation",
    "ConservationError",
    "FifoOrderError",
    "CapacityError",
    "ClockError",
    "EcnMarkError",
    "PathStateError",
    "Fingerprint",
]
