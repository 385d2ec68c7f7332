"""Load balancers: the paper's baselines plus Hermes (in ``repro.core``)
and the post-2017 failure-aware zoo (REPS, DiffFlow, RDNA Balance).

Every scheme implements the :class:`~repro.lb.base.LoadBalancer`
interface.  Edge-based schemes (ECMP, Presto*, DRB, CLOVE-ECN,
FlowBender, Hermes, REPS, DiffFlow, RDNA Balance) keep per-host state;
switch-based schemes (CONGA, LetFlow, DRILL) share their leaf switch's
state between all hosts of the rack, which is exactly the visibility
advantage the paper's Table 2 quantifies.

Every scheme reads path health from one slot, ``LoadBalancer.detector``:
``install_lb`` binds one :mod:`repro.detect` detector per rack, the
experiment's configured one or else the scheme's ``default_detector``.
The zoo schemes route on it and default to ``"transport"``
(:class:`~repro.detect.transport.TransportDetector`); the others default
to none.  Hermes keeps its own table (``repro.core.sensing``).
"""

from repro.lb.base import LoadBalancer
from repro.lb.ecmp import EcmpLB
from repro.lb.presto import PrestoLB, DrbLB
from repro.lb.letflow import LetFlowLB
from repro.lb.conga import CongaLB, CongaLeafState
from repro.lb.clove import CloveEcnLB
from repro.lb.drill import DrillLB
from repro.lb.flowbender import FlowBenderLB
from repro.lb.reps import RepsLB
from repro.lb.diffflow import DiffFlowLB
from repro.lb.rdna import RdnaBalanceLB, RdnaLeafState
from repro.lb.factory import (
    LB_CLASSES,
    LB_REGISTRY,
    SPRAYING_SCHEMES,
    install_lb,
    scheme_names,
)

__all__ = [
    "LoadBalancer",
    "EcmpLB",
    "PrestoLB",
    "DrbLB",
    "LetFlowLB",
    "CongaLB",
    "CongaLeafState",
    "CloveEcnLB",
    "DrillLB",
    "FlowBenderLB",
    "RepsLB",
    "DiffFlowLB",
    "RdnaBalanceLB",
    "RdnaLeafState",
    "install_lb",
    "LB_REGISTRY",
    "LB_CLASSES",
    "SPRAYING_SCHEMES",
    "scheme_names",
]
