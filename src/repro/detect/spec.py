"""Detector spec DSL: parse ``ExperimentConfig.detector`` strings.

The detector is configured by a compact string so it rides through the
config dataclass, the result-cache key, JSON round trips and the CLI
unchanged:

- ``"transport"`` / ``"transport:hold=50ms,retx_threshold=10,retx_window=10ms"``
- ``"bfd"`` / ``"bfd:tx=100us,mult=3"``
- ``"breaker"`` / ``"breaker:threshold=0.5,window=10ms,min_volume=4,open=50ms,trial=25ms"``
- ``"quorum:transport+bfd"`` / ``"quorum:transport+bfd,quorum=2"``
- ``"fastest:transport+bfd"``

Durations reuse the fault-DSL time grammar (``100us``, ``50ms``,
``1.5s``, bare ns).  Member lists in combiners are distinct bare kinds
joined with ``+`` and run with their defaults.

Time-valued *defaults* scale with the experiment's ``time_scale`` —
exactly like the transport's RTO floor does in the runner — while
explicitly spelled values are taken literally.  A golden-grid cell at
``time_scale=0.05`` therefore gets a proportionally faster default BFD
session instead of one that outlives the whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

from repro.detect.bfd import (
    DEFAULT_DETECT_MULT,
    DEFAULT_TX_INTERVAL_NS,
    BfdDetector,
)
from repro.detect.breaker import (
    DEFAULT_FAILURE_THRESHOLD,
    DEFAULT_MIN_VOLUME,
    DEFAULT_OPEN_TIMEOUT_NS,
    DEFAULT_TRIAL_TIMEOUT_NS,
    DEFAULT_WINDOW_NS,
    CircuitBreakerDetector,
)
from repro.detect.combine import FastestOfDetector, QuorumDetector
from repro.detect.transport import (
    DEFAULT_HOLD_NS,
    DEFAULT_RETX_THRESHOLD,
    DEFAULT_RETX_WINDOW_NS,
    TransportDetector,
)
from repro.faults.spec import parse_time

#: kind -> {param -> ("time" | "int" | "float")}
_PARAM_TYPES: Dict[str, Dict[str, str]] = {
    "transport": {"hold": "time", "retx_threshold": "int", "retx_window": "time"},
    "bfd": {"tx": "time", "mult": "int"},
    "breaker": {
        "threshold": "float",
        "window": "time",
        "min_volume": "int",
        "open": "time",
        "trial": "time",
    },
    "quorum": {"quorum": "int"},
    "fastest": {},
}

DETECTOR_KINDS = tuple(sorted(_PARAM_TYPES))
_COMBINER_KINDS = ("quorum", "fastest")

#: Time-valued defaults (ns at time_scale=1.0); everything else defaults
#: inside the detector constructors.
_TIME_DEFAULTS: Dict[str, Dict[str, int]] = {
    "transport": {
        "hold": DEFAULT_HOLD_NS,
        "retx_window": DEFAULT_RETX_WINDOW_NS,
    },
    "bfd": {"tx": DEFAULT_TX_INTERVAL_NS},
    "breaker": {
        "window": DEFAULT_WINDOW_NS,
        "open": DEFAULT_OPEN_TIMEOUT_NS,
        "trial": DEFAULT_TRIAL_TIMEOUT_NS,
    },
}


@dataclass(frozen=True)
class DetectorSpec:
    """Parsed detector configuration (hashable, canonicalizable)."""

    kind: str
    params: Tuple[Tuple[str, Union[int, float]], ...] = ()
    members: Tuple["DetectorSpec", ...] = field(default=())

    def param(self, key: str, default=None):
        for name, value in self.params:
            if name == key:
                return value
        return default

    def canonical(self) -> str:
        """Round-trippable canonical string form."""
        parts = []
        if self.members:
            parts.append("+".join(m.kind for m in self.members))
        parts.extend(f"{k}={v}" for k, v in self.params)
        if not parts:
            return self.kind
        return f"{self.kind}:{','.join(parts)}"


def _parse_value(kind: str, key: str, raw: str) -> Union[int, float]:
    try:
        value_type = _PARAM_TYPES[kind][key]
    except KeyError:
        allowed = ", ".join(sorted(_PARAM_TYPES[kind])) or "(none)"
        raise ValueError(
            f"unknown parameter {key!r} for detector {kind!r} "
            f"(allowed: {allowed})"
        ) from None
    try:
        if value_type == "time":
            return parse_time(raw)
        if value_type == "int":
            return int(raw)
        return float(raw)
    except ValueError:
        raise ValueError(
            f"bad value {raw!r} for detector parameter {kind}:{key}"
        ) from None


def parse_detector(text: str) -> DetectorSpec:
    """Parse a detector spec string; raises ``ValueError`` on nonsense."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("detector spec must be a non-empty string")
    text = text.strip()
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    if kind not in _PARAM_TYPES:
        raise ValueError(
            f"unknown detector kind {kind!r} "
            f"(one of: {', '.join(DETECTOR_KINDS)})"
        )
    members: Tuple[DetectorSpec, ...] = ()
    params = []
    tokens = [t.strip() for t in rest.split(",") if t.strip()] if rest else []
    for token in tokens:
        if "=" in token:
            key, _, raw = token.partition("=")
            key = key.strip().lower()
            params.append((key, _parse_value(kind, key, raw.strip())))
        elif "+" in token or token in _PARAM_TYPES:
            if kind not in _COMBINER_KINDS:
                raise ValueError(
                    f"detector {kind!r} does not take a member list "
                    f"({token!r})"
                )
            if members:
                raise ValueError("only one member list is allowed")
            member_specs = []
            for name in token.split("+"):
                name = name.strip().lower()
                if name in _COMBINER_KINDS:
                    raise ValueError("combiners cannot nest combiners")
                # Members run with their defaults, so a repeat adds
                # nothing — and two of one kind would claim one probe
                # stream twice.
                if any(m.kind == name for m in member_specs):
                    raise ValueError(f"member {name!r} is listed twice")
                member_specs.append(parse_detector(name))
            members = tuple(member_specs)
        else:
            raise ValueError(f"cannot parse detector token {token!r}")
    if kind in _COMBINER_KINDS:
        if len(members) < 2:
            raise ValueError(
                f"detector {kind!r} needs a member list like "
                f"'{kind}:transport+bfd'"
            )
        quorum = dict(params).get("quorum", 0)
        if quorum and not 1 <= quorum <= len(members):
            raise ValueError(
                f"quorum={quorum} out of range for {len(members)} members"
            )
    elif members:
        raise ValueError(f"detector {kind!r} does not take members")
    return DetectorSpec(kind, tuple(params), members)


def _scaled(default_ns: int, time_scale: float) -> int:
    return max(1, int(default_ns * time_scale))


def build_detector(spec, fabric, leaf: int, time_scale: float = 1.0):
    """Instantiate one detector for ``leaf`` from a spec (or string).

    ``time_scale`` scales *default* durations only; explicit spec values
    are honored verbatim.
    """
    if isinstance(spec, str):
        spec = parse_detector(spec)
    defaults = _TIME_DEFAULTS.get(spec.kind, {})

    def timed(key: str) -> int:
        explicit = spec.param(key)
        if explicit is not None:
            return int(explicit)
        return _scaled(defaults[key], time_scale)

    if spec.kind == "transport":
        return TransportDetector(
            fabric,
            leaf,
            hold_ns=timed("hold"),
            retx_threshold=int(spec.param("retx_threshold",
                                          DEFAULT_RETX_THRESHOLD)),
            retx_window_ns=timed("retx_window"),
        )
    if spec.kind == "bfd":
        return BfdDetector(
            fabric,
            leaf,
            tx_interval_ns=timed("tx"),
            detect_mult=int(spec.param("mult", DEFAULT_DETECT_MULT)),
        )
    if spec.kind == "breaker":
        return CircuitBreakerDetector(
            fabric,
            leaf,
            failure_threshold=float(spec.param("threshold",
                                               DEFAULT_FAILURE_THRESHOLD)),
            window_ns=timed("window"),
            min_volume=int(spec.param("min_volume", DEFAULT_MIN_VOLUME)),
            open_timeout_ns=timed("open"),
            trial_timeout_ns=timed("trial"),
        )
    members = [
        build_detector(member, fabric, leaf, time_scale=time_scale)
        for member in spec.members
    ]
    if spec.kind == "quorum":
        return QuorumDetector(fabric, leaf, members,
                              quorum=int(spec.param("quorum", 0)))
    return FastestOfDetector(fabric, leaf, members)


def build_leaf_detectors(fabric, spec, time_scale: float = 1.0) -> dict:
    """One detector per leaf, keyed by leaf index — the shape
    ``install_lb`` publishes as ``InstalledScheme.detectors``."""
    if isinstance(spec, str):
        spec = parse_detector(spec)
    return {
        leaf: build_detector(spec, fabric, leaf, time_scale=time_scale)
        for leaf in range(fabric.config.n_leaves)
    }
