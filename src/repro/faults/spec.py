"""Declarative fault schedules: what fails, when, and when it heals.

A :class:`FaultScheduleSpec` is a plain, picklable value object — a tuple
of :class:`FaultEventSpec` entries, each naming one action at one
simulated nanosecond.  It travels inside
:class:`~repro.experiments.config.ExperimentConfig` (so it is part of the
result-cache content address) and is interpreted at run time by
:class:`repro.faults.plane.FaultSchedule`.

Supported actions (applied / reverted pairs):

=====================  =======================================  ==================
apply                  reverts with                             target fields
=====================  =======================================  ==================
``link_down``          ``link_up``                              leaf, spine
``link_degrade``       ``link_restore``                         leaf, spine, rate_gbps
``random_drop_start``  ``random_drop_stop``                     spine, drop_rate
``blackhole_on``       ``blackhole_off``                        spine, src_leaf,
                                                                dst_leaf, fraction
``flap``               (self-reverting composite)               leaf, spine,
                                                                period_ns, duty,
                                                                until_ns
=====================  =======================================  ==================

``flap`` expands at install time into alternating ``link_down``/
``link_up`` pairs: down at ``time + k*period``, back up ``duty*period``
later, until ``until_ns`` — the closing ``link_up`` is always emitted so
a flap can never leave a link permanently dark.

The CLI accepts the same schedule as a compact string (see
:func:`parse_schedule`)::

    link_down@5ms:leaf=0,spine=1; link_up@20ms:leaf=0,spine=1
    flap@2ms:leaf=0,spine=1,period=4ms,duty=0.5,until=30ms
    random_drop_start@1ms:spine=0,rate=0.02; random_drop_stop@9ms:spine=0
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Tuple

#: Actions that install a malfunction.
APPLY_ACTIONS = (
    "link_down",
    "link_degrade",
    "random_drop_start",
    "blackhole_on",
    "flap",
)
#: Actions that revert one.
REVERT_ACTIONS = (
    "link_up",
    "link_restore",
    "random_drop_stop",
    "blackhole_off",
)
ACTIONS = APPLY_ACTIONS + REVERT_ACTIONS

#: apply action -> the revert action that must follow it (flap reverts
#: itself; everything else needs an explicit partner for link state to
#: be recoverable, though leaving a fault active to the horizon is legal).
REVERT_OF = {
    "link_down": "link_up",
    "link_degrade": "link_restore",
    "random_drop_start": "random_drop_stop",
    "blackhole_on": "blackhole_off",
}

#: Actions targeting one (leaf, spine) link.
LINK_ACTIONS = ("link_down", "link_up", "link_degrade", "link_restore", "flap")


@dataclass(frozen=True)
class FaultEventSpec:
    """One timed fault action.

    Only the fields the action uses are meaningful; the rest stay at
    their defaults (and therefore hash stably into the cache key).

    Attributes:
        action: one of :data:`ACTIONS`.
        time_ns: absolute simulation time the action fires at.
        leaf / spine: the targeted link (link actions) or spine switch
            (drop/blackhole actions; ``leaf`` unused there).
        rate_gbps: degraded link rate (``link_degrade``).
        drop_rate: per-packet drop probability (``random_drop_start``).
        src_leaf / dst_leaf / fraction: blackhole pair selection, as in
            :func:`repro.net.failures.blackhole_pairs_between_racks`.
        period_ns / duty / until_ns: flap cycle length, fraction of each
            period spent down, and when flapping stops.
    """

    action: str
    time_ns: int
    leaf: int = 0
    spine: int = 0
    rate_gbps: float = 0.0
    drop_rate: float = 0.0
    src_leaf: int = 0
    dst_leaf: int = 1
    fraction: float = 0.5
    period_ns: int = 0
    duty: float = 0.5
    until_ns: int = 0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; known: {ACTIONS}"
            )
        if self.time_ns < 0:
            raise ValueError(f"fault time must be >= 0, got {self.time_ns}")
        if self.leaf < 0 or self.spine < 0:
            raise ValueError("leaf/spine indices must be >= 0")
        if self.action == "link_degrade" and self.rate_gbps <= 0:
            raise ValueError(
                "link_degrade needs rate_gbps > 0 (use link_down to cut)"
            )
        if self.action == "random_drop_start" and not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")
        if self.action == "blackhole_on":
            if not 0.0 <= self.fraction <= 1.0:
                raise ValueError("fraction must be in [0, 1]")
            if self.src_leaf == self.dst_leaf:
                raise ValueError("blackhole src_leaf and dst_leaf must differ")
        if self.action == "flap":
            if self.period_ns <= 0:
                raise ValueError("flap needs period_ns > 0")
            if not 0.0 < self.duty < 1.0:
                raise ValueError("flap duty must be in (0, 1)")
            if self.until_ns <= self.time_ns:
                raise ValueError("flap until_ns must be after time_ns")

    def target(self) -> str:
        """Human-readable target label, e.g. ``leaf0<->spine1``."""
        if self.action in LINK_ACTIONS:
            return f"leaf{self.leaf}<->spine{self.spine}"
        if self.action == "blackhole_on":
            return (
                f"spine{self.spine} "
                f"leaf{self.src_leaf}->leaf{self.dst_leaf}"
            )
        return f"spine{self.spine}"


@dataclass(frozen=True)
class FaultScheduleSpec:
    """An ordered collection of timed fault events (one run's script)."""

    events: Tuple[FaultEventSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Accept any iterable; store a tuple so the spec stays hashable
        # and its canonical form (cache key) is order-stable.
        object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEventSpec):
                raise ValueError(
                    f"schedule entries must be FaultEventSpec, got {event!r}"
                )
        self._check_pairing()

    def _check_pairing(self) -> None:
        """A revert without an earlier matching apply is a spec bug —
        catch it at construction, not at t=revert mid-run."""
        applied_at: dict = {}
        for event in sorted(self.events, key=lambda e: e.time_ns):
            key = self._pair_key(event)
            if event.action in REVERT_OF:
                applied_at[(REVERT_OF[event.action], *key)] = event.time_ns
            elif event.action == "flap":
                # A flap leaves the link up; a later explicit link_up is
                # a legal (idempotent) safety net.
                applied_at[("link_up", *key)] = event.time_ns
            elif event.action in REVERT_ACTIONS:
                if (event.action, *key) not in applied_at:
                    raise ValueError(
                        f"{event.action} at t={event.time_ns} on "
                        f"{event.target()} has no earlier matching apply"
                    )

    @staticmethod
    def _pair_key(event: FaultEventSpec) -> tuple:
        if event.action in LINK_ACTIONS:
            return (event.leaf, event.spine)
        return (event.spine,)

    @property
    def span_ns(self) -> Tuple[int, int]:
        """(first, last) scheduled times (flap expansion not included)."""
        if not self.events:
            return (0, 0)
        times = [e.time_ns for e in self.events]
        untils = [e.until_ns for e in self.events if e.action == "flap"]
        return (min(times), max(times + untils))

    def __bool__(self) -> bool:
        return bool(self.events)


# --------------------------------------------------------------------- #
# Builder helpers (the ergonomic way to write schedules in Python)
# --------------------------------------------------------------------- #


def link_down(time_ns: int, leaf: int, spine: int) -> FaultEventSpec:
    return FaultEventSpec("link_down", time_ns, leaf=leaf, spine=spine)


def link_up(time_ns: int, leaf: int, spine: int) -> FaultEventSpec:
    return FaultEventSpec("link_up", time_ns, leaf=leaf, spine=spine)


def link_degrade(
    time_ns: int, leaf: int, spine: int, rate_gbps: float
) -> FaultEventSpec:
    return FaultEventSpec(
        "link_degrade", time_ns, leaf=leaf, spine=spine, rate_gbps=rate_gbps
    )


def link_restore(time_ns: int, leaf: int, spine: int) -> FaultEventSpec:
    return FaultEventSpec("link_restore", time_ns, leaf=leaf, spine=spine)


def random_drop_start(time_ns: int, spine: int, drop_rate: float) -> FaultEventSpec:
    return FaultEventSpec(
        "random_drop_start", time_ns, spine=spine, drop_rate=drop_rate
    )


def random_drop_stop(time_ns: int, spine: int) -> FaultEventSpec:
    return FaultEventSpec("random_drop_stop", time_ns, spine=spine)


def blackhole_on(
    time_ns: int,
    spine: int,
    src_leaf: int = 0,
    dst_leaf: int = 1,
    fraction: float = 0.5,
) -> FaultEventSpec:
    return FaultEventSpec(
        "blackhole_on",
        time_ns,
        spine=spine,
        src_leaf=src_leaf,
        dst_leaf=dst_leaf,
        fraction=fraction,
    )


def blackhole_off(time_ns: int, spine: int) -> FaultEventSpec:
    return FaultEventSpec("blackhole_off", time_ns, spine=spine)


def flap(
    time_ns: int,
    leaf: int,
    spine: int,
    period_ns: int,
    duty: float = 0.5,
    until_ns: int = 0,
) -> FaultEventSpec:
    return FaultEventSpec(
        "flap",
        time_ns,
        leaf=leaf,
        spine=spine,
        period_ns=period_ns,
        duty=duty,
        until_ns=until_ns,
    )


def schedule(*events: FaultEventSpec) -> FaultScheduleSpec:
    """Build a schedule from events (varargs or one iterable)."""
    if len(events) == 1 and not isinstance(events[0], FaultEventSpec):
        events = tuple(events[0])
    return FaultScheduleSpec(tuple(events))


# --------------------------------------------------------------------- #
# CLI string form
# --------------------------------------------------------------------- #

_TIME_UNITS = {"s": 1_000_000_000, "ms": 1_000_000, "us": 1_000, "ns": 1}

#: string-form key -> (spec field, parser).  ``period``/``until`` take
#: time units like the ``@time`` component.
_KEY_FIELDS = {
    "leaf": ("leaf", int),
    "spine": ("spine", int),
    "gbps": ("rate_gbps", float),
    "rate": ("drop_rate", float),
    "src_leaf": ("src_leaf", int),
    "dst_leaf": ("dst_leaf", int),
    "fraction": ("fraction", float),
    "duty": ("duty", float),
}


def parse_time(text: str) -> int:
    """``"5ms"`` / ``"200us"`` / ``"1.5s"`` / ``"1000"`` -> nanoseconds."""
    text = text.strip()
    for unit in ("ms", "us", "ns", "s"):  # ms/us/ns before bare "s"
        if text.endswith(unit):
            try:
                value = float(text[: -len(unit)])
            except ValueError:
                raise ValueError(f"bad time literal {text!r}") from None
            return int(round(value * _TIME_UNITS[unit]))
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"bad time literal {text!r} (use ns/us/ms/s suffix)"
        ) from None


def parse_event(text: str) -> FaultEventSpec:
    """Parse one ``action@time[:key=value,...]`` event."""
    text = text.strip()
    head, _, tail = text.partition(":")
    if "@" not in head:
        raise ValueError(
            f"bad fault event {text!r}: expected action@time[:k=v,...]"
        )
    action, _, when = head.partition("@")
    kwargs: dict = {}
    if tail:
        for item in tail.split(","):
            key, sep, value = item.strip().partition("=")
            if not sep:
                raise ValueError(f"bad fault parameter {item!r} in {text!r}")
            key = key.strip()
            if key == "period":
                kwargs["period_ns"] = parse_time(value)
            elif key == "until":
                kwargs["until_ns"] = parse_time(value)
            elif key in _KEY_FIELDS:
                field_name, cast = _KEY_FIELDS[key]
                try:
                    kwargs[field_name] = cast(value)
                except ValueError:
                    raise ValueError(
                        f"bad value {value!r} for {key!r} in {text!r}"
                    ) from None
            else:
                raise ValueError(
                    f"unknown fault parameter {key!r} in {text!r}; known: "
                    f"{', '.join(sorted(_KEY_FIELDS))}, period, until"
                )
    return FaultEventSpec(action.strip(), parse_time(when), **kwargs)


def parse_schedule(text: str) -> FaultScheduleSpec:
    """Parse a ``;``-separated schedule string (the ``--faults`` flag)."""
    events = [
        parse_event(chunk) for chunk in text.split(";") if chunk.strip()
    ]
    if not events:
        raise ValueError("empty fault schedule")
    return FaultScheduleSpec(tuple(events))


def format_schedule(spec: FaultScheduleSpec) -> str:
    """The inverse of :func:`parse_schedule`: ``parse_schedule(
    format_schedule(spec)) == spec``.  An event names its target and
    every field that is not at its default; times are bare nanoseconds."""
    defaults = {f.name: f.default for f in fields(FaultEventSpec)}
    chunks = []
    for event in spec.events:
        target = ("leaf", "spine") if event.action in LINK_ACTIONS else ("spine",)
        items = [
            f"{key}={getattr(event, name)!r}"
            for key, (name, _) in _KEY_FIELDS.items()
            if name in target or getattr(event, name) != defaults[name]
        ]
        items += [
            f"{key}={getattr(event, key + '_ns')}"
            for key in ("period", "until")
            if getattr(event, key + "_ns")
        ]
        chunks.append(f"{event.action}@{event.time_ns}:{','.join(items)}")
    return "; ".join(chunks)
