"""Time-scheduled fault injection (the dynamic fault plane).

Declarative layer (:mod:`repro.faults.spec`): build or parse a
:class:`FaultScheduleSpec` — a validated, hashable timeline of fault
events.  Runtime layer (:mod:`repro.faults.plane`): bind it to a live
fabric with :class:`FaultSchedule` and the engine applies/reverts each
fault at its scheduled nanosecond.
"""

from repro.faults.plane import FaultRecord, FaultSchedule
from repro.faults.spec import (
    APPLY_ACTIONS,
    REVERT_ACTIONS,
    FaultEventSpec,
    FaultScheduleSpec,
    blackhole_off,
    blackhole_on,
    flap,
    format_schedule,
    link_degrade,
    link_down,
    link_restore,
    link_up,
    parse_event,
    parse_schedule,
    parse_time,
    random_drop_start,
    random_drop_stop,
    schedule,
)

__all__ = [
    "APPLY_ACTIONS",
    "REVERT_ACTIONS",
    "FaultEventSpec",
    "FaultScheduleSpec",
    "FaultRecord",
    "FaultSchedule",
    "blackhole_off",
    "blackhole_on",
    "flap",
    "format_schedule",
    "link_degrade",
    "link_down",
    "link_restore",
    "link_up",
    "parse_event",
    "parse_schedule",
    "parse_time",
    "random_drop_start",
    "random_drop_stop",
    "schedule",
]
