"""Trace exporters: JSONL, CSV, and Chrome-trace/Perfetto JSON.

JSONL is the interchange format: ``repro trace run`` writes
``events.jsonl`` (tracer records) and ``audit.jsonl`` (decision audit)
into a trace directory, and ``repro trace export`` / ``summarize``
consume those files — so every function here works on plain dicts, not
live telemetry objects.

The Perfetto export emits the Chrome trace-event JSON format
(``{"traceEvents": [...]}``), which both ``chrome://tracing`` and
https://ui.perfetto.dev load natively:

* one *thread* per port, carrying packet movements as instant events;
* one *async span* per flow (``b``/``e`` pairs keyed by flow id), so the
  flow timeline reads directly off the track;
* a ``hermes`` thread carrying Algorithm 2 decisions and Algorithm 1
  path-state transitions as instant events with their reason codes and
  threshold values in ``args``.

Timestamps are microseconds (the format's unit); nanosecond precision is
preserved as fractional microseconds.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, Iterable, Iterator, List, Optional

#: Flat column order for the CSV export of tracer records.
EVENT_FIELDS = (
    "t", "kind", "flow", "pkt", "src", "dst", "seq", "path", "size",
    "port", "note",
)


# --------------------------------------------------------------------- #
# JSONL / CSV
# --------------------------------------------------------------------- #


def write_jsonl(path: str, records: Iterable[Dict[str, Any]]) -> int:
    """One JSON object per line; returns how many were written."""
    count = 0
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def write_csv(path: str, records: Iterable[Dict[str, Any]]) -> int:
    """Flatten records to CSV in :data:`EVENT_FIELDS` order (dict-valued
    fields are JSON-encoded)."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVENT_FIELDS)
        for record in records:
            row = []
            for field in EVENT_FIELDS:
                value = record.get(field)
                if isinstance(value, dict):
                    value = json.dumps(value, sort_keys=True)
                row.append(value)
            writer.writerow(row)
            count += 1
    return count


# --------------------------------------------------------------------- #
# Perfetto / Chrome trace events
# --------------------------------------------------------------------- #

_FABRIC_PID = 1
_HERMES_PID = 2
_HERMES_TID = 1


def perfetto_trace(
    events: Iterable[Dict[str, Any]],
    audit: Iterable[Dict[str, Any]] = (),
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build a Chrome-trace/Perfetto JSON document from exported records.

    Args:
        events: tracer record dicts (``events.jsonl`` rows).
        audit: decision-audit record dicts (``audit.jsonl`` rows).
        meta: run metadata embedded as ``otherData``.
    """
    trace_events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "pid": _FABRIC_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "fabric"},
        },
        {
            "ph": "M",
            "pid": _HERMES_PID,
            "tid": 0,
            "name": "process_name",
            "args": {"name": "hermes"},
        },
        {
            "ph": "M",
            "pid": _HERMES_PID,
            "tid": _HERMES_TID,
            "name": "thread_name",
            "args": {"name": "decisions"},
        },
    ]
    port_tids: Dict[str, int] = {}

    def tid_for(port: Optional[str]) -> int:
        if not port:
            return 0
        tid = port_tids.get(port)
        if tid is None:
            tid = len(port_tids) + 1
            port_tids[port] = tid
            trace_events.append(
                {
                    "ph": "M",
                    "pid": _FABRIC_PID,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": port},
                }
            )
        return tid

    for record in events:
        ts = record["t"] / 1000.0
        kind = record["kind"]
        if kind == "flow_start":
            trace_events.append(
                {
                    "ph": "b",
                    "cat": "flow",
                    "id": record["flow"],
                    "name": f"flow {record['flow']} "
                            f"{record['src']}->{record['dst']}",
                    "ts": ts,
                    "pid": _FABRIC_PID,
                    "tid": 0,
                    "args": {"size_bytes": record.get("size", 0)},
                }
            )
        elif kind == "flow_finish":
            trace_events.append(
                {
                    "ph": "e",
                    "cat": "flow",
                    "id": record["flow"],
                    "name": f"flow {record['flow']} "
                            f"{record['src']}->{record['dst']}",
                    "ts": ts,
                    "pid": _FABRIC_PID,
                    "tid": 0,
                    "args": {"note": record.get("note")},
                }
            )
        else:
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "cat": "packet",
                    "name": f"{kind} f{record['flow']}",
                    "ts": ts,
                    "pid": _FABRIC_PID,
                    "tid": tid_for(record.get("port")),
                    "args": {
                        "flow": record["flow"],
                        "pkt": record.get("pkt"),
                        "seq": record.get("seq"),
                        "path": record.get("path"),
                        "size": record.get("size"),
                        "note": record.get("note"),
                    },
                }
            )

    for record in audit:
        name = record["reason"]
        if record["category"] == "decision":
            name = f"{record['reason']} f{record['flow']}"
        trace_events.append(
            {
                "ph": "i",
                "s": "p",
                "cat": record["category"],
                "name": name,
                "ts": record["t"] / 1000.0,
                "pid": _HERMES_PID,
                "tid": _HERMES_TID,
                "args": {
                    "flow": record.get("flow"),
                    "leaf": record.get("leaf"),
                    "dst_leaf": record.get("dst_leaf"),
                    "path": record.get("path"),
                    "new_path": record.get("new_path"),
                    "detail": record.get("detail", {}),
                },
            }
        )

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ns",
        "otherData": meta or {},
    }


def write_perfetto(
    path: str,
    events: Iterable[Dict[str, Any]],
    audit: Iterable[Dict[str, Any]] = (),
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the Perfetto JSON; returns the number of trace events."""
    document = perfetto_trace(events, audit, meta=meta)
    with open(path, "w") as fh:
        json.dump(document, fh)
        fh.write("\n")
    return len(document["traceEvents"])


# --------------------------------------------------------------------- #
# Summaries / audit queries over exported records
# --------------------------------------------------------------------- #


def summarize_events(events: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate counts over tracer records (JSONL rows)."""
    by_kind: Dict[str, int] = {}
    flows = set()
    drops_by_port: Dict[str, int] = {}
    t_min: Optional[int] = None
    t_max: Optional[int] = None
    for record in events:
        kind = record["kind"]
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if record.get("flow", -1) >= 0:
            flows.add(record["flow"])
        if kind == "drop":
            port = record.get("port") or "?"
            drops_by_port[port] = drops_by_port.get(port, 0) + 1
        t = record["t"]
        t_min = t if t_min is None else min(t_min, t)
        t_max = t if t_max is None else max(t_max, t)
    return {
        "records": sum(by_kind.values()),
        "by_kind": dict(sorted(by_kind.items())),
        "flows_seen": len(flows),
        "drops_by_port": dict(sorted(drops_by_port.items())),
        "span_ns": (t_max - t_min) if by_kind else 0,
    }


def summarize_audit(audit: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate counts over decision-audit records (JSONL rows)."""
    decisions: Dict[str, int] = {}
    transitions: Dict[str, int] = {}
    flips: Dict[str, int] = {}
    for record in audit:
        category = record["category"]
        if category == "decision":
            decisions[record["reason"]] = decisions.get(record["reason"], 0) + 1
        elif category == "path_class":
            transitions[record["reason"]] = (
                transitions.get(record["reason"], 0) + 1
            )
        elif category == "verdict":
            flips[record["reason"]] = flips.get(record["reason"], 0) + 1
    return {
        "decisions_by_reason": dict(sorted(decisions.items())),
        "path_transitions": dict(sorted(transitions.items())),
        "verdict_flips": dict(sorted(flips.items())),
    }


def explain_flow(
    audit: Iterable[Dict[str, Any]], flow_id: int
) -> List[str]:
    """Human-readable decision history for one flow, one line per
    Algorithm 2 decision, with the gate/threshold values that fired."""
    lines: List[str] = []
    for record in audit:
        if record.get("category") != "decision" or record.get("flow") != flow_id:
            continue
        detail = record.get("detail") or {}
        extras = ", ".join(f"{k}={v}" for k, v in sorted(detail.items()))
        move = (
            f"path {record['path']} -> {record['new_path']}"
            if record["path"] != record["new_path"]
            else f"stays on path {record['path']}"
        )
        lines.append(
            f"t={record['t']}ns flow {flow_id}: {record['reason']}: {move}"
            + (f" ({extras})" if extras else "")
        )
    return lines
