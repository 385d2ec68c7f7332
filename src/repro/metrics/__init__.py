"""Metrics: FCT statistics, queue sampling, visibility.

FCT is the paper's primary metric, broken down into small (<100 KB) and
large (>10 MB) flows; the visibility counter reproduces Table 2.
"""

from repro.metrics.fct import FlowRecord, FctStats, SMALL_FLOW_BYTES, LARGE_FLOW_BYTES
from repro.metrics.streaming import STREAMING_AUTO_FLOWS, StreamingFctStats
from repro.telemetry.series import QueueSampler
from repro.metrics.visibility import VisibilitySampler

__all__ = [
    "FlowRecord",
    "FctStats",
    "StreamingFctStats",
    "STREAMING_AUTO_FLOWS",
    "SMALL_FLOW_BYTES",
    "LARGE_FLOW_BYTES",
    "QueueSampler",
    "VisibilitySampler",
]
