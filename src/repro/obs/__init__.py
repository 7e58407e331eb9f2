"""Observability: histograms, ring-buffer time series, live metrics.

The serving story (``repro serve`` + ``repro loadgen``) needs more than
end-of-run counter snapshots: this package holds the pieces that make a
running daemon introspectable —

* :mod:`repro.obs.histogram`  — log-bucketed HDR-style latency
  histograms (mergeable, diffable, JSON-able bucket arrays);
* :mod:`repro.obs.timeseries` — rrd-style fixed-memory per-second ring
  buffers;
* :mod:`repro.obs.metrics`    — the narrow-lock :class:`MetricsRegistry`,
  the one store of the engine's and service's counters, plus the frame diffing behind
  ``repro stats --watch`` and the daemon's :class:`StatsMonitor`;
* :mod:`repro.obs.tracing`    — end-to-end distributed tracing: a W3C-
  shaped trace context riding the frame header, per-hop spans, JSONL
  export, and the trace-tree reconstruction behind ``repro trace``.
"""

from repro.obs.histogram import LatencyHistogram
from repro.obs.metrics import (
    ENGINE_COUNTERS,
    FRAME_COUNTERS,
    LATENCY_HISTOGRAM,
    FrameTracker,
    MetricsRegistry,
    StatsMonitor,
    build_frame,
    hit_rate,
)
from repro.obs.timeseries import RingSeries
from repro.obs.tracing import Span, TraceContext, Tracer

__all__ = [
    "ENGINE_COUNTERS",
    "FRAME_COUNTERS",
    "FrameTracker",
    "LATENCY_HISTOGRAM",
    "LatencyHistogram",
    "MetricsRegistry",
    "RingSeries",
    "Span",
    "StatsMonitor",
    "TraceContext",
    "Tracer",
    "build_frame",
    "hit_rate",
]
