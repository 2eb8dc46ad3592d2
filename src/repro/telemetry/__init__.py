"""Unified telemetry: metrics registry, SimClock-pinned spans, exporters.

The observability layer behind the paper's whole evaluation — where
time and bytes go, per phase, per device, per link, per op.  One
:class:`Telemetry` instance lives on each
:class:`~repro.core.context.SecureContext` (``ctx.telemetry``); take
:meth:`Telemetry.snapshot` snapshots and diff them to measure a window,
or :meth:`Telemetry.report` for a human-readable roll-up.

See :mod:`repro.telemetry.core` for the metric naming conventions and
:mod:`repro.telemetry.export` for the Chrome-trace / JSON / plaintext
output formats.
"""

from repro.telemetry.core import Telemetry, maybe_span
from repro.telemetry.registry import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    HistogramData,
    MetricRegistry,
)
from repro.telemetry.snapshot import TelemetrySnapshot
from repro.telemetry.spans import SpanLog, SpanRecord
from repro.telemetry.export import (
    chrome_trace_events,
    export_chrome_trace,
    json_summary,
    text_report,
)

__all__ = [
    "Telemetry",
    "maybe_span",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramData",
    "MetricRegistry",
    "DEFAULT_BUCKETS",
    "TelemetrySnapshot",
    "SpanLog",
    "SpanRecord",
    "chrome_trace_events",
    "export_chrome_trace",
    "json_summary",
    "text_report",
]
