"""repro.obs — observability for the SVM stack.

The paper's whole evaluation is *attribution*: which primitive, which
strip, which category the dynamic instructions went to (§6.1-6.3).
This package turns that from per-bench ad-hoc code into a layer:

* :mod:`repro.obs.spans` — hierarchical profiling spans (algorithm →
  primitive → strip) capturing per-span counter deltas, wall time,
  and metadata, with zero cost when no collector is installed;
* :mod:`repro.obs.metrics` — a registry of named counters, gauges,
  and histograms (per-strip vl, strips per call, plan-cache hit
  rate, spill share);
* :mod:`repro.obs.export` — the tree report, JSON export, and
  Chrome-trace (``chrome://tracing`` / Perfetto) export;
* :mod:`repro.obs.telemetry` — always-on *service* telemetry for the
  daemon: request trace IDs and per-flush timing, plus a bounded
  flight recorder of structured events with slowest-request
  exemplars;
* :mod:`repro.obs.exposition` — Prometheus text exposition of the
  registry, with the strict parser CI validates scrapes against.

Entry points: ``SVM(profile=True)`` + ``svm.profiler``, the
:func:`~repro.obs.spans.profile` context manager for a bare machine,
and the ``repro profile`` CLI subcommand. See ``docs/observability.md``.
"""

from .export import render_tree, to_chrome_trace, to_json
from .exposition import ExpositionError, parse_exposition, render_exposition
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, Summary
from .spans import (
    NULL_SPAN,
    ProfileCollector,
    Span,
    SpanEvent,
    profile,
    span,
)
from .telemetry import FlightRecorder, Telemetry

__all__ = [
    "ProfileCollector",
    "Span",
    "SpanEvent",
    "profile",
    "span",
    "NULL_SPAN",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Summary",
    "render_tree",
    "to_json",
    "to_chrome_trace",
    "Telemetry",
    "FlightRecorder",
    "render_exposition",
    "parse_exposition",
    "ExpositionError",
]
