"""Unified observability: structured tracing, metrics, reporting.

The paper's entire evaluation is measurement -- Tables 3-5 count
comparisons, table operations, and end-to-end run times -- and this
package is the common surface those quantities flow through:

* :mod:`repro.obs.trace` -- a :class:`~repro.obs.trace.Tracer` with
  nested spans and point events, a no-op
  :class:`~repro.obs.trace.NullTracer` default so hot paths pay only a
  truthiness check, and exporters for JSONL and the Chrome
  ``chrome://tracing`` trace-event format;
* :mod:`repro.obs.metrics` -- typed counters/gauges/histograms with
  labels and a deterministic snapshot that is byte-stable under
  ``--jobs N`` (configuration-sensitive quantities such as cache hit
  rates and wall clocks live in a separate *volatile* section);
* :mod:`repro.obs.report` -- ``repro report``: paper-style Tables
  3/4/5 plus cache/fallback/degradation summaries rendered from a run
  journal and/or a metrics snapshot, as Markdown and JSON;
* :mod:`repro.obs.expo` -- Prometheus text exposition of a metrics
  snapshot plus :class:`~repro.obs.expo.RollingWindow`, the
  ring-buffer sliding-window aggregates (p50/p99 latency, queue
  depth, shed/reject rates) behind ``repro serve --telemetry``;
* :mod:`repro.obs.profile` -- ``repro profile``: the deterministic
  work-profiler attributing builder work counters to a
  workload/builder/phase call tree, exported as collapsed stacks for
  flamegraph tooling and a Markdown "where the work goes" table.

Instrumented layers (``repro schedule``/``verify``/``bench``,
:func:`repro.runner.batch.run_batch`,
:func:`repro.runner.fallback.schedule_block_resilient`,
:func:`repro.pipeline.schedule_attempt`,
:func:`repro.verify.checker.verify_schedule`) accept ``tracer=`` and
``metrics=`` keywords; both default to off and never change schedules,
journals, or stdout.
"""

from repro.obs.expo import (
    EXPOSITION_CONTENT_TYPE,
    RollingWindow,
    parse_exposition,
    render_exposition,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    read_metrics,
    write_metrics,
)
from repro.obs.profile import (
    WorkProfile,
    profile_block,
    profile_workload,
    write_profile,
)
from repro.obs.report import (
    load_journal_blocks,
    render_markdown,
    report_from,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    span_tree,
    write_chrome_trace,
    write_trace,
    write_trace_jsonl,
)

__all__ = [
    "Counter",
    "EXPOSITION_CONTENT_TYPE",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "RollingWindow",
    "Tracer",
    "WorkProfile",
    "load_journal_blocks",
    "parse_exposition",
    "profile_block",
    "profile_workload",
    "read_metrics",
    "render_markdown",
    "render_exposition",
    "report_from",
    "span_tree",
    "write_chrome_trace",
    "write_metrics",
    "write_profile",
    "write_trace",
    "write_trace_jsonl",
]
