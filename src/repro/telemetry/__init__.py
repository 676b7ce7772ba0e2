"""Structured tracing, metrics and profiling for the simulator stack.

The paper's headline behaviours are *event-shaped* -- regulator mode
switches, comparator threshold crossings, brownouts, DVFS retunes --
but a :class:`~repro.sim.result.SimulationResult` only surfaces
end-of-run aggregates.  This package is the observability layer that
records the events themselves:

* :mod:`~repro.telemetry.tracing` -- zero-dependency span/event tracer
  stamped with **simulated** time (never wall clock; REP002-clean);
* :mod:`~repro.telemetry.metrics` -- deterministic counters, gauges
  and fixed-edge histograms, with a segregated wall-clock profiling
  namespace;
* :mod:`~repro.telemetry.session` -- the injectable
  :class:`Telemetry` seam: a no-op default so instrumentation costs
  ~nothing when disabled, and :class:`TelemetrySession` to record;
* :mod:`~repro.telemetry.profiling` -- a ``time.perf_counter``
  stopwatch for step-loop wall timing (observability only);
* :mod:`~repro.telemetry.export` -- JSONL event logs and Chrome
  ``chrome://tracing`` trace-event JSON, both byte-deterministic;
* :mod:`~repro.telemetry.aggregate` -- campaign-level reduction of
  per-run metric snapshots, bit-identical serial versus parallel.

Quickstart::

    from repro.telemetry import TelemetrySession, write_chrome_trace

    session = TelemetrySession()
    result = fig8_mppt_tracking(telemetry=session)
    write_chrome_trace("fig8_trace.json", session.tracer,
                       session.metrics.as_dict())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.telemetry.aggregate import (
        MetricTuple,
        aggregate_run_metrics,
        metrics_tuple_as_dict,
        run_metric_tuple,
    )
    from repro.telemetry.export import (
        to_chrome_trace,
        to_jsonl,
        write_chrome_trace,
        write_jsonl,
    )
    from repro.telemetry.metrics import (
        DEFAULT_EDGES,
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        MetricsSnapshot,
        merge_snapshots,
    )
    from repro.telemetry.profiling import Stopwatch
    from repro.telemetry.session import (
        NULL_TELEMETRY,
        NullTelemetry,
        Telemetry,
        TelemetrySession,
    )
    from repro.telemetry.tracing import Event, Span, Tracer

__all__ = [
    "DEFAULT_EDGES",
    "NULL_TELEMETRY",
    "Counter",
    "Event",
    "Gauge",
    "Histogram",
    "MetricTuple",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullTelemetry",
    "Span",
    "Stopwatch",
    "Telemetry",
    "TelemetrySession",
    "Tracer",
    "aggregate_run_metrics",
    "merge_snapshots",
    "metrics_tuple_as_dict",
    "run_metric_tuple",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.telemetry.aggregate": (
            "MetricTuple", "aggregate_run_metrics", "metrics_tuple_as_dict",
            "run_metric_tuple",
        ),
        "repro.telemetry.export": (
            "to_chrome_trace", "to_jsonl", "write_chrome_trace",
            "write_jsonl",
        ),
        "repro.telemetry.metrics": (
            "DEFAULT_EDGES", "Counter", "Gauge", "Histogram",
            "MetricsRegistry", "MetricsSnapshot", "merge_snapshots",
        ),
        "repro.telemetry.profiling": ("Stopwatch",),
        "repro.telemetry.session": (
            "NULL_TELEMETRY", "NullTelemetry", "Telemetry",
            "TelemetrySession",
        ),
        "repro.telemetry.tracing": ("Event", "Span", "Tracer"),
    },
)
