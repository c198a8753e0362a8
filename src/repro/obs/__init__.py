"""Kernel observability layer: structured tracing, metrics, exporters.

The measurement substrate everything in ``eval/`` (Table III, Fig. 9) and
the CLI's ``--trace-out``/``--metrics`` flags are built on:

* :mod:`repro.obs.trace`   — the bounded-ring :class:`Tracer` with
  name-indexed lookup, span context managers and per-event categories;
* :mod:`repro.obs.metrics` — the always-on :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms, with its plain-text dump;
* :mod:`repro.obs.export`  — the Chrome trace-event JSON exporter
  (``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.analytics`  — percentile summaries (p50/p90/p99) over
  histograms and trace-span samples, DPR critical-path chains;
* :mod:`repro.obs.accounting` — per-VM cycle attribution (kernel /
  guest-kernel / guest-user / idle), PRR occupancy, exact vIRQ latency
  samples; per-VM event counts are read back from the registry;
* :mod:`repro.obs.aggregate`  — mergeable :class:`MetricSnapshot` with an
  exact K-way merge law (the fleet-aggregation substrate);
* :mod:`repro.obs.stream`     — the schema-versioned JSONL telemetry bus
  emitting deterministic metric deltas at a sim-cycle cadence;
* :mod:`repro.obs.slo`        — declarative windowed SLOs (p99 ceilings,
  rate floors, error-budget burn) evaluated on the stream;
* :mod:`repro.obs.flight`     — the flight recorder dumping deterministic
  post-mortem bundles on invariant violations and crashes.

The event names the kernel emits are a documented contract, not an
accident: see ``docs/OBSERVABILITY.md`` for the full catalog, the span
pairing rules and the ring-buffer semantics.  ``tools/check_event_catalog.py``
keeps code and catalog in sync.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    CATEGORIES,
    DEFAULT_RING_CAPACITY,
    EventRing,
    TraceEvent,
    Tracer,
)
from .export import (
    chrome_trace_events,
    write_chrome_trace,
)
from .analytics import (
    DprChain,
    SeriesSummary,
    dpr_chains,
    dpr_stage_summaries,
    percentile_of_samples,
    plirq_latency_samples,
    summarize,
)
from .accounting import VmAccount, VmAccounting
from .aggregate import (
    HistState,
    MetricSnapshot,
    SNAPSHOT_SCHEMA_VERSION,
    apply_delta,
    delta_between,
    merge_all,
)
from .stream import DEFAULT_INTERVAL_MS, STREAM_SCHEMA_VERSION, TelemetryStream
from .slo import (
    EXIT_SLO_BREACH,
    SloEngine,
    SloRule,
    load_slo_config,
    parse_slo_config,
)
from .flight import (
    FLIGHT_SCHEMA_VERSION,
    FlightRecorder,
    load_bundle,
    maybe_dump,
    render_bundle,
    validate_bundle,
    write_bundle,
)

__all__ = [
    "CATEGORIES", "Counter", "DEFAULT_INTERVAL_MS", "DEFAULT_RING_CAPACITY",
    "DprChain", "EXIT_SLO_BREACH", "EventRing", "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder", "Gauge", "HistState", "Histogram", "MetricSnapshot",
    "MetricsRegistry", "SNAPSHOT_SCHEMA_VERSION", "STREAM_SCHEMA_VERSION",
    "SeriesSummary", "SloEngine", "SloRule", "TelemetryStream", "TraceEvent",
    "Tracer", "VmAccount", "VmAccounting", "apply_delta",
    "chrome_trace_events", "delta_between", "dpr_chains",
    "dpr_stage_summaries", "load_bundle", "load_slo_config", "maybe_dump",
    "merge_all", "parse_slo_config", "percentile_of_samples",
    "plirq_latency_samples", "render_bundle", "summarize",
    "validate_bundle", "write_bundle", "write_chrome_trace",
]
