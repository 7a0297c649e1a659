"""Observability: bounded-memory trace sinks, metrics, and phase profiling.

Three layers, all dependency-free:

* :mod:`repro.obs.sinks` — pluggable trace sinks (streaming fingerprint,
  JSONL file, divergence detector, tee) that capture the T/H access stream
  in O(1) process memory;
* :mod:`repro.obs.metrics` — a counter/gauge/histogram registry exported as
  JSON or Prometheus text;
* :mod:`repro.obs.spans` — span-based phase timing attributing wall time and
  transfers to the algorithm phases (scan, sort, flush, filter, ...).
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    family_total,
    instrument_join,
    instrument_workload,
)
from repro.obs.sinks import (
    DivergenceTrace,
    JsonlTrace,
    StreamDivergence,
    StreamingTrace,
    TeeTrace,
    TraceSink,
    one_shot,
    read_jsonl_events,
)
from repro.obs.spans import PhaseProfile

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "DivergenceTrace",
    "Gauge",
    "Histogram",
    "JsonlTrace",
    "MetricsRegistry",
    "PhaseProfile",
    "StreamDivergence",
    "StreamingTrace",
    "TeeTrace",
    "TraceSink",
    "family_total",
    "instrument_join",
    "instrument_workload",
    "one_shot",
    "read_jsonl_events",
]
