"""Privacy-aware telemetry: metrics, trace spans, and kernel recorders.

The observability layer of the serving stack, in three stdlib-only
modules:

* :mod:`repro.obs.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters, gauges and fixed-bucket histograms whose write path is
  per-thread sharded (lock-free increments from concurrent callers such
  as gateway lanes, exact totals on merge), with JSON and Prometheus-text
  exposition;
* :mod:`repro.obs.trace` — explicit-context span trees
  (:class:`~repro.obs.trace.Tracer`) with JSONL export and a
  threshold-configurable slow-query log on stdlib ``logging``;
* :mod:`repro.obs.record` — the kernel profiling hook: a
  :class:`~repro.obs.record.Recorder` protocol with a zero-overhead
  disabled default, consulted once per kernel invocation by
  :mod:`repro.search.kernels`, :mod:`repro.search.overlay` and
  :mod:`repro.search.ch.query`.

**Privacy invariant.**  The serving stack answers obfuscated queries
``Q(S, T)`` whose whole point is that the server never learns the true
endpoints.  Telemetry must not undo that: spans and metrics carry
*aggregates only* — set sizes, settled-node counts, partition cell ids,
durations — never raw node ids.  :class:`~repro.obs.trace.Span` rejects
attribute keys that smell like endpoint payloads, and
``tests/obs/test_privacy_leak.py`` scans every serialized output for
node ids of an obfuscated workload.

This package never imports :mod:`repro.search` or :mod:`repro.service`
(they import *us*), so the hooks can sit on the hottest kernels without
import cycles.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.record import (
    MetricsRecorder,
    Recorder,
    get_recorder,
    recording,
    set_recorder,
)
from repro.obs.trace import JSONLogFormatter, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Recorder",
    "MetricsRecorder",
    "set_recorder",
    "get_recorder",
    "recording",
    "Span",
    "Tracer",
    "JSONLogFormatter",
]
