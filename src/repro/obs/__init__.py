"""Privacy-aware telemetry: metrics and trace spans.

The observability layer of the serving stack, in two stdlib-only
modules:

* :mod:`repro.obs.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry`
  of counters, gauges and fixed-bucket histograms, one locked value cell
  per instrument (exact totals from concurrent callers such as gateway
  lanes), with JSON and Prometheus-text exposition;
* :mod:`repro.obs.trace` — explicit-context span trees
  (:class:`~repro.obs.trace.Tracer`) with JSONL export and a
  threshold-configurable slow-query log on stdlib ``logging``.

Search work is counted once, in the
:class:`~repro.search.result.SearchStats` each kernel fills; the serving
stack reads those counts into its ``repro_server_*`` counters and onto
its ``engine.process``/``engine.union`` span attributes, so the metrics
and the traces are the same instrumentation read two ways.

**Privacy invariant.**  The serving stack answers obfuscated queries
``Q(S, T)`` whose whole point is that the server never learns the true
endpoints.  Telemetry must not undo that: spans and metrics carry
*aggregates only* — set sizes, settled-node counts, durations — never
raw node ids.  :class:`~repro.obs.trace.Span` rejects
attribute keys that smell like endpoint payloads, and
``tests/obs/test_privacy_leak.py`` scans every serialized output for
node ids of an obfuscated workload.

This package never imports :mod:`repro.search` or :mod:`repro.service`
(they import *us*).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import JSONLogFormatter, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "JSONLogFormatter",
]
