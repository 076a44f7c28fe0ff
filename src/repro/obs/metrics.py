"""Thread-sharded metrics registry with JSON and Prometheus exposition.

Several threads answer through one serving stack (the gateway's shard
lanes, sessions sharing a stack), so a naive lock-per-increment counter
would serialize the hottest code path on its own instrumentation.  Every instrument here keeps **per-thread shards**
instead: a thread's first touch registers its own cell (one short
lock acquisition), after which increments are plain list-index writes on
the owning thread — no locks, no contention, and exact totals whenever
the shards are merged on read (writes never interleave because each cell
has exactly one writer).

Three instrument kinds cover the serving stack's needs:

* :class:`Counter` — monotonically increasing totals (cache hits,
  queries served, settled nodes);
* :class:`Gauge` — last-written or maximum values (installed epoch,
  search-tree radius);
* :class:`Histogram` — fixed-bucket latency/size distributions
  (batch latencies), merged shard-by-shard.

A :class:`MetricsRegistry` owns instruments by name (get-or-create, so
components can share one registry without coordination) and renders the
whole set as a JSON document (:meth:`MetricsRegistry.to_json`) or
Prometheus text exposition (:meth:`MetricsRegistry.to_prometheus`).

Privacy: metric *names* are static strings and values are aggregate
numbers, so nothing here can carry a raw node id; see the package
docstring for the invariant and the leak test that enforces it.

Examples
--------
>>> registry = MetricsRegistry()
>>> registry.counter("repro_demo_hits_total").inc()
>>> registry.counter("repro_demo_hits_total").inc(2)
>>> registry.counter("repro_demo_hits_total").value
3
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "sanitize_metric_name",
]

#: default histogram bucket upper bounds (seconds-flavored, from 100us
#: to 10s) — callers measuring counts should pass their own bounds.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(raw: str) -> str:
    """Rewrite ``raw`` into a valid Prometheus metric-name fragment.

    Dots, dashes and any other illegal characters become underscores
    (``"overlay.route"`` -> ``"overlay_route"``); a leading digit gains
    an underscore prefix.
    """
    name = _SANITIZE_RE.sub("_", raw)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


class _Instrument:
    """Shared shard bookkeeping for all instrument kinds.

    Subclasses define ``_new_shard()`` (the per-thread cell) and read
    the merged value off ``_shards`` under ``_lock``.
    """

    __slots__ = ("name", "desc", "_shards", "_lock")

    def __init__(self, name: str, desc: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid metric name {name!r} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
            )
        self.name = name
        self.desc = desc
        self._shards: dict[int, list] = {}
        self._lock = threading.Lock()

    def _shard(self) -> list:
        """This thread's private cell (registered under the lock once)."""
        ident = threading.get_ident()
        shard = self._shards.get(ident)
        if shard is None:
            with self._lock:
                shard = self._shards.setdefault(ident, self._new_shard())
        return shard

    def _new_shard(self) -> list:  # pragma: no cover - abstract
        raise NotImplementedError

    def reset(self) -> None:
        """Drop every shard, returning the instrument to zero."""
        with self._lock:
            self._shards.clear()


class Counter(_Instrument):
    """Monotonically increasing total, sharded per writing thread."""

    __slots__ = ()

    def _new_shard(self) -> list:
        return [0]

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (>= 0) to this thread's shard."""
        if amount < 0:
            raise ValueError("counters only go up")
        self._shard()[0] += amount

    @property
    def value(self) -> int | float:
        """Merged total across all thread shards."""
        with self._lock:
            return sum(shard[0] for shard in self._shards.values())


class Gauge(_Instrument):
    """Point-in-time value; supports ``set``, ``inc`` and ``set_max``.

    Gauges are written rarely (once per batch, not per node), so they
    take the instrument lock on every write instead of sharding —
    last-write-wins and running-max semantics need a single cell.
    """

    __slots__ = ()

    def _new_shard(self) -> list:  # pragma: no cover - gauges do not shard
        return [0.0]

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        with self._lock:
            self._shards[0] = [value]

    def inc(self, amount: float = 1) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            cell = self._shards.setdefault(0, [0.0])
            cell[0] += amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is the new maximum."""
        with self._lock:
            cell = self._shards.setdefault(0, [value])
            if value > cell[0]:
                cell[0] = value

    @property
    def value(self) -> float:
        """Current gauge value (0 when never written)."""
        with self._lock:
            cell = self._shards.get(0)
            return cell[0] if cell is not None else 0


class Histogram(_Instrument):
    """Fixed-bucket distribution, sharded per writing thread.

    Each shard holds ``[bucket_counts..., count, sum]``; ``observe`` is
    a bisect plus three list writes on the owning thread.  Bucket
    bounds are upper bounds; values above the last bound land in the
    implicit ``+Inf`` bucket.
    """

    __slots__ = ("buckets",)

    def __init__(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        desc: str = "",
    ) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ValueError("buckets must be strictly increasing and non-empty")
        super().__init__(name, desc)
        self.buckets = tuple(float(b) for b in buckets)

    def _new_shard(self) -> list:
        # one cell per finite bucket + the +Inf bucket + count + sum
        return [0] * (len(self.buckets) + 1) + [0, 0.0]

    def observe(self, value: float) -> None:
        """Record one sample."""
        shard = self._shard()
        shard[bisect_left(self.buckets, value)] += 1
        shard[-2] += 1
        shard[-1] += value

    def _merged(self) -> list:
        with self._lock:
            merged = self._new_shard()
            for shard in self._shards.values():
                for i, cell in enumerate(shard):
                    merged[i] += cell
            return merged

    @property
    def count(self) -> int:
        """Total samples observed."""
        return self._merged()[-2]

    @property
    def sum(self) -> float:
        """Sum of all observed samples."""
        return self._merged()[-1]

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        The final pair's bound is ``float("inf")`` and its count equals
        :attr:`count`.
        """
        merged = self._merged()
        bounds = list(self.buckets) + [float("inf")]
        pairs = []
        running = 0
        for bound, cell in zip(bounds, merged):
            running += cell
            pairs.append((bound, running))
        return pairs

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile sample.

        The standard bucketed estimate (what a Prometheus
        ``histogram_quantile`` computes server-side): walk the
        cumulative bucket counts until ``ceil(q * count)`` samples are
        covered and report that bucket's upper bound.  Returns 0.0 for
        an empty histogram; samples beyond the last finite bound
        estimate as that last finite bound (there is no useful number
        for "+Inf").  A conservative (never under-reporting) estimate as
        long as the bucket grid brackets the real latency.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        pairs = self.bucket_counts()
        total = pairs[-1][1]
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q * total))
        for bound, running in pairs:
            if running >= rank:
                return bound if bound != float("inf") else self.buckets[-1]
        return self.buckets[-1]  # pragma: no cover - cumulative invariant


class MetricsRegistry:
    """Named instruments with get-or-create access and exposition.

    One registry per serving stack (the default) keeps component
    counters isolated; passing a shared registry to several components
    is fine as long as their metric names differ — get-or-create makes
    the sharing coordination-free.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, kind, name: str, *args, **kwargs):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name, *args, **kwargs)
                self._instruments[name] = instrument
            elif type(instrument) is not kind:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str, desc: str = "") -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get_or_create(Counter, name, desc=desc)

    def gauge(self, name: str, desc: str = "") -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get_or_create(Gauge, name, desc=desc)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        desc: str = "",
    ) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        return self._get_or_create(Histogram, name, buckets, desc=desc)

    def __contains__(self, name: str) -> bool:
        """Whether an instrument called ``name`` exists."""
        with self._lock:
            return name in self._instruments

    def reset(self) -> None:
        """Zero every instrument (the instruments themselves survive)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.reset()

    def collect(self) -> dict[str, dict]:
        """Snapshot every instrument as plain JSON-ready dicts."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        out: dict[str, dict] = {}
        for name, instrument in instruments:
            if isinstance(instrument, Counter):
                out[name] = {
                    "type": "counter",
                    "value": instrument.value,
                    "desc": instrument.desc,
                }
            elif isinstance(instrument, Gauge):
                out[name] = {
                    "type": "gauge",
                    "value": instrument.value,
                    "desc": instrument.desc,
                }
            else:
                assert isinstance(instrument, Histogram)
                out[name] = {
                    "type": "histogram",
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "buckets": [
                        ["+Inf" if bound == float("inf") else bound, count]
                        for bound, count in instrument.bucket_counts()
                    ],
                    "desc": instrument.desc,
                }
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """The whole registry as one JSON document (schema 1)."""
        return json.dumps(
            {"schema": 1, "metrics": self.collect()}, indent=indent
        )

    def to_prometheus(self) -> str:
        """The whole registry in the Prometheus text exposition format."""
        lines: list[str] = []
        for name, doc in self.collect().items():
            if doc["desc"]:
                lines.append(f"# HELP {name} {doc['desc']}")
            lines.append(f"# TYPE {name} {doc['type']}")
            if doc["type"] in ("counter", "gauge"):
                lines.append(f"{name} {doc['value']}")
                continue
            for bound, count in doc["buckets"]:
                lines.append(f'{name}_bucket{{le="{bound}"}} {count}')
            lines.append(f"{name}_sum {doc['sum']}")
            lines.append(f"{name}_count {doc['count']}")
        return "\n".join(lines) + "\n"
