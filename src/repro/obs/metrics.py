"""Metrics registry with JSON and Prometheus exposition.

Several threads answer through one serving stack (the gateway's lane
and reweight threads, sessions sharing a stack), so every instrument keeps **one value
cell behind its own lock**: writers from any thread give exact totals,
and a reader copies the cell once under the same lock, so a histogram's
count, sum and buckets always come from one consistent snapshot.
The per-request writes (:meth:`Counter.inc`, :meth:`Histogram.observe`)
take the lock with a bare ``acquire``/``try``/``finally`` rather than
``with``, which roughly halves their cost on CPython, and compute what
needs no lock (a histogram's bucket index) before taking it.

Three instrument kinds cover the serving stack's needs:

* :class:`Counter` — monotonically increasing totals (cache hits,
  queries served, settled nodes);
* :class:`Gauge` — last-written or maximum values (installed epoch,
  search-tree radius);
* :class:`Histogram` — fixed-bucket latency/size distributions
  (batch latencies).

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
]

#: default histogram bucket upper bounds (seconds-flavored, from 100us
#: to 10s) — callers measuring counts should pass their own bounds.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class _Instrument:
    """Name, description and the lock guarding the value cell."""

    __slots__ = ("name", "desc", "_lock")

    def __init__(self, name: str, desc: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid metric name {name!r} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
            )
        self.name = name
        self.desc = desc
        self._lock = threading.Lock()


class _Scalar(_Instrument):
    """An instrument whose cell is one number."""

    __slots__ = ("_value",)

    def __init__(self, name: str, desc: str = "") -> None:
        super().__init__(name, desc)
        self._value: int | float = 0

    @property
    def value(self) -> int | float:
        """Current value (0 when never written)."""
        with self._lock:
            return self._value

    def reset(self) -> None:
        """Return the value to zero."""
        with self._lock:
            self._value = 0


class Counter(_Scalar):
    """Monotonically increasing total."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (>= 0)."""
        if amount < 0:
            raise ValueError("counters only go up")
        lock = self._lock
        lock.acquire()
        try:
            self._value += amount
        finally:
            lock.release()


class Gauge(_Scalar):
    """Point-in-time value; supports ``set``, ``inc`` and ``set_max``."""

    __slots__ = ()

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is the new maximum."""
        with self._lock:
            if value > self._value:
                self._value = value


class Histogram(_Instrument):
    """Fixed-bucket distribution.

    The cell holds ``[bucket_counts..., count, sum]``; ``observe`` is a
    bisect outside the lock plus three list writes inside it.  Bucket
    bounds are upper bounds; values above the last bound land in the
    implicit ``+Inf`` bucket.
    """

    __slots__ = ("buckets", "_cell")

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
        # one slot per finite bucket + the +Inf bucket + count + sum
        self._cell: list = [0] * (len(self.buckets) + 1) + [0, 0.0]

    def observe(self, value: float) -> None:
        """Record one sample."""
        slot = bisect_left(self.buckets, value)
        cell = self._cell
        lock = self._lock
        lock.acquire()
        try:
            cell[slot] += 1
            cell[-2] += 1
            cell[-1] += value
        finally:
            lock.release()

    def snapshot(self) -> tuple[int, float, list[tuple[float, int]]]:
        """``(count, sum, bucket_counts)`` copied under one lock hold.

        The three always agree: the last bucket's count equals
        ``count`` even while other threads observe.
        """
        with self._lock:
            cell = self._cell.copy()
        bounds = self.buckets + (float("inf"),)
        pairs = []
        running = 0
        for bound, hits in zip(bounds, cell):
            running += hits
            pairs.append((bound, running))
        return cell[-2], cell[-1], pairs

    @property
    def count(self) -> int:
        """Total samples observed."""
        return self.snapshot()[0]

    @property
    def sum(self) -> float:
        """Sum of all observed samples."""
        return self.snapshot()[1]

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        The final pair's bound is ``float("inf")`` and its count equals
        :attr:`count`.
        """
        return self.snapshot()[2]

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

    def reset(self) -> None:
        """Return every bucket, the count and the sum to zero."""
        with self._lock:
            # in place: observe() takes its reference before the lock
            cell = self._cell
            cell[:] = [0] * (len(cell) - 1) + [0.0]


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
                count, total, pairs = instrument.snapshot()
                out[name] = {
                    "type": "histogram",
                    "count": count,
                    "sum": total,
                    "buckets": [
                        ["+Inf" if bound == float("inf") else bound, hits]
                        for bound, hits in pairs
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
