"""Explicit-context span trees with JSONL export and a slow-query log.

A :class:`Tracer` produces :class:`Span` trees for the serving stack's
per-query pipeline (``serve.answer_batch`` -> cache consult -> one
``engine.process`` or ``engine.union`` kernel span).  Context is
*explicit*: a child span names its parent via the ``parent=`` argument
instead of ambient thread-local state, so a span opened on another
thread (a gateway lane, a session) attaches to whatever span it names
without any contextvars plumbing.

Determinism: the tracer's clock is injectable, so tests assert exact
durations.

**Privacy.**  Span attributes carry aggregates — obfuscated-set sizes,
settled-node counts, cache hit flags, window sizes, partition cell ids —
never raw endpoints.  :meth:`Span.set` rejects attribute keys that name
endpoint payloads (``sources``, ``destinations``, ``nodes``, ...) so a
leak cannot be introduced by accident; the serialized-output scan in
``tests/obs/test_privacy_leak.py`` backstops the convention for values.

Slow-query logging rides stdlib :mod:`logging`: when a *root* span
finishes over the tracer's threshold it is emitted on the
``repro.obs.slowquery`` logger, and :class:`JSONLogFormatter` renders
such records as one JSON object per line.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections.abc import Callable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JSONLogFormatter",
    "SLOW_QUERY_LOGGER",
    "FORBIDDEN_ATTR_KEYS",
]

#: logger name slow root spans are emitted on
SLOW_QUERY_LOGGER = "repro.obs.slowquery"

#: span attribute keys that would carry raw endpoint node ids — refused
#: at write time so telemetry cannot leak what obfuscation hides.  Record
#: ``num_sources`` / ``num_destinations`` / ``cell`` instead.
FORBIDDEN_ATTR_KEYS = frozenset(
    {
        "source", "sources",
        "destination", "destinations",
        "endpoint", "endpoints",
        "node", "nodes", "node_id", "node_ids",
        "path", "paths",
        "query", "queries",
    }
)


class Span:
    """One timed operation in a trace tree.

    Created via :meth:`Tracer.span` (a context manager); use
    :meth:`set` to attach attributes while the span is open.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "start", "end", "attrs", "children",
    )

    def __init__(self, name: str, span_id: int, parent_id: int | None) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = 0.0
        self.end: float | None = None
        self.attrs: dict[str, object] = {}
        self.children: list[Span] = []

    def set(self, key: str, value: object) -> None:
        """Attach one attribute (aggregates only — see module docstring)."""
        if key in FORBIDDEN_ATTR_KEYS:
            raise ValueError(
                f"span attribute {key!r} would carry endpoint payloads; "
                "record sizes, counts or cell ids instead"
            )
        self.attrs[key] = value

    @property
    def duration(self) -> float:
        """Seconds between start and end (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> dict:
        """This span and its subtree as one JSON-ready dict."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"duration={self.duration:.6f})"
        )


class _SpanContext:
    """Context manager binding one span to a tracer's lifecycle hooks."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.span.start = self._tracer.clock()
        return self.span

    def __exit__(self, *exc_info) -> None:
        self._tracer._finish(self.span)


class Tracer:
    """Factory and store for span trees.

    Parameters
    ----------
    clock:
        Monotonic time source; injectable for deterministic tests.
    slow_threshold_s:
        Root spans finishing at or over this duration are logged on
        :data:`SLOW_QUERY_LOGGER` (``None`` disables the slow log).
    max_roots:
        Retention cap: once this many root trees are stored, further
        roots still time and log but are dropped from :attr:`roots`
        (counted in :attr:`dropped`) so a long replay cannot grow
        memory without bound.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        slow_threshold_s: float | None = None,
        max_roots: int = 10_000,
    ) -> None:
        if max_roots < 1:
            raise ValueError("max_roots must be >= 1")
        self.clock = clock
        self.slow_threshold_s = slow_threshold_s
        self.max_roots = max_roots
        #: finished root span trees, in finish order
        self.roots: list[Span] = []
        #: root trees dropped by the retention cap
        self.dropped = 0
        self._lock = threading.Lock()
        self._next_id = 1

    def span(
        self, name: str, parent: Span | None = None, **attrs: object
    ) -> _SpanContext:
        """Open a span as a context manager.

        ``parent=None`` makes a root; otherwise the new span is attached
        under ``parent`` (thread-safe — concurrent callers may attach
        children to one span).  Keyword
        arguments become initial attributes, validated like
        :meth:`Span.set`.
        """
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(
            name, span_id, parent.span_id if parent is not None else None
        )
        for key, value in attrs.items():
            span.set(key, value)
        if parent is not None:
            with self._lock:
                parent.children.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end = self.clock()
        if span.parent_id is not None:
            return
        with self._lock:
            if len(self.roots) < self.max_roots:
                self.roots.append(span)
            else:
                self.dropped += 1
        threshold = self.slow_threshold_s
        if threshold is not None and span.duration >= threshold:
            logging.getLogger(SLOW_QUERY_LOGGER).warning(
                "slow span %s took %.3f ms",
                span.name,
                span.duration * 1e3,
                extra={"span": span.to_dict()},
            )

    def reset(self) -> None:
        """Forget every stored root tree (ids keep counting up)."""
        with self._lock:
            self.roots.clear()
            self.dropped = 0

    def export_jsonl(self) -> str:
        """Every stored root tree as one JSON object per line."""
        with self._lock:
            roots = list(self.roots)
        return "".join(
            json.dumps(root.to_dict(), sort_keys=True) + "\n" for root in roots
        )

    def write_jsonl(self, path) -> int:
        """Write :meth:`export_jsonl` to ``path``; returns the root count."""
        from pathlib import Path

        text = self.export_jsonl()
        Path(path).write_text(text, encoding="utf-8")
        return text.count("\n")


class _NullSpan(Span):
    """Shared do-nothing span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        """Discard the attribute (still refuses forbidden keys)."""
        if key in FORBIDDEN_ATTR_KEYS:
            raise ValueError(
                f"span attribute {key!r} would carry endpoint payloads; "
                "record sizes, counts or cell ids instead"
            )


class _NullSpanContext:
    """Context manager yielding the shared null span."""

    __slots__ = ("span",)

    def __init__(self, span: _NullSpan) -> None:
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc_info) -> None:
        return None


class NullTracer:
    """Tracing disabled: every ``span()`` yields one shared no-op span.

    The serving stack holds one of these when no tracer is configured,
    so the hot path pays a kwargs dict and one method call per span
    site and nothing else — no ids, no clock reads, no storage.
    """

    __slots__ = ("_context",)

    def __init__(self) -> None:
        span = _NullSpan("null", 0, None)
        self._context = _NullSpanContext(span)

    def span(
        self, name: str, parent: Span | None = None, **attrs: object
    ) -> _NullSpanContext:
        """Return the shared no-op span context."""
        return self._context


#: process-wide shared disabled tracer
NULL_TRACER = NullTracer()


class JSONLogFormatter(logging.Formatter):
    """Render log records as one JSON object per line.

    Records carrying a ``span`` attribute (the slow-query log's payload)
    embed the serialized span tree under ``"span"``.
    """

    def format(self, record: logging.LogRecord) -> str:
        """One JSON line for ``record``."""
        doc: dict[str, object] = {
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        span = getattr(record, "span", None)
        if span is not None:
            doc["span"] = span
        return json.dumps(doc, sort_keys=True)
