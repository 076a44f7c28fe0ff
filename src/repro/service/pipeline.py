"""Live traffic pipeline: streaming re-weights under serving load.

:meth:`~repro.service.serving.ServingStack.reweight` (PR 5) started as
a synchronous, between-batches call — correct, but a production traffic
feed does not wait for a gap in the query stream.  This module promotes
it to a streaming pipeline with three stages, modeled in-process (no
broker dependency):

1. :class:`TrafficEventStream` — an append-only, replayable log of
   :class:`~repro.workloads.replay.TrafficEvent` edge re-weights, each
   stamped with its arrival time on an injectable clock;
2. :class:`DeltaBatcher` — a debounce window that coalesces pending
   events into contiguous batches (per-edge last-writer-wins within a
   batch) and groups them by overlay cell for accounting;
3. :class:`RecustomizeWorker` — a background thread that drains
   batches, recustomizes only the touched cells from a copy-on-write
   network snapshot
   (:meth:`~repro.search.overlay.OverlayGraph.recustomized_on`), and
   installs the result atomically via
   :meth:`~repro.service.serving.ServingStack.install_epoch`.

The epoch handoff is the concurrency story: every ``answer_batch``
captures ``(network, fingerprint)`` once, so in-flight queries finish
against the old epoch's immutable snapshot while new queries pick up
the new one — the old "call reweight between batches" restriction is
gone.  The price is *bounded staleness*, not inconsistency: every
response is exact for the network state after some contiguous prefix
of the published event stream (batches always drain prefixes), and the
event→installed latency is tracked per event in the
``repro_pipeline_staleness_seconds`` histogram that the bench gate
watches.

:class:`TrafficPipeline` is the facade wiring the three stages to one
stack: ``publish`` events from any thread, ``start``/``stop`` the
worker (or drive :meth:`TrafficPipeline.pump` synchronously in tests),
``quiesce`` to drain everything, and ``snapshot`` for the counters.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.service.serving import ReweightOutcome, ServingStack
from repro.service.stats import percentile
from repro.workloads.replay import TrafficEvent

__all__ = [
    "TrafficEventStream",
    "DeltaBatch",
    "DeltaBatcher",
    "RecustomizeWorker",
    "TrafficPipeline",
    "PipelineSnapshot",
    "replay_with_traffic",
]

#: staleness bucket grid (seconds): sub-millisecond installs up to
#: multi-second backlogs, the operating range of the soak and bench
_STALENESS_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: raw staleness samples kept for exact snapshot percentiles
_MAX_STALENESS_SAMPLES = 4096


@dataclass(frozen=True, slots=True)
class _StampedEvent:
    """One published event plus its arrival time on the stream clock."""

    event: TrafficEvent
    arrived: float


class TrafficEventStream:
    """Append-only, replayable log of traffic events.

    Publishers (feed adapters, scenario replays, tests) append from any
    thread; consumers read by offset, so the same stream can be drained
    by the live batcher and replayed later from offset 0 (e.g. to
    rebuild a scratch overlay for the byte-identity check).  Every
    event is stamped with its arrival time on ``clock`` — the timestamp
    staleness is measured from.

    Parameters
    ----------
    clock:
        Monotonic time source; tests inject a stepping clock for
        deterministic staleness.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._events: list[_StampedEvent] = []
        self._lock = threading.Lock()

    def publish(self, event: TrafficEvent) -> int:
        """Append one event; returns its offset in the stream."""
        stamped = _StampedEvent(event, self._clock())
        with self._lock:
            self._events.append(stamped)
            return len(self._events) - 1

    def publish_many(self, events: Iterable[TrafficEvent]) -> int:
        """Append events in order; returns the offset after the last one."""
        arrived = self._clock()
        with self._lock:
            self._events.extend(_StampedEvent(e, arrived) for e in events)
            return len(self._events)

    def __len__(self) -> int:
        """Number of events published so far."""
        with self._lock:
            return len(self._events)

    def read_from(self, offset: int) -> list[_StampedEvent]:
        """Stamped events from ``offset`` to the current end (replayable)."""
        with self._lock:
            return self._events[offset:]

    def events(self) -> list[TrafficEvent]:
        """The full event log, in publication order."""
        with self._lock:
            return [s.event for s in self._events]


@dataclass(frozen=True, slots=True)
class DeltaBatch:
    """One contiguous slice of the event stream, ready to install.

    Attributes
    ----------
    first_offset:
        Stream offset of the batch's first event; with :attr:`stamped`
        this identifies exactly which prefix of the stream is applied
        once the batch installs.
    stamped:
        The batch's events with their arrival stamps, in stream order.
    changes:
        Per-edge last-writer-wins reduction of the events, as the
        ``(u, v, weight)`` tuples ``ServingStack.reweight`` takes.
        Within one contiguous batch the reduction is state-equivalent
        to applying the events one by one, which is what keeps every
        installed epoch equal to the state after a stream *prefix*.
    """

    first_offset: int
    stamped: tuple[_StampedEvent, ...]
    changes: tuple[tuple, ...]

    def __len__(self) -> int:
        """Number of events in the batch."""
        return len(self.stamped)

    def cells(self, cell_of: dict) -> dict[int | None, int]:
        """Events per overlay cell (``None`` for cut/unknown edges).

        Cell attribution follows
        :meth:`~repro.search.overlay.OverlayGraph.touched_cells`: an
        edge belongs to a cell only when both endpoints share it.
        """
        counts: dict[int | None, int] = {}
        for s in self.stamped:
            cu = cell_of.get(s.event.u)
            cell = cu if cu == cell_of.get(s.event.v) else None
            counts[cell] = counts.get(cell, 0) + 1
        return counts


class DeltaBatcher:
    """Debounce window coalescing pending events into install batches.

    Events accumulate until the *oldest* pending one has waited
    ``debounce_s`` (letting a burst — e.g. an incident spike touching
    one cell many times — collapse into one recustomization) or until
    ``max_batch`` events are pending (bounding worst-case batch work).
    A drain always takes **all** pending events, never a subset: the
    batches partition the stream into contiguous slices, which is the
    invariant behind the pipeline's prefix-staleness guarantee.

    Parameters
    ----------
    stream:
        The :class:`TrafficEventStream` to consume (by offset).
    debounce_s:
        Seconds the oldest pending event may wait before the batch is
        due (0 = every drain attempt flushes whatever is pending).
    max_batch:
        Pending-event count that makes the batch due immediately.
    clock:
        Time source shared with the stream.
    """

    def __init__(
        self,
        stream: TrafficEventStream,
        debounce_s: float = 0.005,
        max_batch: int = 256,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if debounce_s < 0:
            raise ValueError("debounce_s must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.stream = stream
        self.debounce_s = debounce_s
        self.max_batch = max_batch
        self._clock = clock
        self._offset = 0
        self._lock = threading.Lock()

    @property
    def offset(self) -> int:
        """Stream offset of the next event to drain."""
        with self._lock:
            return self._offset

    def pending(self) -> int:
        """Events published but not yet drained into a batch."""
        return len(self.stream) - self.offset

    def due_in(self) -> float | None:
        """Seconds until the pending batch is due; ``None`` when empty.

        0.0 means due now (debounce expired or ``max_batch`` reached).
        The worker uses this as its condition-wait timeout.
        """
        with self._lock:
            pending = self.stream.read_from(self._offset)
            if not pending:
                return None
            if len(pending) >= self.max_batch:
                return 0.0
            age = self._clock() - pending[0].arrived
            return max(0.0, self.debounce_s - age)

    def drain(self, force: bool = False) -> DeltaBatch | None:
        """Take every pending event as one batch, or ``None``.

        Returns ``None`` when nothing is pending, or when the debounce
        window is still open and ``force`` is false (``force=True`` is
        the quiesce path: flush regardless of the window).
        """
        with self._lock:
            pending = self.stream.read_from(self._offset)
            if not pending:
                return None
            if (
                not force
                and len(pending) < self.max_batch
                and self._clock() - pending[0].arrived < self.debounce_s
            ):
                return None
            first = self._offset
            self._offset += len(pending)
        reduced: dict[tuple, tuple] = {}
        for s in pending:
            e = s.event
            reduced[(e.u, e.v)] = (e.u, e.v, e.weight)
        return DeltaBatch(
            first_offset=first,
            stamped=tuple(pending),
            changes=tuple(reduced.values()),
        )


class RecustomizeWorker:
    """Drains batches and installs epochs, on demand or on a thread.

    Each :meth:`step` takes one due batch, applies it through
    ``stack.reweight(...)`` — copy-on-write snapshot,
    touched-cell recustomization, atomic epoch handoff — then observes
    per-event staleness and retires cache entries of epochs older than
    ``keep_epochs`` handoffs (in-flight batches that captured a recent
    old epoch still finish on their own network snapshot; only the
    cache keys are released).  :meth:`start` runs the same step in a
    daemon thread woken by the pipeline on publish; a failing step
    parks the exception in :attr:`error` (re-raised by
    :meth:`TrafficPipeline.quiesce`) instead of dying silently.
    """

    def __init__(
        self,
        stack: ServingStack,
        batcher: DeltaBatcher,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        keep_epochs: int = 2,
    ) -> None:
        if keep_epochs < 1:
            raise ValueError("keep_epochs must be >= 1")
        self.stack = stack
        self.batcher = batcher
        self._clock = clock
        self._keep = keep_epochs
        self.metrics = metrics if metrics is not None else stack.metrics
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: first exception a step raised; the worker stops on it
        self.error: Exception | None = None
        self._retired: deque[str] = deque()
        self._samples: deque[float] = deque(maxlen=_MAX_STALENESS_SAMPLES)
        self._samples_lock = threading.Lock()
        # Serializes whole steps: the pipeline is the single epoch
        # writer, and two concurrent copy-on-write installs would race
        # (both snapshot epoch N; the loser's changes would vanish).
        self._step_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._wake = threading.Condition()
        self._stopping = False
        self._m_installs = self.metrics.counter(
            "repro_pipeline_installs_total",
            desc="epoch handoffs installed by the recustomize worker",
        )
        self._m_edges = self.metrics.counter(
            "repro_pipeline_edges_total",
            desc="deduplicated edge re-weights applied across installs",
        )
        self._m_cells = self.metrics.counter(
            "repro_pipeline_cells_recustomized_total",
            desc="overlay cells recustomized across installs",
        )
        self._m_staleness = self.metrics.histogram(
            "repro_pipeline_staleness_seconds",
            buckets=_STALENESS_BUCKETS,
            desc="event publish to epoch install latency (seconds)",
        )

    def step(self, force: bool = False) -> ReweightOutcome | None:
        """Drain and install one due batch; ``None`` when none is due.

        Synchronous entry point — tests and :meth:`TrafficPipeline.pump`
        call it directly for deterministic single-threaded drains; the
        background thread calls it in its loop.  Steps are serialized
        by an internal lock, so quiescing callers and the background
        thread can never interleave two copy-on-write installs.
        """
        with self._step_lock:
            return self._step_locked(force)

    def _step_locked(self, force: bool) -> ReweightOutcome | None:
        batch = self.batcher.drain(force=force)
        if batch is None:
            return None
        with self._tracer.span(
            "pipeline.install",
            batch_events=len(batch),
            unique_edges=len(batch.changes),
        ) as span:
            outcome = self.stack.reweight(batch.changes)
            span.set("touched_cells", len(outcome.touched_cells))
            span.set("recustomized", outcome.recustomized)
            span.set("epoch", outcome.epoch)
        now = self._clock()
        with self._samples_lock:
            for s in batch.stamped:
                staleness = max(0.0, now - s.arrived)
                self._m_staleness.observe(staleness)
                self._samples.append(staleness)
        self._m_installs.inc()
        self._m_edges.inc(len(batch.changes))
        self._m_cells.inc(len(outcome.touched_cells))
        self._retire(outcome.previous_fingerprint)
        return outcome

    def _retire(self, fingerprint: str) -> None:
        """Queue the previous epoch's key; release keys beyond the window."""
        if not fingerprint:
            return
        self._retired.append(fingerprint)
        while len(self._retired) > self._keep:
            old = self._retired.popleft()
            self.stack.preprocessing.invalidate_fingerprint(old)
            self.stack.results.invalidate_fingerprint(old)

    def staleness_samples(self) -> list[float]:
        """Recent raw staleness samples (bounded), in install order."""
        with self._samples_lock:
            return list(self._samples)

    # ------------------------------------------------------------------
    # Background mode
    # ------------------------------------------------------------------
    def notify(self) -> None:
        """Wake the background thread (a publisher added events)."""
        with self._wake:
            self._wake.notify_all()

    def start(self) -> None:
        """Start the background drain thread (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name="repro-pipeline", daemon=True
        )
        self._thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the thread; with ``drain`` flush pending events first."""
        with self._wake:
            self._stopping = True
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if drain and self.error is None:
            while self.step(force=True) is not None:
                pass

    def _run(self) -> None:
        while True:
            with self._wake:
                if self._stopping:
                    return
                due = self.batcher.due_in()
                if due is None or due > 0:
                    # New publishes notify (under this condition, so no
                    # wakeup can slip between the check and the wait);
                    # the timeout covers the tail of an open window.
                    self._wake.wait(timeout=due)
                    continue
            try:
                self.step()
            except Exception as exc:  # surface via quiesce, don't die mute
                self.error = exc
                return


@dataclass(frozen=True, slots=True)
class PipelineSnapshot:
    """Point-in-time counters of a :class:`TrafficPipeline`.

    Attributes
    ----------
    events:
        Traffic events published to the stream so far.
    pending:
        Events published but not yet installed.
    installs:
        Epoch handoffs completed.
    edges_applied:
        Deduplicated edge re-weights applied across installs.
    cells_recustomized:
        Overlay cells recustomized across installs.
    epoch:
        The serving stack's current epoch sequence number.
    staleness_p50_ms, staleness_p95_ms, staleness_max_ms:
        Percentiles of per-event publish→install latency, from the
        worker's bounded raw-sample window (milliseconds; 0 when no
        event has been installed yet).
    """

    events: int = 0
    pending: int = 0
    installs: int = 0
    edges_applied: int = 0
    cells_recustomized: int = 0
    epoch: int = 0
    staleness_p50_ms: float = 0.0
    staleness_p95_ms: float = 0.0
    staleness_max_ms: float = 0.0

    def to_dict(self) -> dict:
        """Stable-key report shape (see ``docs/API.md``)."""
        return {
            "schema": 1,
            "kind": "pipeline_snapshot",
            "events": self.events,
            "pending": self.pending,
            "installs": self.installs,
            "edges_applied": self.edges_applied,
            "cells_recustomized": self.cells_recustomized,
            "epoch": self.epoch,
            "staleness_p50_ms": self.staleness_p50_ms,
            "staleness_p95_ms": self.staleness_p95_ms,
            "staleness_max_ms": self.staleness_max_ms,
        }


class TrafficPipeline:
    """Facade wiring stream → batcher → worker onto one serving stack.

    Parameters
    ----------
    stack:
        The :class:`~repro.service.serving.ServingStack` whose epochs
        the pipeline advances.  Its metrics registry receives the
        ``repro_pipeline_*`` instruments; its tracer records one
        ``pipeline.install`` span tree per handoff.
    debounce_ms:
        Debounce window of the :class:`DeltaBatcher`, in milliseconds.
    max_batch:
        Pending-event count that flushes the window immediately.
    clock:
        Shared monotonic time source for arrival stamps, debounce and
        staleness (injectable for deterministic tests).
    keep_epochs:
        Retired epochs whose cache keys are kept before release.

    Examples
    --------
    Synchronous use (tests, deterministic replays)::

        pipeline = TrafficPipeline(stack, debounce_ms=0.0)
        pipeline.publish(TrafficEvent(u, v, 2.5))
        pipeline.pump()          # drain + install on this thread

    Background use (live serving)::

        with TrafficPipeline(stack) as pipeline:
            pipeline.publish_many(events)   # any thread, any time
            ...                             # queries keep serving
        # __exit__ stops the worker, draining what is pending
    """

    def __init__(
        self,
        stack: ServingStack,
        debounce_ms: float = 5.0,
        max_batch: int = 256,
        clock: Callable[[], float] = time.monotonic,
        keep_epochs: int = 2,
    ) -> None:
        self.stack = stack
        self._clock = clock
        self.stream = TrafficEventStream(clock=clock)
        self.batcher = DeltaBatcher(
            self.stream,
            debounce_s=debounce_ms / 1000.0,
            max_batch=max_batch,
            clock=clock,
        )
        self.worker = RecustomizeWorker(
            stack,
            self.batcher,
            clock=clock,
            metrics=stack.metrics,
            tracer=stack.tracer,
            keep_epochs=keep_epochs,
        )
        self._m_events = stack.metrics.counter(
            "repro_pipeline_events_total",
            desc="traffic events published to the pipeline",
        )
        self._m_pending = stack.metrics.gauge(
            "repro_pipeline_pending_events",
            desc="events published but not yet installed",
        )

    def publish(self, event: TrafficEvent) -> int:
        """Publish one event; returns its stream offset."""
        offset = self.stream.publish(event)
        self._m_events.inc()
        self._m_pending.set(self.batcher.pending())
        self.worker.notify()
        return offset

    def publish_many(self, events: Sequence[TrafficEvent]) -> int:
        """Publish events in order; returns the stream length after."""
        end = self.stream.publish_many(events)
        self._m_events.inc(len(events))
        self._m_pending.set(self.batcher.pending())
        self.worker.notify()
        return end

    def pump(self) -> int:
        """Synchronously install every pending event; returns installs.

        The deterministic drain for tests and CLI replays: repeatedly
        force-flushes the batcher on the calling thread until nothing
        is pending.  Do not mix with a running background worker.
        """
        installs = 0
        while self.worker.step(force=True) is not None:
            installs += 1
        self._m_pending.set(self.batcher.pending())
        self._raise_worker_error()
        return installs

    def start(self) -> None:
        """Start the background worker thread."""
        self.worker.start()

    def stop(self) -> None:
        """Stop the background worker, draining pending events."""
        self.worker.stop(drain=True)
        self._m_pending.set(self.batcher.pending())
        self._raise_worker_error()

    def quiesce(self, timeout_s: float = 30.0) -> None:
        """Block until every published event is installed.

        With the background worker running, waits (wall clock) for the
        drain — forcing the final partial window through — and raises
        the worker's parked exception, if any.  Without a worker
        thread, drains synchronously like :meth:`pump`.

        Raises
        ------
        TimeoutError
            When the worker fails to drain within ``timeout_s``.
        """
        thread = self.worker._thread
        if thread is None or not thread.is_alive():
            self.pump()
            return
        deadline = time.monotonic() + timeout_s
        while self.batcher.pending() > 0:
            self._raise_worker_error()
            self.worker.notify()
            if self.batcher.due_in() not in (None, 0.0):
                # Tail of a debounce window: flush it from here rather
                # than waiting the window out.
                self.worker.step(force=True)
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"pipeline failed to quiesce within {timeout_s}s "
                    f"({self.batcher.pending()} events pending)"
                )
            time.sleep(0.001)
        # A drain advances the batcher offset (zeroing ``pending``) at
        # the *start* of a step, so the worker may still be inside the
        # final install here.  Steps serialize on the step lock — take
        # it once so every counter (installs, edges, epoch) is final
        # before this method returns.
        with self.worker._step_lock:
            pass
        self._raise_worker_error()
        self._m_pending.set(self.batcher.pending())
        self._raise_worker_error()

    def _raise_worker_error(self) -> None:
        if self.worker.error is not None:
            raise self.worker.error

    def snapshot(self) -> PipelineSnapshot:
        """Current counters as a :class:`PipelineSnapshot`."""
        samples = sorted(self.worker.staleness_samples())
        to_ms = 1000.0
        return PipelineSnapshot(
            events=len(self.stream),
            pending=self.batcher.pending(),
            installs=self.worker._m_installs.value,
            edges_applied=self.worker._m_edges.value,
            cells_recustomized=self.worker._m_cells.value,
            epoch=self.stack.epoch,
            staleness_p50_ms=percentile(samples, 0.50) * to_ms,
            staleness_p95_ms=percentile(samples, 0.95) * to_ms,
            staleness_max_ms=(samples[-1] * to_ms) if samples else 0.0,
        )

    @property
    def running(self) -> bool:
        """Whether the background worker thread is alive."""
        thread = self.worker._thread
        return thread is not None and thread.is_alive()

    def __enter__(self) -> "TrafficPipeline":
        """Start the background worker on ``with`` entry."""
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop (and drain) the worker on ``with`` exit."""
        self.stop()

    def __repr__(self) -> str:
        return (
            f"TrafficPipeline(events={len(self.stream)}, "
            f"pending={self.batcher.pending()}, epoch={self.stack.epoch})"
        )


def replay_with_traffic(
    stack: ServingStack,
    items: Sequence,
    pipeline: TrafficPipeline,
    repeats: int = 1,
    batch_size: int = 8,
    clock: Callable[[], float] = time.perf_counter,
):
    """Replay a mixed query/traffic stream through a serving stack.

    The v2-workload counterpart of
    :func:`repro.service.serving.replay`: ``items`` interleaves
    :class:`~repro.core.query.ObfuscatedPathQuery` (or anything
    ``answer_batch`` accepts) with
    :class:`~repro.workloads.replay.TrafficEvent` in stream order.
    Queries accumulate into batches of ``batch_size``; a traffic event
    flushes the open batch (so the queries around it observe the states
    the file order implies) and publishes to ``pipeline``.  With the
    pipeline's background worker running, events install concurrently
    with the remaining queries; without it, each event burst is pumped
    synchronously before the next query batch — the deterministic mode
    tests use.  The final state is quiesced before returning, and every
    pass replays the same items (weights are absolute, so repeated
    passes are idempotent on the final state).

    Returns
    -------
    ReplayReport
        Same shape as :func:`~repro.service.serving.replay` — per-query
        latencies and the stack's cache snapshot.
    """
    from repro.service.serving import ReplayReport

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    report = ReplayReport()
    start = clock()
    batch: list = []

    def flush() -> None:
        if not batch:
            return
        t0 = clock()
        stack.answer_batch(batch)
        elapsed = clock() - t0
        report.latencies.extend([elapsed] * len(batch))
        report.queries += len(batch)
        batch.clear()

    for _ in range(repeats):
        for item in items:
            if isinstance(item, TrafficEvent):
                flush()
                pipeline.publish(item)
                if not pipeline.running:
                    pipeline.pump()
                continue
            batch.append(item)
            if len(batch) >= batch_size:
                flush()
        flush()
    if pipeline.running:
        pipeline.quiesce()
    else:
        pipeline.pump()
    report.total_seconds = clock() - start
    report.cache = stack.snapshot()
    return report
