"""Caching serving stack fronting the directions server.

:class:`ServingStack` is the serving layer a production OPAQUE
deployment puts between the obfuscator and the
:class:`~repro.core.server.DirectionsServer`:

1. a :class:`~repro.service.cache.PreprocessingCache` so a road
   network's engine artifact (contracted graph, CSR snapshot) is built
   once and shared by every later session on that network — turning
   ``O(preprocess * sessions)`` into ``O(preprocess)``;
2. a :class:`~repro.service.cache.ResultCache` so a repeated obfuscated
   query ``Q(S, T)`` is answered with zero search work;
3. one evaluation of a batch's distinct misses: a lone miss is one
   ``process`` call, two or more are one shared union kernel pass
   (:meth:`~repro.search.multi.MultiSourceMultiDestProcessor.process_union`)
   — the paper's shared obfuscated query (Section IV) on the server.
   The batch is the window: sessions meet where a caller batches them
   (the gateway's micro-batch, :meth:`~repro.core.system.OpaqueSystem.submit`).

Every batch takes one path, :meth:`ServingStack.answer_each`: capture
the epoch, consult the result cache, evaluate the distinct misses, then
cache and record.  A union pass is held to byte-identity with solo
``process`` calls, so a batch answers exactly as one batch per query
does and nothing about a query's batch-mates (who they were, how many,
which of their pairs were real) leaks into any response.  A failing
query never costs its batch-mates anything: only its slot carries the
error.

Traffic updates take one path too: :meth:`ServingStack.reweight`, the
only code that creates a network epoch.  It serializes writers, installs
a copy-on-write snapshot that in-flight batches never see change, keeps
the cache entries of the last :data:`KEEP_RETIRED_EPOCHS` retired
epochs and releases older ones.

The stack preserves the server's adversary model — every query (cache
hit or not) is appended to ``server.observed_queries`` (a window of the
most recent queries) and counted in ``server.counters``; only the
*search work* is elided.  Privacy numbers are therefore unchanged while
cost numbers drop.  :meth:`ServingStack.answer_cached` is the same
accounting for a caller that wants only the hits (the HTTP gateway's
event loop).
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.query import ObfuscatedPathQuery
from repro.core.server import DirectionsServer, ServerResponse
from repro.exceptions import EdgeError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.search.multi import (
    MSMDResult,
    MultiSourceMultiDestProcessor,
    PreprocessingProcessor,
)
from repro.service.cache import (
    CacheSnapshot,
    PreprocessingCache,
    ResultCache,
    network_fingerprint,
    updated_fingerprint,
)
from repro.service.stats import percentile
from repro.workloads.replay import TrafficEvent

__all__ = [
    "ConcurrentDispatcher",
    "ReweightOutcome",
    "ServingConfig",
    "ServingStack",
    "ReplayReport",
    "replay",
]

#: retired epochs whose cache entries :meth:`ServingStack.reweight`
#: keeps for batches that captured them before the handoff
KEEP_RETIRED_EPOCHS = 2


def _check_max_workers(max_workers: int) -> None:
    """Refuse every ``max_workers`` but 1 (the removed thread pool)."""
    if max_workers != 1:
        raise ValueError(
            "max_workers must be 1: a batch's misses are evaluated in "
            "one pass on the calling thread (the thread pool was removed)"
        )


@dataclass(frozen=True, slots=True)
class ReweightOutcome:
    """What :meth:`ServingStack.reweight` did with a traffic update.

    Attributes
    ----------
    edges:
        Number of edge weights applied.
    touched_cells:
        Always ``()``.  Kept because the request ledger's reweight
        probe (``benchmarks/ledger/ledger/layers.py``) reads it; it goes
        once the probe stops.
    fingerprint:
        Content fingerprint of the network *after* the update — the key
        the next query builds its artifact under (the current one for
        an empty update).
    epoch:
        The stack's epoch sequence number after the update.
    """

    edges: int
    touched_cells: tuple[int, ...] = ()
    fingerprint: str = ""
    epoch: int = 0


class ConcurrentDispatcher:
    """Evaluates a batch's distinct misses on the calling thread's handle.

    Each thread lazily builds its own MSMD processor handle via
    ``handle_factory`` (artifacts are shared through the
    :class:`~repro.service.cache.PreprocessingCache`), so concurrent
    callers — gateway lanes, sessions sharing one stack — never share a
    processor.  The class name and ``max_workers`` outlive the removed
    thread pool because the request ledger builds its clocked
    dispatcher by both.

    Parameters
    ----------
    handle_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.search.multi.MultiSourceMultiDestProcessor`.
    max_workers:
        Must be 1 (anything else raises :class:`ValueError`).
    """

    def __init__(self, handle_factory, max_workers: int = 1) -> None:
        _check_max_workers(max_workers)
        self._factory = handle_factory
        self._local = threading.local()

    def _handle(self) -> MultiSourceMultiDestProcessor:
        """This thread's private engine handle (built on first use)."""
        handle = getattr(self._local, "handle", None)
        if handle is None:
            handle = self._factory()
            self._local.handle = handle
        return handle

    def evaluate(
        self,
        network,
        set_queries: Sequence[tuple[tuple, tuple]],
        artifact: object = None,
        tracer=NULL_TRACER,
        parent=None,
    ) -> list[MSMDResult | ReproError]:
        """Answer distinct ``(S, T)`` set queries; one outcome per query.

        One query is one ``handle.process`` call in an ``engine.process``
        span, two or more one ``handle.process_union`` pass in an
        ``engine.union`` span, under ``parent``.  ``artifact`` (from the
        stack's preprocessing cache) is injected into the handle first.
        ``outcomes[i]`` answers ``set_queries[i]``, or is the
        :class:`~repro.exceptions.ReproError` evaluating it alone raises.
        """
        handle = self._handle()
        if artifact is not None and isinstance(handle, PreprocessingProcessor):
            handle.use_artifact(artifact)
        if len(set_queries) > 1:
            with tracer.span(
                "engine.union", parent=parent, num_queries=len(set_queries)
            ) as span:
                union = handle.process_union(network, set_queries)
                span.set("union_pairs", union.pairs_computed)
                span.set("settled_nodes", union.union_stats.settled_nodes)
            return [
                table if error is None else error
                for table, error in zip(union.tables, union.errors)
            ]
        (sources, destinations), = set_queries
        with tracer.span(
            "engine.process", parent=parent,
            num_sources=len(sources), num_destinations=len(destinations),
        ) as span:
            try:
                result = handle.process(
                    network, list(sources), list(destinations)
                )
            except ReproError as exc:
                return [exc]
            stats = result.stats
            span.set("settled_nodes", stats.settled_nodes)
            span.set("relaxed_edges", stats.relaxed_edges)
            span.set("heap_pushes", stats.heap_pushes)
        return [result]


@dataclass(frozen=True, slots=True)
class ServingConfig:
    """Frozen construction-time knobs of a :class:`ServingStack`.

    Pass it to :meth:`ServingStack.from_config` or ship it across
    process boundaries (it is picklable; the gateway sends it to shard
    workers).  Live collaborators (pre-built caches, a shared
    :class:`~repro.obs.metrics.MetricsRegistry`, a tracer) are keyword
    arguments of :meth:`~ServingStack.from_config` instead.

    Attributes
    ----------
    engine:
        Name from the :data:`repro.search.ENGINES` registry.
    max_workers:
        Must be 1 (anything else raises :class:`ValueError`): what is
        left of the removed dispatcher thread pool, kept because the
        request ledger reads it.
    spill_dir:
        Disk-spill directory for the preprocessing cache (also the
        artifact handoff channel between gateway shard workers).
    result_capacity:
        Result-table slots of the result cache (0 disables it).
    """

    engine: str = "dijkstra"
    max_workers: int = 1
    spill_dir: str | None = None
    result_capacity: int = 256

    def __post_init__(self) -> None:
        _check_max_workers(self.max_workers)
        if self.result_capacity < 0:
            raise ValueError("result_capacity must be >= 0")

    def to_dict(self) -> dict:
        """Stable-key report shape (see ``docs/API.md``)."""
        return {
            "schema": 1,
            "kind": "serving_config",
            "engine": self.engine,
            "max_workers": self.max_workers,
            "spill_dir": (
                str(self.spill_dir) if self.spill_dir is not None else None
            ),
            "result_capacity": self.result_capacity,
        }


class ServingStack:
    """Thread-safe caching layer in front of a directions server.

    The stack owns a :class:`~repro.core.server.DirectionsServer` and
    answers obfuscated queries through two caches and a dispatcher; see
    the module docstring for the architecture.  Hand the stack to
    :class:`~repro.core.system.OpaqueSystem` (``serving=`` parameter) to
    run the full client→obfuscator→server→filter pipeline over it, or
    call :meth:`answer`/:meth:`answer_batch` directly to drive the
    server side alone.

    Construct stacks through :meth:`from_config` with one frozen
    :class:`ServingConfig`; live collaborators ride alongside it.

    Parameters
    ----------
    network:
        The server's road network (shared by every component).
    config:
        The :class:`ServingConfig` to build from.
    preprocessing_cache, result_cache:
        Preconfigured caches, e.g. shared across several stacks serving
        different networks; fresh ones otherwise (the preprocessing
        cache at its default capacity, spilling to ``config.spill_dir``;
        the result cache sized by ``config.result_capacity``).
    metrics:
        Shared :class:`~repro.obs.metrics.MetricsRegistry`; a private
        one is created otherwise.  The stack, its server and the
        caches it creates (pre-supplied caches keep their own registry)
        all register their instruments here, so one
        ``registry.to_json()`` / ``to_prometheus()`` call exposes the
        whole stack.
    tracer:
        A :class:`~repro.obs.trace.Tracer` recording one
        ``serve.answer_batch`` tree per batch: ``serve.cache_consult``,
        then ``engine.process`` (one miss) or ``engine.union`` (more).
        ``None`` (default) uses a shared no-op tracer with no recording
        overhead.
    """

    def __init__(
        self,
        network,
        config: ServingConfig,
        *,
        preprocessing_cache: PreprocessingCache | None = None,
        result_cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        from repro.search import get_engine

        #: the frozen construction-time knobs this stack was built from
        self.config = config
        self.engine_name = config.engine
        self._engine = get_engine(config.engine)
        #: registry collecting every component's instruments
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: the live tracer, or None when tracing is off
        self.tracer = tracer
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._m_batch_seconds = self.metrics.histogram(
            "repro_serve_batch_seconds",
            desc="answer_batch wall latency (seconds)",
        )
        self._m_reweight_seconds = self.metrics.histogram(
            "repro_serve_reweight_seconds",
            desc="reweight wall latency, epoch view to install (seconds)",
        )
        self.preprocessing = (
            preprocessing_cache
            if preprocessing_cache is not None
            else PreprocessingCache(
                spill_dir=config.spill_dir, metrics=self.metrics
            )
        )
        self.results = (
            result_cache
            if result_cache is not None
            else ResultCache(
                capacity=config.result_capacity, metrics=self.metrics
            )
        )
        #: what :meth:`answer_each` evaluates misses through
        self.dispatcher = ConcurrentDispatcher(self._engine.make_processor)
        #: the directions server; its ``network`` is the current epoch's
        self.server = DirectionsServer(
            network, engine=config.engine, metrics=self.metrics
        )
        self._lock = threading.Lock()
        # Held by reweight from the epoch view to the install, so only
        # one writer copies an epoch at a time; readers take _lock only.
        self._writer_lock = threading.Lock()
        #: retired fingerprints still cached, oldest first (writer lock)
        self._retired: deque[str] = deque()
        self._fingerprint_memo: tuple[int, str] | None = None
        self._epoch = 0
        self._m_epoch = self.metrics.gauge(
            "repro_serve_epoch",
            desc="sequence number of the installed network epoch",
        )

    @classmethod
    def from_config(
        cls,
        network,
        config: ServingConfig | None = None,
        *,
        preprocessing_cache: PreprocessingCache | None = None,
        result_cache: ResultCache | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> "ServingStack":
        """Build a stack from a frozen :class:`ServingConfig`.

        ``config`` defaults to ``ServingConfig()``; the keyword
        arguments carry live collaborators that cannot live on a frozen
        config (pre-built caches shared across stacks, a shared metrics
        registry, a tracer).
        """
        return cls(
            network,
            config if config is not None else ServingConfig(),
            preprocessing_cache=preprocessing_cache,
            result_cache=result_cache,
            metrics=metrics,
            tracer=tracer,
        )

    @property
    def network(self):
        """The current epoch's road network (the server's).

        Read-only: :meth:`reweight` is the one writer, and it installs
        each epoch on :attr:`server`, so the stack and its server can
        never disagree on which network is served.
        """
        return self.server.network

    @property
    def epoch(self) -> int:
        """Sequence number of the currently installed network epoch.

        0 until the first :meth:`reweight`; each atomic handoff
        increments it.
        """
        with self._lock:
            return self._epoch

    def _epoch_view(self) -> tuple[object, str]:
        """Atomically capture ``(network, fingerprint)`` for one batch.

        The epoch-handoff read side: a batch resolves both under the
        stack lock so a concurrent :meth:`reweight` can never hand it
        network A with network B's fingerprint.  The batch then runs
        entirely against the captured pair — in-flight work finishes on
        the old epoch's snapshot while new batches pick up the new one.
        """
        with self._lock:
            return self.server.network, self._fingerprint()

    def _fingerprint(self) -> str:
        """This network's content fingerprint, memoized by mutation version.

        Networks exposing a ``version`` stamp (every
        :class:`~repro.network.graph.RoadNetwork`) are only rehashed
        after a mutation, making warm lookups O(1) in graph size;
        version-less network views fall back to hashing per call.
        """
        network = self.server.network
        version = getattr(network, "version", None)
        if version is None:
            return network_fingerprint(network)
        memo = self._fingerprint_memo
        if memo is None or memo[0] != version:
            memo = (version, network_fingerprint(network))
            self._fingerprint_memo = memo
        return memo[1]

    def warm(self) -> object:
        """Build (or fetch) this network's preprocessing artifact now.

        Useful to pay the build cost at deploy time instead of on the
        first query; returns the artifact (``None`` for engines without
        preprocessing).
        """
        network, fingerprint = self._epoch_view()
        return self.preprocessing.get(
            network, self.engine_name, fingerprint=fingerprint
        )

    def answer(self, query: ObfuscatedPathQuery) -> ServerResponse:
        """Answer one obfuscated query through the caches."""
        return self.answer_batch([query])[0]

    def answer_batch(
        self, queries: Sequence[ObfuscatedPathQuery]
    ) -> list[ServerResponse]:
        """Answer a batch of independent obfuscated queries, or raise.

        :meth:`answer_each` for callers that want every answer or none:
        the first failing query's error (e.g.
        :class:`~repro.exceptions.NoPathError`) is raised — after its
        batch-mates were answered, cached and recorded, so retrying
        them costs no search.

        Returns
        -------
        list of ServerResponse
            In submission order; ``response.from_cache`` tells whether
            the table was served without fresh search work (result-cache
            hit, or duplicate of another query in the same batch).
        """
        outcomes = self.answer_each(queries)
        for outcome in outcomes:
            if isinstance(outcome, ReproError):
                raise outcome
        return outcomes

    def answer_each(
        self, queries: Sequence[ObfuscatedPathQuery]
    ) -> list[ServerResponse | ReproError]:
        """Answer a batch; one response or error per query.

        The stack's one answer path.  The batch captures the current
        epoch, consults the result cache per query (identical queries
        within the batch are deduplicated and share one evaluation),
        evaluates the distinct misses, inserts their tables into the
        result cache and records every query in the underlying server's
        adversary view, in submission order — hit, miss or failure —
        and every answered one in its load counters.

        The misses are evaluated through :attr:`dispatcher` on this
        thread's engine handle: a lone miss is one ``process`` call, two
        or more are ONE shared union kernel pass whose responses carry
        ``coalesced=True``.  Each sliced table holds exactly its query's
        ``S x T`` pairs in that query's own wire order, so it is
        byte-identical to the query's solo answer and nothing about its
        batch-mates is observable in any response.

        Returns
        -------
        list of ServerResponse or ReproError
            In submission order.  A query that fails on its own (no
            path, unknown endpoint) yields the error evaluating it alone
            would raise; the server observed it, as
            :meth:`DirectionsServer.answer` observes a failing query,
            but it is neither cached nor counted as served, and it costs
            its batch-mates nothing.
        """
        if not queries:
            return []
        t0 = time.perf_counter()
        with self._tracer.span(
            "serve.answer_batch",
            batch_size=len(queries),
            engine=self.engine_name,
        ) as root:
            network, fingerprint = self._epoch_view()
            outcomes: list[ServerResponse | ReproError | None] = (
                [None] * len(queries)
            )
            # {(S, T): batch indices}: the first index of each distinct
            # miss evaluates, later ones are in-batch duplicates
            misses: dict[tuple[tuple, tuple], list[int]] = {}
            with self._tracer.span(
                "serve.cache_consult", parent=root
            ) as consult:
                with self._lock:
                    for i, query in enumerate(queries):
                        key = (query.sources, query.destinations)
                        if key in misses:
                            misses[key].append(i)
                            self.results.count_shared_hit()
                            continue
                        cached = self.results.get(
                            fingerprint, *key, self.engine_name
                        )
                        if cached is None:
                            misses[key] = [i]
                        else:
                            outcomes[i] = ServerResponse(
                                query=query, candidates=cached, from_cache=True
                            )
                consult.set("unique_misses", len(misses))
                consult.set(
                    "hits",
                    len(queries) - sum(len(g) for g in misses.values()),
                )
            miss_groups = list(misses.values())
            shared = len(miss_groups) >= 2
            computed: Sequence[MSMDResult | ReproError] = ()
            if miss_groups:
                artifact = self.preprocessing.get(
                    network, self.engine_name, fingerprint=fingerprint
                )
                computed = self.dispatcher.evaluate(
                    network, list(misses), artifact,
                    tracer=self._tracer, parent=root,
                )
        with self._lock:
            for indices, result in zip(miss_groups, computed, strict=True):
                if isinstance(result, ReproError):
                    for i in indices:
                        outcomes[i] = result
                    continue
                first = queries[indices[0]]
                self.results.put(
                    fingerprint, first.sources, first.destinations,
                    self.engine_name, result,
                )
                for rank, i in enumerate(indices):
                    outcomes[i] = ServerResponse(
                        query=queries[i],
                        candidates=result,
                        from_cache=rank > 0,  # duplicates share the work
                        coalesced=shared,
                    )
            for query, outcome in zip(queries, outcomes):
                if isinstance(outcome, ServerResponse):
                    self.server.record(outcome)
                else:
                    self.server.observed_queries.append(query)
        self._m_batch_seconds.observe(time.perf_counter() - t0)
        return outcomes

    def answer_cached(
        self, query: ObfuscatedPathQuery
    ) -> tuple[ServerResponse, bytes] | None:
        """Answer ``query`` if the result cache can, else ``None``.

        The constant-work half of :meth:`answer`, cheap enough for an
        event loop: the current epoch's fingerprint and one lookup under
        the stack lock — no search.  A hit is accounted as
        :meth:`answer_each` accounts it (one cache hit, one
        ``from_cache`` response recorded by the server, one
        batch-latency observation) and returns the response with its
        table's wire fragment
        (:meth:`~repro.service.cache.ResultCache.hit`).  A miss touches
        no counter: the caller hands the query to :meth:`answer_each`,
        which counts it once.

        Taking this path is a function of ``(S, T, epoch)``, the cache
        key, so it shows the server nothing a cache hit does not.  No
        span is recorded.
        """
        t0 = time.perf_counter()
        with self._lock:
            hit = self.results.hit(
                self._fingerprint(), query.sources, query.destinations,
                self.engine_name,
            )
            if hit is None:
                return None
            response = ServerResponse(
                query=query, candidates=hit[0], from_cache=True
            )
            self.server.record(response)
        self._m_batch_seconds.observe(time.perf_counter() - t0)
        return response, hit[1]

    def reweight(
        self,
        changes: Sequence[tuple],
        epoch: bool = True,
    ) -> ReweightOutcome:
        """Apply a traffic update as a new copy-on-write epoch.

        The one writer of epochs: the gateway's ``/v1/reweight``, the
        shard workers and :func:`replay`'s traffic events all come
        here.  Each change ``(u, v, weight)`` re-weights an *existing*
        edge (both directions on undirected networks).  The changes are
        applied to a *copy* of the serving network and the copy is
        installed atomically, so this is safe to call while queries are
        in flight: batches that already captured the old epoch finish
        on its untouched network, new batches see the update.  Writers
        are serialized from the epoch view to the install, so
        concurrent calls never both copy epoch N and lose an update;
        readers never wait on a writer.  A list of changes installs as
        one epoch, which is how a caller coalesces a burst.

        The new content fingerprint means every cached artifact and
        result table for the old geometry stops matching — correctness
        needs nothing else: the first query of the new epoch builds the
        engine's artifact (a CSR snapshot, or a contraction for
        ``ch-csr``) from the new network.  The last
        :data:`KEEP_RETIRED_EPOCHS` retired epochs keep their cache
        entries for batches still reading them; older ones are released
        from both caches.  Each call's wall time goes to the
        ``repro_serve_reweight_seconds`` histogram.

        ``epoch`` is what is left of the removed in-place mode: ``True``
        is its only legal value.

        Raises
        ------
        EdgeError
            If any ``(u, v)`` is not an existing edge (re-weighting
            never creates roads) or a weight is negative or not finite;
            nothing is applied.
        ValueError
            For ``epoch=False``.
        """
        if not epoch:
            raise ValueError(
                "reweight(epoch=False), the in-place mode, was removed: "
                "every re-weight installs a copy-on-write epoch (read "
                "the new weights from stack.network)"
            )
        applied = [(u, v, float(w)) for u, v, w in changes]
        started = time.perf_counter()
        with self._writer_lock, self._tracer.span(
            "serve.reweight", edges=len(applied)
        ) as span:
            outcome = self._install(applied)
            span.set("epoch", outcome.epoch)
        self._m_reweight_seconds.observe(time.perf_counter() - started)
        return outcome

    def _install(self, applied: list) -> ReweightOutcome:
        """Copy, re-weight and install one epoch (writer lock held)."""
        old_network, old_fingerprint = self._epoch_view()
        # Validate everything before applying anything: a bad entry must
        # not produce a half-updated epoch.
        for u, v, w in applied:
            if not old_network.has_edge(u, v):
                raise EdgeError(f"cannot reweight missing edge ({u!r}, {v!r})")
            if w < 0 or math.isnan(w) or math.isinf(w):
                raise EdgeError(
                    f"invalid weight {w} for edge ({u!r}, {v!r})"
                )
        if not applied:
            return ReweightOutcome(
                edges=0, fingerprint=old_fingerprint, epoch=self.epoch
            )
        snapshot = old_network.copy()
        for u, v, w in applied:
            snapshot.add_edge(u, v, w)
        fingerprint = updated_fingerprint(
            old_fingerprint, old_network, snapshot,
            [node for u, v, _ in applied for node in (u, v)],
        )
        with self._lock:
            self.server.network = snapshot
            self._fingerprint_memo = (
                getattr(snapshot, "version", None), fingerprint
            )
            self._epoch += 1
            installed = self._epoch
            self._m_epoch.set(installed)
        self._retire(old_fingerprint, fingerprint)
        return ReweightOutcome(
            edges=len(applied),
            fingerprint=fingerprint,
            epoch=installed,
        )

    def _retire(self, old: str, current: str) -> None:
        """Retire epoch ``old``; release what falls out of the window.

        A weight put back brings an old fingerprint back, so the window
        holds each fingerprint once and never the ``current`` one: what
        it releases is neither serving nor recently retired.
        """
        retired = self._retired
        if old in retired:
            retired.remove(old)
        retired.append(old)
        if current in retired:
            retired.remove(current)
        while len(retired) > KEEP_RETIRED_EPOCHS:
            released = retired.popleft()
            self.preprocessing.invalidate_fingerprint(released)
            self.results.invalidate_fingerprint(released)

    def snapshot(self) -> CacheSnapshot:
        """Combined counters of both caches."""
        pre = self.preprocessing.snapshot()
        res = self.results.snapshot()
        return CacheSnapshot(
            preprocessing_hits=pre.preprocessing_hits,
            preprocessing_misses=pre.preprocessing_misses,
            preprocessing_evictions=pre.preprocessing_evictions,
            preprocessing_disk_loads=pre.preprocessing_disk_loads,
            result_hits=res.result_hits,
            result_misses=res.result_misses,
            result_evictions=res.result_evictions,
        )

    def close(self) -> None:
        """Release the stack: nothing is held, misses run on the caller.

        Kept so owners keep one lifecycle (the gateway, ``with`` blocks
        and the request ledger close their stacks).
        """

    def __enter__(self) -> "ServingStack":
        """Enter a ``with`` block (no setup needed)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Leave a ``with`` block (see :meth:`close`)."""
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServingStack(engine={self.engine_name!r}, "
            f"network={self.network!r})"
        )


@dataclass(slots=True)
class ReplayReport:
    """Latency and cache outcome of one workload replay.

    Attributes
    ----------
    latencies:
        Wall-clock seconds per obfuscated query, in replay order.  When
        replaying in batches, every member of a batch is charged the
        batch's completion time (the moment its answer exists).
    total_seconds:
        Wall-clock duration of the whole replay.
    queries:
        Obfuscated queries served.
    cache:
        The stack's cumulative :class:`CacheSnapshot` after the replay.
    """

    latencies: list[float] = field(default_factory=list)
    total_seconds: float = 0.0
    queries: int = 0
    cache: CacheSnapshot = field(default_factory=CacheSnapshot)

    def percentile(self, q: float) -> float:
        """The ``q``-quantile of per-query latency (0 when empty)."""
        return percentile(sorted(self.latencies), q)

    @property
    def p50_latency(self) -> float:
        """Median per-query latency in seconds."""
        return self.percentile(0.50)

    @property
    def p95_latency(self) -> float:
        """95th-percentile per-query latency in seconds."""
        return self.percentile(0.95)

    @property
    def p99_latency(self) -> float:
        """99th-percentile per-query latency in seconds."""
        return self.percentile(0.99)

    def to_dict(self) -> dict:
        """Stable-key report shape (see ``docs/API.md``).

        The same ``{"schema", "kind", ...counters}`` contract as every
        other report surface; raw per-query latencies stay off the wire
        (they are a measurement buffer, not a report).
        """
        return {
            "schema": 1,
            "kind": "replay_report",
            "queries": self.queries,
            "total_seconds": self.total_seconds,
            "p50_latency_s": self.p50_latency,
            "p95_latency_s": self.p95_latency,
            "p99_latency_s": self.p99_latency,
            "cache": self.cache.to_dict(),
        }


def replay(
    stack: ServingStack,
    items: Sequence,
    repeats: int = 1,
    batch_size: int = 1,
    clock: Callable[[], float] = time.perf_counter,
) -> ReplayReport:
    """Replay a fixed server-visible stream through a serving stack.

    The stream is served ``repeats`` times in order, ``batch_size``
    queries per :meth:`ServingStack.answer_batch` call.  The first pass
    is the cold run (cache misses build the artifact and fill the
    result cache); later passes measure the warm behavior a long-lived
    service sees.

    ``items`` may interleave
    :class:`~repro.workloads.replay.TrafficEvent` re-weights with the
    queries (a v2 workload).  An event flushes the open batch, so the
    queries around it see the states the stream order implies, and each
    run of consecutive events installs as one
    :meth:`ServingStack.reweight` epoch.  Weights are absolute, so
    repeated passes are idempotent on the final state.

    Parameters
    ----------
    stack:
        The serving stack under test.
    items:
        The server-visible workload (e.g. obfuscated once from a
        workload file; see :mod:`repro.workloads.replay`), optionally
        mixed with traffic events.
    repeats:
        Total passes over the stream (>= 1).
    batch_size:
        Queries per :meth:`ServingStack.answer_batch` call (>= 1).
    clock:
        Time source for the latency measurements.  Tests inject a
        stepping clock to assert exact report numbers; production uses
        :func:`time.perf_counter`.

    Returns
    -------
    ReplayReport
        Per-query latencies plus the stack's cache snapshot.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    report = ReplayReport()
    batch: list = []
    changes: list[tuple] = []

    def answer() -> None:
        if batch:
            t0 = clock()
            stack.answer_batch(batch)
            elapsed = clock() - t0
            report.latencies.extend([elapsed] * len(batch))
            report.queries += len(batch)
            batch.clear()

    def install() -> None:
        if changes:
            stack.reweight(changes)
            changes.clear()

    start = clock()
    for _ in range(repeats):
        for item in items:
            if isinstance(item, TrafficEvent):
                answer()
                changes.append(item.as_change())
                continue
            install()
            batch.append(item)
            if len(batch) >= batch_size:
                answer()
        install()
        answer()
    report.total_seconds = clock() - start
    report.cache = stack.snapshot()
    return report
