"""Concurrent serving stack fronting the directions server.

:class:`ServingStack` is the serving layer a production OPAQUE
deployment puts between the obfuscator and the
:class:`~repro.core.server.DirectionsServer`:

1. a :class:`~repro.service.cache.PreprocessingCache` so a road
   network's engine artifact (contracted graph, partition overlay) is built
   once and shared by every later session on that network — turning
   ``O(preprocess * sessions)`` into ``O(preprocess)``;
2. a :class:`~repro.service.cache.ResultCache` so a repeated obfuscated
   query ``Q(S, T)`` is answered with zero search work;
3. a :class:`ConcurrentDispatcher` that evaluates independent obfuscated
   queries of one batch across a thread pool, each worker holding its
   own engine handle (MSMD processor) over the shared artifact;
4. optionally (``ServingConfig.coalesce``) one shared union kernel pass
   (:meth:`~repro.search.multi.MultiSourceMultiDestProcessor.process_union`)
   over the distinct misses of a batch in place of per-query dispatch,
   the pair table sliced back per query.  The batch is the window:
   sessions meet where a caller batches them (the gateway's per-shard
   micro-batch, :meth:`~repro.core.system.OpaqueSystem.submit`).

Every batch takes one path, :meth:`ServingStack.answer_each`: capture
the epoch, consult the result cache, evaluate the distinct misses, then
cache and record.  Results are deterministic: responses come back in
submission order and each query is evaluated by the same pure search
code concurrently or serially, so a concurrent batch is byte-identical
to a serial one.  Coalescing keeps the same contract — sliced tables
carry exactly each query's ``S x T`` pairs in its own wire order, so a
coalesced response is byte-identical to the serial answer and nothing
about a query's batch-mates (who they were, how many, which of their
pairs were real) leaks into any response.  A failing query never costs
its batch-mates anything: they are answered, cached and recorded, and
only the failing query's slot carries the error.

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
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
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
    UnionPassResult,
)
from repro.search.overlay import OverlayGraph
from repro.service.cache import (
    CacheSnapshot,
    PreprocessingCache,
    ResultCache,
    network_fingerprint,
    updated_fingerprint,
)
from repro.service.stats import percentile

__all__ = [
    "ConcurrentDispatcher",
    "CoalesceSnapshot",
    "ReweightOutcome",
    "ServingConfig",
    "ServingStack",
    "ReplayReport",
    "replay",
]


@dataclass(frozen=True, slots=True)
class ReweightOutcome:
    """What :meth:`ServingStack.reweight` did with a traffic update.

    Attributes
    ----------
    edges:
        Number of edge weights applied.
    touched_cells:
        Partition cells whose cliques were recustomized (empty when the
        update only moved cut-edge weights, or when no incremental path
        was available).
    recustomized:
        ``True`` when an incrementally recustomized overlay was
        installed under the new network fingerprint; ``False`` means the
        next query pays a full preprocessing rebuild (non-overlay
        engine, or no cached artifact to start from).
    fingerprint:
        Content fingerprint of the network *after* the update — the key
        the refreshed artifact is installed under (empty for a no-op
        update).
    previous_fingerprint:
        Fingerprint before the update: the retired epoch's key, which
        the caller (the live traffic pipeline) may eventually pass to
        :meth:`~repro.service.cache.PreprocessingCache.invalidate_fingerprint`
        once no in-flight batch can still reference it.
    epoch:
        The stack's epoch sequence number after the update.
    """

    edges: int
    touched_cells: tuple[int, ...]
    recustomized: bool
    fingerprint: str = ""
    previous_fingerprint: str = ""
    epoch: int = 0


class ConcurrentDispatcher:
    """Evaluates independent obfuscated queries across a thread pool.

    Each worker thread lazily builds its own MSMD processor handle via
    ``handle_factory`` (processors are cheap; artifacts are shared
    through the :class:`~repro.service.cache.PreprocessingCache`), so no
    processor instance is ever shared between threads.

    Parameters
    ----------
    handle_factory:
        Zero-argument callable returning a fresh
        :class:`~repro.search.multi.MultiSourceMultiDestProcessor`.
    max_workers:
        Thread-pool size; 1 degenerates to serial evaluation (no pool is
        created), which is the determinism baseline.
    """

    def __init__(
        self,
        handle_factory,
        max_workers: int = 4,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._factory = handle_factory
        self._max_workers = max_workers
        self._local = threading.local()
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()

    @property
    def max_workers(self) -> int:
        """Configured thread-pool size."""
        return self._max_workers

    def _handle(self) -> MultiSourceMultiDestProcessor:
        """This thread's private engine handle (built on first use)."""
        handle = getattr(self._local, "handle", None)
        if handle is None:
            handle = self._factory()
            self._local.handle = handle
        return handle

    def _pool(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-serving",
                )
            return self._executor

    def _evaluate(
        self,
        network,
        query: ObfuscatedPathQuery,
        artifact: object,
        tracer=NULL_TRACER,
        parent=None,
        cell: int | None = None,
    ) -> MSMDResult | ReproError:
        handle = self._handle()
        if artifact is not None and isinstance(handle, PreprocessingProcessor):
            handle.use_artifact(artifact)
        with tracer.span(
            "serve.worker",
            parent=parent,
            num_sources=len(query.sources),
            num_destinations=len(query.destinations),
        ) as worker:
            if cell is not None:
                worker.set("cell", cell)
            with tracer.span("engine.process", parent=worker) as kernel:
                try:
                    result = handle.process(
                        network, list(query.sources), list(query.destinations)
                    )
                except ReproError as exc:
                    return exc
                stats = result.stats
                kernel.set("settled_nodes", stats.settled_nodes)
                kernel.set("relaxed_edges", stats.relaxed_edges)
                kernel.set("heap_pushes", stats.heap_pushes)
        return result

    def dispatch(
        self,
        network,
        queries: Sequence[ObfuscatedPathQuery],
        artifact: object = None,
        tracer=None,
        parent=None,
        cells: Sequence[int | None] | None = None,
    ) -> list[MSMDResult | ReproError]:
        """Evaluate every query, returning outcomes in submission order.

        Parameters
        ----------
        network:
            Road network the queries run against.
        queries:
            Independent obfuscated queries (no ordering constraints
            between them; each is a self-contained MSMD evaluation).
        artifact:
            Optional preprocessing artifact injected into each worker's
            handle (from the serving stack's preprocessing cache).
        tracer, parent:
            Optional :class:`~repro.obs.trace.Tracer` and parent span:
            each evaluation then runs inside a ``serve.worker`` span
            (child ``engine.process`` carries the search counters)
            attached under ``parent``, from whichever thread ran it.
        cells:
            Optional per-query partition cell hints (aligned with
            ``queries``), recorded as the worker span's ``cell`` attr.

        Returns
        -------
        list of MSMDResult or ReproError
            ``results[i]`` answers ``queries[i]``, identical to what
            serial evaluation would produce — or is the
            :class:`~repro.exceptions.ReproError` evaluating it raised
            (no path, unknown endpoint), which never stops the others.
        """
        if not queries:
            return []
        if tracer is None:
            tracer = NULL_TRACER
        if cells is None:
            cells = [None] * len(queries)
        if self._max_workers == 1 or len(queries) == 1:
            return [
                self._evaluate(network, q, artifact, tracer, parent, cell)
                for q, cell in zip(queries, cells)
            ]
        pool = self._pool()
        futures = [
            pool.submit(self._evaluate, network, q, artifact, tracer, parent, cell)
            for q, cell in zip(queries, cells)
        ]
        return [f.result() for f in futures]

    def evaluate_union(
        self,
        network,
        set_queries: Sequence[tuple[tuple, tuple]],
        artifact: object = None,
        tracer=NULL_TRACER,
        parent=None,
    ) -> UnionPassResult:
        """Answer several set queries in one shared union pass.

        Runs on the calling thread with its private engine handle (a
        union pass is already the merged evaluation — there is nothing
        left to parallelize across the pool) inside one ``engine.union``
        span under ``parent``; see
        :meth:`repro.search.multi.MultiSourceMultiDestProcessor.process_union`
        for the exactness contract.
        """
        handle = self._handle()
        if artifact is not None and isinstance(handle, PreprocessingProcessor):
            handle.use_artifact(artifact)
        with tracer.span(
            "engine.union", parent=parent, num_queries=len(set_queries)
        ) as span:
            union = handle.process_union(network, set_queries)
            span.set("union_pairs", union.pairs_computed)
            span.set("settled_nodes", union.union_stats.settled_nodes)
        return union

    def shutdown(self) -> None:
        """Tear down the thread pool (idempotent; a later dispatch rebuilds it)."""
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None


@dataclass(frozen=True, slots=True)
class CoalesceSnapshot:
    """Point-in-time coalescing counters of a :class:`ServingStack`.

    A *window* is one batch answered by a coalescing stack (the batch is
    the window).

    Attributes
    ----------
    windows:
        Batches answered so far.
    queries:
        Obfuscated queries those batches held.
    shared_windows:
        Windows whose union pass merged >= 2 distinct queries (actual
        cross-query sharing happened).
    coalesced_queries:
        Queries answered by a shared union pass (their responses carry
        ``coalesced=True``).
    union_pairs:
        Deterministic work counter: distinct ``(s, t)`` pairs evaluated
        by union kernel passes (compare against the ``sum |S_i|x|T_i|``
        a per-session dispatch would have paid).
    max_window:
        Largest window answered.
    """

    windows: int = 0
    queries: int = 0
    shared_windows: int = 0
    coalesced_queries: int = 0
    union_pairs: int = 0
    max_window: int = 0

    @property
    def mean_window(self) -> float:
        """Average queries per window (0 when idle)."""
        return self.queries / self.windows if self.windows else 0.0

    def to_dict(self) -> dict:
        """Stable-key report shape (see ``docs/API.md``).

        Every report surface (``serve-replay``, ``obs-report``, the
        gateway's ``/v1/metrics``) emits this one shape: a ``schema``
        version stamp, a ``kind`` discriminator and flat counters.
        """
        return {
            "schema": 1,
            "kind": "coalesce_snapshot",
            "windows": self.windows,
            "queries": self.queries,
            "shared_windows": self.shared_windows,
            "coalesced_queries": self.coalesced_queries,
            "union_pairs": self.union_pairs,
            "max_window": self.max_window,
            "mean_window": self.mean_window,
        }


@dataclass(frozen=True, slots=True)
class ServingConfig:
    """Frozen construction-time knobs of a :class:`ServingStack`.

    The one value that describes how to build a stack — pass it to
    :meth:`ServingStack.from_config`, ship it across process boundaries
    (it is picklable; the network gateway sends it to shard workers), or
    embed it in a deployment manifest.  Runtime collaborators that hold
    live state (pre-built caches, a shared
    :class:`~repro.obs.metrics.MetricsRegistry`, a tracer) stay keyword
    arguments of :meth:`~ServingStack.from_config` — they are wiring,
    not configuration.

    Attributes
    ----------
    engine:
        Name from the :data:`repro.search.ENGINES` registry.
    max_workers:
        Dispatcher thread-pool size (1 = serial).
    coalesce:
        Evaluate the distinct misses of a batch (two or more) in one
        shared union kernel pass instead of per-query dispatch.
    spill_dir:
        Disk-spill directory for the preprocessing cache (also the
        artifact handoff channel between gateway shard workers).
    preprocessing_capacity:
        In-memory artifact slots of the preprocessing cache (>= 1).
    result_capacity:
        Result-table slots of the result cache (0 disables it).
    """

    engine: str = "dijkstra"
    max_workers: int = 4
    coalesce: bool = False
    spill_dir: str | None = None
    preprocessing_capacity: int = 8
    result_capacity: int = 256

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.preprocessing_capacity < 1:
            raise ValueError("preprocessing_capacity must be >= 1")
        if self.result_capacity < 0:
            raise ValueError("result_capacity must be >= 0")

    def to_dict(self) -> dict:
        """Stable-key report shape (see ``docs/API.md``)."""
        return {
            "schema": 1,
            "kind": "serving_config",
            "engine": self.engine,
            "max_workers": self.max_workers,
            "coalesce": self.coalesce,
            "spill_dir": (
                str(self.spill_dir) if self.spill_dir is not None else None
            ),
            "preprocessing_capacity": self.preprocessing_capacity,
            "result_capacity": self.result_capacity,
        }


class ServingStack:
    """Thread-safe caching/concurrency layer in front of a directions server.

    The stack owns a :class:`~repro.core.server.DirectionsServer` and
    answers obfuscated queries through two caches and a dispatcher; see
    the module docstring for the architecture.  Hand the stack to
    :class:`~repro.core.system.OpaqueSystem` (``serving=`` parameter) to
    run the full client→obfuscator→server→filter pipeline over it, or
    call :meth:`answer`/:meth:`answer_batch` directly to drive the
    server side alone.

    Construct stacks through :meth:`from_config`: one frozen
    :class:`ServingConfig` carries every construction-time knob (engine,
    pool sizes, spill directory, coalescing), and the keyword arguments
    below that hold live collaborators (caches, metrics, tracer) ride
    alongside it.

    Parameters
    ----------
    network:
        The server's road network (shared by every component).
    config:
        The :class:`ServingConfig` to build from.
    preprocessing_cache, result_cache:
        Preconfigured caches, e.g. shared across several stacks serving
        different networks; fresh defaults (sized and spilled as
        ``config`` says) otherwise.
    metrics:
        Shared :class:`~repro.obs.metrics.MetricsRegistry`; a private
        one is created otherwise.  The stack, its server and the
        caches it creates (pre-supplied caches keep their own registry)
        all register their instruments here, so one
        ``registry.to_json()`` / ``to_prometheus()`` call exposes the
        whole stack.
    tracer:
        A :class:`~repro.obs.trace.Tracer` to record per-query span
        trees (one ``serve.answer_batch`` root per batch, holding
        ``serve.cache_consult`` and then either ``serve.worker`` →
        ``engine.process`` per distinct miss or one ``engine.union``).
        ``None`` (default) uses a shared no-op tracer with no recording
        overhead.

    Notes
    -----
    Paged networks are not supported here: page-fault accounting is a
    per-query experiment instrument, while the stack exists to elide
    repeated work — combining them would produce misleading I/O numbers.
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
        self.network = network
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
        self.preprocessing = (
            preprocessing_cache
            if preprocessing_cache is not None
            else PreprocessingCache(
                capacity=config.preprocessing_capacity,
                spill_dir=config.spill_dir,
                metrics=self.metrics,
            )
        )
        self.results = (
            result_cache
            if result_cache is not None
            else ResultCache(
                capacity=config.result_capacity, metrics=self.metrics
            )
        )
        self.dispatcher = ConcurrentDispatcher(
            self._engine.make_processor, max_workers=config.max_workers
        )
        self.server = DirectionsServer(
            network,
            processor=self._engine.make_processor(),
            metrics=self.metrics,
        )
        #: the ``repro_coalesce_*`` instruments by :class:`CoalesceSnapshot`
        #: field, or None when coalescing is off
        self._coalesce_meters = None
        if config.coalesce:
            counter = self.metrics.counter
            self._coalesce_meters = {
                "windows": counter(
                    "repro_coalesce_windows_total",
                    desc="batches answered by a coalescing stack",
                ),
                "queries": counter(
                    "repro_coalesce_queries_total",
                    desc="queries those batches held",
                ),
                "shared_windows": counter(
                    "repro_coalesce_shared_windows_total",
                    desc="windows whose union pass merged >= 2 distinct queries",
                ),
                "coalesced_queries": counter(
                    "repro_coalesce_coalesced_queries_total",
                    desc="queries answered by a shared union pass",
                ),
                "union_pairs": counter(
                    "repro_coalesce_union_pairs_total",
                    desc="distinct (s, t) pairs evaluated by union passes",
                ),
                "max_window": self.metrics.gauge(
                    "repro_coalesce_max_window",
                    desc="largest window answered",
                ),
            }
        self._lock = threading.Lock()
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
    def epoch(self) -> int:
        """Sequence number of the currently installed network epoch.

        0 until the first :meth:`install_epoch` (or :meth:`reweight`);
        each atomic handoff increments it.
        """
        with self._lock:
            return self._epoch

    def _epoch_view(self) -> tuple[object, str]:
        """Atomically capture ``(network, fingerprint)`` for one batch.

        The epoch-handoff read side: a batch resolves both under the
        stack lock so a concurrent :meth:`install_epoch` can never hand
        it network A with network B's fingerprint.  The batch then runs
        entirely against the captured pair — in-flight work finishes on
        the old epoch's snapshot while new batches pick up the new one.
        """
        with self._lock:
            return self.network, self._fingerprint()

    def install_epoch(
        self, network, artifact: object = None, fingerprint: str | None = None
    ) -> str:
        """Atomically switch serving to a new network snapshot.

        The epoch-handoff write side, used by :meth:`reweight` and the
        live traffic pipeline (:mod:`repro.service.pipeline`): the
        artifact (when given) is
        installed in the preprocessing cache under the snapshot's
        fingerprint *first*, then the stack's ``network`` reference,
        fingerprint memo and epoch counter advance in one locked step.
        Batches that captured the previous epoch's view keep serving its
        (now unreferenced, still immutable) snapshot; the next
        :meth:`answer_batch` sees the new one.  Returns the new epoch's
        fingerprint.
        """
        if fingerprint is None:
            fingerprint = network_fingerprint(network)
        if artifact is not None:
            self.preprocessing.put(fingerprint, self.engine_name, artifact)
        version = getattr(network, "version", None)
        with self._lock:
            self.network = network
            self._fingerprint_memo = (
                (version, fingerprint) if version is not None else None
            )
            self._epoch += 1
            self._m_epoch.set(self._epoch)
        return fingerprint

    def _fingerprint(self) -> str:
        """This network's content fingerprint, memoized by mutation version.

        Networks exposing a ``version`` stamp (every
        :class:`~repro.network.graph.RoadNetwork`) are only rehashed
        after a mutation, making warm lookups O(1) in graph size;
        version-less network views fall back to hashing per call.
        """
        version = getattr(self.network, "version", None)
        if version is None:
            return network_fingerprint(self.network)
        memo = self._fingerprint_memo
        if memo is None or memo[0] != version:
            memo = (version, network_fingerprint(self.network))
            self._fingerprint_memo = memo
        return memo[1]

    def warm(self) -> object:
        """Build (or fetch) this network's preprocessing artifact now.

        Useful to pay the build cost at deploy time instead of on the
        first query; returns the artifact (``None`` for engines without
        preprocessing).
        """
        return self.preprocessing.get(
            self.network, self.engine_name, fingerprint=self._fingerprint()
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
        result cache and records every answered query — hit or miss —
        in the underlying server's adversary view and load counters.

        Misses are evaluated concurrently by the dispatcher, or — with
        :attr:`ServingConfig.coalesce` and at least two of them — by ONE
        shared union kernel pass whose responses carry
        ``coalesced=True``.  Either way each table holds exactly its
        query's ``S x T`` pairs in that query's own wire order, so the
        two are byte-identical and nothing about a query's batch-mates
        is observable in any response.

        The network fingerprint keying both caches is memoized against
        the network's mutation ``version``, so a warm batch costs O(1)
        in graph size; the graph is only rehashed after a mutation —
        which is exactly when stale tables must stop matching.

        Returns
        -------
        list of ServerResponse or ReproError
            In submission order.  A query that fails on its own (no
            path, unknown endpoint) yields the error evaluating it alone
            would raise; it is neither cached nor recorded and costs its
            batch-mates nothing.
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
            shared = self.config.coalesce and len(miss_groups) >= 2
            union_pairs = 0
            computed: Sequence[MSMDResult | ReproError] = ()
            if miss_groups:
                artifact = self.preprocessing.get(
                    network, self.engine_name, fingerprint=fingerprint
                )
                if shared:
                    union = self.dispatcher.evaluate_union(
                        network, list(misses), artifact,
                        tracer=self._tracer, parent=root,
                    )
                    union_pairs = union.pairs_computed
                    computed = [
                        table if error is None else error
                        for table, error in zip(union.tables, union.errors)
                    ]
                else:
                    computed = self._dispatch(
                        network, queries, miss_groups, artifact, root
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
            for outcome in outcomes:
                if isinstance(outcome, ServerResponse):
                    self.server.record(outcome)
            meters = self._coalesce_meters
            if meters is not None:
                meters["windows"].inc()
                meters["queries"].inc(len(queries))
                meters["union_pairs"].inc(union_pairs)
                meters["max_window"].set_max(len(queries))
                if shared:
                    meters["shared_windows"].inc()
                    # errors carry no flag; cache hits carry False
                    meters["coalesced_queries"].inc(
                        sum(getattr(o, "coalesced", False) for o in outcomes)
                    )
        self._m_batch_seconds.observe(time.perf_counter() - t0)
        return outcomes

    def answer_cached(
        self, query: ObfuscatedPathQuery
    ) -> tuple[ServerResponse, bytes] | None:
        """Answer ``query`` if the result cache can, else ``None``.

        The constant-work half of :meth:`answer`, cheap enough for an
        event loop: the current epoch's fingerprint and one lookup under
        the stack lock — no search, no pool.  A hit is accounted as
        :meth:`answer_each` accounts it (one cache hit, one
        ``from_cache`` response recorded by the server, one
        batch-latency observation) and returns the response with its
        table's wire fragment
        (:meth:`~repro.service.cache.ResultCache.hit`).  A miss touches
        no counter: the caller hands the query to :meth:`answer_each`,
        which counts it once.

        Taking this path is a function of ``(S, T, epoch)``, the cache
        key, so it shows the server nothing a cache hit does not.  Hits
        answered here are no batch: the coalescing counters
        (``repro_coalesce_*``, :class:`CoalesceSnapshot`) count queries
        that reached :meth:`answer_each`.  No span is recorded.
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

    def _dispatch(
        self,
        network,
        queries: Sequence[ObfuscatedPathQuery],
        miss_groups: list[list[int]],
        artifact: object,
        root,
    ) -> list[MSMDResult | ReproError]:
        """Evaluate each miss group's first query on the dispatcher.

        Sorts ``miss_groups`` in place when the artifact has a partition;
        outcomes align with the sorted groups.
        """
        cell_of = None
        if isinstance(artifact, OverlayGraph):
            cell_of = artifact.partition.cell_of
        if len(miss_groups) > 1 and cell_of is not None:
            # Shard-aware dispatch: group this batch's misses by the
            # source cell so queries touching the same shard of the map
            # run back to back (locality for per-worker scratch and any
            # external sharding built on dispatch_hint).  Responses are
            # reassembled by batch index, so ordering is unobservable.
            miss_groups.sort(
                key=lambda indices: (
                    _hint_sort_key(
                        cell_of.get(queries[indices[0]].sources[0])
                    ),
                    indices[0],
                )
            )
        unique = [queries[indices[0]] for indices in miss_groups]
        cells = None
        if cell_of is not None:
            cells = [cell_of.get(query.sources[0]) for query in unique]
        return self.dispatcher.dispatch(
            network, unique, artifact,
            tracer=self._tracer, parent=root, cells=cells,
        )

    def dispatch_hint(self, query: ObfuscatedPathQuery) -> int | None:
        """Shard hint for ``query``: the partition cell of its first source.

        Available when the engine's cached artifact is a partition
        overlay; ``None`` otherwise.  A fleet of stacks can use the hint
        to route queries to the replica owning that cell; a single stack
        uses it to group each batch's misses by cell before dispatching
        (see :meth:`answer_batch`).  Never builds preprocessing — a cold
        cache simply yields ``None``.
        """
        _, fingerprint = self._epoch_view()
        artifact = self.preprocessing.peek(fingerprint, self.engine_name)
        if isinstance(artifact, OverlayGraph):
            return artifact.partition.cell_of.get(query.sources[0])
        return None

    def reweight(
        self,
        changes: Sequence[tuple],
        recustomize: bool = True,
        epoch: bool = True,
    ) -> ReweightOutcome:
        """Apply a traffic update as a new copy-on-write epoch.

        Each change ``(u, v, weight)`` re-weights an *existing* edge
        (both directions on undirected networks).  The changes are
        applied to a *copy* of the serving network and the copy is
        installed atomically via :meth:`install_epoch`, so this is safe
        to call while queries are in flight: batches that already
        captured the old epoch finish on its untouched network, new
        batches see the update.  The new content fingerprint means every
        cached artifact and result table for the old geometry stops
        matching — correctness needs nothing else.  The point of this
        method is the cost: when the engine's current artifact is a
        partition overlay, only the touched cells' cliques are
        recustomized against the snapshot
        (:meth:`~repro.search.overlay.OverlayGraph.recustomized_on`) and
        the updated overlay is installed with it — so the next query
        pays a per-cell refresh instead of a full rebuild.  Gateway,
        shard workers and the live traffic pipeline
        (:mod:`repro.service.pipeline`) all re-weight through here.

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
                edges=0,
                touched_cells=(),
                recustomized=False,
                fingerprint=old_fingerprint,
                previous_fingerprint=old_fingerprint,
                epoch=self.epoch,
            )
        old_artifact = self.preprocessing.peek(old_fingerprint, self.engine_name)
        snapshot = old_network.copy()
        for u, v, w in applied:
            snapshot.add_edge(u, v, w)
        touched: tuple[int, ...] = ()
        overlay = None
        if (
            recustomize
            and isinstance(old_artifact, OverlayGraph)
            # A shared PreprocessingCache may hold an overlay built by a
            # *different* stack over a content-identical network object;
            # only an overlay reading *this* epoch's weights can donate
            # its untouched cells.
            and old_artifact.network is old_network
        ):
            cells = old_artifact.touched_cells(applied)
            overlay = old_artifact.recustomized_on(
                snapshot, cells, changed_edges=applied
            )
            touched = tuple(sorted(cells))
        new_fingerprint = self.install_epoch(
            snapshot,
            artifact=overlay,
            fingerprint=updated_fingerprint(
                old_fingerprint, old_network, snapshot,
                [node for u, v, _ in applied for node in (u, v)],
            ),
        )
        return ReweightOutcome(
            edges=len(applied),
            touched_cells=touched,
            recustomized=overlay is not None,
            fingerprint=new_fingerprint,
            previous_fingerprint=old_fingerprint,
            epoch=self.epoch,
        )

    def coalesce_snapshot(self) -> CoalesceSnapshot | None:
        """The coalescing counters, or ``None`` when coalescing is off."""
        if self._coalesce_meters is None:
            return None
        with self._lock:
            return CoalesceSnapshot(**{
                name: int(meter.value)
                for name, meter in self._coalesce_meters.items()
            })

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
        """Shut down the dispatcher's thread pool."""
        self.dispatcher.shutdown()

    def __enter__(self) -> "ServingStack":
        """Enter a ``with`` block (no setup needed)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Leave a ``with`` block, shutting the thread pool down."""
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServingStack(engine={self.engine_name!r}, "
            f"workers={self.dispatcher.max_workers}, "
            f"network={self.network!r})"
        )


def _hint_sort_key(hint: int | None) -> tuple[int, int]:
    """Sortable form of a dispatch hint (``None`` groups last)."""
    return (1, 0) if hint is None else (0, hint)


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
    queries: Sequence[ObfuscatedPathQuery],
    repeats: int = 1,
    batch_size: int = 1,
    clock: Callable[[], float] = time.perf_counter,
) -> ReplayReport:
    """Replay a fixed obfuscated-query workload through a serving stack.

    The stream is served ``repeats`` times in order, ``batch_size``
    queries per concurrent batch.  The first pass is the cold run (cache
    misses build the artifact and fill the result cache); later passes
    measure the warm behavior a long-lived service sees.

    Parameters
    ----------
    stack:
        The serving stack under test.
    queries:
        The server-visible workload (e.g. obfuscated once from a
        workload file; see :mod:`repro.workloads.replay`).
    repeats:
        Total passes over the stream (>= 1).
    batch_size:
        Queries dispatched per :meth:`ServingStack.answer_batch` call
        (>= 1); the dispatcher parallelizes within a batch.
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
    start = clock()
    for _ in range(repeats):
        for offset in range(0, len(queries), batch_size):
            batch = list(queries[offset : offset + batch_size])
            t0 = clock()
            stack.answer_batch(batch)
            elapsed = clock() - t0
            report.latencies.extend([elapsed] * len(batch))
            report.queries += len(batch)
    report.total_seconds = clock() - start
    report.cache = stack.snapshot()
    return report
