"""The directions search server with its obfuscated path query processor.

The server is semi-trusted: it answers queries honestly but may analyze
everything it sees.  Accordingly :class:`DirectionsServer` does two things:

* evaluates obfuscated path queries with a pluggable MSMD strategy over a
  (optionally paged) road network, returning every candidate path, and
* logs the queries it observes (``observed_queries``, the most recent
  :data:`OBSERVED_WINDOW` of them), which is exactly the adversary's
  view used by :mod:`repro.core.attacks`.

When a :class:`~repro.service.serving.ServingStack` fronts the server,
some responses are served from the result cache without a fresh search;
those responses carry ``from_cache=True`` and are recorded through
:meth:`DirectionsServer.record` so the adversary's view and the load
counters stay complete while the search-cost counters only reflect work
actually performed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.query import ObfuscatedPathQuery
from repro.network.graph import RoadNetwork
from repro.network.storage import PagedNetwork
from repro.obs.metrics import MetricsRegistry
from repro.search.multi import (
    MSMDResult,
    MultiSourceMultiDestProcessor,
    SharedTreeProcessor,
)
from repro.search.result import SearchStats

__all__ = ["OBSERVED_WINDOW", "ServerResponse", "DirectionsServer"]

#: queries the adversary log keeps.  A server that runs for days must
#: hold O(1) memory per request served; attacks and experiments read a
#: session's worth of queries, far fewer than this.
OBSERVED_WINDOW = 4096


@dataclass(frozen=True, slots=True)
class ServerResponse:
    """What the server returns for one obfuscated path query.

    Attributes
    ----------
    query:
        The obfuscated query that was answered.
    candidates:
        Every candidate result path (the |S| x |T| table).
    from_cache:
        ``True`` when the serving layer supplied the table without
        fresh search work (result-cache hit, or a duplicate query in
        the same batch); ``candidates.stats`` then describes the
        *original* computation, not work done for this response.
    coalesced:
        ``True`` when the table was sliced out of a shared union kernel
        pass that merged >= 2 queries of one batch
        (:attr:`~repro.service.serving.ServingConfig.coalesce`).  The pass's
        total search work is attributed to the first sliced table, so
        the other coalesced responses carry zero stats and counters
        never double-count shared work.
    """

    query: ObfuscatedPathQuery
    candidates: MSMDResult
    from_cache: bool = False
    coalesced: bool = False

    @property
    def num_paths(self) -> int:
        """Number of candidate result paths (|S| x |T|)."""
        return self.candidates.num_paths


@dataclass(slots=True)
class ServerCounters:
    """Cumulative server-side load counters.

    ``coalesced_queries`` counts responses sliced from shared union
    kernel passes (queries that were answered together with concurrent
    queries of other sessions instead of paying their own pass).

    Since the telemetry subsystem landed this is a *view*: the live
    values are registry instruments (``repro_server_*`` metrics on the
    server's :class:`~repro.obs.metrics.MetricsRegistry`) and
    :attr:`DirectionsServer.counters` assembles them on read, so the
    public shape is unchanged while exposition formats get the same
    numbers.
    """

    queries_served: int = 0
    paths_returned: int = 0
    coalesced_queries: int = 0
    stats: SearchStats = field(default_factory=SearchStats)


class DirectionsServer:
    """Directions search server running an MSMD processor.

    Parameters
    ----------
    network:
        The server's sophisticated road map.
    processor:
        MSMD evaluation strategy (defaults to the paper's
        :class:`~repro.search.multi.SharedTreeProcessor`).
    engine:
        Name from the :data:`repro.search.ENGINES` registry (e.g.
        ``"ch"``); resolved to that engine's MSMD processor.  Mutually
        exclusive with ``processor``.
    paged:
        When ``True`` the map is wrapped in a
        :class:`~repro.network.storage.PagedNetwork` so responses carry
        page-fault counts (the paper's I/O cost).
    page_capacity, buffer_capacity:
        Storage-simulator knobs, used only when ``paged``.
    """

    def __init__(
        self,
        network: RoadNetwork,
        processor: MultiSourceMultiDestProcessor | None = None,
        engine: str | None = None,
        paged: bool = False,
        page_capacity: int = 64,
        buffer_capacity: int = 32,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._base_network = network
        if paged:
            self._network = PagedNetwork(
                network,
                page_capacity=page_capacity,
                buffer_capacity=buffer_capacity,
            )
        else:
            self._network = network
        if processor is not None and engine is not None:
            raise ValueError("pass either processor or engine, not both")
        if processor is None and engine is not None:
            from repro.search import get_engine

            processor = get_engine(engine).make_processor()
        self._processor = (
            processor if processor is not None else SharedTreeProcessor()
        )
        #: the adversary's view: the last OBSERVED_WINDOW Q(S, T) seen,
        #: oldest first
        self.observed_queries: deque[ObfuscatedPathQuery] = deque(
            maxlen=OBSERVED_WINDOW
        )
        #: registry holding the live load counters (``repro_server_*``)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        reg = self.metrics
        self._m_queries = reg.counter(
            "repro_server_queries_served_total",
            desc="obfuscated queries answered (cache hits included)",
        )
        self._m_paths = reg.counter(
            "repro_server_paths_returned_total",
            desc="candidate paths returned across all responses",
        )
        self._m_coalesced = reg.counter(
            "repro_server_coalesced_queries_total",
            desc="responses sliced from shared union kernel passes",
        )
        self._m_settled = reg.counter(
            "repro_server_settled_nodes_total",
            desc="nodes settled by fresh (non-cached) search work",
        )
        self._m_relaxed = reg.counter(
            "repro_server_relaxed_edges_total",
            desc="edge relaxations by fresh search work",
        )
        self._m_pushes = reg.counter(
            "repro_server_heap_pushes_total",
            desc="priority-queue insertions by fresh search work",
        )
        self._m_faults = reg.counter(
            "repro_server_page_faults_total",
            desc="physical page reads (paged networks only)",
        )
        self._m_pages = reg.counter(
            "repro_server_pages_touched_total",
            desc="distinct pages accessed (paged networks only)",
        )
        self._m_max_dist = reg.gauge(
            "repro_server_max_settled_distance",
            desc="largest search-tree radius seen (paper cost bound)",
        )

    @property
    def processor(self) -> MultiSourceMultiDestProcessor:
        """The MSMD strategy in use."""
        return self._processor

    @property
    def network(self):
        """The (possibly paged) network queries run against."""
        return self._network

    def answer(self, query: ObfuscatedPathQuery) -> ServerResponse:
        """Evaluate ``Q(S, T)`` and return all candidate result paths.

        Each call resets the paged network's buffer pool first (when
        paging is on) so per-query page-fault counts are comparable.
        """
        # Observe before evaluating: the adversary sees every query it
        # receives, including ones whose evaluation fails.
        self.observed_queries.append(query)
        if isinstance(self._network, PagedNetwork):
            self._network.reset_io()
        result = self._processor.process(
            self._network, list(query.sources), list(query.destinations)
        )
        response = ServerResponse(query=query, candidates=result)
        self._account(response)
        return response

    def record(self, response: ServerResponse) -> None:
        """Account for one response the serving layer produced on our behalf.

        Appends the query to the adversary's view and updates the load
        counters; search-cost counters are only merged for responses
        that performed fresh work (``from_cache=False``).
        """
        self.observed_queries.append(response.query)
        self._account(response)

    @property
    def counters(self) -> ServerCounters:
        """Cumulative load counters, assembled from the metrics registry.

        Returns a fresh :class:`ServerCounters` snapshot on every
        access; mutate the server (answer/record), not the snapshot.
        """
        return ServerCounters(
            queries_served=self._m_queries.value,
            paths_returned=self._m_paths.value,
            coalesced_queries=self._m_coalesced.value,
            stats=SearchStats(
                settled_nodes=self._m_settled.value,
                relaxed_edges=self._m_relaxed.value,
                heap_pushes=self._m_pushes.value,
                page_faults=self._m_faults.value,
                pages_touched=self._m_pages.value,
                max_settled_distance=self._m_max_dist.value,
            ),
        )

    def _account(self, response: ServerResponse) -> None:
        self._m_queries.inc()
        self._m_paths.inc(response.num_paths)
        if response.coalesced:
            self._m_coalesced.inc()
        if not response.from_cache:
            stats = response.candidates.stats
            self._m_settled.inc(stats.settled_nodes)
            self._m_relaxed.inc(stats.relaxed_edges)
            self._m_pushes.inc(stats.heap_pushes)
            if stats.page_faults:
                self._m_faults.inc(stats.page_faults)
            if stats.pages_touched:
                self._m_pages.inc(stats.pages_touched)
            if stats.max_settled_distance:
                self._m_max_dist.set_max(stats.max_settled_distance)

    def reset_counters(self) -> None:
        """Zero the cumulative counters and forget observed queries."""
        self.observed_queries.clear()
        for instrument in (
            self._m_queries, self._m_paths, self._m_coalesced,
            self._m_settled, self._m_relaxed, self._m_pushes,
            self._m_faults, self._m_pages, self._m_max_dist,
        ):
            instrument.reset()

    def __repr__(self) -> str:
        return (
            f"DirectionsServer(processor={self._processor.name!r}, "
            f"network={self._network!r})"
        )
