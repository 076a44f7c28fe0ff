"""Multi-source multi-destination (MSMD) processors for obfuscated queries.

An obfuscated path query ``Q(S, T)`` stands for the |S| x |T| path queries
``{Q(s, t) : s in S, t in T}`` and the server must answer all of them (it
cannot know which is real).  This module provides the server-side
evaluation strategies:

* :class:`NaivePairwiseProcessor` — one independent point-to-point search
  per (s, t) pair; the strawman whose cost grows with |S| x |T|.
* :class:`SharedTreeProcessor` — one single-source multi-destination
  Dijkstra tree per source (the paper's design); cost
  ``O(sum_s max_t ||s,t||^2)`` per Lemma 1.
* :class:`SideSelectingProcessor` — shared trees grown from whichever side
  of the query is smaller (valid on undirected networks), an ablation
  showing the |S| vs |T| asymmetry in Lemma 1.
* ``"ch"`` (:class:`repro.search.ch.manytomany.CHManyToManyProcessor`) —
  the bucket-based many-to-many algorithm over a preprocessed Contraction
  Hierarchy; amortizes work across the whole query mix.

All processors return the same :class:`MSMDResult` so experiments can swap
them freely.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.exceptions import NoPathError, QueryError, ReproError
from repro.network.graph import NodeId
from repro.search.dijkstra import dijkstra_path, dijkstra_to_many
from repro.search.result import PathResult, SearchStats

__all__ = [
    "MSMDResult",
    "UnionPassResult",
    "MultiSourceMultiDestProcessor",
    "PreprocessingProcessor",
    "NaivePairwiseProcessor",
    "SharedTreeProcessor",
    "SideSelectingProcessor",
]


@dataclass(slots=True)
class MSMDResult:
    """All candidate result paths of one obfuscated path query.

    Attributes
    ----------
    paths:
        ``{(s, t): PathResult}`` for every pair in S x T.
    stats:
        Aggregate search cost over the whole evaluation.
    searches:
        Number of distinct graph searches performed (trees grown for the
        shared strategies, pairs for the naive one).
    """

    paths: dict[tuple[NodeId, NodeId], PathResult] = field(default_factory=dict)
    stats: SearchStats = field(default_factory=SearchStats)
    searches: int = 0

    def path_for(self, source: NodeId, destination: NodeId) -> PathResult:
        """The candidate path answering ``Q(source, destination)``.

        Raises
        ------
        KeyError
            If the pair was not part of the evaluated query.
        """
        return self.paths[(source, destination)]

    @property
    def num_paths(self) -> int:
        """Number of candidate paths (|S| x |T|)."""
        return len(self.paths)


@dataclass(slots=True)
class UnionPassResult:
    """Outcome of one shared *union pass* over several set queries.

    A union pass answers a list of set queries ``[(S_1, T_1), ...]`` —
    typically concurrent obfuscated queries coalesced by the serving
    layer — with one shared kernel evaluation over the unions of their
    endpoint sets, then slices the pair table back per query.  Slicing
    is exact: ``tables[i]`` contains precisely the ``S_i x T_i`` pairs of
    query ``i``, in the same wire order and with the same
    :class:`~repro.search.result.PathResult` content that a separate
    ``process(network, S_i, T_i)`` call would have produced.

    Attributes
    ----------
    tables:
        One sliced :class:`MSMDResult` per input query, or ``None`` when
        that query failed (see ``errors``).  The total search work of
        the pass is attributed to the *first* successful table (the
        remaining tables carry zero stats), so summing per-table stats
        equals ``union_stats`` and no work is double-counted; when every
        query fails, the work is recorded only in ``union_stats``.
    errors:
        Per-query exception (:class:`~repro.exceptions.NoPathError`,
        :class:`~repro.exceptions.QueryError`, ...) or ``None``; a
        failing query matches what evaluating it alone would raise and
        never poisons its batch-mates.
    union_sources, union_destinations:
        First-seen-ordered unions of the queries' endpoint sets.
    union_stats:
        Aggregate search cost of the whole shared pass.
    union_searches:
        Distinct graph searches (trees or sweeps) the pass performed.
    pairs_computed:
        Distinct ``(s, t)`` pairs the shared kernels evaluated — the
        deterministic work counter the coalescing benchmarks gate on.
    """

    tables: list[MSMDResult | None] = field(default_factory=list)
    errors: list[Exception | None] = field(default_factory=list)
    union_sources: tuple[NodeId, ...] = ()
    union_destinations: tuple[NodeId, ...] = ()
    union_stats: SearchStats = field(default_factory=SearchStats)
    union_searches: int = 0
    pairs_computed: int = 0

    @property
    def num_queries(self) -> int:
        """Number of set queries answered by the pass."""
        return len(self.tables)


def _union_order(
    set_queries: Sequence[tuple[Sequence[NodeId], Sequence[NodeId]]],
) -> tuple[tuple[NodeId, ...], tuple[NodeId, ...]]:
    """First-seen-ordered unions of the queries' source/destination sets."""
    sources: dict[NodeId, None] = {}
    destinations: dict[NodeId, None] = {}
    for query_sources, query_destinations in set_queries:
        for s in query_sources:
            sources.setdefault(s, None)
        for t in query_destinations:
            destinations.setdefault(t, None)
    return tuple(sources), tuple(destinations)


def _screen_union_queries(container, set_queries) -> list[Exception | None]:
    """Validate every set query of a union pass independently.

    ``container`` is whatever the engine resolves endpoints against (the
    network, a contracted graph, a CSR hierarchy — anything supporting
    ``in``).  A query that would fail on its own (empty or duplicated
    sets, unknown endpoint) gets the same exception recorded and is
    excluded from the shared pass, instead of poisoning its batch-mates.
    """
    from repro.exceptions import UnknownNodeError

    errors: list[Exception | None] = []
    for sources, destinations in set_queries:
        try:
            _validate(list(sources), list(destinations))
            for node in (*sources, *destinations):
                if node not in container:
                    raise UnknownNodeError(node)
        except ReproError as exc:
            errors.append(exc)
        else:
            errors.append(None)
    return errors


def _slice_union_tables(
    set_queries,
    errors: list[Exception | None],
    lookup,
    union_stats: SearchStats,
    union_searches: int,
    pairs_computed: int,
) -> UnionPassResult:
    """Slice a shared pass back into exact per-query tables.

    ``lookup(s, t)`` returns the pass's :class:`PathResult` for a pair
    or ``None`` when unreachable.  Pairs are emitted in each query's own
    ``S_i x T_i`` wire order (identical to a solo ``process`` call), a
    missing pair turns into the :class:`~repro.exceptions.NoPathError`
    the solo call would raise, and the pass's total stats are attributed
    to the first successful table so nothing is double-counted.
    """
    union_sources, union_destinations = _union_order(
        [query for query, error in zip(set_queries, errors) if error is None]
    )
    tables: list[MSMDResult | None] = []
    out_errors = list(errors)
    attributed = False
    for k, (sources, destinations) in enumerate(set_queries):
        if out_errors[k] is not None:
            tables.append(None)
            continue
        table = MSMDResult()
        error: Exception | None = None
        for s in sources:
            for t in destinations:
                path = lookup(s, t)
                if path is None:
                    error = NoPathError(s, t)
                    break
                table.paths[(s, t)] = path
            if error is not None:
                break
        if error is not None:
            out_errors[k] = error
            tables.append(None)
            continue
        if not attributed:
            table.stats.merge(union_stats)
            table.searches = union_searches
            attributed = True
        tables.append(table)
    return UnionPassResult(
        tables=tables,
        errors=out_errors,
        union_sources=union_sources,
        union_destinations=union_destinations,
        union_stats=union_stats,
        union_searches=union_searches,
        pairs_computed=pairs_computed,
    )


def _shared_tree_union(container, set_queries, grow) -> UnionPassResult:
    """The union pass of the shared-tree processors.

    One tree per *distinct* source across the valid queries, truncated
    at the union of the destinations any of them needs from it — past
    every single query's truncation point, and a Dijkstra tree's
    settled prefix does not change when the tree grows further, so each
    sliced path is the one a solo ``process`` call returns.
    ``grow(sources, destination_rows, stats)`` yields one
    ``{destination: PathResult}`` per source, unreachable ones omitted;
    ``container`` is as for :func:`_screen_union_queries`.
    """
    errors = _screen_union_queries(container, set_queries)
    needed: dict[NodeId, dict[NodeId, None]] = {}
    for (sources, destinations), error in zip(set_queries, errors):
        if error is None:
            for s in sources:
                needed.setdefault(s, {}).update(dict.fromkeys(destinations))
    union_stats = SearchStats()
    rows = [list(dests) for dests in needed.values()]
    trees = dict(zip(needed, grow(list(needed), rows, union_stats)))
    return _slice_union_tables(
        set_queries,
        errors,
        lambda s, t: trees[s].get(t),
        union_stats=union_stats,
        union_searches=len(needed),
        pairs_computed=sum(map(len, rows)),
    )


def _validate(sources: Sequence[NodeId], destinations: Sequence[NodeId]) -> None:
    if not sources:
        raise QueryError("obfuscated query needs at least one source")
    if not destinations:
        raise QueryError("obfuscated query needs at least one destination")
    if len(set(sources)) != len(sources):
        raise QueryError("duplicate sources in obfuscated query")
    if len(set(destinations)) != len(destinations):
        raise QueryError("duplicate destinations in obfuscated query")


class MultiSourceMultiDestProcessor:
    """Interface of every MSMD evaluation strategy.

    Subclasses implement :meth:`process`, answering every pair of
    ``sources x destinations`` over ``network``.
    """

    #: short identifier used in reports; an engine's processor carries
    #: the engine's :data:`repro.search.ENGINES` name
    name: str = "abstract"

    def process(
        self,
        network,
        sources: Sequence[NodeId],
        destinations: Sequence[NodeId],
    ) -> MSMDResult:
        """Evaluate the obfuscated query; see :class:`MSMDResult`."""
        raise NotImplementedError

    def process_union(
        self,
        network,
        set_queries: Sequence[tuple[Sequence[NodeId], Sequence[NodeId]]],
    ) -> UnionPassResult:
        """Answer several set queries in one (possibly shared) pass.

        The contract is *exactness*: ``tables[i]`` must be
        byte-identical — same pairs, same order, same paths, same
        distances — to ``process(network, S_i, T_i)``, and ``errors[i]``
        must be the exception that call would raise.  This default
        simply evaluates each query independently, so every processor
        (including future registrations) satisfies the contract for
        free; strategies whose cost is sublinear in the union of the
        endpoint sets (shared SSMD trees, CH buckets) override it to
        actually share work across the queries.
        """
        out = UnionPassResult()
        answered = []
        for sources, destinations in set_queries:
            try:
                table = self.process(network, list(sources), list(destinations))
            except ReproError as exc:
                out.tables.append(None)
                out.errors.append(exc)
                continue
            out.tables.append(table)
            out.errors.append(None)
            out.union_stats.merge(table.stats)
            out.union_searches += table.searches
            out.pairs_computed += table.num_paths
            answered.append((sources, destinations))
        out.union_sources, out.union_destinations = _union_order(answered)
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PreprocessingProcessor(MultiSourceMultiDestProcessor):
    """Base for processors that query a per-network preprocessed artifact.

    A preprocessing engine (contracted graph, partition overlay, ...) pays a
    one-time build cost per road network and reuses the artifact for every
    later query.  This base implements that lifecycle once: subclasses
    define :meth:`_build` and call :meth:`artifact_for`; a prebuilt
    artifact may be injected via the constructor (e.g. one loaded from
    disk), otherwise artifacts are built on first use and memoized per
    network object and mutation ``version`` — an in-place re-weight
    rebuilds on the next query (version-less views such as
    :class:`~repro.network.storage.PagedNetwork` are memoized by
    identity alone).
    """

    def __init__(self, artifact: object | None = None) -> None:
        self._artifact = artifact
        self._cache: "weakref.WeakKeyDictionary[object, tuple]" = (
            weakref.WeakKeyDictionary()
        )

    def _build(self, network) -> object:
        """Build the engine's artifact for ``network`` (subclass hook)."""
        raise NotImplementedError

    def artifact_for(self, network) -> object:
        """The (injected, cached, or freshly built) artifact for ``network``."""
        if self._artifact is not None:
            return self._artifact
        version = getattr(network, "version", None)
        memo = self._cache.get(network)
        if memo is None or memo[0] != version:
            memo = (version, self._build(network))
            self._cache[network] = memo
        return memo[1]

    def use_artifact(self, artifact: object | None) -> None:
        """Inject (or clear) the prebuilt artifact every query should use.

        This is how the serving layer hands a
        :class:`~repro.service.cache.PreprocessingCache` entry to a
        per-worker processor handle: the artifact is shared, the handle
        is not.  ``None`` reverts to the build-on-first-use lifecycle.
        """
        self._artifact = artifact


class NaivePairwiseProcessor(MultiSourceMultiDestProcessor):
    """One independent Dijkstra point search per (s, t) pair."""

    name = "naive"

    def process(self, network, sources, destinations) -> MSMDResult:
        """Answer every (s, t) pair with an independent point search."""
        _validate(sources, destinations)
        result = MSMDResult()
        for s in sources:
            for t in destinations:
                stats = SearchStats()
                result.paths[(s, t)] = dijkstra_path(network, s, t, stats=stats)
                result.stats.merge(stats)
                result.searches += 1
        return result


class SharedTreeProcessor(MultiSourceMultiDestProcessor):
    """One SSMD spanning tree per source — the paper's processor.

    For each ``s in S`` a single Dijkstra tree is grown until all of ``T``
    is settled, so the per-source cost is bounded by the furthest
    destination (Lemma 1) instead of paying once per destination.
    """

    name = "shared"

    def process(self, network, sources, destinations) -> MSMDResult:
        """Grow one truncated Dijkstra tree per source (Lemma 1 cost)."""
        _validate(sources, destinations)
        result = MSMDResult()
        for s in sources:
            stats = SearchStats()
            paths = dijkstra_to_many(network, s, destinations, stats=stats)
            for t in destinations:
                result.paths[(s, t)] = paths[t]
            result.stats.merge(stats)
            result.searches += 1
        return result

    def process_union(self, network, set_queries) -> UnionPassResult:
        """One tree per *distinct* source across all coalesced queries.

        Queries sharing sources share trees (:func:`_shared_tree_union`);
        the pass costs ``O(|union S|)`` trees instead of ``O(sum |S_i|)``.
        """
        return _shared_tree_union(
            network,
            set_queries,
            lambda sources, rows, stats: [
                dijkstra_to_many(network, s, dests, stats=stats, strict=False)
                for s, dests in zip(sources, rows)
            ],
        )


class SideSelectingProcessor(MultiSourceMultiDestProcessor):
    """Shared trees grown from the smaller of S and T.

    When |T| < |S| it is cheaper to grow |T| trees from the destinations
    and reverse the resulting paths.  On undirected networks the reversed
    tree is grown on the network itself; on directed networks it is grown
    on the reverse adjacency (:class:`~repro.network.views.ReverseView`),
    so one-way streets are honored exactly.
    """

    name = "side-selecting"

    def process(self, network, sources, destinations) -> MSMDResult:
        """Grow shared trees from the smaller side, reversing if needed."""
        _validate(sources, destinations)
        if len(destinations) >= len(sources):
            return SharedTreeProcessor().process(network, sources, destinations)
        if getattr(network, "directed", False):
            from repro.network.views import ReverseView

            backward = ReverseView(network)
        else:
            backward = network
        swapped = SharedTreeProcessor().process(backward, destinations, sources)
        result = MSMDResult(stats=swapped.stats, searches=swapped.searches)
        for (t, s), path in swapped.paths.items():
            result.paths[(s, t)] = PathResult(
                source=s,
                destination=t,
                nodes=tuple(reversed(path.nodes)),
                distance=path.distance,
            )
        return result
