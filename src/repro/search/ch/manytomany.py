"""Bucket-based many-to-many CH queries (Knopp et al., ALENEX 2007).

The obfuscator turns one real request into an ``|S| x |T|`` obfuscated
query, and the paper's server must answer *all* pairs — the exact workload
the bucket algorithm was designed for.  Instead of |S| x |T| bidirectional
queries it runs:

1. one backward upward sweep per destination ``t``, dropping an entry
   ``(t, d)`` into the *bucket* of every node it settles;
2. one forward upward sweep per source ``s``, scanning the bucket of every
   settled node ``v`` and minimizing ``d_f(s, v) + d_b(v, t)`` per pair.

Total work is ``m + n`` truncated sweeps plus bucket scans, so the full
distance table costs barely more than answering each side once — compare
Lemma 1's ``sum_s max_t ||s,t||^2`` for the shared-tree processor in
:mod:`repro.search.multi` (and see :mod:`repro.search.cost_model`).

:class:`CHManyToManyProcessor` adapts the algorithm to the standard
:class:`~repro.search.multi.MultiSourceMultiDestProcessor` contract so the
server, experiments and benchmarks can swap it in anywhere.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exceptions import NoPathError
from repro.network.graph import NodeId
from repro.search.ch.contract import ContractedGraph, contract_network
from repro.search.ch.query import _overlay_route, _upward_sweep, unpack_path
from repro.search.multi import (
    MSMDResult,
    PreprocessingProcessor,
    UnionPassResult,
    _screen_union_queries,
    _slice_union_tables,
    _union_order,
    _validate,
)
from repro.search.result import PathResult, SearchStats

__all__ = ["ch_many_to_many", "CHManyToManyProcessor"]


def ch_many_to_many(
    graph: ContractedGraph,
    sources: Sequence[NodeId],
    destinations: Sequence[NodeId],
    stats: SearchStats | None = None,
) -> dict[tuple[NodeId, NodeId], PathResult]:
    """Shortest paths for every pair in ``sources x destinations``.

    Returns ``{(s, t): PathResult}`` with unreachable pairs omitted.
    Distances are exact; stall-on-demand prunes each sweep and stalled
    nodes are kept out of the buckets (a stalled label can never be part
    of a shortest up-down path).

    Raises
    ------
    UnknownNodeError
        If any endpoint is not part of the contracted graph.
    """
    if stats is None:
        stats = SearchStats()
    from repro.exceptions import UnknownNodeError

    for node in list(sources) + list(destinations):
        if node not in graph:
            raise UnknownNodeError(node)

    # Phase 1: backward sweeps fill the buckets.
    buckets: dict[NodeId, list[tuple[int, float]]] = {}
    backward: list[tuple[dict[NodeId, float], dict[NodeId, NodeId]]] = []
    for j, t in enumerate(destinations):
        settled, pred, stalled = _upward_sweep(graph, t, forward=False, stats=stats)
        backward.append((settled, pred))
        for v, d in settled.items():
            if v in stalled:
                continue
            buckets.setdefault(v, []).append((j, d))

    # Phase 2: forward sweeps scan the buckets.
    best: dict[tuple[int, int], tuple[float, NodeId]] = {}
    forward: list[tuple[dict[NodeId, float], dict[NodeId, NodeId]]] = []
    for i, s in enumerate(sources):
        settled, pred, stalled = _upward_sweep(graph, s, forward=True, stats=stats)
        forward.append((settled, pred))
        for v, df in settled.items():
            if v in stalled:
                continue
            bucket = buckets.get(v)
            if not bucket:
                continue
            for j, db in bucket:
                total = df + db
                entry = best.get((i, j))
                if entry is None or total < entry[0]:
                    best[(i, j)] = (total, v)

    # Phase 3: rebuild and unpack one path per reachable pair.
    results: dict[tuple[NodeId, NodeId], PathResult] = {}
    for (i, j), (distance, meeting) in best.items():
        s, t = sources[i], destinations[j]
        if s == t:
            results[(s, t)] = PathResult(s, t, (s,), 0.0)
            continue
        overlay = _overlay_route(meeting, s, t, forward[i][1], backward[j][1])
        results[(s, t)] = PathResult(
            source=s,
            destination=t,
            nodes=tuple(unpack_path(graph, overlay)),
            distance=distance,
        )
    return results


class CHManyToManyProcessor(PreprocessingProcessor):
    """MSMD processor backed by a contracted graph.

    Parameters
    ----------
    graph:
        A prebuilt :class:`ContractedGraph` to query (e.g. loaded via
        :mod:`repro.search.ch.persist`).  When omitted, the processor
        contracts each network it sees on first use and memoizes the
        result for the network's lifetime — preprocessing is paid once,
        every later query rides the hierarchy.
    witness_settled_limit:
        Forwarded to :func:`~repro.search.ch.contract.contract_network`
        for on-demand contractions.

    Notes
    -----
    Matches :class:`~repro.search.multi.NaivePairwiseProcessor` semantics:
    an unreachable (s, t) pair raises
    :class:`~repro.exceptions.NoPathError`.
    """

    name = "ch"

    def __init__(
        self,
        graph: ContractedGraph | None = None,
        witness_settled_limit: int = 500,
    ) -> None:
        super().__init__(artifact=graph)
        self._witness_settled_limit = witness_settled_limit

    def _build(self, network) -> ContractedGraph:
        return contract_network(
            network, witness_settled_limit=self._witness_settled_limit
        )

    def graph_for(self, network) -> ContractedGraph:
        """The contracted graph answering queries over ``network``."""
        return self.artifact_for(network)

    def process(self, network, sources, destinations) -> MSMDResult:
        _validate(sources, destinations)
        graph = self.graph_for(network)
        result = MSMDResult()
        paths = ch_many_to_many(graph, sources, destinations, stats=result.stats)
        for s in sources:
            for t in destinations:
                path = paths.get((s, t))
                if path is None:
                    raise NoPathError(s, t)
                result.paths[(s, t)] = path
        result.searches = len(sources) + len(destinations)
        return result

    def process_union(self, network, set_queries) -> UnionPassResult:
        """One bucket pass over the unions of all coalesced queries.

        The backward sweep from a destination and the forward sweep from
        a source are both independent of the rest of the query, so one
        sweep per *distinct* endpoint across every coalesced query
        answers them all: ``|union S| + |union T|`` sweeps instead of
        ``sum (|S_i| + |T_i|)``.  Per-pair minimization over the buckets
        is also pairwise-independent, so each sliced table is
        bit-identical to evaluating its query alone.
        """
        graph = self.graph_for(network)
        errors = _screen_union_queries(graph, set_queries)
        union_sources, union_destinations = _union_order(
            [q for q, e in zip(set_queries, errors) if e is None]
        )
        union_stats = SearchStats()
        paths: dict[tuple[NodeId, NodeId], PathResult] = {}
        if union_sources and union_destinations:
            paths = ch_many_to_many(
                graph,
                list(union_sources),
                list(union_destinations),
                stats=union_stats,
            )
        return _slice_union_tables(
            set_queries,
            errors,
            lambda s, t: paths.get((s, t)),
            union_stats=union_stats,
            union_searches=len(union_sources) + len(union_destinations),
            pairs_computed=len(union_sources) * len(union_destinations),
        )
