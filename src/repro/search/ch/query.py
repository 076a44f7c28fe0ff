"""Point-to-point queries over a contracted graph.

A CH query is a bidirectional Dijkstra restricted to *upward* edges: the
forward search from ``s`` only relaxes overlay edges leading to
higher-ranked nodes, the backward search from ``t`` only traverses (in
reverse) overlay edges arriving from higher-ranked nodes.  Every shortest
path in the original network corresponds to an up-down path in the overlay
meeting at its highest-ranked node, so the two cones intersect at the true
distance while settling a tiny fraction of the network.

Two refinements from the CH literature are implemented:

* **stall-on-demand** — a settled node whose label is beaten by an
  incoming edge from a higher-ranked settled node cannot lie on a shortest
  up-down path; its out-edges are not relaxed (it still participates in
  the meeting-point bookkeeping, which is safe because its label is an
  upper bound);
* **recursive shortcut unpacking** — result paths are expanded back into
  original network edges via each shortcut's recorded middle node, so
  callers receive the same :class:`~repro.search.result.PathResult` the
  Dijkstra-family engines produce.

Cost accounting: settled nodes, relaxed edges and heap pushes go to the
same :class:`~repro.search.result.SearchStats` contract as every other
engine, so the Lemma 1 comparisons in :mod:`repro.search.cost_model` and
experiment E2/E9 tables can quote CH settled-node counts directly.  On
planar grids a CH query typically settles ``O(sqrt(n))``-ish nodes versus
Lemma 1's ``O(||s,t||^2)`` disc for plain Dijkstra.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.exceptions import NoPathError, UnknownNodeError
from repro.network.graph import NodeId
from repro.search.ch.contract import ContractedGraph
from repro.search.result import PathResult, SearchStats

__all__ = ["ch_path", "ch_distance", "unpack_path"]

_INF = float("inf")


def _overlay_route(
    meeting: NodeId,
    source: NodeId,
    destination: NodeId,
    fwd_pred: dict[NodeId, NodeId],
    bwd_pred: dict[NodeId, NodeId],
) -> list[NodeId]:
    """Overlay-edge path ``source .. meeting .. destination``.

    Walks the forward predecessor tree back to ``source`` and the backward
    tree on to ``destination``; shared by the point-to-point query and the
    many-to-many table reconstruction.
    """
    overlay: list[NodeId] = [meeting]
    node = meeting
    while node != source:
        node = fwd_pred[node]
        overlay.append(node)
    overlay.reverse()
    node = meeting
    while node != destination:
        node = bwd_pred[node]
        overlay.append(node)
    return overlay


def _upward_sweep(
    graph: ContractedGraph,
    start: NodeId,
    forward: bool,
    stats: SearchStats,
    stall: bool = True,
) -> tuple[dict[NodeId, float], dict[NodeId, NodeId], set[NodeId]]:
    """Exhaustive upward search from ``start``.

    Returns ``(distances, predecessors, stalled)`` over the whole upward
    search space (used by the many-to-many buckets; the point-to-point
    query below interleaves two bounded sweeps instead).  Runs on a lazy
    ``heapq`` frontier — the hot loop of every CH operation.
    """
    relax_adj = graph._up_out if forward else graph._up_in
    against_adj = graph._up_in if forward else graph._up_out
    dist: dict[NodeId, float] = {start: 0.0}
    pred: dict[NodeId, NodeId] = {}
    settled: dict[NodeId, float] = {}
    stalled: set[NodeId] = set()
    counter = 1
    heap: list[tuple[float, int, NodeId]] = [(0.0, 0, start)]
    stats.heap_pushes += 1
    max_d = stats.max_settled_distance
    while heap:
        d, _, node = heappop(heap)
        if node in settled:
            continue
        settled[node] = d
        stats.settled_nodes += 1
        if d > max_d:
            max_d = d
        if stall:
            is_stalled = False
            for higher, w in against_adj[node].items():
                hd = settled.get(higher)
                if hd is not None and hd + w < d:
                    is_stalled = True
                    break
            if is_stalled:
                stalled.add(node)
                continue
        for nbr, w in relax_adj[node].items():
            if nbr in settled:
                continue
            stats.relaxed_edges += 1
            nd = d + w
            if nd < dist.get(nbr, _INF):
                dist[nbr] = nd
                pred[nbr] = node
                heappush(heap, (nd, counter, nbr))
                counter += 1
                stats.heap_pushes += 1
    stats.max_settled_distance = max_d
    return settled, pred, stalled


def ch_path(
    graph: ContractedGraph,
    source: NodeId,
    destination: NodeId,
    stats: SearchStats | None = None,
) -> PathResult:
    """Shortest path between two nodes of a contracted network.

    Same contract as :func:`repro.search.dijkstra.dijkstra_path`: returns
    a :class:`PathResult` whose ``nodes`` are original network nodes
    (shortcuts fully unpacked).

    Raises
    ------
    UnknownNodeError
        If either endpoint is not part of the contracted graph.
    NoPathError
        If ``destination`` is unreachable from ``source``.
    """
    if source not in graph:
        raise UnknownNodeError(source)
    if destination not in graph:
        raise UnknownNodeError(destination)
    if stats is None:
        stats = SearchStats()
    if source == destination:
        return PathResult(source, destination, (source,), 0.0)

    relaxers = (graph._up_out, graph._up_in)
    stallers = (graph._up_in, graph._up_out)
    dist: list[dict[NodeId, float]] = [{source: 0.0}, {destination: 0.0}]
    pred: list[dict[NodeId, NodeId]] = [{}, {}]
    settled: list[dict[NodeId, float]] = [{}, {}]
    heaps: list[list[tuple[float, int, NodeId]]] = [
        [(0.0, 0, source)],
        [(0.0, 0, destination)],
    ]
    counter = 1
    stats.heap_pushes += 2

    best = _INF
    meeting: NodeId | None = None

    while True:
        # Drain lazily deleted entries, then pick the smaller frontier.
        for heap, done in zip(heaps, settled):
            while heap and heap[0][2] in done:
                heappop(heap)
        min0 = heaps[0][0][0] if heaps[0] else _INF
        min1 = heaps[1][0][0] if heaps[1] else _INF
        if min0 < best and (min0 <= min1 or min1 >= best):
            side = 0
        elif min1 < best:
            side = 1
        else:
            break
        d, _, node = heappop(heaps[side])
        my_settled = settled[side]
        my_settled[node] = d
        stats.settled_nodes += 1
        if d > stats.max_settled_distance:
            stats.max_settled_distance = d

        other_d = settled[1 - side].get(node)
        if other_d is None:
            other_d = dist[1 - side].get(node)
        if other_d is not None and d + other_d < best:
            best = d + other_d
            meeting = node

        # Stall-on-demand: a label beaten via a higher-ranked settled node
        # cannot extend to a shortest up-down path.
        is_stalled = False
        for higher, w in stallers[side][node].items():
            hd = my_settled.get(higher)
            if hd is not None and hd + w < d:
                is_stalled = True
                break
        if is_stalled:
            continue

        my_dist = dist[side]
        my_pred = pred[side]
        my_heap = heaps[side]
        for nbr, w in relaxers[side][node].items():
            if nbr in my_settled:
                continue
            stats.relaxed_edges += 1
            nd = d + w
            if nd < my_dist.get(nbr, _INF):
                my_dist[nbr] = nd
                my_pred[nbr] = node
                heappush(my_heap, (nd, counter, nbr))
                counter += 1
                stats.heap_pushes += 1

    if meeting is None:
        raise NoPathError(source, destination)

    overlay = _overlay_route(meeting, source, destination, pred[0], pred[1])
    return _unpacked_result(graph, source, destination, overlay)


def ch_distance(
    graph: ContractedGraph,
    source: NodeId,
    destination: NodeId,
    stats: SearchStats | None = None,
) -> float:
    """Shortest distance only (still runs the full bidirectional query)."""
    return ch_path(graph, source, destination, stats=stats).distance


def unpack_path(graph: ContractedGraph, overlay_nodes: list[NodeId]) -> list[NodeId]:
    """Expand a path over overlay edges into original network nodes.

    Each overlay edge ``(u, v)`` is either an original edge (kept as-is)
    or a shortcut with a recorded middle node ``m``, replaced recursively
    by ``(u, m)`` and ``(m, v)``.  Implemented with an explicit stack so
    deeply nested shortcuts cannot hit the interpreter recursion limit.
    """
    return _unpack(graph, overlay_nodes)[0]


def _unpack(
    graph: ContractedGraph, overlay_nodes: list[NodeId]
) -> tuple[list[NodeId], float]:
    """:func:`unpack_path` and the left fold of the unpacked arc weights.

    Original edges are reached in path order, so the fold is the label
    Dijkstra gives the destination.  An original arc is stored upward
    from its lower-ranked end.
    """
    if not overlay_nodes:
        return [], 0.0
    middles, rank = graph._middles, graph._rank
    up_out, up_in = graph._up_out, graph._up_in
    result: list[NodeId] = [overlay_nodes[0]]
    distance = 0.0
    stack: list[tuple[NodeId, NodeId]] = []
    for u, v in zip(reversed(overlay_nodes[:-1]), reversed(overlay_nodes[1:])):
        stack.append((u, v))
    while stack:
        u, v = stack.pop()
        mid = middles.get((u, v))
        if mid is None:
            result.append(v)
            if rank[v] > rank[u]:
                distance += up_out[u][v]
            else:
                distance += up_in[v][u]
        else:
            stack.append((mid, v))
            stack.append((u, mid))
    return result, distance


def _unpacked_result(
    graph: ContractedGraph,
    source: NodeId,
    destination: NodeId,
    overlay_nodes: list[NodeId],
) -> PathResult:
    """The :class:`PathResult` of an overlay path, unpacked.

    The distance is the left fold of the unpacked path's arc weights
    from the source, not the up-down meet sum: a path reports the same
    distance whichever engine found it.
    """
    nodes, distance = _unpack(graph, overlay_nodes)
    return PathResult(
        source=source,
        destination=destination,
        nodes=tuple(nodes),
        distance=distance,
    )
