"""Index-space search kernels over flat CSR arrays.

The dict-based Dijkstra (:mod:`repro.search.dijkstra`) spends most of
its time hashing node ids and unpacking ``dict.items()`` tuples.  The
kernels here run the same algorithms over a
:class:`~repro.network.csr.CSRGraph` snapshot — integer node indices,
contiguous ``offsets``/``targets``/``weights`` arrays, ``heapq``
frontiers with lazy deletion — and return the same
:class:`~repro.search.result.PathResult` objects with identical
distances.

These engines are registered from this module in
:data:`repro.search.ENGINES`:

* ``"dijkstra-csr"`` — point queries and shared SSMD trees
  (:class:`CSRSharedTreeProcessor`) on the flat forward adjacency; a
  query with large trees grows them in one batched numpy sweep
  (:mod:`repro.search.vectorized`), and ``"dijkstra-vec"`` always does;
* ``"ch-csr"`` — the Contraction Hierarchies upward/downward query
  loops and the bucket many-to-many algorithm over a
  :class:`CSRHierarchy` (flat-array view of a
  :class:`~repro.search.ch.contract.ContractedGraph`).

**Scratch buffers.**  Each query needs dist/parent/visited arrays sized
to the graph.  Allocating them per call would dominate small queries, so
:func:`scratch_for` pools one :class:`KernelScratch` per (thread, graph
size) and resets it in O(1) with a generation stamp: a slot is valid
only when its ``stamp`` equals the current generation, so "clearing"
the arrays is a single integer increment.  Because
:class:`~repro.service.serving.ConcurrentDispatcher` gives every calling
thread its own processor handle, the thread-local pool doubles as a
per-caller scratch pool — no locks on the hot path.

**Cost-counter parity.**  ``settled_nodes`` and
``max_settled_distance`` match dict Dijkstra (same algorithm, same
stopping rules; settled counts can drift by a node or two only when
equal-weight ties change the pop order).  The secondary counters are
cheaper approximations: ``relaxed_edges`` counts every arc scanned from
a settled node (dict Dijkstra skips arcs into already-settled
neighbors before counting), and ``heap_pushes`` can read higher because
the kernels re-push on improvement (lazy deletion) instead of paying
for an addressable heap's decrease-key — the faster strategy in
CPython.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from functools import partial
from heapq import heappop, heappush

from repro.exceptions import NoPathError, UnknownNodeError
from repro.network.csr import CSRGraph, csr_snapshot
from repro.network.graph import NodeId
from repro.search.ch.contract import (
    ContractedGraph,
    _unpacked_result,
    contract_network,
)
from repro.search.multi import (
    MSMDResult,
    PreprocessingProcessor,
    UnionPassResult,
    _screen_union_queries,
    _shared_tree_union,
    _slice_union_tables,
    _union_order,
    _validate,
)
from repro.search.result import PathResult, SearchStats
from repro.search.vectorized import (
    estimated_settled,
    numpy_available,
    vec_batch_paths,
    vec_view,
)

__all__ = [
    "KernelScratch",
    "scratch_for",
    "csr_dijkstra_path",
    "csr_dijkstra_to_many",
    "CSRHierarchy",
    "ch_csr_hierarchy",
    "csr_ch_path",
    "csr_ch_many_to_many",
    "BATCH_MIN_SETTLED",
    "CSRSharedTreeProcessor",
    "VecSharedTreeProcessor",
    "CSRCHManyToManyProcessor",
]

_INF = float("inf")

#: :func:`~repro.search.vectorized.estimated_settled` value from which a
#: shared-tree query grows its trees in one batched numpy sweep instead
#: of a scalar heap loop per source; measured, see "Kernel selection" in
#: docs/ARCHITECTURE.md for the table and the command that remakes it.
BATCH_MIN_SETTLED = 1000


class KernelScratch:
    """Preallocated work arrays for one thread and one graph size.

    Two full banks (``*_f`` forward, ``*_b`` backward) so the CH point
    query runs both frontiers without aliasing.
    ``stamp`` marks slots whose ``dist``/``parent`` are valid for the
    current generation; ``done`` marks settled slots.  :meth:`bump`
    starts a fresh query by invalidating everything in O(1).
    """

    __slots__ = (
        "size",
        "generation",
        "dist_f",
        "parent_f",
        "stamp_f",
        "done_f",
        "dist_b",
        "parent_b",
        "stamp_b",
        "done_b",
    )

    def __init__(self, size: int) -> None:
        self.size = size
        self.generation = 0
        self.dist_f = [_INF] * size
        self.parent_f = [-1] * size
        self.stamp_f = [0] * size
        self.done_f = [0] * size
        self.dist_b = [_INF] * size
        self.parent_b = [-1] * size
        self.stamp_b = [0] * size
        self.done_b = [0] * size

    def bump(self) -> int:
        """Start a new query; returns the fresh generation stamp."""
        self.generation += 1
        return self.generation


_TLS = threading.local()


def scratch_for(size: int) -> KernelScratch:
    """This thread's pooled :class:`KernelScratch` for graphs of ``size``.

    One scratch per (thread, size); concurrent callers (gateway lanes,
    sessions) therefore each own their buffers and never contend.
    """
    pool = getattr(_TLS, "pool", None)
    if pool is None:
        pool = _TLS.pool = {}
    scratch = pool.get(size)
    if scratch is None:
        scratch = pool[size] = KernelScratch(size)
    return scratch


# ----------------------------------------------------------------------
# Dijkstra kernels
# ----------------------------------------------------------------------
def _trivial(node: NodeId) -> PathResult:
    return PathResult(node, node, (node,), 0.0)


def _path_from_parents(
    csr: CSRGraph, parent: list[int], s: int, t: int, distance: float
) -> PathResult:
    node_ids = csr.node_ids
    sequence = [t]
    node = t
    while node != s:
        node = parent[node]
        sequence.append(node)
    sequence.reverse()
    return PathResult(
        source=node_ids[s],
        destination=node_ids[t],
        nodes=tuple(node_ids[i] for i in sequence),
        distance=distance,
    )


def _shared_tree(
    csr: CSRGraph,
    s: int,
    remaining: set[int],
    stats: SearchStats,
) -> tuple[dict[int, float], list[int]]:
    """Grow one tree from index ``s`` until ``remaining`` has settled.

    Returns ``({settled target index: distance}, parent)`` and empties
    ``remaining`` down to the unreachable targets.  ``parent`` is this
    thread's scratch bank: valid until its next search on a graph of
    the same size.
    """
    offsets, heads, wts = csr.kernel_view()
    scratch = scratch_for(csr.num_nodes)
    dist, parent = scratch.dist_f, scratch.parent_f
    stamp, done = scratch.stamp_f, scratch.done_f
    gen = scratch.bump()
    dist[s] = 0.0
    stamp[s] = gen
    parent[s] = -1
    heap = [(0.0, s)]
    pop, push = heappop, heappush
    settled = relaxed = 0
    pushes = 1
    maxd = 0.0
    reached: dict[int, float] = {}
    while heap and remaining:
        d, u = pop(heap)
        if done[u] == gen:
            continue
        done[u] = gen
        settled += 1
        maxd = d  # pops are non-decreasing
        if u in remaining:
            remaining.discard(u)
            reached[u] = d
            if not remaining:
                break
        start = offsets[u]
        end = offsets[u + 1]
        relaxed += end - start
        for e in range(start, end):
            v = heads[e]
            nd = d + wts[e]
            if stamp[v] != gen:
                stamp[v] = gen
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
                pushes += 1
            elif nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
                pushes += 1
    stats.settled_nodes += settled
    stats.relaxed_edges += relaxed
    stats.heap_pushes += pushes
    if maxd > stats.max_settled_distance:
        stats.max_settled_distance = maxd
    return reached, parent


def csr_dijkstra_path(
    network,
    source: NodeId,
    destination: NodeId,
    csr: CSRGraph | None = None,
    stats: SearchStats | None = None,
) -> PathResult:
    """Point-to-point Dijkstra on the CSR kernel.

    Same contract (and distances) as
    :func:`repro.search.dijkstra.dijkstra_path`; ``csr`` lets callers
    pass a prebuilt snapshot, otherwise the memoized
    :func:`~repro.network.csr.csr_snapshot` is used.

    Raises
    ------
    NoPathError
        If the destination is unreachable.
    UnknownNodeError
        If either endpoint is missing from the network.
    """
    if csr is None:
        csr = csr_snapshot(network)
    s = csr.index(source)
    t = csr.index(destination)
    if stats is None:
        stats = SearchStats()
    if s == t:
        return _trivial(source)
    reached, parent = _shared_tree(csr, s, {t}, stats)
    if t not in reached:
        raise NoPathError(source, destination)
    return _path_from_parents(csr, parent, s, t, reached[t])


def csr_dijkstra_to_many(
    network,
    source: NodeId,
    destinations: Iterable[NodeId],
    csr: CSRGraph | None = None,
    stats: SearchStats | None = None,
    strict: bool = True,
) -> dict[NodeId, PathResult]:
    """One shared SSMD tree on the CSR kernel (Lemma 1 cost).

    Same contract as :func:`repro.search.dijkstra.dijkstra_to_many`:
    grows a single spanning tree from ``source`` until every destination
    settles; with ``strict`` an unreachable destination raises
    :class:`NoPathError`, otherwise it is omitted.
    """
    if csr is None:
        csr = csr_snapshot(network)
    s = csr.index(source)
    remaining = {csr.index(t) for t in destinations}
    if stats is None:
        stats = SearchStats()

    results: dict[NodeId, PathResult] = {}
    if s in remaining:
        results[source] = _trivial(source)
        remaining.discard(s)
    reached, parent = _shared_tree(csr, s, remaining, stats)
    if strict and remaining:
        missing = csr.node_ids[next(iter(remaining))]
        raise NoPathError(source, missing)
    for t_idx, d in reached.items():
        results[csr.node_ids[t_idx]] = _path_from_parents(csr, parent, s, t_idx, d)
    return results


# ----------------------------------------------------------------------
# Contraction Hierarchies kernels
# ----------------------------------------------------------------------
class CSRHierarchy:
    """Flat-array view of a contracted graph for the CH kernels.

    Splits the overlay into two CSR adjacencies over dense indices:

    * ``up_*`` — edges ``v -> x`` with ``rank(x) > rank(v)`` (relaxed by
      the forward search, scanned by the backward stall test);
    * ``down_*`` — edges ``u -> v`` with ``rank(u) > rank(v)`` stored at
      ``v`` (relaxed in reverse by the backward search, scanned by the
      forward stall test).

    The wrapped :class:`~repro.search.ch.contract.ContractedGraph` is
    kept for shortcut unpacking (``middle``) and disk persistence; the
    query loops themselves only touch the arrays.  Arrays are plain
    lists in CSR layout — CPython indexes preboxed list slots faster
    than :mod:`array` buffers, and the overlay is never exported as a
    buffer (persistence goes through the wrapped graph).
    """

    __slots__ = (
        "contracted",
        "node_ids",
        "index_of",
        "up_offsets",
        "up_targets",
        "up_weights",
        "down_offsets",
        "down_targets",
        "down_weights",
    )

    def __init__(self, contracted: ContractedGraph) -> None:
        self.contracted = contracted
        node_ids = tuple(contracted.nodes())
        index_of = {node: i for i, node in enumerate(node_ids)}
        self.node_ids = node_ids
        self.index_of = index_of
        for attr, adjacency in (
            ("up", contracted.upward),
            ("down", contracted.downward_in),
        ):
            offsets = [0]
            targets: list[int] = []
            weights: list[float] = []
            for node in node_ids:
                for nbr, w in adjacency(node).items():
                    targets.append(index_of[nbr])
                    weights.append(w)
                offsets.append(len(targets))
            setattr(self, f"{attr}_offsets", offsets)
            setattr(self, f"{attr}_targets", targets)
            setattr(self, f"{attr}_weights", weights)

    @property
    def num_nodes(self) -> int:
        """Number of nodes (same as the contracted graph)."""
        return len(self.node_ids)

    def __contains__(self, node: NodeId) -> bool:
        """Whether ``node`` is part of the hierarchy."""
        return node in self.index_of

    def index(self, node: NodeId) -> int:
        """Dense index of ``node``, raising :class:`UnknownNodeError`."""
        try:
            return self.index_of[node]
        except KeyError:
            raise UnknownNodeError(node) from None

    def __repr__(self) -> str:
        return (
            f"CSRHierarchy(nodes={self.num_nodes}, "
            f"shortcuts={self.contracted.num_shortcuts})"
        )


def ch_csr_hierarchy(network, witness_settled_limit: int = 500) -> CSRHierarchy:
    """Contract ``network`` and freeze the overlay into a :class:`CSRHierarchy`.

    The ``"ch-csr"`` engine's ``prepare`` hook: one
    :func:`~repro.search.ch.contract.contract_network` run, then a
    flattening pass linear in overlay size.
    """
    return CSRHierarchy(
        contract_network(network, witness_settled_limit=witness_settled_limit)
    )


def csr_ch_path(
    hierarchy: CSRHierarchy,
    source: NodeId,
    destination: NodeId,
    stats: SearchStats | None = None,
) -> PathResult:
    """CH point query on flat arrays (stall-on-demand, full unpacking).

    A bidirectional Dijkstra restricted to upward overlay edges: every
    shortest path is an up-down path meeting at its highest-ranked
    node, so the two cones meet at the true distance.  A node whose
    label is beaten via a higher-ranked settled node is stalled (its
    edges are not relaxed).  Same distances and path contract as
    :func:`repro.search.dijkstra.dijkstra_path`; shortcuts are unpacked
    into original nodes.
    """
    s = hierarchy.index(source)
    t = hierarchy.index(destination)
    if stats is None:
        stats = SearchStats()
    if s == t:
        return _trivial(source)

    relax_offs = (hierarchy.up_offsets, hierarchy.down_offsets)
    relax_heads = (hierarchy.up_targets, hierarchy.down_targets)
    relax_wts = (hierarchy.up_weights, hierarchy.down_weights)
    stall_offs = (hierarchy.down_offsets, hierarchy.up_offsets)
    stall_heads = (hierarchy.down_targets, hierarchy.up_targets)
    stall_wts = (hierarchy.down_weights, hierarchy.up_weights)

    scratch = scratch_for(hierarchy.num_nodes)
    dists = (scratch.dist_f, scratch.dist_b)
    parents = (scratch.parent_f, scratch.parent_b)
    stamps = (scratch.stamp_f, scratch.stamp_b)
    dones = (scratch.done_f, scratch.done_b)
    gen = scratch.bump()
    for side, start in ((0, s), (1, t)):
        dists[side][start] = 0.0
        stamps[side][start] = gen
        parents[side][start] = -1
    heaps: tuple[list, list] = ([(0.0, s)], [(0.0, t)])
    pop, push = heappop, heappush
    settled = relaxed = 0
    pushes = 2
    maxd = 0.0
    best = _INF
    meet = -1

    while True:
        for heap, done in zip(heaps, dones):
            while heap and done[heap[0][1]] == gen:
                pop(heap)
        min0 = heaps[0][0][0] if heaps[0] else _INF
        min1 = heaps[1][0][0] if heaps[1] else _INF
        if min0 < best and (min0 <= min1 or min1 >= best):
            side = 0
        elif min1 < best:
            side = 1
        else:
            break
        d, u = pop(heaps[side])
        my_done = dones[side]
        my_done[u] = gen
        settled += 1
        if d > maxd:
            maxd = d

        if stamps[1 - side][u] == gen:
            total = d + dists[1 - side][u]
            if total < best:
                best = total
                meet = u

        # Stall-on-demand: beaten via a higher-ranked settled node.
        my_dist = dists[side]
        s_off, s_head, s_wt = stall_offs[side], stall_heads[side], stall_wts[side]
        stalled = False
        for e in range(s_off[u], s_off[u + 1]):
            h = s_head[e]
            if my_done[h] == gen and my_dist[h] + s_wt[e] < d:
                stalled = True
                break
        if stalled:
            continue

        my_parent, my_stamp = parents[side], stamps[side]
        my_heap = heaps[side]
        r_off, r_head, r_wt = relax_offs[side], relax_heads[side], relax_wts[side]
        start = r_off[u]
        end = r_off[u + 1]
        relaxed += end - start
        for e in range(start, end):
            v = r_head[e]
            nd = d + r_wt[e]
            if my_stamp[v] != gen:
                my_stamp[v] = gen
                my_dist[v] = nd
                my_parent[v] = u
                push(my_heap, (nd, v))
                pushes += 1
            elif nd < my_dist[v]:
                my_dist[v] = nd
                my_parent[v] = u
                push(my_heap, (nd, v))
                pushes += 1

    stats.settled_nodes += settled
    stats.relaxed_edges += relaxed
    stats.heap_pushes += pushes
    if maxd > stats.max_settled_distance:
        stats.max_settled_distance = maxd
    if meet < 0:
        raise NoPathError(source, destination)

    node_ids = hierarchy.node_ids
    overlay = [meet]
    node = meet
    parent_f, parent_b = parents
    while node != s:
        node = parent_f[node]
        overlay.append(node)
    overlay.reverse()
    node = meet
    while node != t:
        node = parent_b[node]
        overlay.append(node)
    overlay_ids = [node_ids[i] for i in overlay]
    return _unpacked_result(
        hierarchy.contracted, source, destination, overlay_ids
    )


def _csr_upward_sweep(
    hierarchy: CSRHierarchy,
    start: int,
    forward: bool,
    scratch: KernelScratch,
    stats: SearchStats,
) -> tuple[dict[int, float], dict[int, int], set[int]]:
    """Exhaustive upward sweep in index space (the many-to-many primitive).

    Searches the whole upward cone of ``start`` (forward over upward
    edges, or backward over downward ones) with stall-on-demand; returns
    ``(settled {idx: dist}, predecessors {idx: idx}, stalled idx set)``
    as small dicts so results survive scratch reuse by later sweeps.
    """
    if forward:
        r_off, r_head, r_wt = (
            hierarchy.up_offsets,
            hierarchy.up_targets,
            hierarchy.up_weights,
        )
        s_off, s_head, s_wt = (
            hierarchy.down_offsets,
            hierarchy.down_targets,
            hierarchy.down_weights,
        )
    else:
        r_off, r_head, r_wt = (
            hierarchy.down_offsets,
            hierarchy.down_targets,
            hierarchy.down_weights,
        )
        s_off, s_head, s_wt = (
            hierarchy.up_offsets,
            hierarchy.up_targets,
            hierarchy.up_weights,
        )
    dist, parent = scratch.dist_f, scratch.parent_f
    stamp, done = scratch.stamp_f, scratch.done_f
    gen = scratch.bump()
    dist[start] = 0.0
    stamp[start] = gen
    parent[start] = -1
    heap = [(0.0, start)]
    pop, push = heappop, heappush
    settled_map: dict[int, float] = {}
    stalled: set[int] = set()
    settled = relaxed = 0
    pushes = 1
    maxd = 0.0
    while heap:
        d, u = pop(heap)
        if done[u] == gen:
            continue
        done[u] = gen
        settled_map[u] = d
        settled += 1
        if d > maxd:
            maxd = d
        is_stalled = False
        for e in range(s_off[u], s_off[u + 1]):
            h = s_head[e]
            if done[h] == gen and dist[h] + s_wt[e] < d:
                is_stalled = True
                break
        if is_stalled:
            stalled.add(u)
            continue
        start = r_off[u]
        end = r_off[u + 1]
        relaxed += end - start
        for e in range(start, end):
            v = r_head[e]
            nd = d + r_wt[e]
            if stamp[v] != gen:
                stamp[v] = gen
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
                pushes += 1
            elif nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, v))
                pushes += 1
    stats.settled_nodes += settled
    stats.relaxed_edges += relaxed
    stats.heap_pushes += pushes
    if maxd > stats.max_settled_distance:
        stats.max_settled_distance = maxd
    preds = {i: parent[i] for i in settled_map}
    return settled_map, preds, stalled


def csr_ch_many_to_many(
    hierarchy: CSRHierarchy,
    sources: Sequence[NodeId],
    destinations: Sequence[NodeId],
    stats: SearchStats | None = None,
) -> dict[tuple[NodeId, NodeId], PathResult]:
    """Bucket-based many-to-many CH on flat arrays.

    The bucket algorithm of Knopp et al. (ALENEX 2007): one backward
    sweep per destination fills buckets, one forward sweep per source
    scans them; stalled nodes neither fill nor scan.  Returns
    ``{(s, t): PathResult}`` with unreachable pairs omitted.
    """
    if stats is None:
        stats = SearchStats()
    src_idx = [hierarchy.index(s) for s in sources]
    dst_idx = [hierarchy.index(t) for t in destinations]
    scratch = scratch_for(hierarchy.num_nodes)

    buckets: dict[int, list[tuple[int, float]]] = {}
    backward_preds: list[dict[int, int]] = []
    for j, t in enumerate(dst_idx):
        settled, preds, stalled = _csr_upward_sweep(
            hierarchy, t, forward=False, scratch=scratch, stats=stats
        )
        backward_preds.append(preds)
        for v, d in settled.items():
            if v in stalled:
                continue
            buckets.setdefault(v, []).append((j, d))

    best: dict[tuple[int, int], tuple[float, int]] = {}
    forward_preds: list[dict[int, int]] = []
    for i, s in enumerate(src_idx):
        settled, preds, stalled = _csr_upward_sweep(
            hierarchy, s, forward=True, scratch=scratch, stats=stats
        )
        forward_preds.append(preds)
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

    node_ids = hierarchy.node_ids
    results: dict[tuple[NodeId, NodeId], PathResult] = {}
    for (i, j), (_, meet) in best.items():
        s_id, t_id = sources[i], destinations[j]
        if s_id == t_id:
            results[(s_id, t_id)] = _trivial(s_id)
            continue
        overlay = [meet]
        node = meet
        fwd = forward_preds[i]
        while node != src_idx[i]:
            node = fwd[node]
            overlay.append(node)
        overlay.reverse()
        node = meet
        bwd = backward_preds[j]
        while node != dst_idx[j]:
            node = bwd[node]
            overlay.append(node)
        overlay_ids = [node_ids[k] for k in overlay]
        results[(s_id, t_id)] = _unpacked_result(
            hierarchy.contracted, s_id, t_id, overlay_ids
        )
    return results


# ----------------------------------------------------------------------
# MSMD processors (one per kernel row of repro.search.ENGINES)
# ----------------------------------------------------------------------
class CSRSharedTreeProcessor(PreprocessingProcessor):
    """The paper's shared SSMD trees on the CSR kernels (``"dijkstra-csr"``).

    Identical strategy and distances to
    :class:`~repro.search.multi.SharedTreeProcessor`; the snapshot is
    the per-network artifact (built once, shared via the serving
    layer's :class:`~repro.service.cache.PreprocessingCache`).

    Each query picks its kernel (:meth:`_trees`): small trees grow in
    the scalar heap loop, large ones together in one
    :func:`~repro.search.vectorized.vec_batch_paths` sweep.  Both
    return the same node sequences, so a union pass, a cache refill and
    a solo query may choose differently and still agree byte for byte.
    """

    name = "dijkstra-csr"
    #: batch from this many estimated settled nodes; 0 always batches
    batch_min_settled: float = BATCH_MIN_SETTLED

    def _build(self, network) -> CSRGraph:
        return csr_snapshot(network)

    def _trees(self, network, csr, sources, dest_rows, stats):
        """One ``{destination: path}`` tree per source, unreachable omitted.

        Batched when the query's geometry predicts ``batch_min_settled``
        settled nodes, numpy imports and the snapshot is
        :attr:`~repro.search.vectorized.VecGraph.strict` (else the
        kernels could break path ties differently); otherwise scalar,
        lazily per source.
        """
        threshold = self.batch_min_settled
        if threshold <= 0 or numpy_available():
            vec = vec_view(csr)
            if (
                vec.strict
                and estimated_settled(vec, sources, dest_rows) >= threshold
            ):
                return vec_batch_paths(
                    network, sources, dest_rows, vec=vec, stats=stats,
                    strict=False,
                )
        return (
            csr_dijkstra_to_many(
                network, s, dests, csr=csr, stats=stats, strict=False
            )
            for s, dests in zip(sources, dest_rows)
        )

    def process(self, network, sources, destinations) -> MSMDResult:
        """Grow one SSMD tree per source."""
        _validate(sources, destinations)
        csr = self.artifact_for(network)
        result = MSMDResult()
        trees = self._trees(
            network, csr, sources, [destinations] * len(sources), result.stats
        )
        for s, paths in zip(sources, trees):
            for t in destinations:
                if t not in paths:
                    raise NoPathError(s, t)
                result.paths[(s, t)] = paths[t]
        result.searches = len(sources)
        return result

    def process_union(self, network, set_queries) -> UnionPassResult:
        """One tree per distinct source across all coalesced queries.

        The flat-kernel twin of
        :meth:`repro.search.multi.SharedTreeProcessor.process_union`;
        every sliced path is bit-identical to a solo evaluation of its
        query, whichever kernel either one picks.
        """
        csr = self.artifact_for(network)
        return _shared_tree_union(
            csr, set_queries, partial(self._trees, network, csr)
        )


class VecSharedTreeProcessor(CSRSharedTreeProcessor):
    """The always-batched form (``"dijkstra-vec"``, registered iff numpy).

    Same trees, same paths; every query takes the numpy sweep, and a
    missing numpy is an ``ImportError`` rather than a scalar fallback.
    """

    name = "dijkstra-vec"
    batch_min_settled = 0


class CSRCHManyToManyProcessor(PreprocessingProcessor):
    """Bucket many-to-many over a :class:`CSRHierarchy` (``"ch-csr"``).

    Pass a prebuilt ``hierarchy`` (e.g. a persisted contracted graph
    wrapped in :class:`CSRHierarchy`), or let the processor contract
    each network on first use and memoize it.  Matches
    :class:`~repro.search.multi.NaivePairwiseProcessor` semantics: an
    unreachable pair raises :class:`~repro.exceptions.NoPathError`.
    """

    name = "ch-csr"

    def __init__(
        self,
        hierarchy: CSRHierarchy | None = None,
        witness_settled_limit: int = 500,
    ) -> None:
        super().__init__(artifact=hierarchy)
        self._witness_settled_limit = witness_settled_limit

    def _build(self, network) -> CSRHierarchy:
        return ch_csr_hierarchy(
            network, witness_settled_limit=self._witness_settled_limit
        )

    def hierarchy_for(self, network) -> CSRHierarchy:
        """The flat hierarchy answering queries over ``network``."""
        return self.artifact_for(network)

    def process(self, network, sources, destinations) -> MSMDResult:
        """Run the bucket algorithm; every pair must be reachable."""
        _validate(sources, destinations)
        hierarchy = self.hierarchy_for(network)
        result = MSMDResult()
        paths = csr_ch_many_to_many(
            hierarchy, sources, destinations, stats=result.stats
        )
        for s in sources:
            for t in destinations:
                path = paths.get((s, t))
                if path is None:
                    raise NoPathError(s, t)
                result.paths[(s, t)] = path
        result.searches = len(sources) + len(destinations)
        return result

    def process_union(self, network, set_queries) -> UnionPassResult:
        """One flat bucket pass over the unions of all coalesced queries.

        The backward sweep from a destination and the forward sweep
        from a source are both independent of the rest of the query, so
        one sweep per *distinct* endpoint answers every coalesced query:
        ``|union S| + |union T|`` sweeps instead of
        ``sum (|S_i| + |T_i|)``.  Per-pair minimization over the buckets
        is pairwise-independent too, so each sliced table is
        bit-identical to evaluating its query alone.
        """
        hierarchy = self.hierarchy_for(network)
        errors = _screen_union_queries(hierarchy, set_queries)
        union_sources, union_destinations = _union_order(
            [q for q, e in zip(set_queries, errors) if e is None]
        )
        union_stats = SearchStats()
        paths: dict[tuple[NodeId, NodeId], PathResult] = {}
        if union_sources and union_destinations:
            paths = csr_ch_many_to_many(
                hierarchy,
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
