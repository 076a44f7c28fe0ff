"""Index-space search kernels over flat CSR arrays.

The dict-based engines (:mod:`repro.search.dijkstra`,
:mod:`repro.search.ch.query`) spend most of their time hashing node ids and unpacking ``dict.items()``
tuples.  The kernels here run the same algorithms over a
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
* ``"bidirectional-csr"`` — per-pair bidirectional Dijkstra using the
  snapshot's reverse CSR view for the backward frontier;
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
:class:`~repro.service.serving.ConcurrentDispatcher` gives every worker
thread its own processor handle, the thread-local pool doubles as a
per-worker scratch pool — no locks on the hot path.

**Cost-counter parity.**  ``settled_nodes`` and
``max_settled_distance`` match the dict engines (same algorithm, same
stopping rules; settled counts can drift by a node or two only when
equal-weight ties change the pop order).  The secondary counters are
cheaper approximations: ``relaxed_edges`` counts every arc scanned from
a settled node (the dict engines skip arcs into already-settled
neighbors before counting), and ``heap_pushes`` can read higher because
the kernels re-push on improvement (lazy deletion) instead of paying
for an addressable heap's decrease-key — the faster strategy in
CPython.
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Callable, Iterable, Sequence
from functools import partial
from heapq import heappop, heappush
from math import hypot

from repro.exceptions import NoPathError, UnknownNodeError
from repro.network.csr import CSRGraph, csr_snapshot
from repro.network.graph import NodeId
from repro.obs import record as _obs_record
from repro.search.ch.contract import ContractedGraph, contract_network
from repro.search.ch.query import unpack_path
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

try:  # pragma: no cover - numpy-less interpreters use the scalar paths
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "KernelScratch",
    "scratch_for",
    "overlay_sweep",
    "csr_dijkstra_path",
    "csr_dijkstra_to_many",
    "csr_dijkstra_tree",
    "csr_bidirectional_path",
    "CSRHierarchy",
    "ch_csr_hierarchy",
    "csr_ch_path",
    "csr_ch_many_to_many",
    "BATCH_MIN_SETTLED",
    "CSRSharedTreeProcessor",
    "VecSharedTreeProcessor",
    "CSRBidirectionalPairwiseProcessor",
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

    Two full banks (``*_f`` forward, ``*_b`` backward) so the
    bidirectional and CH kernels run both frontiers without aliasing.
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

    One scratch per (thread, size); dispatcher worker threads therefore
    each own their buffers and never contend.
    """
    pool = getattr(_TLS, "pool", None)
    if pool is None:
        pool = _TLS.pool = {}
    scratch = pool.get(size)
    if scratch is None:
        scratch = pool[size] = KernelScratch(size)
    return scratch


# ----------------------------------------------------------------------
# Overlay sweep (the partition-overlay engine's boundary-phase kernel)
# ----------------------------------------------------------------------
def _line_bound(x, y, gx, gy, shortcuts) -> float:
    """Straight line to the goal, or to a shortcut's tail plus its rest."""
    h = hypot(x - gx, y - gy)
    for sx, sy, rest in shortcuts:
        h = min(h, hypot(x - sx, y - sy) + rest)
    return h


def overlay_sweep(
    offsets: Sequence[int],
    targets: Sequence[int],
    weights: Sequence[float],
    kinds: Sequence[int],
    seeds: Iterable[tuple[int, float]],
    num_nodes: int,
    target_offsets: dict[int, float] | None = None,
    best_bound: float = _INF,
    stats: SearchStats | None = None,
    goal: tuple[float, float] | None = None,
    xs: Sequence[float] | None = None,
    ys: Sequence[float] | None = None,
    stop: Iterable[int] | None = None,
    shortcuts: Sequence[tuple[float, float, float]] = (),
) -> tuple[float, int, list[float], list[int], list[int], bytearray]:
    """Multi-source (optionally goal-directed) sweep over a flat overlay.

    The boundary phase of the two-phase partition-overlay query
    (:class:`repro.search.overlay.OverlayGraph`): ``offsets``/``targets``/
    ``weights`` is the CSR adjacency over boundary-node indices (clique
    shortcuts plus cut arcs), ``kinds[e]`` labels arc ``e`` with the cell
    whose clique produced it (``-1`` for a cut arc) and is recorded per
    tree arc for path unpacking.

    Parameters
    ----------
    seeds:
        ``(boundary index, offset)`` pairs — the source-cell boundary
        nodes with their local distances from the true source.
    target_offsets:
        When given, a ``{boundary index: local distance to target}``
        map: the sweep tracks ``best = min(dist[b] + offset[b])`` and
        stops early once the frontier cannot improve it (point-query
        mode).  ``None`` is MSMD mode: settle until ``stop`` is covered.
    best_bound:
        Initial upper bound on the answer (e.g. the intra-cell direct
        candidate when source and target share a cell).
    goal, xs, ys, shortcuts:
        When ``goal=(x, y)`` and the boundary coordinate arrays are
        given (point-query mode only), the sweep runs A* keyed by
        ``dist + straight-line-to-goal``.  The caller must guarantee
        the lower bound is admissible — every overlay arc weight and
        every target offset at least its endpoints' Euclidean distance
        (true whenever every edge weight is) — or list the exceptions:
        each ``(x, y, rest)`` of ``shortcuts`` is the tail of an arc
        shorter than its straight line, with ``rest`` a lower bound on
        the way from there to the goal through that arc, and the key
        takes the smallest of the direct line and the lines to those
        tails plus ``rest`` (see
        :meth:`repro.search.overlay.OverlayGraph._goal`).  The
        heuristic is consistent, so results are identical to the plain
        sweep — only fewer nodes settle.
    stop:
        MSMD mode only: the boundary indices the caller will read
        ``dist`` of.  The sweep ends when the last reachable one
        settles (their labels are final by then); ``None`` settles
        everything reachable.

    Returns
    -------
    (best, meet, dist, parent, via, done)
        ``best``/``meet`` are the best offset candidate and its
        boundary index (``-1`` when no candidate beat ``best_bound``);
        ``dist``/``parent``/``via`` are the tree arrays (``via[v]`` is
        the kind label of the tree arc into ``v``); ``done`` flags
        settled indices.
    """
    if stats is None:
        stats = SearchStats()
    dist = [_INF] * num_nodes
    parent = [-1] * num_nodes
    via = [-1] * num_nodes
    done = bytearray(num_nodes)
    # Entries are (key, index): the key is the label, plus the
    # straight-line remainder when goal-directed.  A node's first
    # un-done pop carries its smallest key, so its label is dist[u].
    heap: list[tuple[float, int]] = []
    pop, push = heappop, heappush
    pushes = 0
    point = target_offsets is not None
    hmemo: list[float] | None = None
    gx = gy = 0.0
    if goal is not None and point:
        gx, gy = goal
        hmemo = [-1.0] * num_nodes
    for i, offset in seeds:
        if offset < dist[i]:
            dist[i] = offset
            if hmemo is not None:
                h = hmemo[i] = _line_bound(xs[i], ys[i], gx, gy, shortcuts)
                push(heap, (offset + h, i))
            else:
                push(heap, (offset, i))
            pushes += 1
    waiting = bytearray(num_nodes)
    pending = 0
    if stop is not None and not point:
        for i in stop:
            if not waiting[i]:
                waiting[i] = 1
                pending += 1
        if not pending:
            heap = []
    best = best_bound
    meet = -1
    settled = relaxed = 0
    maxd = 0.0
    while heap:
        key, u = pop(heap)
        if done[u]:
            continue
        d = dist[u]
        if point:
            if key >= best:
                break
            offset = target_offsets.get(u)
            if offset is not None and d + offset < best:
                best = d + offset
                meet = u
        done[u] = 1
        settled += 1
        if d > maxd:
            maxd = d
        if pending and waiting[u]:
            pending -= 1
            if not pending:
                break
        start = offsets[u]
        end = offsets[u + 1]
        relaxed += end - start
        if hmemo is None:
            for e in range(start, end):
                v = targets[e]
                nd = d + weights[e]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    via[v] = kinds[e]
                    push(heap, (nd, v))
                    pushes += 1
        else:
            for e in range(start, end):
                v = targets[e]
                nd = d + weights[e]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    via[v] = kinds[e]
                    h = hmemo[v]
                    if h < 0.0:  # _line_bound, inlined on the hot path
                        h = hypot(xs[v] - gx, ys[v] - gy)
                        for sx, sy, rest in shortcuts:
                            alt = hypot(xs[v] - sx, ys[v] - sy) + rest
                            if alt < h:
                                h = alt
                        hmemo[v] = h
                    push(heap, (nd + h, v))
                    pushes += 1
    stats.settled_nodes += settled
    stats.relaxed_edges += relaxed
    stats.heap_pushes += pushes
    if maxd > stats.max_settled_distance:
        stats.max_settled_distance = maxd
    rec = _obs_record.RECORDER
    if rec is not None:
        rec.record("overlay_sweep", settled, relaxed, pushes)
    return best, meet, dist, parent, via, done


def nested_overlay_sweep(
    level1: tuple,
    top: tuple,
    active: bytearray,
    seeds: Iterable[tuple[int, float]],
    num_nodes: int,
    target_offsets: dict[int, float] | None = None,
    best_bound: float = _INF,
    stats: SearchStats | None = None,
    goal: tuple[float, float] | None = None,
    xs: Sequence[float] | None = None,
    ys: Sequence[float] | None = None,
    top_np: tuple | None = None,
    xy_np: tuple | None = None,
) -> tuple[float, int, Sequence[float], list[int], list[int], bytearray]:
    """Two-level mixed sweep over a nested overlay (CRP-style).

    The boundary phase of the nested overlay
    (:class:`repro.search.overlay.NestedOverlayGraph`): the same
    multi-source, optionally goal-directed Dijkstra as
    :func:`overlay_sweep`, except each settled node relaxes one of *two*
    CSR arc sets chosen by supercell membership.  ``active[u]`` flags
    boundary nodes inside the query's source/target supercells — those
    relax the full ``level1`` overlay adjacency (clique shortcuts + cut
    arcs); every other node relaxes the far sparser ``top`` adjacency
    (supercell clique shortcuts + cross-supercell arcs), so the sweep
    settles O(boundary-of-boundary) nodes outside the endpoint regions.
    Exactness is the standard CRP argument: between consecutive
    super-boundary visits a shortest path stays inside one supercell,
    and the supercell cliques carry exactly those restricted distances.

    Parameters
    ----------
    level1, top:
        Each an ``(offsets, targets, weights, kinds)`` CSR quadruple
        over boundary-node indices.  ``top`` kinds ``<= -2`` encode the
        owning supercell as ``-2 - supercell`` (expanded by the nested
        stitcher); cut/clique kinds pass through from ``level1``.
    active:
        Per-node flags selecting the ``level1`` arc set.
    seeds, num_nodes, target_offsets, best_bound, goal, xs, ys:
        As :func:`overlay_sweep` (same admissibility contract).
    top_np:
        Optional ``(targets, weights)`` numpy mirrors of the ``top``
        arrays.  When given (and numpy imported), the dense top-level
        relaxations run as whole-slice array compares — one C pass finds
        the improving arcs, and only those re-enter the Python push
        loop.  Distances are unchanged: the array ops perform the same
        IEEE float64 adds and compares as the scalar loop.
    xy_np:
        Optional ``(xs, ys)`` numpy mirrors of the node coordinates,
        required for the vectorized path when ``goal`` is set (the A*
        heuristic is then precomputed for all nodes in one
        ``np.hypot``).

    Returns
    -------
    (best, meet, dist, parent, via, done)
        As :func:`overlay_sweep` (``dist`` is a numpy array on the
        vectorized path, a list otherwise — reads yield the same
        float64 values either way).
    """
    if stats is None:
        stats = SearchStats()
    o1, t1, w1, k1 = level1
    o2, t2, w2, k2 = top
    vec = None
    if _np is not None and top_np is not None:
        if goal is None or target_offsets is None or xy_np is not None:
            vec = top_np
    if vec is not None:
        tt, tw = vec
        # One buffer, two views: the heap loop indexes the C-double
        # array (list-speed scalar reads), the relax step compares
        # whole slices through the zero-copy numpy view.
        dist = array("d", (_INF,)) * num_nodes
        dist_np = _np.frombuffer(dist)
    else:
        tt = tw = dist_np = None
        dist = [_INF] * num_nodes
    parent = [-1] * num_nodes
    via = [-1] * num_nodes
    done = bytearray(num_nodes)
    heap: list[tuple[float, float, int]] = []
    pop, push = heappop, heappush
    pushes = 0
    hmemo: list[float] | None = None
    harr: list[float] | None = None
    gx = gy = 0.0
    if goal is not None and target_offsets is not None:
        gx, gy = goal
        if vec is not None:
            bx, by = xy_np
            harr = _np.hypot(bx - gx, by - gy).tolist()
        else:
            hmemo = [-1.0] * num_nodes
    for i, offset in seeds:
        if offset < dist[i]:
            dist[i] = offset
            if harr is not None:
                push(heap, (offset + harr[i], offset, i))
            elif hmemo is not None:
                h = hypot(xs[i] - gx, ys[i] - gy)
                hmemo[i] = h
                push(heap, (offset + h, offset, i))
            else:
                push(heap, (offset, offset, i))
            pushes += 1
    best = best_bound
    meet = -1
    settled = relaxed = 0
    maxd = 0.0
    while heap:
        key, d, u = pop(heap)
        if done[u]:
            continue
        if target_offsets is not None and key >= best:
            break
        done[u] = 1
        settled += 1
        if d > maxd:
            maxd = d
        if target_offsets is not None:
            offset = target_offsets.get(u)
            if offset is not None:
                candidate = d + offset
                if candidate < best:
                    best = candidate
                    meet = u
        if vec is not None and not active[u]:
            start = o2[u]
            end = o2[u + 1]
            relaxed += end - start
            if end > start:
                nds = d + tw[start:end]
                sel = (nds < dist_np[tt[start:end]]).nonzero()[0]
                for j in sel.tolist():
                    e = start + j
                    v = t2[e]
                    nd = nds[j]
                    if nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        via[v] = k2[e]
                        nd = float(nd)
                        if harr is not None:
                            push(heap, (nd + harr[v], nd, v))
                        else:
                            push(heap, (nd, nd, v))
                        pushes += 1
            continue
        if active[u]:
            offsets, targets, weights, kinds = o1, t1, w1, k1
        else:
            offsets, targets, weights, kinds = o2, t2, w2, k2
        start = offsets[u]
        end = offsets[u + 1]
        relaxed += end - start
        if harr is not None:
            for e in range(start, end):
                v = targets[e]
                nd = d + weights[e]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    via[v] = kinds[e]
                    push(heap, (nd + harr[v], nd, v))
                    pushes += 1
        elif hmemo is None:
            for e in range(start, end):
                v = targets[e]
                nd = d + weights[e]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    via[v] = kinds[e]
                    push(heap, (nd, nd, v))
                    pushes += 1
        else:
            for e in range(start, end):
                v = targets[e]
                nd = d + weights[e]
                if nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    via[v] = kinds[e]
                    h = hmemo[v]
                    if h < 0.0:
                        h = hypot(xs[v] - gx, ys[v] - gy)
                        hmemo[v] = h
                    push(heap, (nd + h, nd, v))
                    pushes += 1
    stats.settled_nodes += settled
    stats.relaxed_edges += relaxed
    stats.heap_pushes += pushes
    if maxd > stats.max_settled_distance:
        stats.max_settled_distance = maxd
    rec = _obs_record.RECORDER
    if rec is not None:
        rec.record("nested_sweep", settled, relaxed, pushes)
    return best, meet, dist, parent, via, done


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
    kernel: str = "csr_dijkstra_to_many",
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
    rec = _obs_record.RECORDER
    if rec is not None:
        rec.record(kernel, settled, relaxed, pushes)
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
    reached, parent = _shared_tree(csr, s, {t}, stats, "csr_dijkstra")
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


def csr_dijkstra_tree(
    csr: CSRGraph,
    source: NodeId,
    destinations: Iterable[NodeId],
    stats: SearchStats,
) -> tuple[dict[NodeId, float], Callable[[NodeId], PathResult]]:
    """Non-strict :func:`csr_dijkstra_to_many` with paths on demand.

    Returns ``({reached destination: distance}, path_to)``: the same
    tree and distances, but a :class:`PathResult` is only built when
    ``path_to(destination)`` is called — the overlay's local phases
    reach ~40 boundary nodes per search and splice at most ``|T|``.
    """
    s = csr.index(source)
    remaining = {csr.index(t) for t in destinations}
    reached, parent = _shared_tree(csr, s, remaining, stats)
    parent = parent[:]  # the scratch bank is recycled by the next search
    node_ids, index_of = csr.node_ids, csr.index_of
    dist = {node_ids[i]: d for i, d in reached.items()}

    def path_to(node: NodeId) -> PathResult:
        return _path_from_parents(csr, parent, s, index_of[node], dist[node])

    return dist, path_to


def csr_bidirectional_path(
    network,
    source: NodeId,
    destination: NodeId,
    csr: CSRGraph | None = None,
    stats: SearchStats | None = None,
) -> PathResult:
    """Bidirectional Dijkstra on the CSR kernel.

    The backward frontier expands over the snapshot's reverse CSR view
    (aliasing the forward arrays on undirected networks), with the
    classic ``min_f + min_b >= best`` stopping rule, which guarantees
    optimality — same distances as
    :func:`repro.search.dijkstra.dijkstra_path`.
    """
    if csr is None:
        csr = csr_snapshot(network)
    s = csr.index(source)
    t = csr.index(destination)
    if stats is None:
        stats = SearchStats()
    if s == t:
        return _trivial(source)

    fwd_view = csr.kernel_view()
    bwd_view = csr.reverse_kernel_view()
    offs = (fwd_view[0], bwd_view[0])
    heads = (fwd_view[1], bwd_view[1])
    wts = (fwd_view[2], bwd_view[2])
    scratch = scratch_for(csr.num_nodes)
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

    while heaps[0] and heaps[1]:
        for heap, done in zip(heaps, dones):
            while heap and done[heap[0][1]] == gen:
                pop(heap)
        if not heaps[0] or not heaps[1]:
            break
        min0 = heaps[0][0][0]
        min1 = heaps[1][0][0]
        if min0 + min1 >= best:
            break
        side = 0 if min0 <= min1 else 1
        d, u = pop(heaps[side])
        my_done = dones[side]
        my_done[u] = gen
        settled += 1
        if d > maxd:
            maxd = d
        my_dist, my_parent, my_stamp = dists[side], parents[side], stamps[side]
        other_dist, other_stamp = dists[1 - side], stamps[1 - side]
        my_heap = heaps[side]
        off, head, wt = offs[side], heads[side], wts[side]
        start = off[u]
        end = off[u + 1]
        relaxed += end - start
        for e in range(start, end):
            v = head[e]
            nd = d + wt[e]
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
            if other_stamp[v] == gen:
                total = my_dist[v] + other_dist[v]
                if total < best:
                    best = total
                    meet = v

    stats.settled_nodes += settled
    stats.relaxed_edges += relaxed
    stats.heap_pushes += pushes
    if maxd > stats.max_settled_distance:
        stats.max_settled_distance = maxd
    rec = _obs_record.RECORDER
    if rec is not None:
        rec.record("csr_bidirectional", settled, relaxed, pushes)
    if meet < 0:
        raise NoPathError(source, destination)

    sequence = [meet]
    node = meet
    parent_f, parent_b = parents
    while node != s:
        node = parent_f[node]
        sequence.append(node)
    sequence.reverse()
    node = meet
    while node != t:
        node = parent_b[node]
        sequence.append(node)
    node_ids = csr.node_ids
    return PathResult(
        source=source,
        destination=destination,
        nodes=tuple(node_ids[i] for i in sequence),
        distance=best,
    )


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

    The ``"ch-csr"`` engine's ``prepare`` hook: contraction cost is
    identical to the ``"ch"`` engine (same
    :func:`~repro.search.ch.contract.contract_network` run); the extra
    flattening pass is linear in overlay size.
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

    Same distances and path contract as
    :func:`repro.search.ch.query.ch_path`.
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
    rec = _obs_record.RECORDER
    if rec is not None:
        rec.record("csr_ch", settled, relaxed, pushes)
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
    return PathResult(
        source=source,
        destination=destination,
        nodes=tuple(unpack_path(hierarchy.contracted, overlay_ids)),
        distance=best,
    )


def _csr_upward_sweep(
    hierarchy: CSRHierarchy,
    start: int,
    forward: bool,
    scratch: KernelScratch,
    stats: SearchStats,
) -> tuple[dict[int, float], dict[int, int], set[int]]:
    """Exhaustive upward sweep in index space (the many-to-many primitive).

    Mirrors :func:`repro.search.ch.query._upward_sweep`; returns
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
    rec = _obs_record.RECORDER
    if rec is not None:
        rec.record("csr_ch_upward", settled, relaxed, pushes)
    preds = {i: parent[i] for i in settled_map}
    return settled_map, preds, stalled


def csr_ch_many_to_many(
    hierarchy: CSRHierarchy,
    sources: Sequence[NodeId],
    destinations: Sequence[NodeId],
    stats: SearchStats | None = None,
) -> dict[tuple[NodeId, NodeId], PathResult]:
    """Bucket-based many-to-many CH on flat arrays.

    Same contract (and distances) as
    :func:`repro.search.ch.manytomany.ch_many_to_many`: one backward
    sweep per destination fills buckets, one forward sweep per source
    scans them; unreachable pairs are omitted.
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
    for (i, j), (distance, meet) in best.items():
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
        results[(s_id, t_id)] = PathResult(
            source=s_id,
            destination=t_id,
            nodes=tuple(unpack_path(hierarchy.contracted, overlay_ids)),
            distance=distance,
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
    a shard worker may choose differently and still agree byte for byte.
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


class CSRBidirectionalPairwiseProcessor(PreprocessingProcessor):
    """One CSR bidirectional search per pair (``"bidirectional-csr"``)."""

    name = "bidirectional-csr"

    def _build(self, network) -> CSRGraph:
        return csr_snapshot(network)

    def process(self, network, sources, destinations) -> MSMDResult:
        """Answer every pair with an independent bidirectional query."""
        _validate(sources, destinations)
        csr = self.artifact_for(network)
        result = MSMDResult()
        for s in sources:
            for t in destinations:
                stats = SearchStats()
                result.paths[(s, t)] = csr_bidirectional_path(
                    network, s, t, csr=csr, stats=stats
                )
                result.stats.merge(stats)
                result.searches += 1
        return result


class CSRCHManyToManyProcessor(PreprocessingProcessor):
    """Bucket many-to-many over a :class:`CSRHierarchy` (``"ch-csr"``).

    Matches :class:`~repro.search.ch.manytomany.CHManyToManyProcessor`
    semantics: an unreachable pair raises
    :class:`~repro.exceptions.NoPathError`.
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

        Same sharing argument as
        :meth:`repro.search.ch.manytomany.CHManyToManyProcessor.process_union`
        (sweeps are per-endpoint, pair minimization is independent), run
        on the :class:`CSRHierarchy` kernels.
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
