"""Numpy-vectorized batch kernels over :class:`~repro.network.csr.CSRGraph`.

The scalar kernels in :mod:`repro.search.kernels` pay CPython's
per-iteration interpreter cost on every relaxed arc.  This module trades
the label-setting heap for label-correcting *frontier waves* evaluated
as whole-array numpy operations: each iteration gathers the out-arcs of
every frontier node in one shot, drops the candidates that cannot beat
their target's label, relaxes the rest with one unbuffered
``np.minimum.at`` scatter, and the nodes whose labels improved form the
next frontier.

A wave costs a fixed ~30 numpy operations plus a little per relaxed
arc, and at the sizes a protected query produces (a few hundred frontier
entries per wave) the calls dominate: on a 100x100 grid a one-row sweep
costs about as much as a two-row one.  So every operation is a direct
C-level call — ndarray methods and ufuncs, never a Python-level wrapper
such as ``np.flatnonzero`` or ``ndarray.any``, which at these sizes cost
more than the work they do — and the gather takes whole rows of
:meth:`VecGraph.neighbour_tables`, every node's out-arcs padded to the
largest out-degree (pad slots: node 0, weight ``+inf``), in one
``np.take`` per table.  That is only worth it
when the padding is small: :attr:`VecGraph.padded` holds when the
tables cost at most twice the arc arrays (road grids 1.0x, 640 KB on a
100x100 grid; metro maps 1.3x).  A skewed snapshot — a scale-free hub
graph pads 36x at 2 000 nodes — expands its frontier by CSR slice
arithmetic instead and never builds the tables.  Both expansions list a
wave's candidates in the same order, so the choice cannot show in a
table or a counter.

Batching is the point: the per-source sweeps of an MSMD batch (or of a
coalesced union pass) share one 2-D distance table of shape
``(num_sources, num_nodes)``, so every wave relaxes the union frontier
for all sources at once and the fixed per-iteration numpy overhead is
amortized across the whole batch.

Exactness
---------
With non-negative weights the frontier iteration converges to the least
fixpoint of ``dist[v] = min(dist[u] + w(u, v))`` under IEEE float64 —
the same equations Dijkstra's algorithm solves in settlement order — so
the converged distances are *bit-identical* to the scalar kernels', not
merely close.  Per-source truncation mirrors the shared-tree kernels: a
frontier entry whose label cannot improve any destination that source
still needs is dropped, and every node that ends below that bound is at
its final (Dijkstra) value, which keeps union-pass tables byte-identical
to solo evaluations.

Paths are reconstructed after convergence by walking the reverse
adjacency along exact label equalities (``dist[u] + w == dist[v]``),
smallest ``(dist[u], u)`` first.  That reproduces the reported distance
exactly and, on :attr:`VecGraph.strict` snapshots, the scalar heap's own
parents: node sequences are identical too, which is what lets
:class:`~repro.search.kernels.CSRSharedTreeProcessor` pick a kernel per
query without the answer showing it.

numpy is optional for the package; when it is missing this module still
imports (so the engine registry can probe :func:`numpy_available`) and
every kernel raises ``ImportError`` instead.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Iterable, Sequence

from repro.exceptions import NoPathError
from repro.network.csr import CSRGraph, csr_snapshot
from repro.network.graph import NodeId
from repro.search.result import PathResult, SearchStats

try:  # pragma: no cover - exercised via numpy_available()
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less interpreters
    np = None

__all__ = [
    "VecGraph",
    "estimated_settled",
    "numpy_available",
    "vec_batch_paths",
    "vec_dijkstra_path",
    "vec_view",
]

_INF = float("inf")


def numpy_available() -> bool:
    """Whether numpy imported, i.e. whether the ``*-vec`` engines work."""
    return np is not None


def _require_numpy():
    if np is None:
        raise ImportError(
            "numpy is required for the vectorized (*-vec) search kernels"
        )


class _SnapshotArrays:
    """The ndarray state of one snapshot that its views share.

    Kept by :func:`vec_view` in the snapshot's ``_vec`` slot.  It holds
    no reference back to the snapshot — a :class:`VecGraph` does, and
    the slot only refers to the latest memoized view weakly — so a
    snapshot and its views form no cycle, and a retired snapshot is
    freed on its last reference instead of at the next cyclic
    collection.
    """

    __slots__ = (
        "offsets", "targets", "weights", "deg", "density", "strict",
        "padded", "tables", "view",
    )

    def __init__(self, csr: CSRGraph) -> None:
        views = csr.as_numpy()
        self.offsets = views["offsets"]
        self.targets = views["targets"]
        self.weights = weights = views["weights"]
        self.deg = np.diff(self.offsets)
        xs, ys = views["xs"], views["ys"]
        area = float(np.ptp(xs) * np.ptp(ys)) if len(xs) else 0.0
        self.density = len(xs) / area if area > 0.0 else _INF
        self.strict = bool(
            len(weights) == 0 or weights.min() > weights.sum() * 2.0 ** -52
        )
        width = int(self.deg.max()) if len(self.deg) else 0
        self.padded = len(self.deg) * width <= 2 * len(weights)
        self.tables = None
        self.view = None  # weakref to the memoized VecGraph


class VecGraph:
    """A :class:`CSRGraph` plus the ndarray views the batch kernels read.

    Thin and immutable (the padded neighbour tables aside, which are
    built once, on first use): the read-only zero-copy views from
    :meth:`CSRGraph.as_numpy` (``offsets``/``targets``/``weights``), the
    precomputed out-degree array, and two whole-graph facts for kernel
    selection.  ``density`` is nodes per unit of bounding-box area
    (:func:`estimated_settled`).  ``strict`` says every arc raises the
    label it relaxes: each weight exceeds ``2**-52`` of the sum of all
    weights (a bound on any label), so neither a zero weight nor float
    absorption can tie a node with its parent — what :func:`_walk_back`
    needs to reproduce the scalar heap's parents.  Paths are walked on
    the wrapped snapshot's scalar reverse view, so one artifact serves
    both phases.  ``padded`` says the frontier sweep expands through
    :meth:`neighbour_tables`: padding every node to the largest
    out-degree costs at most twice the arc arrays (grids 1.0x, metro
    maps 1.3x; a scale-free hub graph would pay 36x at 2 000 nodes).

    ``VecGraph(csr)`` computes its arrays afresh; :func:`vec_view` hands
    out views that share them (:class:`_SnapshotArrays`).
    """

    __slots__ = (
        "csr", "offsets", "targets", "weights", "deg", "density", "strict",
        "padded", "_arrays", "__weakref__",
    )

    def __init__(
        self, csr: CSRGraph, arrays: _SnapshotArrays | None = None
    ) -> None:
        _require_numpy()
        if arrays is None:
            arrays = _SnapshotArrays(csr)
        self.csr = csr
        self._arrays = arrays
        self.offsets = arrays.offsets
        self.targets = arrays.targets
        self.weights = arrays.weights
        self.deg = arrays.deg
        self.density = arrays.density
        self.strict = arrays.strict
        self.padded = arrays.padded

    def neighbour_tables(self):
        """``(targets, weights)`` padded to ``(num_nodes, max out-degree)``.

        Row ``u`` lists ``u``'s out-arcs in CSR order, then pad slots
        that point at node 0 with weight ``+inf`` (no relaxation through
        them can pass a ``<`` test).  Built on first use and kept (with
        the snapshot's other shared arrays); only :attr:`padded`
        snapshots should ask.
        """
        arrays = self._arrays
        if arrays.tables is None:
            n, deg = len(self.deg), self.deg
            width = int(deg.max()) if n else 0
            # table slot of arc e: its row's start plus its rank in the row
            at = np.repeat(np.arange(n) * width - self.offsets[:-1], deg)
            at += np.arange(len(self.targets))
            nbr = np.zeros(n * width, dtype=np.int64)
            nbr[at] = self.targets
            nbr_w = np.full(n * width, np.inf)
            nbr_w[at] = self.weights
            arrays.tables = (nbr.reshape(n, width), nbr_w.reshape(n, width))
        return arrays.tables

    def __repr__(self) -> str:
        return f"VecGraph({self.csr!r})"


def vec_view(csr: CSRGraph) -> VecGraph:
    """The (memoized) :class:`VecGraph` over ``csr``.

    The arrays are kept in the snapshot's own ``_vec`` slot, so they
    live and die with their snapshot (``csr_snapshot`` rebuilds per
    network version, and ``vec_view(csr_snapshot(network))`` follows
    it), and every call returns the same view for as long as someone
    holds it; a view keeps its snapshot alive.  Two threads racing a
    first call may both build; one wins the slot.  Raises
    ``ImportError`` when numpy is missing.
    """
    _require_numpy()
    arrays = csr._vec
    if arrays is None:
        arrays = csr._vec = _SnapshotArrays(csr)
    vec = arrays.view() if arrays.view is not None else None
    if vec is None:
        vec = VecGraph(csr, arrays)
        arrays.view = weakref.ref(vec)
    return vec


def estimated_settled(
    vec: VecGraph,
    sources: Sequence[NodeId],
    destinations_per_source: Sequence[Iterable[NodeId]],
) -> float:
    """Predicted total tree size of a batch, from endpoint geometry alone.

    Lemma 1's shape (the Euclidean form of
    :func:`repro.search.cost_model.lemma1_cost_estimate`, in snapshot
    index space and per row): a source's tree is a disc reaching its
    furthest destination, so row ``i`` settles about
    ``pi * max_t |s - t|^2`` times the node density, capped at the
    graph.  ``O(sum |T_i|)`` coordinate reads and no search; raises
    :class:`~repro.exceptions.UnknownNodeError` for a missing endpoint.
    """
    csr = vec.csr
    index, xs, ys, n = csr.index, csr.xs, csr.ys, csr.num_nodes
    per_area = math.pi * vec.density
    total = 0.0
    for s, dests in zip(sources, destinations_per_source):
        i = index(s)
        sx, sy = xs[i], ys[i]
        r2 = 0.0
        for t in dests:
            j = index(t)
            d2 = (xs[j] - sx) ** 2 + (ys[j] - sy) ** 2
            if d2 > r2:
                r2 = d2
        reach = r2 * per_area
        # a degenerate bounding box (infinite density) counts the graph
        total += reach if reach < n else n
    return total


#: frontiers :func:`_sweep_tables` buffers before folding them into its
#: counters: a fold is a few numpy calls, a buffered frontier ~16 bytes
#: per entry
_TALLY_WAVES = 8


def _tally(deg, nodes, labels, relaxed, maxd):
    """Fold buffered frontiers into ``(relaxed, maxd)``; empties the lists.

    ``nodes`` and ``labels`` hold each wave's frontier nodes and their
    labels: a frontier entry relaxes its node's out-degree of arcs, and
    ``maxd`` is the largest label any frontier carried.
    """
    if nodes:
        relaxed += int(deg.take(np.concatenate(nodes)).sum())
        maxd = max(maxd, float(np.concatenate(labels).max()))
        nodes.clear()
        labels.clear()
    return relaxed, maxd


def _sweep_tables(
    vec: VecGraph,
    src_idx: "np.ndarray",
    dest_idx_rows: list[list[int]],
    stats: SearchStats,
):
    """Converge the batched frontier iteration; returns the dist table.

    ``dist`` has shape ``(len(src_idx), num_nodes)``; row ``i`` holds
    the (exact, Dijkstra-identical) distances from ``src_idx[i]`` to
    every node that row settled.  ``dest_idx_rows`` gives each row's
    needed destination indices, where its sweep is truncated.

    A wave's fixed cost is its numpy calls, so each wave makes as few as
    it can.  On :attr:`VecGraph.padded` snapshots it expands the
    frontier by taking whole rows of the padded neighbour tables (pad
    slots carry weight ``+inf`` and never pass the ``cand < label``
    filter); on skewed ones, where the padding would dwarf the arcs, by
    CSR slice arithmetic.  Both list a wave's candidates in the same
    order (frontier entry, then CSR arc order), so the relaxations, the
    table and the counters are the same.  The counters are folded from
    the buffered frontiers every :data:`_TALLY_WAVES` waves rather than
    on each, and the truncation caps are only applied once some row has
    reached all of its destinations: before that every cap is ``+inf``.
    Improved keys are deduplicated through a slot buffer, not by reading
    back which candidates equal the new label: on tied maps two
    candidates can set the same label, and that test would push the key
    twice, changing ``heap_pushes`` and the next wave.
    """
    n = vec.csr.num_nodes
    rows = len(src_idx)
    dist = np.full((rows, n), np.inf)
    flat = dist.ravel()  # writable view: entry (row, v) lives at row*n + v
    row_ids = np.arange(rows)
    # The frontier is a flat vector of (row, node) entries encoded as
    # row*n + node: every improved label is relaxed out on the very next
    # wave, so each wave's arrays are sized by the entries that actually
    # changed — no dense (rows, n) active plane and no cross-row waste
    # when the per-source wavefronts do not overlap.
    frontier = row_ids * n + src_idx
    flat[frontier] = 0.0
    width = max(1, max(len(d) for d in dest_idx_rows))
    dest_pad = np.empty((rows, width), dtype=np.int64)
    for i, dests in enumerate(dest_idx_rows):
        # A row with no needed destinations is capped at its own
        # source (label 0), so its frontier prunes immediately.
        pad = dests[0] if dests else int(src_idx[i])
        dest_pad[i, : len(dests)] = dests
        dest_pad[i, len(dests):] = pad
    dest_keys = dest_pad + (row_ids * n)[:, None]
    is_dest = np.zeros(rows * n, dtype=bool)
    is_dest[dest_keys] = True
    # A row's cap is its furthest needed destination's label; it only
    # changes on a wave that improves one of those destinations, and
    # once finite it stays finite.
    caps = flat[dest_keys].max(axis=1)
    truncating = bool(caps.min() < _INF)
    if vec.padded:
        nbr, nbr_w = vec.neighbour_tables()
    else:
        offsets, targets, weights, deg = (
            vec.offsets, vec.targets, vec.weights, vec.deg,
        )
    slot = np.empty(rows * n, dtype=np.int64)  # dedup buffer, see below
    entry_vals = np.zeros(rows)
    settled = relaxed = 0
    pushes = rows
    maxd = 0.0
    nodes, labels = [], []  # frontiers not yet in relaxed/maxd
    while frontier.size:
        f_node = frontier % n
        settled += frontier.size
        nodes.append(f_node)
        labels.append(entry_vals)
        if len(nodes) == _TALLY_WAVES:
            relaxed, maxd = _tally(vec.deg, nodes, labels, relaxed, maxd)
        row_base = frontier - f_node
        if vec.padded:
            cand = entry_vals[:, None] + nbr_w.take(f_node, axis=0)
            key = row_base[:, None] + nbr.take(f_node, axis=0)
        else:
            # Flatten the CSR slices of every frontier entry into one
            # edge list: e_idx[k] walks offsets[u]..offsets[u]+deg[u].
            d_e = deg[f_node]
            total = int(d_e.sum())
            prefix = np.concatenate(([0], np.cumsum(d_e)[:-1]))
            e_idx = np.repeat(offsets[f_node] - prefix, d_e) + np.arange(total)
            cand = np.repeat(entry_vals, d_e) + weights[e_idx]
            key = np.repeat(row_base, d_e) + targets[e_idx]
        # Only candidates below the current label can improve it; many
        # relaxations of a wave land on neighbours already as good.
        # (Selections go through nonzero + take: a boolean mask index of
        # that size costs more than both, its branches being
        # unpredictable.  The ndarray methods, not np.flatnonzero or
        # .any(): at a few hundred entries per wave those Python-level
        # wrappers cost more than the C work they call.  The padded
        # candidates are 2-D, hence the ravel; take reads them flat.)
        better_than = (cand < flat.take(key)).ravel().nonzero()[0]
        cand = cand.take(better_than)
        key = key.take(better_than)
        # Min per (row, target) key, duplicates included (two frontier
        # nodes sharing a neighbour); then each improved key once: of the
        # positions that scattered into a slot, one reads itself back.
        np.minimum.at(flat, key, cand)
        pos = np.arange(key.size)
        slot[key] = pos
        frontier = key.take((slot.take(key) == pos).nonzero()[0])
        entry_vals = flat.take(frontier)
        pushes += int(frontier.size)
        if np.logical_or.reduce(is_dest.take(frontier)):
            caps = flat.take(dest_keys).max(axis=1)
            truncating = bool(caps.min() < _INF)
        if truncating:
            # An improved label re-enters the frontier only if it could
            # still improve a destination its row needs (the bound only
            # shrinks, so dropped entries stay useless).
            keep = (entry_vals < caps.take(frontier // n)).nonzero()[0]
            frontier = frontier.take(keep)
            entry_vals = entry_vals.take(keep)
    relaxed, maxd = _tally(vec.deg, nodes, labels, relaxed, maxd)
    stats.settled_nodes += settled
    stats.relaxed_edges += relaxed
    stats.heap_pushes += pushes
    if maxd > stats.max_settled_distance:
        stats.max_settled_distance = maxd
    return dist


def _tree_parents(csr: CSRGraph, dist: "np.ndarray") -> "np.ndarray":
    """Every row's tree parents from the converged labels, in one shot.

    ``parent[i, v]`` is :func:`_walk_back`'s choice for ``v`` in row
    ``i``: among the in-neighbours with ``dist[i, u] + w == dist[i, v]``,
    the smallest ``(dist[i, u], u)``; ``-1`` where no in-arc is tight
    (the row's source, unreached nodes).  On :attr:`VecGraph.strict`
    snapshots that is the scalar heap's parent table, for every node
    below the row's truncation bound.
    """
    rows, n = dist.shape
    parent = np.full((rows, n), -1, dtype=np.int64)
    roffsets = np.frombuffer(csr.roffsets, dtype=np.int64)
    indeg = np.diff(roffsets)
    heads = np.flatnonzero(indeg)
    if not heads.size:
        return parent
    # Reverse CSR groups the in-arcs by head, so each head's arcs are one
    # contiguous segment of the (rows, arcs) tables below.
    tails = np.frombuffer(csr.rtargets, dtype=np.int64)
    rweights = np.frombuffer(csr.rweights, dtype=np.float64)
    tail_label = dist[:, tails]
    tight = tail_label + rweights == dist[:, np.repeat(np.arange(n), indeg)]
    tight &= tail_label < _INF  # inf + w == inf ties unreached nodes
    tail_label[~tight] = _INF
    starts = roffsets[heads]
    best = np.minimum.reduceat(tail_label, starts, axis=1)
    first = tight & (tail_label == np.repeat(best, indeg[heads], axis=1))
    pick = np.minimum.reduceat(np.where(first, tails, n), starts, axis=1)
    parent[:, heads] = np.where(pick < n, pick, -1)
    return parent


def _walk_back(csr: CSRGraph, label, s_idx: int, t_idx: int) -> PathResult:
    """Reconstruct one tree path from the converged labels.

    ``label[i]`` is node ``i``'s distance as a Python float (a
    ``memoryview`` of a dist row: a hop reads a few labels, and a
    subscript costs far less than a method call per read).  Each hop
    takes, among the in-neighbours with ``label[u] + w == label[v]``,
    the smallest ``(label[u], u)``: the first a heap ordered on
    ``(d, u)`` settles and, relaxations being strict improvements, the
    parent it keeps — as long as settle order is ``(d, u)`` order, which
    :attr:`VecGraph.strict` guarantees.  Other snapshots (zero-weight
    arcs) still get *a* shortest path: the walk never re-enters a node
    and backtracks out of zero-weight dead ends.
    """
    node_ids = csr.node_ids
    roffsets, rtargets, rweights = csr.reverse_kernel_view()
    sequence = [t_idx]
    seen = {t_idx}
    while sequence[-1] != s_idx:
        v = sequence[-1]
        dv = label[v]
        parent = -1
        best = _INF
        for e in range(roffsets[v], roffsets[v + 1]):
            u = rtargets[e]
            du = label[u]
            if du + rweights[e] == dv and u not in seen and (
                du < best or (du == best and u < parent)
            ):
                parent, best = u, du
        if parent < 0:
            # zero-weight dead end (strict snapshots never get here: every
            # hop lowers the label); the labels being a fixpoint, some
            # earlier branch does reach the source
            sequence.pop()
        else:
            seen.add(parent)
            sequence.append(parent)
    sequence.reverse()
    return PathResult(
        source=node_ids[s_idx],
        destination=node_ids[t_idx],
        nodes=tuple(map(node_ids.__getitem__, sequence)),
        distance=label[t_idx],
    )


def vec_batch_paths(
    network,
    sources: Sequence[NodeId],
    destinations_per_source: Sequence[Iterable[NodeId]],
    vec: VecGraph | None = None,
    stats: SearchStats | None = None,
    strict: bool = True,
) -> list[dict[NodeId, PathResult]]:
    """All per-source SSMD trees of a batch in one 2-D frontier sweep.

    Row ``i`` of the result maps each destination in
    ``destinations_per_source[i]`` to its :class:`PathResult` from
    ``sources[i]``.  Distances and union-pass slicing semantics match
    :func:`repro.search.kernels.csr_dijkstra_to_many` exactly: with
    ``strict`` an unreachable destination raises
    :class:`~repro.exceptions.NoPathError`, otherwise it is omitted
    from its row.

    Raises
    ------
    ImportError
        When numpy is missing (use the scalar kernels instead).
    UnknownNodeError
        If any endpoint is missing from the network.
    """
    _require_numpy()
    if vec is None:
        vec = vec_view(csr_snapshot(network))
    if stats is None:
        stats = SearchStats()
    csr = vec.csr
    src_idx = np.fromiter(
        (csr.index(s) for s in sources), dtype=np.int64, count=len(sources)
    )
    dest_ids_rows = [list(dests) for dests in destinations_per_source]
    dest_idx_rows = [
        [csr.index(t) for t in dests] for dests in dest_ids_rows
    ]
    if len(src_idx) == 0 or not any(dest_idx_rows):
        return [{} for _ in dest_idx_rows]
    dist = _sweep_tables(vec, src_idx, dest_idx_rows, stats)
    out: list[dict[NodeId, PathResult]] = []
    for i, dests in enumerate(dest_ids_rows):
        # a memoryview reads one label as a Python float; a path touches
        # a few hundred, so boxing the whole n-wide row would dominate
        label = memoryview(dist[i])
        s_idx = int(src_idx[i])
        paths: dict[NodeId, PathResult] = {}
        for t, t_idx in zip(dests, dest_idx_rows[i]):
            if label[t_idx] == _INF:
                if strict:
                    raise NoPathError(sources[i], t)
                continue
            paths[t] = _walk_back(csr, label, s_idx, t_idx)
        out.append(paths)
    return out


def vec_dijkstra_path(
    network,
    source: NodeId,
    destination: NodeId,
    csr: CSRGraph | None = None,
    stats: SearchStats | None = None,
) -> PathResult:
    """Point-to-point query on the vectorized kernel.

    Same contract (and bit-identical distances) as
    :func:`repro.search.kernels.csr_dijkstra_path` — a one-row batch of
    :func:`vec_batch_paths` truncated at the single destination.
    """
    rows = vec_batch_paths(
        network, [source], [[destination]],
        vec=None if csr is None else vec_view(csr), stats=stats,
    )
    return rows[0][destination]
