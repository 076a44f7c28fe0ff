"""Partition-overlay routing engine (CRP-style two-phase queries).

The monolithic engines (Dijkstra, CH, the CSR kernels) preprocess and
query the whole road network as a unit, so one weight change forces a
full rebuild and the serving stack has no axis to shard work on.  This
module adds the production answer: split the network into bounded-size
cells (:mod:`repro.network.partition`), precompute per-cell *clique
shortcuts* between each cell's boundary nodes, and answer queries in two
phases — local search inside the source and target cells, plus one
sweep over the much smaller boundary overlay
(:func:`repro.search.kernels.overlay_sweep`).

**Customization.**  A cell's clique depends only on the edges *inside*
that cell, so re-weighting an edge (traffic) invalidates exactly the
cell containing it: :meth:`OverlayGraph.recustomized` rebuilds only the
touched cells' cliques (sharing every other cell's tables with the old
overlay) — a per-cell re-customization instead of the full rebuild a CH
engine pays.  The partition itself never reads weights, so it survives
any re-weighting unchanged.

**Exactness.**  Any shortest path decomposes into a prefix inside the
source cell, cut edges, intra-cell segments between boundary nodes, and
a suffix inside the target cell.  The local phases cover prefix and
suffix exactly; clique arcs carry each cell's intra-cell
boundary-to-boundary shortest distances (arcs whose shortest path runs
through another boundary node of the same cell are pruned — the kept
arcs compose to the same distances, which keeps the overlay sparse);
cut arcs are the original edges.  Queries on the overlay therefore
return the same distances as plain Dijkstra, on directed and
disconnected networks alike, which the engine-conformance harness
checks for the registered ``"overlay-csr"`` engine (cell searches run
on flat per-cell CSR snapshots).

**Goal direction.**  Customization records the arcs whose weight is
below their endpoints' straight-line distance
(:attr:`OverlayGraph.undercut`; none on distance-weighted maps like the
grid generators, which :attr:`OverlayGraph.metric` names).  Every other
overlay arc and every local offset is at least its straight line, so
the point-query sweep runs A* keyed by ``dist +
straight-line-to-target`` — or, through an undercut arc, the straight
line to its tail plus what the arc and the rest of the way cost at
least (:meth:`OverlayGraph._goal`): an admissible, consistent lower
bound that settles a corridor instead of a disc with identical
distances.  A traffic update that undercuts geometry therefore costs
one more straight line per touched node, not the goal direction; past
:data:`MAX_UNDERCUT_ARCS` of them (travel times faster than geometry
everywhere, a network without an ``edges()`` view) the sweep is the
plain exact Dijkstra — which is why the conformance harness holds this
engine to arbitrary weights.
:meth:`OverlayGraph.many_to_many` runs the same point sweep pair by
pair while a goal-directed query has at most
:data:`PAIR_SWEEP_MAX_TARGETS` destinations (``|T|`` corridors settle
less than one disc), and one shared sweep per source — stopped at the
last destination-cell boundary node — beyond that; either way it
returns the same table.

Overlays persist as the binary blobs of :mod:`repro.service.blob`
(what :class:`~repro.service.cache.PreprocessingCache` spills and
reloads without re-customizing); :func:`dumps_overlay` renders the same
content as text, the byte-identity witness of the recustomization
and epoch suites.
"""

from __future__ import annotations

import threading
import weakref
from collections import namedtuple
from hashlib import blake2b
from collections.abc import Iterable, Sequence

from repro.exceptions import GraphError, NoPathError
from repro.network.csr import CSRGraph
from repro.network.graph import NodeId
from repro.network.partition import Partition, partition_snapshot
from repro.search.kernels import (
    _path_from_parents,
    _shared_tree,
    csr_dijkstra_tree,
    overlay_sweep,
)
from repro.search.multi import MSMDResult, PreprocessingProcessor, _validate
from repro.search.result import PathResult, SearchStats
from repro.search.vectorized import VecGraph, _sweep_tables, _tree_parents

try:  # pragma: no cover - numpy-less interpreters skip the fast path
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "OverlayGraph",
    "build_overlay",
    "overlay_snapshot",
    "CSROverlayProcessor",
    "dumps_overlay",
]

_INF = float("inf")

#: Largest ``|T|`` a goal-directed overlay answers pair by pair (one
#: point sweep each) instead of with one shared sweep per source;
#: measured, see "Partition overlay" in docs/ARCHITECTURE.md for the
#: table and the command that remakes it.
PAIR_SWEEP_MAX_TARGETS = 5

#: Most arcs below their straight-line length the goal-directed sweep
#: corrects its bound for (each costs one more straight line per
#: touched node); same table.
MAX_UNDERCUT_ARCS = 8

#: one intra-cell search: ``dist[node]`` for every reached target and
#: ``path(node)`` building that target's :class:`PathResult` on demand
_Local = namedtuple("_Local", ("dist", "path"))


class _CellView:
    """Induced-subgraph read view of one cell (no copying).

    Exposes the subset of the :class:`~repro.network.graph.RoadNetwork`
    read interface :meth:`~repro.network.csr.CSRGraph.from_network`
    uses, restricted to the cell's members.
    """

    __slots__ = ("_network", "_order", "_members")

    def __init__(self, network, members: Sequence[NodeId]):
        self._network = network
        self._order = tuple(members)
        self._members = frozenset(members)

    @property
    def directed(self) -> bool:
        """Directedness of the backing network."""
        return bool(getattr(self._network, "directed", False))

    def nodes(self):
        """Iterate the cell's members in partition order."""
        return iter(self._order)

    def position(self, node: NodeId):
        """Position of a member node (delegates to the backing network)."""
        return self._network.position(node)

    def neighbors(self, node: NodeId) -> dict[NodeId, float]:
        """Intra-cell adjacency of ``node`` (filtered per call)."""
        return {
            v: w
            for v, w in self._network.neighbors(node).items()
            if v in self._members
        }


def _reversed_csr(csr: CSRGraph) -> CSRGraph:
    """A CSR snapshot whose forward arrays are ``csr``'s reverse arrays."""
    if not csr.directed:
        return csr
    return CSRGraph(
        node_ids=csr.node_ids,
        index_of=csr.index_of,
        offsets=csr.roffsets,
        targets=csr.rtargets,
        weights=csr.rweights,
        xs=csr.xs,
        ys=csr.ys,
        directed=True,
        roffsets=csr.offsets,
        rtargets=csr.targets,
        rweights=csr.weights,
    )


def _flip(path: PathResult) -> PathResult:
    """Reverse a path computed on a reversed adjacency."""
    return PathResult(
        source=path.destination,
        destination=path.source,
        nodes=tuple(reversed(path.nodes)),
        distance=path.distance,
    )


class OverlayGraph:
    """Per-cell boundary cliques plus the flat overlay adjacency.

    Build with :func:`build_overlay` (or the memoizing
    :func:`overlay_snapshot`); query with :meth:`route` /
    :meth:`many_to_many`; after re-weighting edges, refresh with
    :meth:`recustomized`, which recomputes only the touched cells.

    Attributes
    ----------
    network, partition:
        The backing network and its (weight-independent) partition.
    cliques:
        ``cliques[c][b][b2]`` is the intra-cell shortest
        :class:`~repro.search.result.PathResult` from boundary node
        ``b`` to ``b2`` of cell ``c`` (pruned: pairs whose path runs
        through another boundary node of ``c`` are omitted and compose
        from the kept arcs instead).
    boundary_ids, boundary_index:
        Dense indexing of every boundary node (cell order, then
        partition order within the cell) used by the flat overlay
        arrays.
    over_offsets, over_targets, over_weights, over_kinds:
        CSR adjacency over boundary indices: clique arcs (kind = owning
        cell) and cut arcs (kind ``-1``, current network weight).
    customize_stats:
        Aggregate search cost of the clique computations this instance
        performed (a fresh build covers every cell; a
        :meth:`recustomized` copy only the touched ones).
    customized_cells:
        How many cells this instance customized itself.
    undercut:
        ``{(u, v): weight}`` of the arcs whose weight is below their
        Euclidean length (both directions of an undirected edge) — the
        exceptions the goal-directed sweeps' straight-line bound has to
        allow for; ``None`` when the network has no ``edges()`` view to
        find them with.
    """

    __slots__ = (
        "__weakref__",
        "network",
        "partition",
        "cliques",
        "_cell_csr",
        "_cell_rcsr",
        "boundary_ids",
        "boundary_index",
        "over_offsets",
        "over_targets",
        "over_weights",
        "over_kinds",
        "undercut",
        "_shortcuts",
        "_version",
        "_bxs",
        "_bys",
        "customize_stats",
        "customized_cells",
        "_cell_sigs",
    )

    def __init__(
        self,
        network,
        partition: Partition,
        cliques: list[dict],
        cell_csr: list,
        cell_rcsr: list,
        customize_stats: SearchStats,
        customized_cells: int,
        undercut: dict | None = None,
        _flat: tuple | None = None,
    ) -> None:
        self.network = network
        self.partition = partition
        self.cliques = cliques
        self._cell_csr = cell_csr
        self._cell_rcsr = cell_rcsr
        self.customize_stats = customize_stats
        self.customized_cells = customized_cells
        # Per-cell intra-cell weight fingerprints captured when the
        # cliques were computed; recustomized() skips cells whose
        # fingerprint still matches the target network (no-op cells).
        # Deserialized overlays start empty and recompute conservatively.
        self._cell_sigs: dict[int, bytes] = {}
        self._assemble(undercut, _flat)

    # ------------------------------------------------------------------
    # Construction / customization
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network,
        partition: Partition | None = None,
        cell_capacity: int | None = None,
    ) -> "OverlayGraph":
        """Partition (if needed) and customize every cell."""
        if partition is None:
            partition = partition_snapshot(network, cell_capacity)
        stats = SearchStats()
        cliques: list[dict] = []
        cell_csr: list = []
        cell_rcsr: list = []
        for cell in range(partition.num_cells):
            fcsr, rcsr = cls._cell_graphs(network, partition, cell)
            cell_csr.append(fcsr)
            cell_rcsr.append(rcsr)
            cliques.append(cls._customize_cell(partition, cell, fcsr, stats))
        overlay = cls(
            network, partition, cliques, cell_csr, cell_rcsr,
            stats, partition.num_cells,
        )
        sigs = overlay._cell_sigs
        for cell, members in enumerate(partition.cells):
            sigs[cell] = _cell_signature(network, members)
        return overlay

    @staticmethod
    def _cell_graphs(network, partition: Partition, cell: int):
        """One cell's CSR snapshots (forward, reversed)."""
        fcsr = CSRGraph.from_network(_CellView(network, partition.cells[cell]))
        return fcsr, _reversed_csr(fcsr)

    @staticmethod
    def _customize_cell(partition: Partition, cell: int, fcsr, stats) -> dict:
        """Compute one cell's pruned boundary clique.

        One truncated SSMD tree per boundary node, over the cell-induced
        subgraph only; a pair whose tree path runs through another
        boundary node of the cell (with strictly positive prefix and
        remainder) is pruned — the surviving arcs compose to the same
        distances, so the overlay stays exact while much sparser than a
        full clique.  A path's prefix up to a node *is* that node's tree
        label, so pruning reads labels along the parent pointers and
        only kept arcs become :class:`PathResult` objects.

        The trees grow as rows of one batched numpy sweep when numpy
        imports and the cell snapshot is
        :attr:`~repro.search.vectorized.VecGraph.strict` (the rule
        :class:`~repro.search.kernels.CSRSharedTreeProcessor` uses: the
        sweep then reproduces the heap's labels and parents, so the
        clique is identical), and one scalar heap at a time otherwise.
        """
        boundary = partition.boundary[cell]
        if len(boundary) > 1 and _np is not None:
            vec = VecGraph(fcsr)
            if vec.strict:
                return _swept_clique(vec, boundary, stats)
        return _heap_clique(fcsr, boundary, stats)

    def touched_cells(self, edges: Iterable[Sequence[NodeId]]) -> set[int]:
        """Cells whose cliques depend on the given edges.

        Cut edges (endpoints in different cells) touch no clique — their
        new weight only needs the flat rows of their two cells refreshed,
        which :meth:`recustomized` does for every edge in its
        ``changed_edges``.

        Parameters
        ----------
        edges:
            ``(u, v)`` or ``(u, v, weight)`` tuples.
        """
        touched: set[int] = set()
        for edge in edges:
            u, v = edge[0], edge[1]
            cu = self.partition.cell_index(u)
            cv = self.partition.cell_index(v)
            if cu == cv:
                touched.add(cu)
        return touched

    def recustomized(
        self,
        cells: Iterable[int] | None = None,
        changed_edges: Iterable[Sequence[NodeId]] | None = None,
    ) -> "OverlayGraph":
        """A new overlay with only the given cells' cliques recomputed.

        The headline incremental-customization path: after re-weighting
        edges, recompute the touched cells (see :meth:`touched_cells`)
        against the network's *current* weights and share every other
        cell's clique tables and CSR snapshots with this instance.  The
        result is byte-identical (see :func:`dumps_overlay`) to a
        from-scratch :func:`build_overlay` on the re-weighted network.

        Parameters
        ----------
        cells:
            Cell indices to recustomize; ``None`` recustomizes all.
        changed_edges:
            The ``(u, v)`` / ``(u, v, weight)`` tuples the re-weight
            touched, when the caller knows them (e.g.
            :meth:`repro.service.serving.ServingStack.reweight`); when
            given, it must name *every* edge whose weight moved.  Keeps
            the refresh O(change): :attr:`undercut` is re-examined on
            those edges only, and only the recomputed cells and the
            cells at either end of a listed edge are re-flattened — the
            other cells' flat segments (clique and cut arcs) are copied
            from this overlay.  Omitted, every edge is examined, every
            cut-arc weight re-read and every cell re-flattened — which
            is also what a list shorter than the mutations the network
            has seen since this overlay read it gets (an out-of-band
            change, a skipped epoch; counted by ``network.version``).

        Raises
        ------
        GraphError
            For an out-of-range cell index.
        """
        return self.recustomized_on(
            self.network, cells=cells, changed_edges=changed_edges
        )

    def recustomized_on(
        self,
        network,
        cells: Iterable[int] | None = None,
        changed_edges: Iterable[Sequence[NodeId]] | None = None,
    ) -> "OverlayGraph":
        """:meth:`recustomized`, but binding the result to ``network``.

        The epoch-handoff entry point of
        :meth:`~repro.service.serving.ServingStack.reweight`:
        ``network`` is a *snapshot* —
        a copy of :attr:`network` with the re-weights already applied —
        and the returned overlay reads every weight from that snapshot
        while this instance (and the network queries are still in
        flight against) stays untouched.  Correctness requires exactly
        what :meth:`recustomized` requires of an in-place mutation:
        every edge whose weight differs between the two networks is
        either a cut edge or lies inside one of ``cells``.  Untouched
        cells share their clique tables and per-cell CSR snapshots with
        this instance (their intra-cell weights are identical by the
        requirement above); cut-arc weights are re-read from
        ``network`` — all of them, or with ``changed_edges`` those of
        the listed edges' cells.

        Raises
        ------
        GraphError
            For an out-of-range cell index, or a snapshot whose node
            set does not match the partition.
        """
        partition = self.partition
        if cells is None:
            touched = set(range(partition.num_cells))
        else:
            touched = set(cells)
            for cell in touched:
                if not 0 <= cell < partition.num_cells:
                    raise GraphError(f"unknown cell index {cell}")
        if network is not self.network and len(network) != partition.num_nodes:
            raise GraphError(
                "snapshot network does not match the partitioned node set"
            )
        if changed_edges is not None:
            changed_edges = list(changed_edges)
            moved = getattr(network, "version", None)
            if moved is None or self._version is None or not (
                0 <= moved - self._version <= len(changed_edges)
            ):
                changed_edges = None  # cannot be the whole story
        stats = SearchStats()
        cliques = list(self.cliques)
        cell_csr = list(self._cell_csr)
        cell_rcsr = list(self._cell_rcsr)
        # No-op cell skip: a touched cell whose intra-cell weight
        # fingerprint is unchanged on the target network (e.g. a
        # re-weight that restored the previous value, or a wide batch
        # that only grazed the cell's cut edges) keeps its clique tables
        # and per-cell CSR snapshots — they are still exact for the new
        # weights by the fingerprint match.
        old_sigs = self._cell_sigs
        new_sigs = dict(old_sigs)
        work: list[int] = []
        for cell in sorted(touched):
            sig = _cell_signature(network, partition.cells[cell])
            if cell in old_sigs and old_sigs[cell] == sig:
                continue
            new_sigs[cell] = sig
            work.append(cell)
        for cell in work:
            fcsr, rcsr = self._cell_graphs(network, partition, cell)
            cell_csr[cell] = fcsr
            cell_rcsr[cell] = rcsr
            cliques[cell] = self._customize_cell(partition, cell, fcsr, stats)
        undercut = None
        if changed_edges is not None and self.undercut is not None:
            undercut = _undercut(network, changed_edges, self.undercut)
        result = OverlayGraph(
            network, partition, cliques, cell_csr, cell_rcsr, stats,
            len(work), undercut=undercut,
            _flat=self._reusable_flat(work, changed_edges),
        )
        result._cell_sigs = new_sigs
        return result

    def _reusable_flat(self, touched, changed_edges) -> tuple | None:
        """``(self, dirty cells)`` for the recustomized copy's :meth:`_assemble`.

        A cell's flat rows hold its clique arcs and its boundary nodes'
        cut arcs, so they are stale exactly for the recomputed cells
        and the cells at either end of a changed edge; ``None`` (unknown
        changed edges) re-flattens everything.
        """
        if changed_edges is None:
            return None
        cell_of = self.partition.cell_of
        dirty = set(touched)
        for edge in changed_edges:
            dirty.add(cell_of[edge[0]])
            dirty.add(cell_of[edge[1]])
        return self, dirty

    def _assemble(
        self, undercut: dict | None = None, flat: tuple | None = None
    ) -> None:
        """Freeze the boundary overlay into flat CSR arrays.

        ``flat`` is :meth:`_reusable_flat`'s pair: every cell outside
        its dirty set copies the previous overlay's flat segment instead
        of walking its cliques again, which keeps a one-cell
        recustomization O(that cell) here too.
        """
        partition = self.partition
        network = self.network
        if flat is None:
            old, dirty = None, range(partition.num_cells)
            boundary_ids = tuple(
                b for cell_boundary in partition.boundary for b in cell_boundary
            )
            self.boundary_ids = boundary_ids
            self.boundary_index = {b: i for i, b in enumerate(boundary_ids)}
            self._bxs = [network.position(b).x for b in boundary_ids]
            self._bys = [network.position(b).y for b in boundary_ids]
        else:
            old, dirty = flat
            self.boundary_ids = old.boundary_ids
            self.boundary_index = old.boundary_index
            self._bxs = old._bxs
            self._bys = old._bys
        index = self.boundary_index
        offsets = [0]
        targets: list[int] = []
        weights: list[float] = []
        kinds: list[int] = []
        cell_of = partition.cell_of
        rows = 0
        for cell, cell_boundary in enumerate(partition.boundary):
            first, rows = rows, rows + len(cell_boundary)
            if cell not in dirty:
                lo, hi = old.over_offsets[first], old.over_offsets[rows]
                shift = len(targets) - lo
                offsets.extend(
                    o + shift for o in old.over_offsets[first + 1 : rows + 1]
                )
                targets.extend(old.over_targets[lo:hi])
                weights.extend(old.over_weights[lo:hi])
                kinds.extend(old.over_kinds[lo:hi])
                continue
            clique = self.cliques[cell]
            for b in cell_boundary:
                for b2, path in clique[b].items():
                    targets.append(index[b2])
                    weights.append(path.distance)
                    kinds.append(cell)
                for v, w in network.neighbors(b).items():
                    if cell_of[v] != cell:
                        targets.append(index[v])
                        weights.append(w)
                        kinds.append(-1)
                offsets.append(len(targets))
        self.over_offsets = offsets
        self.over_targets = targets
        self.over_weights = weights
        self.over_kinds = kinds
        edges = getattr(network, "edges", None)
        if undercut is None and edges is not None:
            undercut = _undercut(network, edges())
        self.undercut = undercut
        self._version = getattr(network, "version", None)
        # What _goal needs of them, or None when sweeps cannot be
        # goal-directed: (tail, head, weight) per arc, and hop[i][j],
        # the straight line from arc i's head to arc j's tail plus
        # arc j's weight.
        self._shortcuts = None
        if undercut is not None and len(undercut) <= MAX_UNDERCUT_ARCS:
            position = network.position
            arcs = [
                (position(u), position(v), w) for (u, v), w in undercut.items()
            ]
            self._shortcuts = arcs, [
                [head.distance_to(tail) + w for tail, _head, w in arcs]
                for _tail, head, _w in arcs
            ]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def metric(self) -> bool:
        """Whether every edge weight is >= its Euclidean length."""
        return self.undercut == {}

    @property
    def num_cells(self) -> int:
        """Number of cells."""
        return self.partition.num_cells

    @property
    def num_boundary_nodes(self) -> int:
        """Nodes participating in the overlay."""
        return len(self.boundary_ids)

    @property
    def num_clique_arcs(self) -> int:
        """Kept clique shortcut arcs (after pruning)."""
        return sum(1 for kind in self.over_kinds if kind >= 0)

    @property
    def num_cut_arcs(self) -> int:
        """Cut arcs in the overlay (each stored arc direction counts)."""
        return sum(1 for kind in self.over_kinds if kind < 0)

    def __contains__(self, node: NodeId) -> bool:
        """Whether ``node`` belongs to the partitioned network."""
        return node in self.partition

    def __repr__(self) -> str:
        return (
            f"OverlayGraph(cells={self.num_cells}, "
            f"boundary={self.num_boundary_nodes}, "
            f"clique_arcs={self.num_clique_arcs}, "
            f"cut_arcs={self.num_cut_arcs})"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _local(
        self, cell: int, node: NodeId, targets, stats: SearchStats,
        reverse: bool = False,
    ) -> _Local:
        """Intra-cell search from ``node`` (``reverse``: *to* it) over ``targets``."""
        csr = (self._cell_rcsr if reverse else self._cell_csr)[cell]
        dist, path_to = csr_dijkstra_tree(csr, node, targets, stats)
        if reverse:
            return _Local(dist, lambda target: _flip(path_to(target)))
        return _Local(dist, path_to)

    def _seeds(self, cell: int, fwd: _Local) -> list[tuple[int, float]]:
        """``(boundary index, local distance)`` of the reached source boundary."""
        index = self.boundary_index
        dist = fwd.dist
        return [
            (index[b], dist[b]) for b in self.partition.boundary[cell] if b in dist
        ]

    def _sweep(
        self, seeds, stats, target_offsets=None, best_bound=_INF, goal=None,
        stop=None,
    ):
        """:func:`~repro.search.kernels.overlay_sweep` over this overlay.

        ``goal`` is :meth:`_goal`'s pair.
        """
        point, shortcuts = goal or (None, ())
        return overlay_sweep(
            self.over_offsets, self.over_targets, self.over_weights,
            self.over_kinds, seeds,
            num_nodes=len(self.boundary_ids),
            target_offsets=target_offsets,
            best_bound=best_bound,
            stats=stats,
            goal=point,
            xs=self._bxs,
            ys=self._bys,
            stop=stop,
            shortcuts=shortcuts,
        )

    def _goal(self, destination: NodeId) -> tuple | None:
        """What a point sweep towards ``destination`` aims at.

        ``((x, y), shortcuts)`` for
        :func:`~repro.search.kernels.overlay_sweep`, or ``None`` when
        the sweep cannot be goal-directed (more than
        :data:`MAX_UNDERCUT_ARCS` arcs undercut geometry, or nobody
        could look).  A way to the destination is at least its straight
        line unless it takes an arc of :attr:`undercut`, so each of
        those contributes its tail's position and the least the rest of
        the way costs from there: the arc's weight plus the same bound
        from its head, chains of such arcs included (the closure below
        is Bellman-Ford over a handful of arcs).  The minimum over the
        direct line and the lines to those tails is the distance in a
        metric that every edge weight dominates, hence consistent.
        """
        if self._shortcuts is None:
            return None
        arcs, hops = self._shortcuts
        p = self.network.position(destination)
        rest = [head.distance_to(p) for _tail, head, _w in arcs]
        improved = bool(rest)
        while improved:
            improved = False
            for i, row in enumerate(hops):
                for j, hop in enumerate(row):
                    if hop + rest[j] < rest[i]:
                        rest[i] = hop + rest[j]
                        improved = True
        # An arc that does not lead towards the destination faster than
        # the straight line from its tail can never be the minimum.
        return (p.x, p.y), tuple(
            (tail.x, tail.y, w + r)
            for (tail, _head, w), r in zip(arcs, rest)
            if w + r < tail.distance_to(p)
        )

    def _pair(
        self, source, destination, fwd, bwd, seeds, target_offsets, goal, stats
    ) -> PathResult | None:
        """One early-stopping point sweep; ``None`` when unreachable.

        Goal-directed when ``goal`` (see :meth:`_goal`) is given.
        ``fwd`` carries the intra-cell direct candidate when both
        endpoints share a cell (it bounds the sweep from the start).
        """
        direct = fwd.dist.get(destination, _INF)
        best, meet, _dist, parent, via, _done = self._sweep(
            seeds, stats, target_offsets=target_offsets, best_bound=direct,
            goal=goal,
        )
        if meet >= 0:
            return self._stitch(
                source, destination, fwd, bwd, meet, parent, via
            )
        return fwd.path(destination) if direct < _INF else None

    def route(
        self,
        source: NodeId,
        destination: NodeId,
        stats: SearchStats | None = None,
    ) -> PathResult:
        """Two-phase point query: local cells + one overlay sweep.

        Raises
        ------
        NoPathError
            If the destination is unreachable.
        UnknownNodeError
            If either endpoint is missing from the network.
        """
        if stats is None:
            stats = SearchStats()
        cs = self.partition.cell_index(source)
        ct = self.partition.cell_index(destination)
        if source == destination:
            return PathResult(source, source, (source,), 0.0)
        boundary = self.partition.boundary
        fwd = self._local(
            cs, source,
            boundary[cs] + ((destination,) if ct == cs else ()), stats,
        )
        bwd = self._local(ct, destination, boundary[ct], stats, reverse=True)
        index = self.boundary_index
        path = self._pair(
            source, destination, fwd, bwd, self._seeds(cs, fwd),
            {index[b]: d for b, d in bwd.dist.items()},
            self._goal(destination), stats,
        )
        if path is None:
            raise NoPathError(source, destination)
        return path

    def _pairwise(self, destinations: Sequence[NodeId]) -> bool:
        """Whether :meth:`many_to_many` answers pair by pair.

        Decided by what the query shows on the wire — ``|T|`` — and by
        whether the weights allow goal direction (:meth:`_goal`), never
        by which pair is the true one: without the goal direction a
        point sweep settles most of what the shared sweep does, ``|T|``
        times over.
        """
        return (
            self._shortcuts is not None
            and len(destinations) <= PAIR_SWEEP_MAX_TARGETS
        )

    def many_to_many(
        self,
        sources: Sequence[NodeId],
        destinations: Sequence[NodeId],
        stats: SearchStats | None = None,
    ) -> dict[tuple[NodeId, NodeId], PathResult]:
        """All-pairs shortest paths over the overlay (MSMD primitive).

        One backward local search per destination and one forward local
        search per source; the boundary phase is either one
        goal-directed point sweep per pair (few destinations, weights
        that allow goal direction; see :meth:`_pairwise`) or one shared
        sweep per source that runs until every destination cell's
        boundary has settled.  Both produce the same table; unreachable
        pairs are omitted (mirrors
        :func:`~repro.search.kernels.csr_ch_many_to_many`).
        """
        if stats is None:
            stats = SearchStats()
        partition = self.partition
        index = self.boundary_index
        src_cells = {s: partition.cell_index(s) for s in sources}
        dst_cells = {t: partition.cell_index(t) for t in destinations}
        boundary = partition.boundary
        backs = {
            t: self._local(
                dst_cells[t], t, boundary[dst_cells[t]], stats, reverse=True
            )
            for t in destinations
        }
        offsets = {
            t: {index[b]: d for b, d in backs[t].dist.items()}
            for t in destinations
        }
        pairwise = self._pairwise(destinations)
        stop = None if pairwise else {i for o in offsets.values() for i in o}
        goals = {t: self._goal(t) for t in destinations} if pairwise else {}
        results: dict[tuple[NodeId, NodeId], PathResult] = {}
        for s in sources:
            cs = src_cells[s]
            extra = tuple(t for t in destinations if dst_cells[t] == cs)
            fwd = self._local(cs, s, boundary[cs] + extra, stats)
            seeds = self._seeds(cs, fwd)
            if pairwise:
                for t in destinations:
                    path = self._pair(
                        s, t, fwd, backs[t], seeds, offsets[t], goals[t],
                        stats,
                    )
                    if path is not None:
                        results[(s, t)] = path
                continue
            _best, _meet, dist, parent, via, done = self._sweep(
                seeds, stats, stop=stop
            )
            for t in destinations:
                best = fwd.dist.get(t, _INF)
                meet = -1
                for bi, tail in offsets[t].items():
                    if done[bi]:
                        candidate = float(dist[bi]) + tail
                        if candidate < best:
                            best = candidate
                            meet = bi
                if meet >= 0:
                    results[(s, t)] = self._stitch(
                        s, t, fwd, backs[t], meet, parent, via
                    )
                elif best < _INF:
                    results[(s, t)] = fwd.path(t)
        return results

    def _stitch(
        self, source, destination, fwd, bwd, meet, parent, via
    ) -> PathResult:
        """Expand an overlay tree chain into a full node path.

        The distance is the left fold of the path's arc weights from
        the source, the label Dijkstra gives the destination, not the
        sweep's meet sum: the same path then reports the same distance
        whichever sweep found it and wherever the sweeps met.
        """
        ids = self.boundary_ids
        chain = [meet]
        node = meet
        while parent[node] >= 0:
            node = parent[node]
            chain.append(node)
        chain.reverse()
        first = ids[chain[0]]
        nodes = list(fwd.path(first).nodes)
        folded = len(nodes) - 1
        for prev, curr in zip(chain, chain[1:]):
            kind = via[curr]
            if kind < 0:  # cut arc: a real edge
                nodes.append(ids[curr])
            else:  # clique arc: splice the stored intra-cell path
                nodes.extend(self.cliques[kind][ids[prev]][ids[curr]].nodes[1:])
        nodes.extend(bwd.path(ids[meet]).nodes[1:])
        distance = fwd.dist[first]  # the local search's left fold
        neighbors = self.network.neighbors
        for u, v in zip(nodes[folded:], nodes[folded + 1:]):
            distance += neighbors(u)[v]
        return PathResult(
            source=source,
            destination=destination,
            nodes=tuple(nodes),
            distance=distance,
        )


def _undercut(network, edges, known: dict | None = None) -> dict:
    """``known`` after re-examining ``edges``: :attr:`OverlayGraph.undercut`.

    ``edges`` are ``(u, v, ...)`` tuples; an arc whose current weight
    is at least its endpoints' Euclidean distance leaves the map, one
    below it enters with that weight (an undirected edge as both of
    its arcs).
    """
    arcs = dict(known or ())
    both = not getattr(network, "directed", False)
    for edge in edges:
        u, v = edge[0], edge[1]
        w = network.neighbors(u)[v]
        gap = network.position(u).distance_to(network.position(v))
        for arc in ((u, v), (v, u)) if both else ((u, v),):
            if w >= gap - 1e-12 * (1.0 + gap):
                arcs.pop(arc, None)
            else:
                arcs[arc] = w
    return arcs


def _heap_clique(csr: CSRGraph, boundary: Sequence[NodeId], stats) -> dict:
    """:meth:`OverlayGraph._customize_cell` one scalar heap tree at a time.

    An arc to ``b2`` is pruned when a strict intermediate of its tree
    path is a boundary node ``m`` with ``0 < label(m) < label(b2)`` —
    the two halves are then strictly shorter boundary pairs, so kept
    arcs compose to the same distance.  ``m`` settles before ``b2``, so
    its label is in ``reached``.
    """
    bidx = [csr.index_of[b] for b in boundary]
    clique: dict[NodeId, dict[NodeId, PathResult]] = {}
    for b, s in zip(boundary, bidx):
        remaining = set(bidx)
        remaining.discard(s)
        reached, parent = _shared_tree(csr, s, remaining, stats)
        kept: dict[NodeId, PathResult] = {}
        for b2, t in zip(boundary, bidx):
            total = reached.get(t)
            if total is None:
                continue
            node = parent[t]
            while node != s and not 0.0 < reached.get(node, 0.0) < total:
                node = parent[node]
            if node == s:
                kept[b2] = _path_from_parents(csr, parent, s, t, total)
        clique[b] = kept
    return clique


def _swept_clique(vec: VecGraph, boundary: Sequence[NodeId], stats) -> dict:
    """:meth:`OverlayGraph._customize_cell` as one batched sweep.

    Row ``i`` of the sweep is boundary node ``i``'s tree.  Pruning is
    :func:`_heap_clique`'s rule over every row at once: pointer jumping
    along the parent table carries, to each node, the smallest positive
    label of a boundary node on its path from the root (itself
    included); an arc to ``b2`` is kept when that value at ``b2``'s
    parent is not below ``label(b2)``.
    """
    csr = vec.csr
    n = csr.num_nodes
    bidx = [csr.index_of[b] for b in boundary]
    rows = len(bidx)
    src = _np.array(bidx, dtype=_np.int64)
    dist = _sweep_tables(vec, src, [bidx] * rows, stats)
    parent = _tree_parents(csr, dist)
    is_boundary = _np.zeros(n, dtype=bool)
    is_boundary[src] = True
    low = _np.where(is_boundary & (dist > 0.0), dist, _INF).ravel()
    up = _np.where(
        parent >= 0, parent + (_np.arange(rows) * n)[:, None], -1
    ).ravel()
    live = _np.flatnonzero(up >= 0)
    while live.size:
        hop = up[live]
        low[live] = _np.minimum(low[live], low[hop])
        up[live] = up[hop]
        live = live[up[live] >= 0]
    # pred[i, j]: boundary node j's parent in row i (-1: the row's root,
    # or unreached)
    pred = parent[:, src]
    via = low.reshape(rows, n)[
        _np.arange(rows)[:, None], _np.maximum(pred, 0)
    ]
    totals = dist[:, src]
    keep = (pred >= 0) & ~(via < totals)
    clique: dict[NodeId, dict[NodeId, PathResult]] = {}
    for b, s, row, flags, labels in zip(
        boundary, bidx, parent.tolist(), keep.tolist(), totals.tolist()
    ):
        clique[b] = {
            b2: _path_from_parents(csr, row, s, t, total)
            for b2, t, flag, total in zip(boundary, bidx, flags, labels)
            if flag
        }
    return clique


def _cell_signature(network, members: Sequence[NodeId]) -> bytes:
    """Order-sensitive fingerprint of a cell's intra-cell arc weights.

    Digests the ``(u, v, w)`` triples in member order and adjacency
    insertion order — exactly the arcs a cell's clique depends on (cut
    arcs are excluded; their weights live only in the flat overlay
    arrays, which a refresh re-reads).  :meth:`OverlayGraph
    .recustomized` compares fingerprints captured at customization time
    against the target network to skip no-op cells.  A collision would
    wrongly skip a cell and silently serve stale distances, so this is
    a 128-bit ``blake2b`` over the exact ``repr`` of the arc list (ids
    and shortest-roundtrip float text are unambiguous) rather than
    Python's 64-bit ``hash()``, whose structured collisions on numeric
    tuples would turn a performance shortcut into a correctness bet.
    Deserialized overlays carry no fingerprints and always recompute.
    """
    mset = frozenset(members)
    arcs = []
    for u in members:
        for v, w in network.neighbors(u).items():
            if v in mset:
                arcs.append((u, v, w))
    return blake2b(repr(arcs).encode(), digest_size=16).digest()


def build_overlay(
    network,
    partition: Partition | None = None,
    cell_capacity: int | None = None,
) -> OverlayGraph:
    """Partition ``network`` (unless given) and customize every cell.

    See :class:`OverlayGraph`; this is the non-memoized entry point.
    """
    return OverlayGraph.build(
        network, partition=partition, cell_capacity=cell_capacity
    )


# Per-network memo: network -> (version, {cell capacity: weakref}).
# The overlays are held *weakly*: an OverlayGraph strongly references its
# network, so a strong global cache would pin every network (and its
# overlay) for process lifetime — the classic WeakKeyDictionary
# value-references-key leak.  Callers that want reuse hold the snapshot
# (the engine registry's prepare/route contract and the serving layer's
# PreprocessingCache both do).
_OVERLAYS: "weakref.WeakKeyDictionary[object, tuple[int, dict]]" = (
    weakref.WeakKeyDictionary()
)
_OVERLAY_LOCK = threading.Lock()


def overlay_snapshot(
    network, cell_capacity: int | None = None
) -> OverlayGraph:
    """The (memoized) :class:`OverlayGraph` of ``network``.

    Memoized against the network's ``version`` mutation stamp like
    :func:`~repro.network.csr.csr_snapshot`, for as long as *some*
    caller still holds the snapshot (the memo is weak; see above); any
    mutation triggers a full rebuild on the next call — use
    :meth:`OverlayGraph.recustomized` (e.g. via
    :meth:`repro.service.serving.ServingStack.reweight`) to pay only
    for the touched cells instead.
    """
    version = getattr(network, "version", None)
    if version is None:
        return build_overlay(network, cell_capacity=cell_capacity)
    with _OVERLAY_LOCK:
        memo = _OVERLAYS.get(network)
        if memo is not None and memo[0] == version:
            ref = memo[1].get(cell_capacity)
            overlay = ref() if ref is not None else None
            if overlay is not None:
                return overlay
    overlay = build_overlay(network, cell_capacity=cell_capacity)
    with _OVERLAY_LOCK:
        memo = _OVERLAYS.get(network)
        if memo is None or memo[0] != version:
            memo = (version, {})
            _OVERLAYS[network] = memo
        memo[1][cell_capacity] = weakref.ref(overlay)
    return overlay


# ----------------------------------------------------------------------
# MSMD processor (the overlay-csr row of repro.search.ENGINES)
# ----------------------------------------------------------------------
class CSROverlayProcessor(PreprocessingProcessor):
    """Partition-overlay MSMD processor (``"overlay-csr"``).

    The per-network artifact is the customized :class:`OverlayGraph`
    (built once, shared via the serving layer's
    :class:`~repro.service.cache.PreprocessingCache`).  Matches the CH
    processors' batch contract: an unreachable pair raises
    :class:`~repro.exceptions.NoPathError`.
    """

    name = "overlay-csr"

    def __init__(
        self,
        overlay: OverlayGraph | None = None,
        cell_capacity: int | None = None,
    ) -> None:
        super().__init__(artifact=overlay)
        self._cell_capacity = cell_capacity

    def _build(self, network) -> OverlayGraph:
        return overlay_snapshot(network, cell_capacity=self._cell_capacity)

    def process(self, network, sources, destinations) -> MSMDResult:
        """Answer S x T via local searches plus overlay sweeps."""
        _validate(sources, destinations)
        overlay = self.artifact_for(network)
        result = MSMDResult()
        paths = overlay.many_to_many(sources, destinations, stats=result.stats)
        for s in sources:
            for t in destinations:
                path = paths.get((s, t))
                if path is None:
                    raise NoPathError(s, t)
                result.paths[(s, t)] = path
        result.searches = len(sources) + len(destinations)
        return result


def dumps_overlay(overlay: OverlayGraph) -> str:
    """Render an overlay's partition and cliques as text.

    Two overlays with identical partitions and cliques render
    byte-identically — the equality witness the recustomization and
    epoch tests rely on.  (The persistent format is
    :func:`repro.service.blob.write_overlay_blob`, which carries the
    same content.)  Node ids must be integers, the same restriction as
    :mod:`repro.network.io`.
    """
    from repro.network.io import partition_cell_lines

    lines = ["# repro overlay v1"]
    lines.append("kernel csr")
    lines.append(f"capacity {overlay.partition.cell_capacity}")
    lines.extend(partition_cell_lines(overlay.partition))
    for cell, clique in enumerate(overlay.cliques):
        for b in overlay.partition.boundary[cell]:
            for path in clique[b].values():
                nodes = " ".join(str(n) for n in path.nodes)
                lines.append(f"clique {cell} {path.distance!r} {nodes}")
    return "\n".join(lines) + "\n"
