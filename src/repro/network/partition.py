"""Deterministic multilevel graph partitioner (grow + refine).

Splits a road network into bounded-size *cells*: the CCAM storage
pages of :class:`~repro.network.storage.PageStore` (experiment E2's
paged I/O), so a page layout *is* a partition with matching capacity.

Partitioning runs in two deterministic phases:

* **grow** — either *inertial* recursive bisection (the default: split
  the node set at the median of its wider coordinate axis until every
  part fits ``cell_capacity``, which yields compact, small-perimeter
  cells on spatially embedded networks) or breadth-first packing from
  unassigned seed nodes in insertion order (``method="bfs"``, the
  classic CCAM clustering; also the automatic fallback for networks
  without positions);
* **refine** — a bounded number of local-improvement rounds: a node
  moves to the neighboring cell holding more of its neighbors whenever
  the move strictly reduces the cut and the target cell has room.  Each
  move reduces the cut by at least one edge, so refinement monotonically
  improves the grow phase's cut.

Both phases look only at the adjacency *structure* (never at edge
weights), so a partition survives traffic re-weighting unchanged.
:func:`partition_snapshot` memoizes partitions against the
network's mutation ``version`` exactly like
:func:`~repro.network.csr.csr_snapshot` does for CSR snapshots.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from weakref import WeakKeyDictionary

from repro.exceptions import GraphError, UnknownNodeError
from repro.network.graph import NodeId

__all__ = [
    "Partition",
    "default_cell_capacity",
    "partition_network",
    "partition_snapshot",
]


@dataclass(frozen=True)
class Partition:
    """A node partition of one road network into bounded-size cells.

    Attributes
    ----------
    cell_capacity:
        The balance bound: every cell holds at most this many nodes.
    cells:
        ``cells[i]`` is the tuple of nodes in cell ``i``, in network
        insertion order (deterministic).
    cell_of:
        Inverse mapping ``{node: cell index}``.
    boundary:
        ``boundary[i]`` is the tuple of cell ``i``'s boundary nodes — a
        node is boundary when it has an incident cut edge in either
        direction.  Subset of ``cells[i]``, same order.
    cut_edges:
        Every edge whose endpoints lie in different cells, as ``(u, v)``
        pairs in ``network.edges()`` order — each cut edge is accounted
        exactly once (an undirected edge appears once, not twice).
    """

    cell_capacity: int
    cells: tuple[tuple[NodeId, ...], ...]
    cell_of: dict[NodeId, int]
    boundary: tuple[tuple[NodeId, ...], ...]
    cut_edges: tuple[tuple[NodeId, NodeId], ...]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of cells."""
        return len(self.cells)

    @property
    def num_nodes(self) -> int:
        """Number of partitioned nodes (sum of cell sizes)."""
        return len(self.cell_of)

    @property
    def num_cut_edges(self) -> int:
        """Number of cut edges (each counted once)."""
        return len(self.cut_edges)

    @property
    def num_boundary_nodes(self) -> int:
        """Total boundary nodes over all cells."""
        return sum(len(b) for b in self.boundary)

    def cell_index(self, node: NodeId) -> int:
        """Cell index holding ``node``.

        Raises
        ------
        UnknownNodeError
            If the node was not part of the partitioned network.
        """
        try:
            return self.cell_of[node]
        except KeyError:
            raise UnknownNodeError(node) from None

    def members(self, cell: int) -> tuple[NodeId, ...]:
        """Nodes of cell ``cell``.

        Raises
        ------
        GraphError
            For an out-of-range cell index.
        """
        if not 0 <= cell < len(self.cells):
            raise GraphError(f"unknown cell index {cell}")
        return self.cells[cell]

    def __contains__(self, node: NodeId) -> bool:
        """Whether ``node`` was part of the partitioned network."""
        return node in self.cell_of

    def __repr__(self) -> str:
        return (
            f"Partition(cells={self.num_cells}, "
            f"capacity={self.cell_capacity}, "
            f"boundary={self.num_boundary_nodes}, "
            f"cut={self.num_cut_edges})"
        )

    # ------------------------------------------------------------------
    # Construction from explicit cells
    # ------------------------------------------------------------------
    @classmethod
    def from_cells(
        cls,
        network,
        cells: Sequence[Sequence[NodeId]],
        cell_capacity: int,
    ) -> "Partition":
        """Build a :class:`Partition` from explicit cell membership.

        Validates that ``cells`` partition the network's node set exactly
        and respect ``cell_capacity``, then derives the boundary sets and
        cut edges from the network's adjacency.

        Raises
        ------
        GraphError
            If the cells do not partition the node set or violate the
            capacity bound.
        """
        cell_of: dict[NodeId, int] = {}
        for i, members in enumerate(cells):
            if len(members) > cell_capacity:
                raise GraphError(
                    f"cell {i} holds {len(members)} nodes "
                    f"(capacity {cell_capacity})"
                )
            for node in members:
                if node in cell_of:
                    raise GraphError(f"node {node!r} assigned to two cells")
                if node not in network:
                    raise UnknownNodeError(node)
                cell_of[node] = i
        if len(cell_of) != network.num_nodes:
            raise GraphError(
                f"cells cover {len(cell_of)} of {network.num_nodes} nodes"
            )
        # Derive cut edges from the adjacency scan (not ``edges()``, so
        # any read view works); the undirected dedup mirrors
        # ``RoadNetwork.edges()`` exactly — first stored direction wins.
        boundary_flags: set[NodeId] = set()
        cut_edges: list[tuple[NodeId, NodeId]] = []
        directed = bool(getattr(network, "directed", False))
        seen: set[tuple[NodeId, NodeId]] = set()
        for u in network.nodes():
            cu = cell_of[u]
            for v in network.neighbors(u):
                if cell_of[v] == cu:
                    continue
                if not directed:
                    if (v, u) in seen:
                        continue
                    seen.add((u, v))
                cut_edges.append((u, v))
                boundary_flags.add(u)
                boundary_flags.add(v)
        boundary = tuple(
            tuple(node for node in members if node in boundary_flags)
            for members in cells
        )
        return cls(
            cell_capacity=cell_capacity,
            cells=tuple(tuple(members) for members in cells),
            cell_of=cell_of,
            boundary=boundary,
            cut_edges=tuple(cut_edges),
        )


def default_cell_capacity(num_nodes: int) -> int:
    """Heuristic cell capacity for a network of ``num_nodes`` nodes.

    Grows as ``n^(2/3)`` — larger maps get larger cells, so the total
    boundary shrinks relative to the map — clamped to ``[4, 1024]``.
    """
    if num_nodes <= 4:
        return 4
    return max(4, min(1024, round(num_nodes ** (2.0 / 3.0) / 2)))


def _grow_inertial(network, capacity: int) -> list[list[NodeId]]:
    """Recursive coordinate bisection into cells of at most ``capacity``.

    Splits the node set at the median of whichever coordinate axis has
    the wider extent, recursing until every part fits.  Ties order by
    the other coordinate and then insertion rank, so the result is
    fully deterministic; on road-like networks the resulting cells are
    compact rectangles with near-minimal perimeter (= boundary size).
    """
    rank = {node: i for i, node in enumerate(network.nodes())}
    items = []
    for node in network.nodes():
        p = network.position(node)
        items.append((p.x, p.y, rank[node], node))
    cells: list[list[NodeId]] = []
    stack = [items]
    while stack:
        part = stack.pop()
        if len(part) <= capacity:
            part.sort(key=lambda item: item[2])
            cells.append([node for _x, _y, _r, node in part])
            continue
        xs = [item[0] for item in part]
        ys = [item[1] for item in part]
        if max(xs) - min(xs) >= max(ys) - min(ys):
            part.sort(key=lambda item: (item[0], item[1], item[2]))
        else:
            part.sort(key=lambda item: (item[1], item[0], item[2]))
        mid = len(part) // 2
        # Push the right half first so the left half is processed next
        # (depth-first, left-to-right => deterministic cell numbering).
        stack.append(part[mid:])
        stack.append(part[:mid])
    return cells


def _grow_bfs(network, capacity: int) -> list[list[NodeId]]:
    """BFS-pack nodes into cells of at most ``capacity`` members.

    Seeds iterate in insertion order; the BFS queue runs across cell
    boundaries so consecutive cells tile one region (the CCAM layout
    :class:`~repro.network.storage.PageStore` historically built
    inline).
    """
    unassigned = set(network.nodes())
    cells: list[list[NodeId]] = []
    for seed in network.nodes():
        if seed not in unassigned:
            continue
        queue = deque([seed])
        unassigned.discard(seed)
        current: list[NodeId] = []
        while queue:
            node = queue.popleft()
            if len(current) == capacity:
                cells.append(current)
                current = []
            current.append(node)
            for nbr in network.neighbors(node):
                if nbr in unassigned:
                    unassigned.discard(nbr)
                    queue.append(nbr)
        if current:
            cells.append(current)
    return cells


def _incident_cells(network, node: NodeId, cell_of: dict[NodeId, int], reverse):
    """Count ``node``'s neighbors per cell (both arc directions)."""
    counts: dict[int, int] = {}
    for nbr in network.neighbors(node):
        cell = cell_of[nbr]
        counts[cell] = counts.get(cell, 0) + 1
    if reverse is not None:
        for nbr in reverse.get(node, ()):
            cell = cell_of[nbr]
            counts[cell] = counts.get(cell, 0) + 1
    return counts


def _refine(network, cell_of: dict[NodeId, int], sizes: list[int],
            capacity: int, rounds: int) -> None:
    """Local-improvement rounds moving nodes to cut-reducing cells.

    A node moves to the neighboring cell holding strictly more of its
    incident edges than its current cell does, provided the target has
    room and the source keeps at least one node.  Ties break toward the
    lowest cell index; nodes iterate in insertion order — fully
    deterministic, and independent of edge weights.
    """
    reverse: dict[NodeId, list[NodeId]] | None = None
    if getattr(network, "directed", False):
        reverse = {}
        for u in network.nodes():
            for v in network.neighbors(u):
                reverse.setdefault(v, []).append(u)
    for _ in range(rounds):
        moved = False
        for node in network.nodes():
            home = cell_of[node]
            if sizes[home] <= 1:
                continue
            counts = _incident_cells(network, node, cell_of, reverse)
            internal = counts.get(home, 0)
            best_cell, best_count = home, internal
            for cell in sorted(counts):
                if cell == home:
                    continue
                count = counts[cell]
                if count > best_count and sizes[cell] < capacity:
                    best_cell, best_count = cell, count
            if best_cell != home:
                cell_of[node] = best_cell
                sizes[home] -= 1
                sizes[best_cell] += 1
                moved = True
        if not moved:
            break


def partition_network(
    network,
    cell_capacity: int | None = None,
    refine_rounds: int = 2,
    method: str = "inertial",
) -> Partition:
    """Partition ``network`` into cells of at most ``cell_capacity`` nodes.

    Runs the grow phase followed by ``refine_rounds`` cut-reduction
    rounds; see the module docstring.  The result depends only on the
    adjacency structure and node positions — never on edge weights — so
    re-weighting edges (traffic) leaves the partition unchanged.

    Parameters
    ----------
    network:
        Any object with the :class:`~repro.network.graph.RoadNetwork`
        read interface.
    cell_capacity:
        Balance bound (>= 1); defaults to
        :func:`default_cell_capacity` of the network size.
    refine_rounds:
        Local-improvement rounds after the grow phase; 0 keeps the raw
        grow-phase layout.
    method:
        ``"inertial"`` (default; coordinate bisection, falling back to
        BFS when the network exposes no positions) or ``"bfs"`` (pure
        adjacency packing — the historical ``PageStore`` layout when
        combined with ``refine_rounds=0``).

    Raises
    ------
    GraphError
        For a capacity below 1, negative ``refine_rounds``, or an
        unknown ``method``.
    """
    if cell_capacity is None:
        cell_capacity = default_cell_capacity(network.num_nodes)
    if cell_capacity < 1:
        raise GraphError("cell_capacity must be >= 1")
    if refine_rounds < 0:
        raise GraphError("refine_rounds must be >= 0")
    if method not in ("inertial", "bfs"):
        raise GraphError(f"unknown partition method {method!r}")
    if method == "inertial" and hasattr(network, "position"):
        grown = _grow_inertial(network, cell_capacity)
    else:
        grown = _grow_bfs(network, cell_capacity)
    cell_of = {
        node: i for i, members in enumerate(grown) for node in members
    }
    if refine_rounds and len(grown) > 1:
        sizes = [len(members) for members in grown]
        _refine(network, cell_of, sizes, cell_capacity, refine_rounds)
    # Rebuild cells in insertion order (deterministic regardless of the
    # moves refinement made); refinement never empties a cell but the
    # guard below keeps the numbering dense if that ever changes.
    rebuilt: list[list[NodeId]] = [[] for _ in grown]
    for node in network.nodes():
        rebuilt[cell_of[node]].append(node)
    rebuilt = [members for members in rebuilt if members]
    return Partition.from_cells(network, rebuilt, cell_capacity)


# Per-network memo: network -> (version stamp, {(capacity, rounds): P}).
# Weak keys so a discarded network releases its partitions; the lock only
# guards the dict (a losing racer rebuilds, which is correct and rare).
_PARTITIONS: "WeakKeyDictionary[object, tuple[int, dict]]" = WeakKeyDictionary()
_PARTITION_LOCK = threading.Lock()


def partition_snapshot(
    network,
    cell_capacity: int | None = None,
    refine_rounds: int = 2,
    method: str = "inertial",
) -> Partition:
    """The (memoized) :class:`Partition` of ``network``.

    Networks exposing a ``version`` mutation stamp are partitioned once
    per (version, capacity, rounds); any mutation triggers a rebuild on
    the next call — which, for pure re-weighting, deterministically
    reproduces the same partition (the partitioner never reads weights).
    Version-less network views are partitioned per call.
    """
    if cell_capacity is None:
        cell_capacity = default_cell_capacity(network.num_nodes)
    version = getattr(network, "version", None)
    if version is None:
        return partition_network(network, cell_capacity, refine_rounds, method)
    key = (cell_capacity, refine_rounds, method)
    with _PARTITION_LOCK:
        memo = _PARTITIONS.get(network)
        if memo is not None and memo[0] == version and key in memo[1]:
            return memo[1][key]
    partition = partition_network(network, cell_capacity, refine_rounds, method)
    with _PARTITION_LOCK:
        memo = _PARTITIONS.get(network)
        if memo is None or memo[0] != version:
            memo = (version, {})
            _PARTITIONS[network] = memo
        memo[1][key] = partition
    return partition
