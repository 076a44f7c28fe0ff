"""Grid spatial index over road-network nodes.

The obfuscator needs fast geometric lookups to pick fake endpoints ("a node
about distance r from here", "a random node inside this box") and the
cloaking baseline needs "all nodes inside a cell".  A uniform-grid bucket
index is simple, dependency-free and fast enough for the network sizes the
experiments use.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right

from repro.exceptions import UnknownNodeError
from repro.network.graph import NodeId, Point, RoadNetwork

__all__ = ["GridSpatialIndex"]


class GridSpatialIndex:
    """Uniform grid of node buckets supporting nearest/range/ring queries.

    Box queries read *column runs*, built once: for every populated
    bucket column, its nodes in bucket order (rows ascending, insertion
    order within a bucket) with their positions beside them, and where
    each populated row of the column starts in that run.  A box is then
    one run slice per column it crosses: nodes of buckets strictly
    inside the box are taken whole, and only the buckets on its border
    are filtered by position.

    Parameters
    ----------
    network:
        The network to index.  The index snapshots node positions at
        construction time; mutate the network afterwards and the index is
        stale.
    cell_size:
        Bucket side length.  Defaults to a value that puts a handful of
        nodes in each bucket (bounding-box area / node count, square-rooted).
    """

    def __init__(self, network: RoadNetwork, cell_size: float | None = None) -> None:
        if network.num_nodes == 0:
            raise ValueError("cannot index an empty network")
        self._network = network
        min_x, min_y, max_x, max_y = network.bounding_box()
        self._origin = (min_x, min_y)
        if cell_size is None:
            # Scale to put O(1) nodes per cell; the span-based formula stays
            # sane for degenerate (collinear or single-point) layouts.
            span = max(max_x - min_x, max_y - min_y)
            if span <= 0:
                span = 1.0
            cell_size = 2.0 * span / math.sqrt(network.num_nodes)
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self._cell = cell_size
        self._buckets: dict[tuple[int, int], list[NodeId]] = {}
        for node in network.nodes():
            self._buckets.setdefault(self._key(network.position(node)), []).append(node)
        # column runs, see the class docstring: _col_keys[c] is the c-th
        # populated column; _runs[c] = (nodes, xs, ys, row keys, starts),
        # row key r's nodes being nodes[starts[i]:starts[i + 1]] where
        # rows[i] == r (starts ends with the run's length)
        self._col_keys: list[int] = []
        self._runs: list[tuple[list, list, list, list, list]] = []
        for bx, by in sorted(self._buckets):
            if not self._col_keys or self._col_keys[-1] != bx:
                self._col_keys.append(bx)
                self._runs.append(([], [], [], [], [0]))
            nodes, xs, ys, rows, starts = self._runs[-1]
            for node in self._buckets[(bx, by)]:
                p = network.position(node)
                nodes.append(node)
                xs.append(p.x)
                ys.append(p.y)
            rows.append(by)
            starts.append(len(nodes))

    @property
    def cell_size(self) -> float:
        """Bucket side length in coordinate units."""
        return self._cell

    def _key(self, p: Point) -> tuple[int, int]:
        return (
            int((p.x - self._origin[0]) // self._cell),
            int((p.y - self._origin[1]) // self._cell),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nearest_node(self, x: float, y: float) -> NodeId:
        """Node whose position is closest to ``(x, y)``.

        Scans only *populated* buckets, ordered by the minimum possible
        distance from the query point to each bucket's rectangle, pruning
        once that lower bound exceeds the best node found.  This is exact
        (the bound is a true lower bound) and stays fast even for query
        points far outside the indexed region, where ring expansion from
        the query cell would walk millions of empty cells.
        """
        target = Point(float(x), float(y))
        ranked = sorted(
            self._buckets, key=lambda cell: self._cell_lower_bound(cell, target)
        )
        best: NodeId | None = None
        best_dist = math.inf
        for cell in ranked:
            if self._cell_lower_bound(cell, target) > best_dist:
                break
            for node in self._buckets[cell]:
                d = self._network.position(node).distance_to(target)
                if d < best_dist:
                    best, best_dist = node, d
        if best is None:  # pragma: no cover - impossible on non-empty index
            raise RuntimeError("spatial index is empty")
        return best

    def _cell_lower_bound(self, cell: tuple[int, int], target: Point) -> float:
        """Smallest possible distance from ``target`` to any point in the
        rectangle covered by ``cell``."""
        min_x = self._origin[0] + cell[0] * self._cell
        min_y = self._origin[1] + cell[1] * self._cell
        dx = max(min_x - target.x, 0.0, target.x - (min_x + self._cell))
        dy = max(min_y - target.y, 0.0, target.y - (min_y + self._cell))
        return math.hypot(dx, dy)

    def nodes_in_box(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> list[NodeId]:
        """All nodes with positions inside the closed axis-aligned box.

        Nodes come out bucket by bucket (column-major over the grid, in
        insertion order within a bucket), so equal boxes give equal
        lists — seeded sampling over the result is reproducible.
        """
        lo_x, lo_y = self._key(Point(min_x, min_y))
        hi_x, hi_y = self._key(Point(max_x, max_y))
        cols = self._col_keys
        out: list[NodeId] = []
        for c in range(bisect_left(cols, lo_x), bisect_right(cols, hi_x)):
            nodes, xs, ys, rows, starts = self._runs[c]
            i = starts[bisect_left(rows, lo_y)]
            j = starts[bisect_right(rows, hi_y)]
            if lo_x < cols[c] < hi_x and lo_y < hi_y:
                # Keys are monotone in position, so this column's nodes
                # lie inside the box's x range, and so do the y values
                # of buckets strictly between the corner rows: only the
                # bottom bucket's nodes can lie below the box and only
                # the top bucket's above it.
                lo = starts[bisect_right(rows, lo_y)]
                hi = starts[bisect_left(rows, hi_y)]
                out.extend([
                    node for node, y in zip(nodes[i:lo], ys[i:lo])
                    if y >= min_y
                ])
                out.extend(nodes[lo:hi])
                out.extend([
                    node for node, y in zip(nodes[hi:j], ys[hi:j])
                    if y <= max_y
                ])
            elif i < j:
                out.extend([
                    node
                    for node, x, y in zip(nodes[i:j], xs[i:j], ys[i:j])
                    if min_x <= x <= max_x and min_y <= y <= max_y
                ])
        return out

    def nodes_within(self, x: float, y: float, radius: float) -> list[NodeId]:
        """All nodes within ``radius`` of ``(x, y)``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        center = Point(float(x), float(y))
        candidates = self.nodes_in_box(x - radius, y - radius, x + radius, y + radius)
        return [
            n
            for n in candidates
            if self._network.position(n).distance_to(center) <= radius
        ]

    def nodes_in_ring(
        self, x: float, y: float, inner: float, outer: float
    ) -> list[NodeId]:
        """All nodes at distance in ``[inner, outer]`` from ``(x, y)``."""
        if inner < 0 or outer < inner:
            raise ValueError("need 0 <= inner <= outer")
        center = Point(float(x), float(y))
        candidates = self.nodes_in_box(x - outer, y - outer, x + outer, y + outer)
        return [
            n
            for n in candidates
            if inner <= self._network.position(n).distance_to(center) <= outer
        ]

    def random_node_near(
        self,
        x: float,
        y: float,
        radius: float,
        rng: random.Random,
        exclude: set[NodeId] | None = None,
    ) -> NodeId | None:
        """A uniform random node within ``radius``, or ``None`` if none exist.

        ``exclude`` removes nodes from consideration (e.g. the true endpoint
        itself when picking fakes).
        """
        candidates = self.nodes_within(x, y, radius)
        if exclude:
            candidates = [n for n in candidates if n not in exclude]
        if not candidates:
            return None
        return rng.choice(candidates)

    def snap(self, node: NodeId) -> tuple[int, int]:
        """The grid cell of an existing node (used by the cloaking baseline)."""
        if node not in self._network:
            raise UnknownNodeError(node)
        return self._key(self._network.position(node))

    def cell_members(self, cell: tuple[int, int]) -> list[NodeId]:
        """Nodes stored in a grid cell (empty list for unknown cells)."""
        return list(self._buckets.get(cell, ()))

