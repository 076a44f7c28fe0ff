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

from repro.exceptions import UnknownNodeError
from repro.network.graph import NodeId, Point, RoadNetwork

__all__ = ["GridSpatialIndex"]


class GridSpatialIndex:
    """Uniform grid of node buckets supporting nearest/range/ring queries.

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
        keys = list(self._buckets)
        self._key_bounds = (
            min(k[0] for k in keys),
            min(k[1] for k in keys),
            max(k[0] for k in keys),
            max(k[1] for k in keys),
        )

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
        # Clamp to the populated key range so oversized boxes stay cheap.
        first_x, first_y = self._key_bounds[:2]
        last_x, last_y = self._key_bounds[2:]
        out: list[NodeId] = []
        for bx in range(max(lo_x, first_x), min(hi_x, last_x) + 1):
            inside_x = lo_x < bx < hi_x
            for by in range(max(lo_y, first_y), min(hi_y, last_y) + 1):
                bucket = self._buckets.get((bx, by))
                if bucket is None:
                    continue
                if inside_x and lo_y < by < hi_y:
                    # a bucket strictly between the box's corner keys
                    # lies inside the box: keys are monotone in position
                    out.extend(bucket)
                    continue
                for node in bucket:
                    p = self._network.position(node)
                    if min_x <= p.x <= max_x and min_y <= p.y <= max_y:
                        out.append(node)
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

