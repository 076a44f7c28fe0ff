"""In-memory weighted road network.

The paper models a road network as a weighted graph ``G(N, E)`` whose nodes
carry a geographic position and whose edge weights are non-negative travel
costs (distance, time or toll).  :class:`RoadNetwork` implements exactly
that: a dictionary-of-dictionaries adjacency structure keyed by integer node
ids, with an ``(x, y)`` coordinate per node.

Networks may be directed or undirected; OPAQUE's experiments use undirected
networks (two-way streets) but the search algorithms work on both.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass

from repro.exceptions import (
    DuplicateNodeError,
    EdgeError,
    UnknownNodeError,
)

NodeId = Hashable


@dataclass(frozen=True, slots=True)
class Point:
    """A 2-D position in an arbitrary planar coordinate system."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)


class RoadNetwork:
    """A weighted graph with spatially embedded nodes.

    Parameters
    ----------
    directed:
        When ``False`` (the default, matching the paper's two-way roads),
        ``add_edge(u, v, w)`` also inserts the reverse edge ``(v, u, w)``.

    Notes
    -----
    Node ids can be any hashable value; the generators in this package use
    consecutive integers.  Edge weights must be non-negative (Dijkstra's
    precondition); self loops are rejected because they never appear on a
    shortest path and only distort the storage clustering.
    """

    def __init__(self, directed: bool = False) -> None:
        self._directed = directed
        self._positions: dict[NodeId, Point] = {}
        self._adjacency: dict[NodeId, dict[NodeId, float]] = {}
        self._edge_count = 0
        self._version = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: NodeId, x: float, y: float) -> None:
        """Add a node at position ``(x, y)``.

        Raises
        ------
        DuplicateNodeError
            If ``node_id`` already exists.
        """
        if node_id in self._positions:
            raise DuplicateNodeError(node_id)
        self._positions[node_id] = Point(float(x), float(y))
        self._adjacency[node_id] = {}
        self._version += 1

    def add_edge(self, u: NodeId, v: NodeId, weight: float | None = None) -> None:
        """Add an edge from ``u`` to ``v``.

        When ``weight`` is omitted, the Euclidean distance between the two
        endpoints is used, which keeps the A* Euclidean heuristic admissible.

        Raises
        ------
        UnknownNodeError
            If either endpoint has not been added.
        EdgeError
            For self loops or negative weights.
        """
        if u not in self._positions:
            raise UnknownNodeError(u)
        if v not in self._positions:
            raise UnknownNodeError(v)
        if u == v:
            raise EdgeError(f"self loop on node {u!r} is not allowed")
        if weight is None:
            weight = self._positions[u].distance_to(self._positions[v])
        weight = float(weight)
        if weight < 0:
            raise EdgeError(f"negative weight {weight} on edge ({u!r}, {v!r})")
        if math.isnan(weight) or math.isinf(weight):
            raise EdgeError(f"non-finite weight {weight} on edge ({u!r}, {v!r})")
        if v not in self._adjacency[u]:
            self._edge_count += 1
        self._adjacency[u][v] = weight
        if not self._directed:
            self._adjacency[v][u] = weight
        self._version += 1

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the edge from ``u`` to ``v`` (and the reverse if undirected).

        Raises
        ------
        EdgeError
            If the edge does not exist.
        """
        if u not in self._adjacency or v not in self._adjacency.get(u, {}):
            raise EdgeError(f"edge ({u!r}, {v!r}) does not exist")
        del self._adjacency[u][v]
        self._edge_count -= 1
        if not self._directed and u in self._adjacency.get(v, {}):
            del self._adjacency[v][u]
        self._version += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def directed(self) -> bool:
        """Whether edges are one-way."""
        return self._directed

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every structural change.

        A cheap staleness stamp: caches keyed by content (e.g. the
        serving layer's :func:`~repro.service.cache.network_fingerprint`)
        can skip rehashing the whole graph while the version is
        unchanged.  Two different networks may share a version number —
        it only orders the mutations of *one* instance.
        """
        return self._version

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._positions)

    @property
    def num_edges(self) -> int:
        """Number of distinct edges added (an undirected edge counts once)."""
        return self._edge_count

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node ids in insertion order."""
        return iter(self._positions)

    def edges(self) -> Iterator[tuple[NodeId, NodeId, float]]:
        """Iterate over edges as ``(u, v, weight)``.

        For undirected networks each edge is yielded once, in the direction
        it was stored first.
        """
        seen: set[tuple[NodeId, NodeId]] = set()
        for u, nbrs in self._adjacency.items():
            for v, w in nbrs.items():
                if not self._directed:
                    key = (v, u)
                    if key in seen:
                        continue
                    seen.add((u, v))
                yield u, v, w

    def position(self, node_id: NodeId) -> Point:
        """Return the :class:`Point` of a node.

        Raises
        ------
        UnknownNodeError
            If the node does not exist.
        """
        try:
            return self._positions[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def neighbors(self, node_id: NodeId) -> dict[NodeId, float]:
        """Return the ``{neighbor: weight}`` map of outgoing edges.

        The returned mapping is the live internal dictionary for speed;
        callers must not mutate it.
        """
        try:
            return self._adjacency[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def degree(self, node_id: NodeId) -> int:
        """Out-degree of ``node_id``."""
        return len(self.neighbors(node_id))

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether an edge from ``u`` to ``v`` exists."""
        return u in self._adjacency and v in self._adjacency[u]

    def edge_weight(self, u: NodeId, v: NodeId) -> float:
        """Weight of the edge from ``u`` to ``v``.

        Raises
        ------
        EdgeError
            If the edge does not exist.
        """
        if not self.has_edge(u, v):
            raise EdgeError(f"edge ({u!r}, {v!r}) does not exist")
        return self._adjacency[u][v]

    def euclidean_distance(self, u: NodeId, v: NodeId) -> float:
        """Straight-line distance between two nodes' positions."""
        return self.position(u).distance_to(self.position(v))

    def bounding_box(self) -> tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)`` over all node positions.

        Raises
        ------
        ValueError
            If the network has no nodes.
        """
        if not self._positions:
            raise ValueError("bounding box of an empty network is undefined")
        xs = [p.x for p in self._positions.values()]
        ys = [p.y for p in self._positions.values()]
        return min(xs), min(ys), max(xs), max(ys)

    # ------------------------------------------------------------------
    # Connectivity helpers
    # ------------------------------------------------------------------
    def component_of(self, start: NodeId) -> set[NodeId]:
        """Return the set of nodes reachable from ``start`` (BFS)."""
        if start not in self._positions:
            raise UnknownNodeError(start)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt: list[NodeId] = []
            for node in frontier:
                for nbr in self._adjacency[node]:
                    if nbr not in seen:
                        seen.add(nbr)
                        nxt.append(nbr)
            frontier = nxt
        return seen

    def connected_components(self) -> list[set[NodeId]]:
        """All weakly connected components, largest first.

        For directed networks this treats edges as undirected, which is the
        relevant notion for "is the map in one piece".
        """
        remaining = set(self._positions)
        undirected_adj: dict[NodeId, set[NodeId]] = {n: set() for n in remaining}
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                undirected_adj[u].add(v)
                undirected_adj[v].add(u)
        components: list[set[NodeId]] = []
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            frontier = [start]
            while frontier:
                nxt: list[NodeId] = []
                for node in frontier:
                    for nbr in undirected_adj[node]:
                        if nbr not in seen:
                            seen.add(nbr)
                            nxt.append(nbr)
                frontier = nxt
            components.append(seen)
            remaining -= seen
        components.sort(key=len, reverse=True)
        return components

    def is_connected(self) -> bool:
        """Whether every node is reachable from every other (weakly)."""
        if not self._positions:
            return True
        return len(self.component_of(next(iter(self._positions)))) == len(self)

    def is_strongly_connected(self) -> bool:
        """Whether every node reaches every other along edge directions.

        Equivalent to :meth:`is_connected` on undirected networks.  Checked
        as "one node reaches all" plus "all reach that node" (BFS on the
        reversed adjacency).
        """
        if not self._positions:
            return True
        if not self._directed:
            return self.is_connected()
        start = next(iter(self._positions))
        if len(self.component_of(start)) != len(self):
            return False
        reverse_adj: dict[NodeId, list[NodeId]] = {n: [] for n in self._positions}
        for u, nbrs in self._adjacency.items():
            for v in nbrs:
                reverse_adj[v].append(u)
        seen = {start}
        frontier = [start]
        while frontier:
            nxt: list[NodeId] = []
            for node in frontier:
                for nbr in reverse_adj[node]:
                    if nbr not in seen:
                        seen.add(nbr)
                        nxt.append(nbr)
            frontier = nxt
        return len(seen) == len(self)

    def largest_component_subgraph(self) -> "RoadNetwork":
        """Return a copy restricted to the largest connected component."""
        components = self.connected_components()
        if not components:
            return RoadNetwork(directed=self._directed)
        return self.subgraph(components[0])

    def subgraph(self, node_ids: Iterable[NodeId]) -> "RoadNetwork":
        """Return the induced subgraph on ``node_ids`` as a new network."""
        keep = set(node_ids)
        missing = keep - set(self._positions)
        if missing:
            raise UnknownNodeError(next(iter(missing)))
        sub = RoadNetwork(directed=self._directed)
        for node in self._positions:
            if node in keep:
                p = self._positions[node]
                sub.add_node(node, p.x, p.y)
        for u, v, w in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v, w)
        return sub

    def copy(self) -> "RoadNetwork":
        """Independent copy: same content, adjacency order and ``version``.

        Structural (one dict copy per node row, immutable
        :class:`Point` objects shared) rather than a replay through
        :meth:`add_edge`, which copy-on-write epochs
        (:meth:`repro.service.serving.ServingStack.reweight`) pay on
        every traffic update.  Mutating either side never shows in the
        other, and the copy starts with no ``version``-keyed memo of its
        own (those are keyed by object identity first).
        """
        clone = RoadNetwork(directed=self._directed)
        clone._positions = dict(self._positions)
        clone._adjacency = {u: dict(nbrs) for u, nbrs in self._adjacency.items()}
        clone._edge_count = self._edge_count
        clone._version = self._version
        return clone

    # ------------------------------------------------------------------
    # Interop (used by tests as an oracle; never by library code)
    # ------------------------------------------------------------------
    def to_networkx(self):  # pragma: no cover - exercised in tests
        """Convert to a ``networkx`` graph with ``weight`` edge attributes."""
        import networkx as nx

        g = nx.DiGraph() if self._directed else nx.Graph()
        for node, p in self._positions.items():
            g.add_node(node, x=p.x, y=p.y)
        for u, v, w in self.edges():
            g.add_edge(u, v, weight=w)
        return g

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return (
            f"RoadNetwork({kind}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
