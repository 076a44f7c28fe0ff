"""Contraction Hierarchies preprocessing (Geisberger et al., WEA 2008).

The paper's server evaluates every obfuscated query with Dijkstra-family
searches whose cost is ``O(||s,t||^2)`` per Lemma 1 (see
:mod:`repro.search.cost_model`).  A production directions service amortizes
that cost with a one-time preprocessing step: nodes are *contracted* one by
one in ascending importance order, and whenever removing a node ``v`` would
break a shortest path ``u -> v -> x``, a *shortcut edge* ``(u, x)`` with the
combined weight is inserted.  The surviving structure — every original edge
and shortcut, bucketed by which endpoint ranks higher — supports
point-to-point queries that settle orders of magnitude fewer nodes than
Dijkstra (see :func:`repro.search.kernels.csr_ch_path`).

Node order is chosen lazily by the classic ``edge difference +
deleted neighbors`` priority:

* *edge difference* — shortcuts a contraction would add minus edges it
  removes, keeping the overlay graph sparse;
* *deleted neighbors* — how many of the node's neighbors are already
  contracted, spreading contraction uniformly across the map.

Shortcut necessity is decided by bounded *witness searches*: a Dijkstra in
the remaining overlay (excluding ``v``) proves a ``u -> x`` path no longer
than the would-be shortcut exists.  Witness searches are capped
(``witness_settled_limit``); a truncated search can only add a redundant
shortcut, never lose a shortest path, so correctness is unconditional.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass

from repro.network.graph import NodeId
from repro.search.result import PathResult

__all__ = ["ContractionStats", "ContractedGraph", "contract_network", "unpack_path"]


@dataclass(slots=True)
class ContractionStats:
    """Counters describing one preprocessing run."""

    original_nodes: int = 0
    original_edges: int = 0
    shortcuts_added: int = 0
    witness_searches: int = 0
    witness_settled: int = 0

    @property
    def overlay_edges(self) -> int:
        """Edges in the contracted overlay (originals + shortcuts)."""
        return self.original_edges + self.shortcuts_added


class ContractedGraph:
    """Immutable result of contracting a road network.

    The overlay graph (original edges plus shortcuts) is stored split by
    rank direction, which is exactly what the bidirectional upward query
    needs:

    * ``upward(v)`` — edges ``v -> x`` with ``rank(x) > rank(v)``
      (relaxed by the forward search, scanned by the backward stall test);
    * ``downward_in(v)`` — edges ``u -> v`` with ``rank(u) > rank(v)``
      (relaxed in reverse by the backward search, scanned by the forward
      stall test).

    ``middle(u, x)`` returns the contracted node a shortcut ``(u, x)``
    bypasses (``None`` for original edges), which drives recursive path
    unpacking in :func:`unpack_path`.

    Instances are produced by :func:`contract_network` or loaded from disk
    via :mod:`repro.search.ch.persist`; they never mutate.
    """

    def __init__(
        self,
        rank: dict[NodeId, int],
        up_out: dict[NodeId, dict[NodeId, float]],
        up_in: dict[NodeId, dict[NodeId, float]],
        middles: dict[tuple[NodeId, NodeId], NodeId],
        directed: bool,
        stats: ContractionStats | None = None,
    ) -> None:
        self._rank = rank
        self._up_out = up_out
        self._up_in = up_in
        self._middles = middles
        self._directed = directed
        self._stats = stats if stats is not None else ContractionStats()

    # -- structure ------------------------------------------------------
    @property
    def directed(self) -> bool:
        """Whether the source network was directed."""
        return self._directed

    @property
    def num_nodes(self) -> int:
        """Number of nodes (same as the source network)."""
        return len(self._rank)

    @property
    def num_shortcuts(self) -> int:
        """Shortcut edges in the overlay."""
        return len(self._middles)

    @property
    def stats(self) -> ContractionStats:
        """Preprocessing counters."""
        return self._stats

    def __contains__(self, node: NodeId) -> bool:
        """Whether ``node`` is part of the contracted graph."""
        return node in self._rank

    def __len__(self) -> int:
        """Number of nodes (same as :attr:`num_nodes`)."""
        return len(self._rank)

    def nodes(self) -> Iterator[NodeId]:
        """Iterate over node ids."""
        return iter(self._rank)

    def rank_of(self, node: NodeId) -> int:
        """Contraction rank of ``node`` (0 = contracted first)."""
        return self._rank[node]

    def upward(self, node: NodeId) -> dict[NodeId, float]:
        """Overlay edges ``node -> x`` with ``rank(x) > rank(node)``."""
        return self._up_out.get(node, {})

    def downward_in(self, node: NodeId) -> dict[NodeId, float]:
        """Overlay edges ``u -> node`` with ``rank(u) > rank(node)``."""
        return self._up_in.get(node, {})

    def middle(self, u: NodeId, v: NodeId) -> NodeId | None:
        """Bypassed node of shortcut ``(u, v)``; ``None`` for originals."""
        return self._middles.get((u, v))

    def edges(self) -> Iterator[tuple[NodeId, NodeId, float]]:
        """Every overlay edge ``(u, v, weight)`` exactly once."""
        for u, nbrs in self._up_out.items():
            yield from ((u, v, w) for v, w in nbrs.items())
        for v, nbrs in self._up_in.items():
            yield from ((u, v, w) for u, w in nbrs.items())

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return (
            f"ContractedGraph({kind}, nodes={self.num_nodes}, "
            f"shortcuts={self.num_shortcuts})"
        )


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


def _witness_distances(
    out_adj: dict[NodeId, dict[NodeId, float]],
    source: NodeId,
    excluded: NodeId,
    targets: set[NodeId],
    cutoff: float,
    settle_limit: int,
    stats: ContractionStats,
) -> dict[NodeId, float]:
    """Bounded Dijkstra from ``source`` in the overlay minus ``excluded``.

    Stops when every target is settled, the frontier exceeds ``cutoff``,
    or ``settle_limit`` nodes were settled.  Returns settled distances for
    the targets found — an under-approximation is fine (it only means a
    redundant shortcut gets inserted).
    """
    stats.witness_searches += 1
    dist: dict[NodeId, float] = {source: 0.0}
    settled: dict[NodeId, float] = {}
    heap: list[tuple[float, int, NodeId]] = [(0.0, 0, source)]
    counter = 1
    remaining = len(targets)
    budget = settle_limit
    while heap and remaining and budget:
        d, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        if d > cutoff:
            break
        settled[node] = d
        budget -= 1
        stats.witness_settled += 1
        if node in targets:
            remaining -= 1
            if not remaining:
                break
        for nbr, w in out_adj[node].items():
            if nbr == excluded or nbr in settled:
                continue
            nd = d + w
            if nd < dist.get(nbr, float("inf")) and nd <= cutoff:
                dist[nbr] = nd
                heapq.heappush(heap, (nd, counter, nbr))
                counter += 1
    return {t: settled[t] for t in targets if t in settled}


def _shortcuts_for(
    node: NodeId,
    out_adj: dict[NodeId, dict[NodeId, float]],
    in_adj: dict[NodeId, dict[NodeId, float]],
    settle_limit: int,
    stats: ContractionStats,
) -> list[tuple[NodeId, NodeId, float]]:
    """Shortcuts required if ``node`` were contracted right now."""
    outs = out_adj[node]
    shortcuts: list[tuple[NodeId, NodeId, float]] = []
    for u, w1 in in_adj[node].items():
        targets = {x for x in outs if x != u}
        if not targets:
            continue
        cutoff = w1 + max(outs[x] for x in targets)
        witnesses = _witness_distances(
            out_adj, u, node, targets, cutoff, settle_limit, stats
        )
        for x in targets:
            via = w1 + outs[x]
            if witnesses.get(x, float("inf")) > via:
                shortcuts.append((u, x, via))
    return shortcuts


def contract_network(
    network,
    witness_settled_limit: int = 500,
) -> ContractedGraph:
    """Contract every node of ``network`` into a :class:`ContractedGraph`.

    Parameters
    ----------
    network:
        Any object with the :class:`~repro.network.graph.RoadNetwork` read
        interface (directed or undirected; a
        :class:`~repro.network.storage.PagedNetwork` works too — its page
        faults are charged once, here, instead of on every query).
    witness_settled_limit:
        Cap on nodes settled per witness search.  Query results are exact
        for any value; the cap only trades preprocessing effort against
        redundant shortcuts.  Counter-intuitively, starving witness
        searches (say, below ~100) is usually *slower* overall: missed
        witnesses insert unnecessary shortcuts, which densify the overlay
        and make every later witness search more expensive.

    Notes
    -----
    Runs the lazy-update simulation loop: the minimum-priority node is
    re-evaluated against the current overlay and contracted only if it is
    still minimal, otherwise re-queued with its fresh priority.
    """
    if witness_settled_limit < 1:
        raise ValueError("witness_settled_limit must be >= 1")
    stats = ContractionStats()
    order_index: dict[NodeId, int] = {}
    out_adj: dict[NodeId, dict[NodeId, float]] = {}
    in_adj: dict[NodeId, dict[NodeId, float]] = {}
    for i, node in enumerate(network.nodes()):
        order_index[node] = i
        out_adj[node] = dict(network.neighbors(node))
        in_adj[node] = {}
    edge_count = 0
    for u, nbrs in out_adj.items():
        for v, w in nbrs.items():
            in_adj[v][u] = w
            edge_count += 1
    stats.original_nodes = len(out_adj)
    stats.original_edges = edge_count

    # Working shortcut registry for edges still in the remaining overlay.
    live_middle: dict[tuple[NodeId, NodeId], NodeId] = {}
    deleted_neighbors: dict[NodeId, int] = dict.fromkeys(out_adj, 0)

    def priority(node: NodeId, num_shortcuts: int) -> int:
        edge_difference = (
            num_shortcuts - len(out_adj[node]) - len(in_adj[node])
        )
        return edge_difference + deleted_neighbors[node]

    heap: list[tuple[int, int, NodeId]] = []
    for node in out_adj:
        shortcuts = _shortcuts_for(
            node, out_adj, in_adj, witness_settled_limit, stats
        )
        heap.append((priority(node, len(shortcuts)), order_index[node], node))
    heapq.heapify(heap)

    rank: dict[NodeId, int] = {}
    up_out: dict[NodeId, dict[NodeId, float]] = {}
    up_in: dict[NodeId, dict[NodeId, float]] = {}
    middles: dict[tuple[NodeId, NodeId], NodeId] = {}

    while heap:
        _, _, node = heapq.heappop(heap)
        if node in rank:
            continue  # stale duplicate entry from a lazy re-queue
        # Simulate again at every pop, never from an earlier simulation:
        # an earlier "no shortcut needed" rests on a witness path that
        # may run through nodes contracted since — not only neighbours —
        # and on tied maps that can take away the last equal-length path.
        shortcuts = _shortcuts_for(
            node, out_adj, in_adj, witness_settled_limit, stats
        )
        current = priority(node, len(shortcuts))
        if heap and current > heap[0][0]:
            heapq.heappush(heap, (current, order_index[node], node))
            continue

        # Freeze the node's remaining edges as its upward adjacency.
        rank[node] = len(rank)
        up_out[node] = dict(out_adj[node])
        up_in[node] = dict(in_adj[node])
        for x in out_adj[node]:
            mid = live_middle.pop((node, x), None)
            if mid is not None:
                middles[(node, x)] = mid
        for u in in_adj[node]:
            mid = live_middle.pop((u, node), None)
            if mid is not None:
                middles[(u, node)] = mid

        # Detach the node and patch the remaining overlay with shortcuts.
        neighbors = set(out_adj[node]) | set(in_adj[node])
        for x in out_adj[node]:
            del in_adj[x][node]
        for u in in_adj[node]:
            del out_adj[u][node]
        out_adj[node] = {}
        in_adj[node] = {}
        for u, x, w in shortcuts:
            if w < out_adj[u].get(x, float("inf")):
                out_adj[u][x] = w
                in_adj[x][u] = w
                live_middle[(u, x)] = node
                stats.shortcuts_added += 1
        for nbr in neighbors:
            deleted_neighbors[nbr] += 1

    return ContractedGraph(
        rank=rank,
        up_out=up_out,
        up_in=up_in,
        middles=middles,
        directed=bool(getattr(network, "directed", False)),
        stats=stats,
    )
