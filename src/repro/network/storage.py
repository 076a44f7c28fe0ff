"""CCAM-style paged storage simulator with I/O accounting.

The paper's cost argument (Section III-B, citing Shekhar & Liu's CCAM [9])
assumes nodes and their adjacency lists are clustered on disk pages, so the
I/O cost of a Dijkstra search is proportional to the *area* its spanning
tree touches.  This module reproduces that storage model:

* :class:`PageStore` partitions a network's nodes into fixed-capacity pages
  via the shared graph partitioner (:mod:`repro.network.partition` —
  neighbors land on the same page when possible, the essence of CCAM).
  Pages *are* partition cells: a ``PageStore`` with capacity ``c`` holds
  exactly the cells of ``partition_snapshot(network, c)``.
* :class:`LRUBufferPool` caches a bounded number of pages and reports
  faults.
* :class:`PagedNetwork` wraps a :class:`RoadNetwork` so every adjacency-list
  access charges the buffer pool; search algorithms run against it
  unchanged and their :class:`~repro.search.result.SearchStats` pick up the
  fault counts.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.exceptions import StorageError, UnknownNodeError
from repro.network.graph import NodeId, Point, RoadNetwork
from repro.network.partition import partition_snapshot

__all__ = ["IOCounter", "PageStore", "LRUBufferPool", "PagedNetwork"]


@dataclass(slots=True)
class IOCounter:
    """Mutable tally of logical accesses and physical page reads."""

    logical_accesses: int = 0
    page_faults: int = 0
    pages_touched: set[int] = field(default_factory=set)

    def record(self, page_id: int, fault: bool) -> None:
        """Record one logical access to ``page_id``; ``fault`` marks a read."""
        self.logical_accesses += 1
        self.pages_touched.add(page_id)
        if fault:
            self.page_faults += 1

    def reset(self) -> None:
        """Zero all counters."""
        self.logical_accesses = 0
        self.page_faults = 0
        self.pages_touched.clear()

    @property
    def distinct_pages(self) -> int:
        """Number of distinct pages touched since the last reset."""
        return len(self.pages_touched)


class PageStore:
    """Connectivity clustering of nodes into fixed-capacity pages.

    Parameters
    ----------
    network:
        Network whose nodes are laid out.
    page_capacity:
        Maximum nodes per page.  Real CCAM packs by record size; a node
        count is the standard simulator simplification.

    Notes
    -----
    The layout is the shared partitioner's
    (:func:`repro.network.partition.partition_snapshot`): spatially and
    topologically close nodes share pages, which is what makes page
    faults proportional to the geographic area of a search — the
    behaviour Lemma 1's I/O bound relies on.
    """

    def __init__(self, network: RoadNetwork, page_capacity: int = 64) -> None:
        if page_capacity < 1:
            raise StorageError("page_capacity must be >= 1")
        self._capacity = page_capacity
        partition = partition_snapshot(network, cell_capacity=page_capacity)
        self._pages: list[list[NodeId]] = [
            list(cell) for cell in partition.cells
        ]
        self._page_of: dict[NodeId, int] = dict(partition.cell_of)

    @property
    def num_pages(self) -> int:
        """Total number of pages."""
        return len(self._pages)

    @property
    def page_capacity(self) -> int:
        """Maximum nodes per page."""
        return self._capacity

    def page_of(self, node: NodeId) -> int:
        """Page id holding ``node``.

        Raises
        ------
        UnknownNodeError
            If the node was not part of the stored network.
        """
        try:
            return self._page_of[node]
        except KeyError:
            raise UnknownNodeError(node) from None

    def page_members(self, page_id: int) -> list[NodeId]:
        """Nodes stored on ``page_id``."""
        if not 0 <= page_id < len(self._pages):
            raise StorageError(f"unknown page id {page_id}")
        return list(self._pages[page_id])


class LRUBufferPool:
    """Least-recently-used page cache.

    Parameters
    ----------
    capacity:
        Number of pages held in memory.  ``capacity=0`` means every access
        faults (cold storage); a capacity at least the page count means only
        compulsory faults occur.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise StorageError("buffer pool capacity must be >= 0")
        self._capacity = capacity
        self._resident: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def capacity(self) -> int:
        """Number of page frames."""
        return self._capacity

    def access(self, page_id: int) -> bool:
        """Touch ``page_id``; return ``True`` if the access faulted."""
        if self._capacity == 0:
            self.misses += 1
            return True
        if page_id in self._resident:
            self._resident.move_to_end(page_id)
            self.hits += 1
            return False
        self.misses += 1
        if len(self._resident) >= self._capacity:
            self._resident.popitem(last=False)
        self._resident[page_id] = None
        return True

    def clear(self) -> None:
        """Evict everything and zero the hit/miss counters."""
        self._resident.clear()
        self.hits = 0
        self.misses = 0

    @property
    def resident_pages(self) -> list[int]:
        """Currently cached page ids, LRU first."""
        return list(self._resident)


class PagedNetwork:
    """Read view of a :class:`RoadNetwork` that charges page I/O per access.

    Exposes the subset of the :class:`RoadNetwork` interface the search
    algorithms use (``neighbors``, ``position``, ``euclidean_distance``,
    containment, size) so it can be passed anywhere a network is expected.

    Parameters
    ----------
    network:
        Backing network.
    page_capacity:
        Nodes per page for the :class:`PageStore` layout.
    buffer_capacity:
        Page frames in the :class:`LRUBufferPool`.
    """

    def __init__(
        self,
        network: RoadNetwork,
        page_capacity: int = 64,
        buffer_capacity: int = 32,
    ) -> None:
        self._network = network
        self._store = PageStore(network, page_capacity=page_capacity)
        self._pool = LRUBufferPool(buffer_capacity)
        self._io = IOCounter()

    # -- accounting ----------------------------------------------------
    @property
    def io(self) -> IOCounter:
        """Live I/O counter; reset it between measured operations."""
        return self._io

    @property
    def store(self) -> PageStore:
        """The underlying page layout."""
        return self._store

    @property
    def buffer_pool(self) -> LRUBufferPool:
        """The underlying LRU pool."""
        return self._pool

    def reset_io(self) -> None:
        """Clear the I/O counter and drop all cached pages."""
        self._io.reset()
        self._pool.clear()

    def _touch(self, node: NodeId) -> None:
        page = self._store.page_of(node)
        fault = self._pool.access(page)
        self._io.record(page, fault)

    # -- RoadNetwork read interface -------------------------------------
    @property
    def directed(self) -> bool:
        return self._network.directed

    @property
    def num_nodes(self) -> int:
        return self._network.num_nodes

    @property
    def num_edges(self) -> int:
        return self._network.num_edges

    def __contains__(self, node: NodeId) -> bool:
        return node in self._network

    def __len__(self) -> int:
        return len(self._network)

    def nodes(self) -> Iterator[NodeId]:
        return self._network.nodes()

    def neighbors(self, node: NodeId) -> dict[NodeId, float]:
        """Adjacency of ``node``; charges one page access."""
        self._touch(node)
        return self._network.neighbors(node)

    def position(self, node: NodeId) -> Point:
        """Node position; free (coordinates ride along with the page)."""
        return self._network.position(node)

    def euclidean_distance(self, u: NodeId, v: NodeId) -> float:
        return self._network.euclidean_distance(u, v)

    def __repr__(self) -> str:
        return (
            f"PagedNetwork(nodes={self.num_nodes}, pages={self._store.num_pages}, "
            f"buffer={self._pool.capacity})"
        )
