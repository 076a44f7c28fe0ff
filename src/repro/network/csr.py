"""Immutable flat-array (CSR) snapshots of road networks.

Every search engine in this package originally walked the
dict-of-dict adjacency of :class:`~repro.network.graph.RoadNetwork` —
per-neighbor hashing and tuple unpacking on the hottest loop of the
system.  :class:`CSRGraph` freezes a network into compressed-sparse-row
arrays (``offsets``/``targets``/``weights`` in the standard layout: the
out-arcs of node ``i`` occupy positions ``offsets[i]:offsets[i+1]``),
with nodes renamed to dense integer indices.  The index-space kernels in
:mod:`repro.search.kernels` run over these arrays with plain integer
arithmetic and ``heapq``, which is where the ``*-csr`` engines get their
speedup.

Snapshots are immutable and cheap to build (one pass over the
adjacency), and :func:`csr_snapshot` memoizes them against the network's
``version`` mutation stamp, so repeated queries on an unchanged network
reuse one snapshot while any mutation transparently triggers a rebuild.

Arrays are stdlib :mod:`array` values (8-byte ints, C doubles) — compact
and allocation-free to index.  When numpy is installed,
:meth:`CSRGraph.as_numpy` exposes zero-copy ndarray views for vectorized
analysis; the kernels themselves never require numpy.
"""

from __future__ import annotations

import threading
from array import array
from collections.abc import Iterator
from weakref import WeakKeyDictionary

from repro.exceptions import UnknownNodeError
from repro.network.graph import NodeId, RoadNetwork

__all__ = ["CSRGraph", "csr_snapshot"]


class CSRGraph:
    """A road network frozen into compressed-sparse-row arrays.

    Attributes
    ----------
    node_ids:
        ``node_ids[i]`` is the original node id of index ``i`` (insertion
        order of the source network).
    index_of:
        Inverse mapping ``{node_id: index}``.
    offsets, targets, weights:
        Forward adjacency in CSR form: arcs leaving node ``i`` are
        ``targets[offsets[i]:offsets[i+1]]`` with matching ``weights``.
        Undirected source networks store both arc directions (exactly as
        their dict adjacency does).
    roffsets, rtargets, rweights:
        Reverse adjacency (arcs *entering* each node) for backward
        searches.  For undirected networks these alias the forward
        arrays — the reverse view is free.
    xs, ys:
        Node coordinates by index (kept for the batched sweep's cost
        estimate and for the :meth:`to_network` round trip).
    directed:
        Directedness of the source network.

    Instances never mutate; build them with :meth:`from_network` or the
    memoizing :func:`csr_snapshot`.
    """

    __slots__ = (
        "node_ids",
        "index_of",
        "offsets",
        "targets",
        "weights",
        "roffsets",
        "rtargets",
        "rweights",
        "xs",
        "ys",
        "directed",
        "_kview",
        "_rkview",
        "__weakref__",  # derived views (search.vectorized) memoize per snapshot
    )

    def __init__(
        self,
        node_ids: tuple[NodeId, ...],
        index_of: dict[NodeId, int],
        offsets: array,
        targets: array,
        weights: array,
        xs: array,
        ys: array,
        directed: bool,
        roffsets: array | None = None,
        rtargets: array | None = None,
        rweights: array | None = None,
    ) -> None:
        self.node_ids = node_ids
        self.index_of = index_of
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self.xs = xs
        self.ys = ys
        self.directed = directed
        # Undirected adjacency already contains both arc directions, so
        # the reverse view is the forward view (aliased, not copied).
        self.roffsets = offsets if roffsets is None else roffsets
        self.rtargets = targets if rtargets is None else rtargets
        self.rweights = weights if rweights is None else rweights
        self._kview: tuple[list, list, list] | None = None
        self._rkview: tuple[list, list, list] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, network) -> "CSRGraph":
        """Freeze any network with the ``RoadNetwork`` read interface.

        One pass over ``network.neighbors`` per node; neighbor order is
        preserved (dict insertion order), so the kernels relax arcs in
        the same order the dict engines iterate them.
        """
        node_ids = tuple(network.nodes())
        index_of = {node: i for i, node in enumerate(node_ids)}
        offsets = array("q", [0])
        targets = array("q")
        weights = array("d")
        xs = array("d")
        ys = array("d")
        directed = bool(getattr(network, "directed", False))
        for node in node_ids:
            p = network.position(node)
            xs.append(p.x)
            ys.append(p.y)
            for nbr, w in network.neighbors(node).items():
                targets.append(index_of[nbr])
                weights.append(w)
            offsets.append(len(targets))
        roffsets = rtargets = rweights = None
        if directed:
            roffsets, rtargets, rweights = _reverse_csr(
                len(node_ids), offsets, targets, weights
            )
        return cls(
            node_ids=node_ids,
            index_of=index_of,
            offsets=offsets,
            targets=targets,
            weights=weights,
            xs=xs,
            ys=ys,
            directed=directed,
            roffsets=roffsets,
            rtargets=rtargets,
            rweights=rweights,
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.node_ids)

    @property
    def num_arcs(self) -> int:
        """Number of stored arcs (an undirected edge counts twice)."""
        return len(self.targets)

    def __len__(self) -> int:
        """Number of nodes (same as :attr:`num_nodes`)."""
        return len(self.node_ids)

    def __contains__(self, node_id: NodeId) -> bool:
        """Whether ``node_id`` is part of the snapshot."""
        return node_id in self.index_of

    def index(self, node_id: NodeId) -> int:
        """Dense index of ``node_id``.

        Raises
        ------
        UnknownNodeError
            If the node is not part of the snapshot.
        """
        try:
            return self.index_of[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def degree(self, i: int) -> int:
        """Out-degree of index ``i``."""
        return self.offsets[i + 1] - self.offsets[i]

    def arcs_from(self, i: int) -> Iterator[tuple[int, float]]:
        """Iterate ``(target_index, weight)`` over the out-arcs of ``i``."""
        for e in range(self.offsets[i], self.offsets[i + 1]):
            yield self.targets[e], self.weights[e]

    def kernel_view(self) -> tuple[list, list, list]:
        """Forward ``(offsets, targets, weights)`` as plain lists.

        CPython indexes a list of preboxed ints/floats faster than an
        :mod:`array` buffer (which boxes a fresh object per access), so
        the search kernels read through this lazily built mirror.  The
        compact arrays remain the canonical storage.

        Safe under concurrent first calls: the completed tuple is
        published with one slot assignment behind a lock, so dispatcher
        worker threads racing here share a single O(m) build and every
        caller gets the same tuple object.
        """
        view = self._kview
        if view is None:
            with _KVIEW_LOCK:
                view = self._kview
                if view is None:
                    view = (
                        list(self.offsets),
                        list(self.targets),
                        list(self.weights),
                    )
                    self._kview = view
        return view

    def reverse_kernel_view(self) -> tuple[list, list, list]:
        """Reverse ``(offsets, targets, weights)`` as plain lists.

        Aliases :meth:`kernel_view` for undirected snapshots.  Shares
        the same single-build guarantee as :meth:`kernel_view`.
        """
        view = self._rkview
        if view is None:
            if self.rtargets is self.targets:
                view = self.kernel_view()
                with _KVIEW_LOCK:
                    if self._rkview is None:
                        self._rkview = view
                    view = self._rkview
            else:
                with _KVIEW_LOCK:
                    view = self._rkview
                    if view is None:
                        view = (
                            list(self.roffsets),
                            list(self.rtargets),
                            list(self.rweights),
                        )
                        self._rkview = view
        return view

    def as_numpy(self) -> dict[str, object]:
        """Read-only zero-copy numpy views of the flat arrays.

        Returns
        -------
        dict
            ``{"offsets", "targets", "weights", "xs", "ys"}`` ndarray
            views sharing memory with the snapshot.  Every view is
            marked non-writable: the underlying buffers are the
            memoized per-version snapshot shared by all queries, so a
            writable alias would silently corrupt every future search
            on this network version.  Mutating a view raises
            ``ValueError``.

        Raises
        ------
        ImportError
            When numpy is not installed (the kernels never need it).
        """
        import numpy as np

        views = {
            "offsets": np.frombuffer(self.offsets, dtype=np.int64),
            "targets": np.frombuffer(self.targets, dtype=np.int64),
            "weights": np.frombuffer(self.weights, dtype=np.float64),
            "xs": np.frombuffer(self.xs, dtype=np.float64),
            "ys": np.frombuffer(self.ys, dtype=np.float64),
        }
        for arr in views.values():
            arr.flags.writeable = False
        return views

    # ------------------------------------------------------------------
    # Round trip
    # ------------------------------------------------------------------
    def to_network(self) -> RoadNetwork:
        """Rebuild an equivalent :class:`RoadNetwork` from the arrays.

        The inverse of :meth:`from_network`: node ids, positions,
        directedness, edges and weights all round-trip exactly (an
        undirected snapshot stores both arc directions but emits each
        edge once).
        """
        net = RoadNetwork(directed=self.directed)
        for i, node in enumerate(self.node_ids):
            net.add_node(node, self.xs[i], self.ys[i])
        offsets, targets, weights = self.offsets, self.targets, self.weights
        for i, node in enumerate(self.node_ids):
            for e in range(offsets[i], offsets[i + 1]):
                j = targets[e]
                if not self.directed and j < i:
                    continue  # the (j, i) arc already added this edge
                net.add_edge(node, self.node_ids[j], weights[e])
        return net

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"CSRGraph({kind}, nodes={self.num_nodes}, arcs={self.num_arcs})"


def _reverse_csr(
    n: int, offsets: array, targets: array, weights: array
) -> tuple[array, array, array]:
    """Transpose a CSR adjacency (counting sort by target node)."""
    counts = [0] * (n + 1)
    for t in targets:
        counts[t + 1] += 1
    roffsets = array("q", [0] * (n + 1))
    total = 0
    for i in range(n):
        total += counts[i + 1]
        roffsets[i + 1] = total
    cursor = list(roffsets[:n])
    rtargets = array("q", bytes(8 * len(targets)))
    rweights = array("d", bytes(8 * len(targets)))
    for u in range(n):
        for e in range(offsets[u], offsets[u + 1]):
            v = targets[e]
            slot = cursor[v]
            rtargets[slot] = u
            rweights[slot] = weights[e]
            cursor[v] = slot + 1
    return roffsets, rtargets, rweights


# Guards the lazy kernel-view builds.  One process-wide lock (not per
# instance) keeps CSRGraph slot-only and picklable; builds are rare —
# once per snapshot — so contention is negligible.
_KVIEW_LOCK = threading.Lock()

# Per-network memo: network -> (version stamp, snapshot).  Weak keys so a
# discarded network releases its snapshot; the lock only guards the dict
# (a losing racer simply rebuilds, which is correct and rare).
_SNAPSHOTS: "WeakKeyDictionary[object, tuple[int, CSRGraph]]" = WeakKeyDictionary()
_SNAPSHOT_LOCK = threading.Lock()


def csr_snapshot(network) -> CSRGraph:
    """The (memoized) :class:`CSRGraph` snapshot of ``network``.

    Networks exposing a ``version`` mutation stamp (every
    :class:`~repro.network.graph.RoadNetwork`) are snapshotted once per
    version: repeated calls on an unchanged network return the same
    object, and any mutation — new node, new edge, reweighting — bumps
    the version and triggers a rebuild on the next call.  Version-less
    network views are rebuilt per call (they are cheap wrappers whose
    base may mutate invisibly).
    """
    version = getattr(network, "version", None)
    if version is None:
        return CSRGraph.from_network(network)
    with _SNAPSHOT_LOCK:
        memo = _SNAPSHOTS.get(network)
    if memo is not None and memo[0] == version:
        return memo[1]
    snapshot = CSRGraph.from_network(network)
    with _SNAPSHOT_LOCK:
        _SNAPSHOTS[network] = (version, snapshot)
    return snapshot
