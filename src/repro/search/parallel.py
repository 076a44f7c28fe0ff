"""Process-parallel overlay customization over shared-memory CSR blobs.

Overlay customization — one pruned boundary-clique computation per cell
(:meth:`~repro.search.overlay.OverlayGraph._customize_cell`) — is
embarrassingly parallel: cells share nothing but read-only access to the
network.  The serial loops in :mod:`repro.search.overlay` are therefore
GIL-bound to one core, which is what separates "keeps up with churn"
from "bounded by cores" at metro scale (ROADMAP items 3-4).

:class:`ParallelCustomizer` fans per-cell clique construction out to a
persistent :class:`~concurrent.futures.ProcessPoolExecutor`:

* **Blob handoff, no graph pickling.**  The network is spilled *once*
  per pool lifetime as a page-aligned ``.csrb`` blob
  (:func:`~repro.service.blob.write_csr_blob`) plus a partition-layout
  blob; every worker memory-maps both on first use and serves all
  subsequent tasks from the mapping.  Task payloads are cell indices,
  blob paths and small weight-delta dicts — a graph or partition object
  never crosses the process boundary (pickling either raises in the
  tests that pin this down).
* **Byte-identical results.**  Workers run literally the same
  customization code path as the serial build —
  ``OverlayGraph._customize_cell`` over a :class:`_BlobNetwork` read
  adapter whose ``neighbors()`` dicts reproduce the original adjacency
  order (CSR arc order *is* dict insertion order, by
  :meth:`~repro.network.csr.CSRGraph.from_network`) — and return
  compact clique arrays (``array('d')`` distances, ``array('q')`` path
  nodes) that the parent reassembles into the exact ``PathResult``
  tables the serial loop would have produced.  ``dumps_overlay`` of a
  parallel build is byte-identical to the serial build, which the
  property suite checks for arbitrary networks and worker counts.
* **Pool survival across re-weights.**  Traffic re-weights do not
  re-spill the blob: the parent keeps a cumulative ``(u, v) -> weight``
  delta map (re-read from the target network every call), ships it with
  each task, and workers overlay it on the mapped base weights.  A
  fresh spill happens only when the caller cannot name its changed
  edges, the network shape changed, or the delta map outgrew its
  budget — all counted in :attr:`ParallelCustomizer.spills` (pool
  health, surfaced by the pipeline snapshot).

The customizer also parallelizes the nested overlay's supercell pass
(:meth:`ParallelCustomizer.customize_super`) by spilling the level-1
overlay arrays the same way.

Telemetry follows the PR 6 redaction invariant: the
``repro_customize_*`` metrics and the ``customize.parallel`` trace span
carry worker counts, cell counts, spill counts and throughput — never
node identifiers.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from array import array
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor

from repro.exceptions import GraphError, UnknownNodeError
from repro.network.graph import Point
from repro.search.result import PathResult, SearchStats

__all__ = ["ParallelCustomizer", "default_start_method"]


def default_start_method() -> str:
    """The safest available multiprocessing start method.

    ``forkserver`` when the platform offers it (immune to the
    fork-with-threads hazards of a serving process), else ``spawn``.
    Tests pass ``fork`` explicitly for speed.
    """
    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


# ----------------------------------------------------------------------
# Worker side: blob attachment and per-cell customization
# ----------------------------------------------------------------------
class _LazyRows:
    """Per-cell node tuples sliced lazily out of blob sections.

    ``rows[i]`` materializes only the ``i``-th row (a cell's members or
    boundary) from the flat ``offsets``/``nodes`` pair, so a worker that
    customizes a handful of cells never touches — or faults in — the
    rest of the layout blob.
    """

    __slots__ = ("_offsets", "_nodes")

    def __init__(self, offsets, nodes) -> None:
        self._offsets = offsets
        self._nodes = nodes

    def __getitem__(self, i: int) -> tuple:
        return tuple(self._nodes[self._offsets[i]:self._offsets[i + 1]])

    def __len__(self) -> int:
        return len(self._offsets) - 1


class _BlobPartition:
    """The two partition views customization reads, blob-backed."""

    __slots__ = ("cells", "boundary")

    def __init__(self, cells: _LazyRows, boundary: _LazyRows) -> None:
        self.cells = cells
        self.boundary = boundary


class _BlobNetwork:
    """Read-only ``RoadNetwork`` adapter over a memory-mapped CSR blob.

    Serves exactly the read interface cell customization uses —
    ``nodes``/``position``/``neighbors``/``directed`` — straight from
    the mapping, with an optional ``(u, v) -> weight`` delta overlay so
    a pool can follow traffic re-weights without a fresh spill.
    ``neighbors()`` rebuilds each adjacency dict in CSR arc order, which
    equals the source network's dict insertion order
    (:meth:`~repro.network.csr.CSRGraph.from_network` preserves it), so
    everything downstream — cell CSR snapshots, Dijkstra relaxation
    order, kept-arc insertion order — matches the serial build exactly.
    """

    __slots__ = ("_csr", "deltas", "directed")

    def __init__(self, csr) -> None:
        self._csr = csr
        self.directed = bool(csr.directed)
        self.deltas: dict = {}

    def __len__(self) -> int:
        return len(self._csr.node_ids)

    def __contains__(self, node) -> bool:
        return node in self._csr.index_of

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the mapped snapshot."""
        return len(self._csr.node_ids)

    def nodes(self):
        """Iterate node ids in the source network's insertion order."""
        return iter(self._csr.node_ids)

    def position(self, node) -> Point:
        """Coordinates of ``node`` (for per-cell CSR snapshots)."""
        csr = self._csr
        i = csr.index_of[node]
        return Point(csr.xs[i], csr.ys[i])

    def neighbors(self, node) -> dict:
        """Out-adjacency of ``node`` in original insertion order."""
        csr = self._csr
        i = csr.index_of[node]
        ids = csr.node_ids
        targets = csr.targets
        weights = csr.weights
        deltas = self.deltas
        out = {}
        for e in range(csr.offsets[i], csr.offsets[i + 1]):
            v = ids[targets[e]]
            w = deltas.get((node, v))
            out[v] = weights[e] if w is None else w
        return out


#: per-worker attachment cache: spec *kind* -> (spec, attached state).
#: One generation per kind — a new spec of the same kind replaces only
#: that kind's mappings, so a nested overlay's alternating cell/super
#: passes never evict each other's graph+layout mappings (the whole
#: point of mapping once per pool lifetime).
_ATTACHED: dict = {}


def _attach_cells(spec: tuple):
    """Attach (mmap) the graph + layout blobs named by ``spec``, cached."""
    cached = _ATTACHED.get(spec[0])
    if cached is not None and cached[0] == spec:
        return cached[1]
    from repro.service.blob import read_blob, read_csr_blob

    graph_path, layout_path = spec[1], spec[2]
    net = _BlobNetwork(read_csr_blob(graph_path))
    layout = read_blob(layout_path)
    s = layout.sections
    part = _BlobPartition(
        _LazyRows(s["cell_offsets"], s["cell_nodes"]),
        _LazyRows(s["bnd_offsets"], s["bnd_nodes"]),
    )
    state = (net, part)
    _ATTACHED[spec[0]] = (spec, state)
    return state


def _encode_clique(clique: dict) -> tuple:
    """Flatten one cell's clique into compact typed arrays.

    Path order is the deterministic serialization order (boundary node,
    then kept-arc insertion order), so decoding reproduces the serial
    build's dict ordering — endpoints are recovered from the paths
    themselves (``nodes[0]``/``nodes[-1]``).
    """
    dists = array("d")
    offsets = array("q", [0])
    nodes = array("q")
    for kept in clique.values():
        for p in kept.values():
            dists.append(p.distance)
            nodes.extend(p.nodes)
            offsets.append(len(nodes))
    return dists, offsets, nodes


def _decode_clique(boundary: Sequence, encoded: tuple) -> dict:
    """Rebuild a clique dict from :func:`_encode_clique` arrays."""
    dists, offsets, nodes = encoded
    clique: dict = {b: {} for b in boundary}
    for p in range(len(dists)):
        path_nodes = tuple(nodes[offsets[p]:offsets[p + 1]])
        b, b2 = path_nodes[0], path_nodes[-1]
        clique[b][b2] = PathResult(
            source=b, destination=b2, nodes=path_nodes, distance=dists[p]
        )
    return clique


def _stats_tuple(stats: SearchStats) -> tuple:
    """The order-independent counters a worker ships back."""
    return (
        stats.settled_nodes,
        stats.relaxed_edges,
        stats.heap_pushes,
        stats.max_settled_distance,
    )


def _merge_stats(stats: SearchStats, shipped: tuple) -> None:
    """Accumulate a worker's counters (sums and max commute)."""
    stats.settled_nodes += shipped[0]
    stats.relaxed_edges += shipped[1]
    stats.heap_pushes += shipped[2]
    if shipped[3] > stats.max_settled_distance:
        stats.max_settled_distance = shipped[3]


def _customize_cells_task(
    spec: tuple, cells: Sequence[int], deltas: dict
) -> tuple:
    """Worker entry point: customize a chunk of cells from the blobs."""
    from repro.search.overlay import OverlayGraph

    net, part = _attach_cells(spec)
    net.deltas = deltas
    stats = SearchStats()
    out = []
    for cell in cells:
        fcsr, _rcsr = OverlayGraph._cell_graphs(net, part, cell)
        out.append(
            (cell, _encode_clique(
                OverlayGraph._customize_cell(part, cell, fcsr, stats)
            ))
        )
    return out, _stats_tuple(stats)


def _attach_super(spec: tuple):
    """Attach the level-1 overlay blob named by ``spec``, cached."""
    cached = _ATTACHED.get(spec[0])
    if cached is not None and cached[0] == spec:
        return cached[1]
    from repro.service.blob import read_blob

    blob = read_blob(spec[1])
    s = blob.sections
    state = (
        s["over_offsets"], s["over_targets"],
        s["over_weights"], s["over_kinds"],
        _LazyRows(s["mem_offsets"], s["mem_nodes"]),
        _LazyRows(s["sb_offsets"], s["sb_nodes"]),
    )
    _ATTACHED[spec[0]] = (spec, state)
    return state


def _encode_super(clique: dict) -> tuple:
    """Flatten one supercell clique (distances, chains, via kinds)."""
    dists = array("d")
    offsets = array("q", [0])
    chains = array("q")
    kinds = array("q")
    for kept in clique.values():
        for arc in kept.values():
            dists.append(arc.distance)
            chains.extend(arc.chain)
            kinds.extend(arc.kinds)
            offsets.append(len(chains))
    return dists, offsets, chains, kinds


def _decode_super(sboundary: Sequence, encoded: tuple) -> dict:
    """Rebuild a supercell clique from :func:`_encode_super` arrays."""
    from repro.search.overlay import _SuperArc

    dists, offsets, chains, kinds = encoded
    clique: dict = {b: {} for b in sboundary}
    for p in range(len(dists)):
        chain = tuple(chains[offsets[p]:offsets[p + 1]])
        # each arc carries len(chain) - 1 via kinds, so after p arcs the
        # kinds array holds offsets[p] - p items — shift the run bounds
        krun = tuple(kinds[offsets[p] - p:offsets[p + 1] - p - 1])
        clique[chain[0]][chain[-1]] = _SuperArc(dists[p], chain, krun)
    return clique


def _customize_super_task(spec: tuple, supercells: Sequence[int]) -> tuple:
    """Worker entry point: supercell cliques over the mapped level-1 arcs."""
    from repro.search.overlay import _super_customize

    offsets, targets, weights, kinds, members, sboundary = _attach_super(spec)
    stats = SearchStats()
    out = []
    for sc in supercells:
        out.append(
            (sc, _encode_super(_super_customize(
                offsets, targets, weights, kinds,
                members[sc], sboundary[sc], stats,
            )))
        )
    return out, _stats_tuple(stats)


def _warm_task() -> int:
    """No-op used to force worker processes to exist (pool warm-up)."""
    return os.getpid()


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ParallelCustomizer:
    """A persistent worker pool that customizes overlay cells in parallel.

    One instance owns one process pool and one spill directory for the
    lifetime of a serving stack (or a single build, when used
    transiently via ``OverlayGraph.build(..., parallel=N)``).  See the
    module docstring for the handoff design; the contract callers rely
    on:

    * :meth:`customize` returns clique tables *byte-identical* (via
      ``dumps_overlay``) to the serial loop it replaces.
    * Sequential calls with ``changed_edges`` provided re-use the
      spilled blob (cumulative weight deltas); :attr:`spills` counts
      how often a fresh spill was actually needed.
    * ``changed_edges`` must cover every weight difference between the
      previously customized state and the target network — exactly the
      invariant :meth:`~repro.search.overlay.OverlayGraph.recustomized`
      already imposes on its callers.  Pass ``None`` to force a fresh
      spill (full builds do).

    Parameters
    ----------
    workers:
        Worker process count (>= 1).
    spill_dir:
        Directory for the blob files; defaults to a private temp
        directory removed on :meth:`close`.
    start_method:
        Multiprocessing start method; defaults to
        :func:`default_start_method` (``forkserver`` where available —
        safe alongside the serving stack's threads).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` for the
        ``repro_customize_*`` instrument family.
    tracer:
        Optional tracer; :meth:`customize` emits one
        ``customize.parallel`` span per call (counts only, no node ids).
    """

    def __init__(
        self,
        workers: int,
        spill_dir: str | os.PathLike[str] | None = None,
        start_method: str | None = None,
        metrics=None,
        tracer=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self._start_method = start_method or default_start_method()
        self._tracer = tracer
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self._owns_dir = spill_dir is None
        if spill_dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-customize-")
        else:
            self._dir = os.fspath(spill_dir)
            os.makedirs(self._dir, exist_ok=True)
        # spill state: one graph blob generation + cumulative deltas
        self._generation = 0
        self._graph_spec: tuple | None = None
        self._graph_shape: tuple | None = None
        self._deltas: dict = {}
        self._stale = False
        self._layout_partition = None
        self._layout_path: str | None = None
        self._layout_seq = 0
        # health / throughput accounting
        self.spills = 0
        self.cells_customized = 0
        self.pool_warm_s: float | None = None
        self.last_cells_per_sec = 0.0
        self._metrics = metrics
        if metrics is not None:
            metrics.gauge(
                "repro_customize_workers",
                desc="configured parallel customization worker processes",
            ).set(self.workers)
            self._m_warm = metrics.gauge(
                "repro_customize_pool_warm_seconds",
                desc="wall seconds to start the customization worker pool",
            )
            self._m_cells = metrics.counter(
                "repro_customize_cells_total",
                desc="cells customized through the parallel pool",
            )
            self._m_spills = metrics.counter(
                "repro_customize_spills_total",
                desc="CSR blob spills (first use plus forced re-spills)",
            )
            self._m_rate = metrics.gauge(
                "repro_customize_cells_per_sec",
                desc="throughput of the most recent parallel customization",
            )
        else:
            self._m_warm = self._m_cells = self._m_spills = self._m_rate = None

    # -- pool lifecycle ------------------------------------------------
    def warm(self) -> float:
        """Start the worker pool now and return its warm-up seconds.

        Idempotent; later calls return the recorded first warm-up time.
        Useful to pay the fork/spawn cost at deploy time instead of
        inside the first re-weight window (the serving stack's
        ``warm()`` does this when a customizer is configured).
        """
        self._ensure_pool()
        return self.pool_warm_s or 0.0

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The executor, started (and warmed) on first use."""
        if self._closed:
            raise RuntimeError("ParallelCustomizer is closed")
        if self._pool is None:
            t0 = time.perf_counter()
            ctx = multiprocessing.get_context(self._start_method)
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx
            )
            warmups = [self._pool.submit(_warm_task) for _ in range(self.workers)]
            for f in warmups:
                f.result()
            self.pool_warm_s = time.perf_counter() - t0
            if self._m_warm is not None:
                self._m_warm.set(self.pool_warm_s)
        return self._pool

    def close(self) -> None:
        """Shut the pool down and remove an owned spill directory."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._owns_dir:
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "ParallelCustomizer":
        """Enter a ``with`` block (no setup needed)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Leave a ``with`` block, shutting the pool down."""
        self.close()

    def __repr__(self) -> str:
        return (
            f"ParallelCustomizer(workers={self.workers}, "
            f"start_method={self._start_method!r}, spills={self.spills})"
        )

    # -- spill management ----------------------------------------------
    def _network_shape(self, network) -> tuple:
        """The cheap invariants a reusable spill must match."""
        return (
            len(network),
            getattr(network, "num_edges", None),
            bool(getattr(network, "directed", False)),
        )

    def _spill_graph(self, network) -> None:
        """Write a fresh ``.csrb`` blob of ``network`` (new generation)."""
        from repro.network.csr import csr_snapshot
        from repro.service.blob import write_csr_blob

        self._generation += 1
        path = os.path.join(self._dir, f"graph-g{self._generation}.csrb")
        write_csr_blob(csr_snapshot(network), path)
        old = self._graph_spec
        self._graph_spec = ("cells", path, self._layout_path)
        self._graph_shape = self._network_shape(network)
        self._deltas = {}
        self._stale = False
        self.spills += 1
        if self._m_spills is not None:
            self._m_spills.inc()
        if old is not None and old[1] != path:
            # workers hold their own mappings; the parent can drop the
            # old generation's file immediately (POSIX unlink-on-open)
            try:
                os.unlink(old[1])
            except OSError:  # pragma: no cover - best effort cleanup
                pass

    def _spill_layout(self, partition) -> None:
        """Write the partition layout blob (cells + boundaries)."""
        from repro.service.blob import write_blob

        cell_offsets = array("q", [0])
        cell_nodes = array("q")
        bnd_offsets = array("q", [0])
        bnd_nodes = array("q")
        try:
            for members in partition.cells:
                cell_nodes.extend(members)
                cell_offsets.append(len(cell_nodes))
            for boundary in partition.boundary:
                bnd_nodes.extend(boundary)
                bnd_offsets.append(len(bnd_nodes))
        except (TypeError, OverflowError) as exc:
            raise GraphError(
                "parallel customization needs integer node ids"
            ) from exc
        # Sequence-numbered independently of the graph generation: a
        # layout can be respilled many times per graph blob (one pool
        # serving several partitions of one network), and reusing a
        # filename would make the unchanged spec tuple hit the workers'
        # attach cache and serve the previous layout.
        self._layout_seq += 1
        path = os.path.join(self._dir, f"layout-s{self._layout_seq}.blob")
        write_blob(path, {"kind": "overlay-layout"}, [
            ("cell_offsets", "q", cell_offsets),
            ("cell_nodes", "q", cell_nodes),
            ("bnd_offsets", "q", bnd_offsets),
            ("bnd_nodes", "q", bnd_nodes),
        ])
        old = self._layout_path
        self._layout_path = path
        self._layout_partition = partition
        if old is not None and old != path:
            try:
                os.unlink(old)
            except OSError:  # pragma: no cover - best effort cleanup
                pass

    def _absorb(self, network, changed_edges) -> bool:
        """Fold ``changed_edges`` into the cumulative delta map.

        Returns ``False`` when the current spill cannot be kept — no
        spill yet, the caller could not name its changes, the network
        shape moved, a named edge does not exist on the target network
        (add+remove churn can slip past the cheap shape check), or the
        map outgrew its budget (a delta map rivaling the arc count costs
        every task more than a re-spill saves).

        Contract: ``changed_edges`` must name every weight that differs
        between the state this pool last saw (spill or absorb) and
        ``network`` — the guarantee :meth:`ServingStack.reweight
        <repro.service.serving.ServingStack.reweight>` provides along
        its snapshot chain.  A pool is therefore tied to one *logical*
        network; aim it at an unrelated network of coincidentally
        identical shape and the stale deltas silently corrupt worker
        weights.  Callers that cannot uphold the contract must pass
        ``changed_edges=None`` (full re-spill) or use a fresh pool.
        """
        if (
            self._graph_spec is None
            or changed_edges is None
            or self._graph_shape != self._network_shape(network)
        ):
            return False
        directed = bool(getattr(network, "directed", False))
        deltas = self._deltas
        for edge in changed_edges:
            u, v = edge[0], edge[1]
            try:
                w = network.neighbors(u)[v]
            except (KeyError, UnknownNodeError):
                # The edge is gone: the graph structurally changed, so
                # the spill (and any deltas folded so far — the caller
                # re-spills, which resets the map) cannot be kept.
                return False
            deltas[(u, v)] = w
            if not directed:
                deltas[(v, u)] = w
        return len(deltas) <= max(4096, len(network) // 2)

    def note_changes(self, network, changed_edges) -> None:
        """Record weight changes handled *outside* the pool.

        Serial fallbacks (single-cell refreshes, tiny builds) mutate the
        network without going through :meth:`customize`; this keeps the
        cumulative delta map coherent so the next pooled call still
        re-uses the spilled blob.  ``changed_edges=None`` (or any
        absorption failure) marks the spill stale, forcing a re-spill on
        the next pooled call instead of serving wrong weights.
        """
        if self._graph_spec is None:
            return  # nothing spilled yet; first customize() spills fresh
        if not self._absorb(network, changed_edges):
            self._stale = True

    def _prepare(self, network, partition, changed_edges) -> tuple:
        """Ensure blobs match the target network; return the task spec."""
        if self._layout_partition is not partition:
            self._spill_layout(partition)
            # a new partition invalidates the spec (it names the layout)
            if self._graph_spec is not None:
                self._graph_spec = (
                    "cells", self._graph_spec[1], self._layout_path
                )
        if self._stale or not self._absorb(network, changed_edges):
            self._spill_graph(network)
        return self._graph_spec

    # -- customization -------------------------------------------------
    def _chunks(self, cells: list) -> list:
        """Split the work list into per-task chunks (4 per worker)."""
        n = len(cells)
        size = max(1, -(-n // (self.workers * 4)))
        return [cells[i:i + size] for i in range(0, n, size)]

    def customize(
        self,
        network,
        partition,
        cells: Iterable[int],
        stats: SearchStats,
        changed_edges=None,
    ) -> dict:
        """Compute the given cells' cliques on the pool.

        Returns ``{cell: clique}`` with tables byte-identical to the
        serial ``_customize_cell`` loop, and accumulates the workers'
        search counters into ``stats`` (sums and max — order
        independent, so the totals equal the serial loop's).

        Raises
        ------
        GraphError
            For non-integer node ids (the blob restriction every
            persistent format in this package shares).
        """
        work = sorted(cells)
        if not work:
            return {}
        if self._tracer is not None:
            with self._tracer.span(
                "customize.parallel", cells=len(work), workers=self.workers
            ) as span:
                return self._run_cells(
                    network, partition, work, stats, changed_edges, span
                )
        return self._run_cells(
            network, partition, work, stats, changed_edges, None
        )

    def _run_cells(
        self, network, partition, work, stats, changed_edges, span
    ) -> dict:
        """Dispatch one prepared cell batch and reassemble the cliques."""
        pool = self._ensure_pool()
        t0 = time.perf_counter()
        spec = self._prepare(network, partition, changed_edges)
        deltas = dict(self._deltas)
        futures = [
            pool.submit(_customize_cells_task, spec, chunk, deltas)
            for chunk in self._chunks(work)
        ]
        out: dict = {}
        for future in futures:
            encoded, shipped = future.result()
            for cell, enc in encoded:
                out[cell] = _decode_clique(partition.boundary[cell], enc)
            _merge_stats(stats, shipped)
        elapsed = time.perf_counter() - t0
        self.cells_customized += len(work)
        self.last_cells_per_sec = len(work) / elapsed if elapsed > 0 else 0.0
        if self._m_cells is not None:
            self._m_cells.inc(len(work))
            self._m_rate.set(self.last_cells_per_sec)
        if span is not None:
            span.set("cells_per_sec", round(self.last_cells_per_sec, 3))
            span.set("spills", self.spills)
        return out

    def customize_super(
        self,
        level1: tuple,
        members: Sequence[Sequence[int]],
        sboundary: Sequence[Sequence[int]],
        supercells: Iterable[int],
        stats: SearchStats,
    ) -> dict:
        """Compute supercell cliques on the pool (nested overlay pass).

        ``level1`` is the ``(offsets, targets, weights, kinds)`` overlay
        adjacency; it is spilled per call (the weights change with every
        rebuild, and the arrays are small next to the graph blob).
        Returns ``{supercell: clique}`` matching
        :func:`~repro.search.overlay._super_customize` exactly.
        """
        from repro.service.blob import write_blob

        work = sorted(supercells)
        if not work:
            return {}
        pool = self._ensure_pool()
        offsets, targets, weights, kinds = level1
        mem_offsets = array("q", [0])
        mem_nodes = array("q")
        for m in members:
            mem_nodes.extend(m)
            mem_offsets.append(len(mem_nodes))
        sb_offsets = array("q", [0])
        sb_nodes = array("q")
        for sb in sboundary:
            sb_nodes.extend(sb)
            sb_offsets.append(len(sb_nodes))
        self._generation += 1
        path = os.path.join(self._dir, f"super-g{self._generation}.blob")
        write_blob(path, {"kind": "overlay-level1"}, [
            ("over_offsets", "q", array("q", offsets)),
            ("over_targets", "q", array("q", targets)),
            ("over_weights", "d", array("d", weights)),
            ("over_kinds", "q", array("q", kinds)),
            ("mem_offsets", "q", mem_offsets),
            ("mem_nodes", "q", mem_nodes),
            ("sb_offsets", "q", sb_offsets),
            ("sb_nodes", "q", sb_nodes),
        ])
        spec = ("super", path)
        futures = [
            pool.submit(_customize_super_task, spec, chunk)
            for chunk in self._chunks(work)
        ]
        out: dict = {}
        for future in futures:
            encoded, shipped = future.result()
            for sc, enc in encoded:
                out[sc] = _decode_super(sboundary[sc], enc)
            _merge_stats(stats, shipped)
        try:
            os.unlink(path)  # workers keep their mappings alive
        except OSError:  # pragma: no cover - best effort cleanup
            pass
        return out
