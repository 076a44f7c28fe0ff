"""Serving-layer caches: preprocessing artifacts and many-to-many results.

A production directions service answers the same road network for
millions of sessions, so paying preprocessing (CH contraction, CSR
snapshots) per session — as a fresh
:class:`~repro.core.system.OpaqueSystem` does — is the dominant waste on
the hot path.  This module provides the two thread-safe LRU caches the
:class:`~repro.service.serving.ServingStack` puts in front of the
:class:`~repro.core.server.DirectionsServer`:

* :class:`PreprocessingCache` — keyed by ``(network fingerprint,
  engine)``, holding whatever :meth:`SearchEngine.prepare` built
  (CH hierarchy, CSR snapshot).  CH hierarchies evicted from memory
  spill their contracted graph to disk via
  :mod:`repro.search.ch.persist`; CSR snapshots spill as the
  page-aligned binary blobs of :mod:`repro.service.blob` and reload
  through one ``mmap`` — no text parsing, and CSR arrays stay
  mapping-backed so a cold load faults in only the pages queries
  touch.  Either way a reload on the next miss means an evicted
  network never pays preprocessing twice.
* :class:`ResultCache` — keyed by ``(network fingerprint, S, T,
  engine)``, holding whole :class:`~repro.search.multi.MSMDResult`
  tables.  Obfuscated queries recur (popular routes, shared-mode
  clusters, replayed workloads); a hit answers ``|S| x |T|`` path
  queries with zero search work — and, once the gateway has sent a
  table, with zero encoding work: the entry keeps the table's wire
  fragment (:func:`~repro.service.wire.encode_paths`) beside it.

Both caches expose hit/miss/eviction counters, combined into a
:class:`CacheSnapshot` that :class:`~repro.core.system.SessionReport`
and :class:`~repro.service.simulator.ServiceReport` surface.

The network fingerprint is content-based (:func:`network_fingerprint`),
so mutating a network — adding a road, reweighting an edge — changes the
key and transparently invalidates every artifact *and result table*
built for the old geometry.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import GraphError
from repro.network.graph import NodeId
from repro.obs.metrics import MetricsRegistry
from repro.search import ENGINES, get_engine
from repro.search.ch.persist import read_contracted, write_contracted
from repro.search.kernels import CSRHierarchy
from repro.search.multi import MSMDResult
from repro.service.blob import read_csr_blob, write_csr_blob
from repro.service.wire import encode_paths, table_paths

__all__ = [
    "network_fingerprint",
    "updated_fingerprint",
    "CacheSnapshot",
    "PreprocessingCache",
    "ResultCache",
]


_FINGERPRINT_MODULUS = 1 << 128


def _row_digest(network, node: NodeId) -> int:
    """128-bit digest of one node row: id, position, out-arcs with weights.

    Arcs are hashed in sorted neighbour order (``repr`` order for ids
    that do not compare), so adjacency insertion order never shows;
    floats enter as their exact IEEE-754 bytes.
    """
    nbrs = network.neighbors(node)
    try:
        order = sorted(nbrs)
    except TypeError:
        order = sorted(nbrs, key=repr)
    p = network.position(node)
    row = repr((node, order)).encode("utf-8") + struct.pack(
        f"<{len(order) + 2}d", p.x, p.y, *[nbrs[v] for v in order]
    )
    return int.from_bytes(hashlib.blake2b(row, digest_size=16).digest(), "big")


def network_fingerprint(network) -> str:
    """Content hash identifying a road network's exact geometry.

    Parameters
    ----------
    network:
        Any object with the :class:`~repro.network.graph.RoadNetwork`
        read API (``directed``, ``nodes()``, ``neighbors()``,
        ``position()``).

    Returns
    -------
    str
        32 hex digits: the sum modulo ``2**128`` of one BLAKE2b digest
        per node row (id, position, every out-arc with its weight) plus
        one for the directedness flag.  Two networks with identical
        content share a fingerprint regardless of object identity or
        insertion order; any mutation (new node, new edge, changed
        weight) produces a different one.

    Notes
    -----
    ``O(N + E)`` from scratch, which a serving stack pays once per
    network: :class:`~repro.service.serving.ServingStack` memoizes the
    string by the network's mutation ``version``, and a copy-on-write
    epoch derives the next one with :func:`updated_fingerprint` in
    ``O(changed rows)`` — the row sum is what makes that possible, and
    gateway, shard workers and a from-scratch hash of the same snapshot
    all arrive at the same string.

    This is a cache key, not an integrity check: a sum of digests does
    not resist an adversary who can choose rows, and nothing verifies a
    loaded artifact against it (blob checksums are a separate concern).
    """
    total = int.from_bytes(
        hashlib.blake2b(
            b"directed" if network.directed else b"undirected", digest_size=16
        ).digest(),
        "big",
    )
    for node in network.nodes():
        total += _row_digest(network, node)
    return format(total % _FINGERPRINT_MODULUS, "032x")


def updated_fingerprint(
    fingerprint: str, before, after, nodes: Iterable[NodeId]
) -> str:
    """:func:`network_fingerprint` of ``after`` without rehashing it all.

    ``before`` is the network ``fingerprint`` was computed for and
    ``after`` differs from it only in the rows of ``nodes`` (for a
    re-weighted edge: both endpoints; unchanged rows listed anyway
    cancel out).  Node set and directedness must be the same.
    """
    total = int(fingerprint, 16)
    for node in set(nodes):
        total += _row_digest(after, node) - _row_digest(before, node)
    return format(total % _FINGERPRINT_MODULUS, "032x")


@dataclass(frozen=True, slots=True)
class CacheSnapshot:
    """Point-in-time counters of the serving layer's two caches.

    Attributes
    ----------
    preprocessing_hits, preprocessing_misses, preprocessing_evictions:
        :class:`PreprocessingCache` counters (cumulative).
    preprocessing_disk_loads:
        Misses that were satisfied by reloading a spilled artifact from
        disk instead of rebuilding it.
    result_hits, result_misses, result_evictions:
        :class:`ResultCache` counters (cumulative).
    """

    preprocessing_hits: int = 0
    preprocessing_misses: int = 0
    preprocessing_evictions: int = 0
    preprocessing_disk_loads: int = 0
    result_hits: int = 0
    result_misses: int = 0
    result_evictions: int = 0

    @property
    def preprocessing_hit_rate(self) -> float:
        """Fraction of preprocessing lookups served from memory (0 when unused)."""
        total = self.preprocessing_hits + self.preprocessing_misses
        return self.preprocessing_hits / total if total else 0.0

    @property
    def result_hit_rate(self) -> float:
        """Fraction of result lookups served from cache (0 when unused)."""
        total = self.result_hits + self.result_misses
        return self.result_hits / total if total else 0.0

    def to_dict(self) -> dict:
        """Stable-key report shape (see ``docs/API.md``)."""
        return {
            "schema": 1,
            "kind": "cache_snapshot",
            "preprocessing_hits": self.preprocessing_hits,
            "preprocessing_misses": self.preprocessing_misses,
            "preprocessing_evictions": self.preprocessing_evictions,
            "preprocessing_disk_loads": self.preprocessing_disk_loads,
            "preprocessing_hit_rate": self.preprocessing_hit_rate,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "result_evictions": self.result_evictions,
            "result_hit_rate": self.result_hit_rate,
        }


class PreprocessingCache:
    """Thread-safe LRU of per-network preprocessing artifacts.

    Keys are ``(network fingerprint, engine name)``; values are whatever
    the engine's ``prepare`` hook built (``None`` for engines that need
    no preprocessing — cached too, so the lookup is uniform).

    Parameters
    ----------
    capacity:
        Maximum artifacts held in memory (>= 1).
    spill_dir:
        Optional directory for disk spill.  On eviction, artifacts with
        a persistent format (the engine row's
        :attr:`~repro.search.SearchEngine.spill` tag) are written to
        ``<fingerprint>-<engine>`` files (``.ch`` contracted graphs,
        ``.csrb`` CSR blobs); a later miss for the same key reloads the
        file instead of re-preprocessing.

    Examples
    --------
    >>> cache = PreprocessingCache(capacity=2)
    >>> cache.snapshot().preprocessing_hits
    0
    """

    def __init__(
        self,
        capacity: int = 8,
        spill_dir: str | os.PathLike[str] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._capacity = capacity
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._entries: OrderedDict[tuple[str, str], object] = OrderedDict()
        self._lock = threading.RLock()
        #: registry holding the live hit/miss counters (private when not
        #: shared; sharing one registry across caches shares the counts)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_hits = self.metrics.counter(
            "repro_preprocessing_cache_hits_total",
            desc="preprocessing artifacts served from memory",
        )
        self._m_misses = self.metrics.counter(
            "repro_preprocessing_cache_misses_total",
            desc="preprocessing lookups that had to build or reload",
        )
        self._m_evictions = self.metrics.counter(
            "repro_preprocessing_cache_evictions_total",
            desc="artifacts evicted (and possibly spilled) by the LRU",
        )
        self._m_disk_loads = self.metrics.counter(
            "repro_preprocessing_cache_disk_loads_total",
            desc="misses satisfied by reloading a spilled artifact",
        )

    @property
    def hits(self) -> int:
        """Lookups served from memory (registry-backed)."""
        return self._m_hits.value

    @property
    def misses(self) -> int:
        """Lookups that built or reloaded the artifact (registry-backed)."""
        return self._m_misses.value

    @property
    def evictions(self) -> int:
        """LRU evictions so far (registry-backed)."""
        return self._m_evictions.value

    @property
    def disk_loads(self) -> int:
        """Misses satisfied from the spill directory (registry-backed)."""
        return self._m_disk_loads.value

    def __len__(self) -> int:
        """Number of artifacts currently held in memory."""
        with self._lock:
            return len(self._entries)

    @property
    def capacity(self) -> int:
        """Maximum artifacts held in memory."""
        return self._capacity

    def get(
        self, network, engine_name: str, fingerprint: str | None = None
    ) -> object:
        """The preprocessing artifact for ``(network, engine_name)``.

        Returns the cached artifact on a hit; otherwise reloads a spilled
        copy from disk or builds a fresh one via the engine's ``prepare``
        hook, inserts it (possibly evicting the least recently used
        entry), and returns it.  Misses build *outside* the cache lock,
        so a multi-second contraction never blocks hits on other keys;
        two threads racing on the same cold key may both build, and the
        first insert wins.

        Parameters
        ----------
        network:
            The road network queries will run against; fingerprinted on
            every call so mutations invalidate stale artifacts.
        engine_name:
            A name from the :data:`repro.search.ENGINES` registry.
        fingerprint:
            Precomputed :func:`network_fingerprint` of ``network``, when
            the caller already has one (avoids hashing the graph twice).

        Returns
        -------
        object
            The engine's preprocessing context, or ``None`` for engines
            without preprocessing.
        """
        engine = get_engine(engine_name)  # validate before hashing work
        if fingerprint is None:
            fingerprint = network_fingerprint(network)
        key = (fingerprint, engine_name)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._m_hits.inc()
                return self._entries[key]
            self._m_misses.inc()
        # Build (or reload) without holding the lock.
        artifact = self._load_spilled(key, network)
        from_disk = artifact is not None
        if artifact is None:
            artifact = engine.prepare(network)
        evicted: tuple[tuple[str, str], object] | None = None
        with self._lock:
            if key in self._entries:  # a concurrent build got there first
                self._entries.move_to_end(key)
                return self._entries[key]
            if from_disk:
                self._m_disk_loads.inc()
            self._entries[key] = artifact
            if len(self._entries) > self._capacity:
                evicted = self._entries.popitem(last=False)
                self._m_evictions.inc()
        if evicted is not None:
            self._spill(*evicted)
        return artifact

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every in-memory artifact keyed by ``fingerprint``.

        The epoch-retirement hook of
        :meth:`~repro.service.serving.ServingStack.reweight`: once a
        retired epoch leaves the retirement window, its artifacts —
        across all engines — are released in one call.  Returns the
        number of entries dropped.  Spilled files stay on disk (still
        correct for that fingerprint, which recurs when a weight is put
        back).
        """
        with self._lock:
            doomed = [k for k in self._entries if k[0] == fingerprint]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        """Drop all in-memory entries and zero the counters."""
        with self._lock:
            self._entries.clear()
            for counter in (
                self._m_hits, self._m_misses,
                self._m_evictions, self._m_disk_loads,
            ):
                counter.reset()

    def snapshot(self) -> CacheSnapshot:
        """Current counters as a (preprocessing-only) :class:`CacheSnapshot`."""
        with self._lock:
            return CacheSnapshot(
                preprocessing_hits=self.hits,
                preprocessing_misses=self.misses,
                preprocessing_evictions=self.evictions,
                preprocessing_disk_loads=self.disk_loads,
            )

    def spill_now(self, fingerprint: str, engine_name: str) -> Path | None:
        """Persist the cached artifact for a key to the spill dir *now*.

        Spill normally happens lazily on LRU eviction; this forces it so
        another process pointed at the same ``spill_dir`` can warm from
        disk instead of rebuilding — the artifact-handoff channel the
        network gateway uses to start shard workers
        (:mod:`repro.service.gateway`).  Returns the spill file's path,
        or ``None`` when there is no spill dir, no in-memory artifact
        for the key, or the artifact's type has no persistent format.
        """
        with self._lock:
            artifact = self._entries.get((fingerprint, engine_name))
        if artifact is None:
            return None
        return self._spill((fingerprint, engine_name), artifact)

    # ------------------------------------------------------------------
    # Disk spill: the engine's row names the format (SearchEngine.spill),
    # _SPILL_FORMATS has its file suffix, writer and reader
    # ------------------------------------------------------------------
    def _spill_format(self, key: tuple[str, str]) -> tuple | None:
        """``(path, write, read)`` of a key's spill file, if it can have one."""
        engine = ENGINES.get(key[1])  # put() takes names get() never saw
        if self._spill_dir is None or engine is None or engine.spill is None:
            return None
        suffix, write, read = _SPILL_FORMATS[engine.spill]
        return self._spill_dir / f"{key[0]}-{key[1]}.{suffix}", write, read

    def _spill(self, key: tuple[str, str], artifact: object) -> Path | None:
        """Persist ``artifact``; its spill file's path once there is one."""
        spill = self._spill_format(key)
        if spill is None:
            return None
        path, write, _read = spill
        if not path.exists():  # else an earlier eviction persisted it
            self._spill_dir.mkdir(parents=True, exist_ok=True)
            try:
                write(artifact, path)
            except GraphError:  # non-int node ids: spill is best-effort
                path.unlink(missing_ok=True)
                return None
        return path

    def _load_spilled(self, key: tuple[str, str], network) -> object | None:
        spill = self._spill_format(key)
        if spill is None or not spill[0].exists():
            return None
        path, _write, read = spill
        return read(path, network)


#: spill formats by :attr:`repro.search.SearchEngine.spill` tag:
#: ``(file suffix, write(artifact, path), read(path, network))`` — the
#: one table path chooser, writer and loader all consult, so they cannot
#: disagree on a key's on-disk format.  CSR snapshots are
#: :mod:`repro.service.blob` blobs (mmap-backed: a cold load faults in
#: only the pages queries touch); a flat CH hierarchy persists the
#: contracted graph it wraps as the text of :mod:`repro.search.ch.persist`
#: and re-flattens on reload.
_SPILL_FORMATS = {
    "csrb": (
        "csrb", write_csr_blob, lambda path, network: read_csr_blob(path)
    ),
    "ch-flat": (
        "ch",
        lambda hierarchy, path: write_contracted(hierarchy.contracted, path),
        lambda path, network: CSRHierarchy(read_contracted(path)),
    ),
}


class ResultCache:
    """Thread-safe LRU of whole many-to-many result tables.

    Keys are ``(network fingerprint, sources, destinations, engine)``
    with endpoint tuples in wire order — the deterministic order
    :class:`~repro.core.query.ObfuscatedPathQuery` guarantees — so a
    repeated obfuscated query is a hit and a permuted one is not (the
    permuted table would be a different server response).  The
    fingerprint component makes sharing one cache across stacks serving
    different networks safe, and invalidates every table when a network
    is mutated in place.

    An entry is the table plus, from the first time it is sent over the
    wire, its encoded ``"paths"`` fragment (:meth:`fragment`,
    :meth:`hit`).  The fragment is a function of the key's ``S``/``T``
    order and the table, lives in the entry and leaves with it —
    eviction, :meth:`invalidate_fingerprint` and :meth:`clear` need no
    second bookkeeping, and no body can outlive its table.

    Parameters
    ----------
    capacity:
        Maximum cached tables; 0 disables caching (every lookup misses).

    Examples
    --------
    >>> cache = ResultCache(capacity=2)
    >>> cache.get("fp", (1, 2), (3,), "dijkstra") is None
    True
    >>> cache.misses
    1
    """

    def __init__(
        self, capacity: int = 256, metrics: MetricsRegistry | None = None
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self._capacity = capacity
        # key -> [table, wire fragment or None until first sent]
        self._entries: OrderedDict[
            tuple[str, tuple[NodeId, ...], tuple[NodeId, ...], str], list
        ] = OrderedDict()
        self._lock = threading.RLock()
        #: registry holding the live hit/miss counters
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_hits = self.metrics.counter(
            "repro_result_cache_hits_total",
            desc="result tables served without fresh search work",
        )
        self._m_misses = self.metrics.counter(
            "repro_result_cache_misses_total",
            desc="result lookups that required evaluation",
        )
        self._m_evictions = self.metrics.counter(
            "repro_result_cache_evictions_total",
            desc="result tables evicted by the LRU",
        )

    @property
    def hits(self) -> int:
        """Lookups served from cache (registry-backed)."""
        return self._m_hits.value

    @property
    def misses(self) -> int:
        """Lookups that required evaluation (registry-backed)."""
        return self._m_misses.value

    @property
    def evictions(self) -> int:
        """LRU evictions so far (registry-backed)."""
        return self._m_evictions.value

    def __len__(self) -> int:
        """Number of cached result tables."""
        with self._lock:
            return len(self._entries)

    @property
    def capacity(self) -> int:
        """Maximum number of cached tables."""
        return self._capacity

    @staticmethod
    def _key(
        fingerprint: str,
        sources: Sequence[NodeId],
        destinations: Sequence[NodeId],
        engine: str,
    ) -> tuple[str, tuple[NodeId, ...], tuple[NodeId, ...], str]:
        return (fingerprint, tuple(sources), tuple(destinations), engine)

    def get(
        self,
        fingerprint: str,
        sources: Sequence[NodeId],
        destinations: Sequence[NodeId],
        engine: str,
    ) -> MSMDResult | None:
        """The cached table for ``Q(S, T)`` on that network, or ``None``.

        Counts a hit/miss and refreshes LRU recency on hit.
        """
        key = self._key(fingerprint, sources, destinations, engine)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._m_hits.inc()
                return entry[0]
            self._m_misses.inc()
            return None

    def hit(
        self,
        fingerprint: str,
        sources: Sequence[NodeId],
        destinations: Sequence[NodeId],
        engine: str,
    ) -> tuple[MSMDResult, bytes] | None:
        """The cached table and its wire fragment, or ``None``.

        The lookup of a caller that answers hits itself and hands
        everything else to a path that calls :meth:`get`: a hit counts
        and refreshes recency exactly as :meth:`get` would, a miss
        counts nothing, so each request moves one counter once.
        """
        key = self._key(fingerprint, sources, destinations, engine)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            self._m_hits.inc()
            result, fragment = entry
        if fragment is None:
            fragment = self._encode(key, result)
        return result, fragment

    def fragment(
        self,
        fingerprint: str,
        sources: Sequence[NodeId],
        destinations: Sequence[NodeId],
        engine: str,
        result: MSMDResult,
    ) -> bytes:
        """Wire fragment of ``result``, the table just served for this key.

        Encoded once and kept in the entry when the entry holds that
        very table; a table the cache does not hold (capacity 0, already
        evicted, an epoch that has moved on) is encoded and not kept.
        No counter moves and recency is untouched.  The encode runs
        outside the lock (:meth:`_encode`).
        """
        key = self._key(fingerprint, sources, destinations, engine)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is result and entry[1]:
                return entry[1]
        return self._encode(key, result)

    def _encode(self, key: tuple, result: MSMDResult) -> bytes:
        """Encode ``result`` outside the lock, so a lookup on the event
        loop never waits behind an encode on a lane thread; keep the
        bytes only while the entry still holds that very table."""
        fragment = encode_paths(table_paths(key[1], key[2], result))
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is result and not entry[1]:
                entry[1] = fragment
        return fragment

    def put(
        self,
        fingerprint: str,
        sources: Sequence[NodeId],
        destinations: Sequence[NodeId],
        engine: str,
        result: MSMDResult,
    ) -> None:
        """Insert a table (evicting the LRU entry when full)."""
        if self._capacity == 0:
            return
        key = self._key(fingerprint, sources, destinations, engine)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = [result, None]
            if len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._m_evictions.inc()

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every cached table keyed by ``fingerprint``.

        Companion to
        :meth:`PreprocessingCache.invalidate_fingerprint`: when a
        reweight releases a retired epoch it also releases that epoch's
        result tables (a restored weight brings the fingerprint back,
        and its tables are recomputed on demand).  Returns the number
        of tables dropped; no hit/miss/eviction counter moves.
        """
        with self._lock:
            doomed = [k for k in self._entries if k[0] == fingerprint]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def count_shared_hit(self) -> None:
        """Count a lookup served by work shared within the same batch.

        The serving stack deduplicates identical queries inside one
        batch; the duplicates never probe the table (it is not populated
        yet) but they *are* served without fresh work, so they count as
        hits to keep the hit rate consistent with per-response
        ``from_cache`` flags.
        """
        with self._lock:
            self._m_hits.inc()

    def clear(self) -> None:
        """Drop all entries and zero the counters."""
        with self._lock:
            self._entries.clear()
            for counter in (self._m_hits, self._m_misses, self._m_evictions):
                counter.reset()

    def snapshot(self) -> CacheSnapshot:
        """Current counters as a (result-only) :class:`CacheSnapshot`."""
        with self._lock:
            return CacheSnapshot(
                result_hits=self.hits,
                result_misses=self.misses,
                result_evictions=self.evictions,
            )
