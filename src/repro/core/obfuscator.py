"""The path query obfuscator (the trusted middle tier of Figure 5).

Turns client requests into obfuscated path queries by mixing true
endpoints with strategy-chosen fakes:

* :meth:`PathQueryObfuscator.obfuscate_independent` builds one
  ``Q(S_i, T_i)`` per request with ``|S_i| = f_Si`` and ``|T_i| = f_Ti``;
* :meth:`PathQueryObfuscator.obfuscate_shared` merges a group of requests
  into one ``Q(S, T)`` whose S/T contain every member's true endpoints,
  topped up with fakes until ``|S| >= max f_Si`` and ``|T| >= max f_Ti``;
* :meth:`PathQueryObfuscator.obfuscate_batch` is the full Section IV
  pipeline — cluster, then obfuscate each cluster.

Every product is an :class:`ObfuscationRecord`, which remembers which
endpoints were fake and which requests are hiding inside the query; the
candidate result path filter needs it, and the attack models in
:mod:`repro.core.attacks` treat it as the ground truth an adversary tries
to recover.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.clustering import QueryCluster, cluster_requests
from repro.core.endpoints import (
    CompactEndpointStrategy,
    FakeEndpointStrategy,
    SelectionContext,
)
from repro.core.query import ClientRequest, ObfuscatedPathQuery
from repro.exceptions import ObfuscationError
from repro.network.graph import NodeId, RoadNetwork
from repro.network.spatial import GridSpatialIndex

__all__ = ["ObfuscationRecord", "PathQueryObfuscator"]

_record_counter = itertools.count(1)

#: sticky queries one obfuscator remembers (least recently used go first)
STICKY_MEMO_SIZE = 4096


@dataclass(frozen=True, slots=True)
class ObfuscationRecord:
    """One obfuscated query plus the secret bookkeeping behind it.

    Attributes
    ----------
    record_id:
        Unique id used as the correlation token between obfuscator and
        filter (never contains user information).
    query:
        The server-visible ``Q(S, T)``.
    requests:
        The client requests hidden inside the query.
    fake_sources, fake_destinations:
        Which members of S/T are decoys.  This never leaves the
        obfuscator; attack models receive it only to *score* attacks.
    kind:
        ``"independent"`` or ``"shared"``.
    """

    record_id: int
    query: ObfuscatedPathQuery
    requests: tuple[ClientRequest, ...]
    fake_sources: frozenset[NodeId]
    fake_destinations: frozenset[NodeId]
    kind: str

    @property
    def true_sources(self) -> frozenset[NodeId]:
        """Real sources hidden in S."""
        return frozenset(r.query.source for r in self.requests)

    @property
    def true_destinations(self) -> frozenset[NodeId]:
        """Real destinations hidden in T."""
        return frozenset(r.query.destination for r in self.requests)


class PathQueryObfuscator:
    """Builds obfuscated path queries over a simple road map.

    Parameters
    ----------
    network:
        The obfuscator's own map — "different from [the] sophisticated one
        maintained in the directions search server" (Section IV); only node
        geometry is consulted.
    strategy:
        Fake endpoint selection strategy; defaults to
        :class:`CompactEndpointStrategy` (cheapest server cost).
    seed:
        Seed for all randomness (fake choice, endpoint order shuffling).
    index:
        Optional prebuilt spatial index; built lazily otherwise.
    """

    def __init__(
        self,
        network: RoadNetwork,
        strategy: FakeEndpointStrategy | None = None,
        seed: int = 0,
        index: GridSpatialIndex | None = None,
    ) -> None:
        if network.num_nodes < 2:
            raise ObfuscationError("obfuscator needs a map with at least 2 nodes")
        self._network = network
        self._strategy = strategy if strategy is not None else CompactEndpointStrategy()
        self._base_seed = seed
        self._rng = random.Random(seed)
        self._index = index if index is not None else GridSpatialIndex(network)
        # digest of (sticky key, trip, setting) -> the Q(S, T) derived for
        # it; see obfuscate_independent for why nothing else is kept
        self._sticky_memo: OrderedDict[bytes, ObfuscatedPathQuery] = (
            OrderedDict()
        )
        self._memo_key = repr(seed).encode()[:hashlib.blake2b.MAX_KEY_SIZE]
        #: records awaiting results, keyed by record id (Figure 6's
        #: "requests are kept for later result path filtering")
        self.pending: dict[int, ObfuscationRecord] = {}

    @property
    def network(self) -> RoadNetwork:
        """The obfuscator's road map."""
        return self._network

    @property
    def strategy(self) -> FakeEndpointStrategy:
        """The fake endpoint strategy in use."""
        return self._strategy

    # ------------------------------------------------------------------
    # Independent obfuscation
    # ------------------------------------------------------------------
    def obfuscate_independent(
        self, request: ClientRequest, sticky_key: str | None = None
    ) -> ObfuscationRecord:
        """Build ``Q(S, T)`` for one request with ``|S|=f_S`` and ``|T|=f_T``.

        Parameters
        ----------
        sticky_key:
            When given, fakes and endpoint order are derived
            deterministically from ``(seed, sticky_key, query, setting)``
            instead of the obfuscator's running RNG, so *repeating the
            same query yields the identical obfuscated query*.  This is
            the defense against the linkage attack of
            :class:`repro.core.attacks.LinkageAttack` — with fresh fakes,
            a server that can link a user's repeated observations
            intersects the candidate sets and isolates the true pair;
            sticky decoys make the intersection a fixpoint.

            Repeats are served from an LRU of :data:`STICKY_MEMO_SIZE`
            queries, so the common request costs one digest instead of
            an index scan.  The memo maps a BLAKE2b digest of
            ``(sticky_key, query, setting)``, keyed with the seed, to
            the server-visible ``Q(S, T)`` and nothing else: the decoy
            sets are recomputed as ``S - {s}`` and ``T - {t}`` and the
            record is built anew, so the memo holds only what the seed
            and the server's own log already determine, and a memoized
            record equals a re-derived one field for field.

        Raises
        ------
        ObfuscationError
            If the map cannot supply enough distinct fakes.
        """
        true_s = request.query.source
        true_t = request.query.destination
        if sticky_key is None:
            query = self._derive_independent(request, None)
        else:
            setting = request.setting
            digest = hashlib.blake2b(
                repr(
                    (sticky_key, true_s, true_t, setting.f_s, setting.f_t)
                ).encode(),
                key=self._memo_key,
                digest_size=16,
            ).digest()
            query = self._sticky_memo.get(digest)
            if query is None:
                query = self._derive_independent(request, sticky_key)
                if len(self._sticky_memo) >= STICKY_MEMO_SIZE:
                    self._sticky_memo.popitem(last=False)
            self._sticky_memo[digest] = query
            self._sticky_memo.move_to_end(digest)
        record = ObfuscationRecord(
            record_id=next(_record_counter),
            query=query,
            requests=(request,),
            fake_sources=frozenset(query.sources) - {true_s},
            fake_destinations=frozenset(query.destinations) - {true_t},
            kind="independent",
        )
        self.pending[record.record_id] = record
        return record

    def _derive_independent(
        self, request: ClientRequest, sticky_key: str | None
    ) -> ObfuscatedPathQuery:
        """Draw the decoys and the endpoint order of one independent query."""
        true_s = request.query.source
        true_t = request.query.destination
        rng: random.Random | None = None
        if sticky_key is not None:
            rng = random.Random(
                f"{self._base_seed}:{sticky_key}:{true_s!r}->{true_t!r}"
                f":{request.setting.f_s}x{request.setting.f_t}"
            )
        scanned: dict = {}
        fake_sources = self._pick_fakes(
            anchors=[true_s],
            counterparts=[true_t],
            count=request.setting.f_s - 1,
            exclude=frozenset({true_s, true_t}),
            scanned=scanned,
            rng=rng,
        )
        exclude_t = frozenset({true_s, true_t}) | frozenset(fake_sources)
        fake_destinations = self._pick_fakes(
            anchors=[true_t],
            counterparts=[true_s],
            count=request.setting.f_t - 1,
            exclude=exclude_t,
            scanned=scanned,
            rng=rng,
        )
        sources = self._shuffled([true_s] + fake_sources, rng=rng)
        destinations = self._shuffled([true_t] + fake_destinations, rng=rng)
        return ObfuscatedPathQuery(tuple(sources), tuple(destinations))

    # ------------------------------------------------------------------
    # Shared obfuscation
    # ------------------------------------------------------------------
    def obfuscate_shared(
        self, requests: Sequence[ClientRequest]
    ) -> ObfuscationRecord:
        """Merge ``requests`` into one shared ``Q(S, T)``.

        S holds every member's true source; fakes are added until
        ``|S| >= max_i f_Si`` (destinations symmetrically), matching
        Section III-C's definition of the shared obfuscated path query.

        Raises
        ------
        ObfuscationError
            If ``requests`` is empty or fakes run out.
        """
        if not requests:
            raise ObfuscationError("shared obfuscation needs at least one request")
        cluster = QueryCluster(requests=list(requests))
        true_sources = cluster.source_nodes
        true_destinations = cluster.destination_nodes
        need_s = max(cluster.max_f_s - len(true_sources), 0)
        need_t = max(cluster.max_f_t - len(true_destinations), 0)
        used = frozenset(true_sources) | frozenset(true_destinations)
        scanned: dict = {}
        fake_sources = self._pick_fakes(
            anchors=true_sources,
            counterparts=true_destinations,
            count=need_s,
            exclude=used,
            scanned=scanned,
        )
        fake_destinations = self._pick_fakes(
            anchors=true_destinations,
            counterparts=true_sources,
            count=need_t,
            exclude=used | frozenset(fake_sources),
            scanned=scanned,
        )
        sources = self._shuffled(true_sources + fake_sources)
        destinations = self._shuffled(true_destinations + fake_destinations)
        record = ObfuscationRecord(
            record_id=next(_record_counter),
            query=ObfuscatedPathQuery(tuple(sources), tuple(destinations)),
            requests=tuple(requests),
            fake_sources=frozenset(fake_sources),
            fake_destinations=frozenset(fake_destinations),
            kind="shared",
        )
        self.pending[record.record_id] = record
        return record

    # ------------------------------------------------------------------
    # Full pipeline
    # ------------------------------------------------------------------
    def obfuscate_batch(
        self,
        requests: Sequence[ClientRequest],
        mode: str = "shared",
        max_source_diameter: float = float("inf"),
        max_destination_diameter: float = float("inf"),
        max_cluster_size: int | None = None,
    ) -> list[ObfuscationRecord]:
        """Section IV pipeline: cluster the batch, obfuscate each cluster.

        Parameters
        ----------
        mode:
            ``"shared"`` (cluster, then one shared query per cluster) or
            ``"independent"`` (one query per request; clustering skipped).
        max_source_diameter, max_destination_diameter, max_cluster_size:
            Clustering knobs, see :func:`repro.core.clustering.cluster_requests`.
        """
        if mode == "independent":
            return [self.obfuscate_independent(r) for r in requests]
        if mode != "shared":
            raise ValueError(f"unknown mode {mode!r}; use 'independent' or 'shared'")
        clusters = cluster_requests(
            requests,
            self._network,
            max_source_diameter=max_source_diameter,
            max_destination_diameter=max_destination_diameter,
            max_cluster_size=max_cluster_size,
        )
        return [self.obfuscate_shared(c.requests) for c in clusters]

    def discard(self, record_id: int) -> None:
        """Forget a satisfied record ("immediately discarded ... for sake of
        security", Section IV).  Unknown ids are ignored (idempotent)."""
        self.pending.pop(record_id, None)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pick_fakes(
        self,
        anchors: Sequence[NodeId],
        counterparts: Sequence[NodeId],
        count: int,
        exclude: frozenset[NodeId],
        scanned: dict,
        rng: random.Random | None = None,
    ) -> list[NodeId]:
        if count <= 0:
            return []
        context = SelectionContext(
            network=self._network,
            index=self._index,
            rng=rng if rng is not None else self._rng,
            anchors=anchors,
            counterparts=counterparts,
            exclude=exclude,
            scanned=scanned,
        )
        return self._strategy.select(context, count)

    def _shuffled(
        self, nodes: list[NodeId], rng: random.Random | None = None
    ) -> list[NodeId]:
        out = list(nodes)
        (rng if rng is not None else self._rng).shuffle(out)
        return out
