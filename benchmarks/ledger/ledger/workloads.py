"""The four ledger workloads and their seeded request streams.

A workload fixes what the server is (network size, engine, shard
workers) and what the traffic looks like.  The stream is a pure function
of ``(workload, seed, index)``: the server only ever receives the
generated network file and HTTP bodies.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.network.generators import grid_network
from repro.workloads.queries import distance_bounded_queries, uniform_queries

_CHUNK = 256
_COMMUTERS = 64


def _uniform(network, count: int, seed: int) -> list[PathQuery]:
    return uniform_queries(network, count, seed=seed)


def _local(network, count: int, seed: int) -> list[PathQuery]:
    return distance_bounded_queries(network, count, 1.0, 4.0, seed=seed)


def _commute(network, count: int, seed: int) -> list[PathQuery]:
    # 64 trips are too few to average out uniform trip lengths (their
    # mean moves ~9% between seeds); commutes of one typical length —
    # about half the map's width — do
    min_x, _, max_x, _ = network.bounding_box()
    width = max_x - min_x
    return distance_bounded_queries(
        network, count, 0.45 * width, 0.55 * width, seed=seed
    )


@dataclass(frozen=True)
class Workload:
    """One row of the README's workload table."""

    name: str
    side: int
    engine: str
    workers: int
    f: int
    queries: Callable[[object, int, int], list[PathQuery]]
    #: requests of the fixed-count (``--out``) run, untraced
    count: int
    #: every request of one commuter is the identical Q(S, T)
    commuters: bool = False
    #: a POST /v1/reweight precedes every request whose index is a
    #: positive multiple of this (0 = read-only workload)
    reweight_every: int = 0

    def make_network(self):
        """The served map (the grid family every existing bench uses)."""
        return grid_network(self.side, self.side, perturbation=0.1, seed=7)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hot_repeat", 40, "dijkstra-csr", 0, 2, _commute, 40000,
                 commuters=True),
        Workload("cold_far", 100, "dijkstra-csr", 0, 4, _uniform, 1500),
        Workload("shard_local", 40, "dijkstra-csr", 2, 2, _local, 24000),
        Workload("churn_overlay", 100, "overlay-csr", 0, 3, _uniform, 1000,
                 reweight_every=20),
    )
}

#: the tiny variants ``--self-test`` runs (12x12, 50 requests each)
SELF_TEST_WORKLOADS = {
    name: replace(w, side=12, f=2, count=50) for name, w in WORKLOADS.items()
}


class Stream:
    """Seeded protected-request stream, generated lazily in chunks.

    ``salt`` separates the warm-up stream from the measured one so the
    warm-up never pre-fills the result cache with measured queries.
    """

    def __init__(self, workload: Workload, network, seed: int, salt: int = 0):
        self.workload = workload
        self._network = network
        self._seed = seed * 1_000_003 + salt * 500_009
        self._setting = ProtectionSetting(workload.f, workload.f)
        self._chunks: dict[int, list[ClientRequest]] = {}
        self._trips: list[PathQuery] = []
        if workload.commuters:
            self._trips = workload.queries(network, _COMMUTERS, self._seed)
        self._edges = sorted((u, v) for u, v, _ in network.edges())
        self._weights: dict[tuple, float] = {}

    def _chunk(self, c: int) -> list[ClientRequest]:
        seed = self._seed + 1 + c
        if self.workload.commuters:
            rng = random.Random(seed)
            picks = [rng.randrange(_COMMUTERS) for _ in range(_CHUNK)]
            return [
                ClientRequest(f"c{p}", self._trips[p], self._setting)
                for p in picks
            ]
        queries = self.workload.queries(self._network, _CHUNK, seed)
        return [
            ClientRequest(f"u{c * _CHUNK + k}", q, self._setting)
            for k, q in enumerate(queries)
        ]

    def request(self, index: int) -> ClientRequest:
        """The ``index``-th client request of the stream."""
        c, k = divmod(index, _CHUNK)
        chunk = self._chunks.get(c)
        if chunk is None:
            chunk = self._chunks[c] = self._chunk(c)
        return chunk[k]

    def sticky_key(self, request: ClientRequest) -> str | None:
        """Commuters keep their decoys; everyone else draws fresh ones."""
        return request.user if self.workload.commuters else None

    def reweight(self, k: int) -> tuple[int, int, float]:
        """The ``k``-th traffic update: one seeded edge, weight x U(1, 3).

        Call with ``k = 0, 1, 2, ...`` in order: each update scales the
        edge's *current* weight, which the stream tracks itself.
        """
        rng = random.Random(f"reweight:{self._seed}:{k}")
        u, v = self._edges[rng.randrange(len(self._edges))]
        current = self._weights.get((u, v))
        if current is None:
            current = self._network.edge_weight(u, v)
        weight = current * rng.uniform(1.0, 3.0)
        self._weights[(u, v)] = weight
        return (u, v, weight)
