"""Seeded path-query workload generators."""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.core.query import (
    ClientRequest,
    PathQuery,
    ProtectionSetting,
)
from repro.exceptions import ExperimentError
from repro.network.graph import NodeId, RoadNetwork
from repro.network.spatial import GridSpatialIndex

__all__ = [
    "uniform_queries",
    "distance_bounded_queries",
    "hotspot_queries",
    "popularity_map",
    "requests_from_queries",
]

_MAX_REJECTION_ROUNDS = 10_000


def uniform_queries(
    network: RoadNetwork, count: int, seed: int = 0
) -> list[PathQuery]:
    """``count`` queries with both endpoints uniform over the network."""
    if count < 0:
        raise ExperimentError("count must be >= 0")
    rng = random.Random(seed)
    nodes = list(network.nodes())
    if len(nodes) < 2 and count > 0:
        raise ExperimentError("need at least 2 nodes to build queries")
    queries: list[PathQuery] = []
    while len(queries) < count:
        s = rng.choice(nodes)
        t = rng.choice(nodes)
        if s != t:
            queries.append(PathQuery(s, t))
    return queries


def distance_bounded_queries(
    network: RoadNetwork,
    count: int,
    min_distance: float,
    max_distance: float,
    seed: int = 0,
) -> list[PathQuery]:
    """Queries whose Euclidean endpoint gap lies in ``[min, max]``.

    Uses rejection sampling; raises :class:`ExperimentError` when the
    network cannot supply enough pairs in the band (e.g. the band exceeds
    the map diagonal).
    """
    if count < 0:
        raise ExperimentError("count must be >= 0")
    if not 0 <= min_distance <= max_distance:
        raise ExperimentError("need 0 <= min_distance <= max_distance")
    rng = random.Random(seed)
    nodes = list(network.nodes())
    queries: list[PathQuery] = []
    rounds = 0
    while len(queries) < count:
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS * max(count, 1):
            raise ExperimentError(
                f"could not sample {count} queries with Euclidean distance in "
                f"[{min_distance}, {max_distance}]"
            )
        s = rng.choice(nodes)
        t = rng.choice(nodes)
        if s == t:
            continue
        d = network.euclidean_distance(s, t)
        if min_distance <= d <= max_distance:
            queries.append(PathQuery(s, t))
    return queries


def hotspot_queries(
    network: RoadNetwork,
    count: int,
    num_hotspots: int = 3,
    hotspot_radius: float | None = None,
    seed: int = 0,
    index: GridSpatialIndex | None = None,
) -> list[PathQuery]:
    """The paper's motivating workload: homes anywhere, destinations at
    a few sensitive hotspots (clinics, specialists...).

    Sources are uniform; each destination is a node within
    ``hotspot_radius`` of one of ``num_hotspots`` randomly placed hotspot
    centers (default radius: 5% of the map diagonal).
    """
    if count < 0:
        raise ExperimentError("count must be >= 0")
    if num_hotspots < 1:
        raise ExperimentError("need at least one hotspot")
    rng = random.Random(seed)
    nodes = list(network.nodes())
    if index is None:
        index = GridSpatialIndex(network)
    min_x, min_y, max_x, max_y = network.bounding_box()
    if hotspot_radius is None:
        diagonal = ((max_x - min_x) ** 2 + (max_y - min_y) ** 2) ** 0.5
        hotspot_radius = 0.05 * max(diagonal, 1e-9)
    hotspot_centers = [rng.choice(nodes) for _ in range(num_hotspots)]

    queries: list[PathQuery] = []
    rounds = 0
    while len(queries) < count:
        rounds += 1
        if rounds > _MAX_REJECTION_ROUNDS * max(count, 1):
            raise ExperimentError("could not sample hotspot queries")
        s = rng.choice(nodes)
        center = rng.choice(hotspot_centers)
        p = network.position(center)
        t = index.random_node_near(p.x, p.y, hotspot_radius, rng, exclude={s})
        if t is None or t == s:
            continue
        queries.append(PathQuery(s, t))
    return queries


def popularity_weighted_queries(
    network: RoadNetwork,
    count: int,
    popularity: dict[NodeId, float],
    seed: int = 0,
) -> list[PathQuery]:
    """Queries whose endpoints follow an endpoint-popularity distribution.

    Models real traffic: trips start and end at popular addresses.  Used
    with :func:`popularity_map` so the E7 adversary's prior matches how
    true queries are actually drawn.
    """
    if count < 0:
        raise ExperimentError("count must be >= 0")
    nodes = [n for n, w in popularity.items() if w > 0 and n in network]
    if len(nodes) < 2 and count > 0:
        raise ExperimentError("popularity map must cover at least 2 network nodes")
    weights = [popularity[n] for n in nodes]
    rng = random.Random(seed)
    queries: list[PathQuery] = []
    while len(queries) < count:
        s, t = rng.choices(nodes, weights=weights, k=2)
        if s != t:
            queries.append(PathQuery(s, t))
    return queries


def popularity_map(
    network: RoadNetwork, seed: int = 0, skew: float = 1.0
) -> dict[NodeId, float]:
    """Zipf-like endpoint-popularity weights over all nodes.

    Nodes get ranks in a seeded random order; node at rank ``r`` has
    weight ``1 / r**skew``.  ``skew=0`` is uniform; larger skews model a
    city where few addresses account for most trips — the adversary's
    public-information prior in experiment E7.
    """
    if skew < 0:
        raise ExperimentError("skew must be >= 0")
    rng = random.Random(seed)
    nodes = list(network.nodes())
    rng.shuffle(nodes)
    return {node: 1.0 / (rank**skew) for rank, node in enumerate(nodes, start=1)}


def requests_from_queries(
    queries: Sequence[PathQuery],
    setting: ProtectionSetting | Sequence[ProtectionSetting] = ProtectionSetting(),
    user_prefix: str = "user",
) -> list[ClientRequest]:
    """Wrap queries into client requests with sequential user ids.

    ``setting`` may be a single :class:`ProtectionSetting` applied to all,
    or one per query.
    """
    if isinstance(setting, ProtectionSetting):
        settings = [setting] * len(queries)
    else:
        settings = list(setting)
        if len(settings) != len(queries):
            raise ExperimentError(
                f"{len(queries)} queries but {len(settings)} protection settings"
            )
    return [
        ClientRequest(f"{user_prefix}-{i}", query, s)
        for i, (query, s) in enumerate(zip(queries, settings))
    ]
