"""Analytic search-cost model (the paper's Lemma 1).

Section III-B estimates the cost of a point query ``Q(s, t)`` as
``O(||s,t||^2)`` — the spanning tree of a Dijkstra search covers a disc of
radius ``||s,t||`` around ``s``, and on a planar network with roughly
uniform node density the work is proportional to that disc's area.  Lemma 1
extends this to an obfuscated query:

    cost(Q(S, T)) = O( sum_{s in S} max_{t in T} ||s,t||^2 )

These estimators compute the model's prediction from network distances (or
their Euclidean proxies) so experiments E2 and E9 can overlay predicted
curves on measured settled-node counts.

The model describes *memoryless* Dijkstra-family searches.  Engines that
preprocess the network sidestep it: a Contraction Hierarchies query
(:func:`repro.search.kernels.csr_ch_path`) is bounded by the two upward
search cones, not by the ``||s,t||^2`` disc, so its settled-node count
barely depends on the query radius.  Measured on perturbed grids (long-radius queries):
625-node grid — Dijkstra settles ~625, CH ~168; 10,000-node grid —
Dijkstra ~6,300, CH ~450 (both cones, stall-on-demand on).  The gap
against this module's disc-area estimate is exactly the amortized value
of preprocessing, which is why experiment E2 reports ``ch_settled`` next
to the Lemma 1 prediction and E6 tracks how the CH speedup widens with
network size.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exceptions import QueryError
from repro.network.graph import NodeId
from repro.search.dijkstra import dijkstra_to_many

__all__ = [
    "point_query_cost_estimate",
    "lemma1_cost_estimate",
    "naive_cost_estimate",
]


def point_query_cost_estimate(distance: float) -> float:
    """Model cost of a single path query with network distance ``distance``.

    Returned in "area units": callers fit a single proportionality constant
    (nodes per unit area) to convert it into settled-node predictions.
    """
    if distance < 0:
        raise ValueError("distance must be non-negative")
    return distance * distance


def lemma1_cost_estimate(
    network,
    sources: Sequence[NodeId],
    destinations: Sequence[NodeId],
    use_network_distance: bool = True,
) -> float:
    """Lemma 1 prediction ``sum_s max_t ||s,t||^2`` for ``Q(S, T)``.

    Parameters
    ----------
    use_network_distance:
        When ``True`` (default) ``||s,t||`` is the true shortest-path
        distance, obtained by one SSMD search per source (this is a
        modelling utility, not a fast path).  When ``False`` the Euclidean
        distance is used as a cheap lower-bound proxy.
    """
    if not sources or not destinations:
        raise QueryError("cost estimate needs non-empty S and T")
    total = 0.0
    for s in sources:
        if use_network_distance:
            paths = dijkstra_to_many(network, s, destinations)
            radius = max(paths[t].distance for t in destinations)
        else:
            radius = max(network.euclidean_distance(s, t) for t in destinations)
        total += point_query_cost_estimate(radius)
    return total


def naive_cost_estimate(
    network,
    sources: Sequence[NodeId],
    destinations: Sequence[NodeId],
    use_network_distance: bool = True,
) -> float:
    """Model cost of the naive strategy: ``sum_s sum_t ||s,t||^2``.

    The gap between this and :func:`lemma1_cost_estimate` is the predicted
    benefit of the paper's shared-tree processing.
    """
    if not sources or not destinations:
        raise QueryError("cost estimate needs non-empty S and T")
    total = 0.0
    for s in sources:
        if use_network_distance:
            paths = dijkstra_to_many(network, s, destinations)
            distances = [paths[t].distance for t in destinations]
        else:
            distances = [network.euclidean_distance(s, t) for t in destinations]
        total += sum(point_query_cost_estimate(d) for d in distances)
    return total
