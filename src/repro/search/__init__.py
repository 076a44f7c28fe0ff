"""Shortest-path search algorithms and the OPAQUE server-side processors.

Point-to-point searches (Dijkstra, A*, bidirectional Dijkstra, ALT,
Contraction Hierarchies), the single-source multi-destination (SSMD)
primitive the paper's server builds on, the multi-source multi-destination
(MSMD) processors that evaluate obfuscated path queries, and the Lemma 1
analytic cost model.

The :data:`ENGINES` registry is the one catalogue of interchangeable
search engines; the server, CLI and benchmarks all resolve engines through
:func:`get_engine` so a new engine only needs to be registered here.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.search.result import PathResult, SearchStats
from repro.search.dijkstra import (
    dijkstra_path,
    dijkstra_sssp,
    dijkstra_to_many,
)
from repro.search.astar import astar_path, euclidean_heuristic
from repro.search.bidirectional import bidirectional_dijkstra_path
from repro.search.multi import (
    MSMDResult,
    MultiSourceMultiDestProcessor,
    NaivePairwiseProcessor,
    SharedTreeProcessor,
    SideSelectingProcessor,
    UnionPassResult,
    get_processor,
)
from repro.search.cost_model import (
    lemma1_cost_estimate,
    point_query_cost_estimate,
)
from repro.search.alt import (
    ALTPairwiseProcessor,
    LandmarkIndex,
    alt_path,
    select_landmarks_farthest,
)
from repro.search.ch import (
    CHManyToManyProcessor,
    ContractedGraph,
    ch_path,
    contract_network,
)
from repro.network.csr import CSRGraph, csr_snapshot
from repro.network.partition import Partition, partition_network, partition_snapshot
from repro.search.overlay import (
    CSROverlayProcessor,
    NestedOverlayGraph,
    NestedOverlayProcessor,
    OverlayGraph,
    OverlayProcessor,
    build_nested_overlay,
    build_overlay,
    nested_overlay_snapshot,
    overlay_snapshot,
)
from repro.search.kernels import (
    CSRBidirectionalPairwiseProcessor,
    CSRCHManyToManyProcessor,
    CSRHierarchy,
    CSRSharedTreeProcessor,
    VecSharedTreeProcessor,
    ch_csr_hierarchy,
    csr_bidirectional_path,
    csr_ch_path,
    csr_dijkstra_path,
    csr_dijkstra_to_many,
)
from repro.search.vectorized import (
    VecGraph,
    numpy_available,
    vec_batch_paths,
    vec_dijkstra_path,
    vec_view,
)

__all__ = [
    "PathResult",
    "SearchStats",
    "dijkstra_path",
    "dijkstra_sssp",
    "dijkstra_to_many",
    "astar_path",
    "euclidean_heuristic",
    "bidirectional_dijkstra_path",
    "MSMDResult",
    "UnionPassResult",
    "MultiSourceMultiDestProcessor",
    "NaivePairwiseProcessor",
    "SharedTreeProcessor",
    "SideSelectingProcessor",
    "get_processor",
    "lemma1_cost_estimate",
    "point_query_cost_estimate",
    "LandmarkIndex",
    "alt_path",
    "select_landmarks_farthest",
    "ALTPairwiseProcessor",
    "ContractedGraph",
    "contract_network",
    "ch_path",
    "CHManyToManyProcessor",
    "CSRGraph",
    "csr_snapshot",
    "CSRHierarchy",
    "ch_csr_hierarchy",
    "csr_dijkstra_path",
    "csr_dijkstra_to_many",
    "csr_bidirectional_path",
    "csr_ch_path",
    "CSRSharedTreeProcessor",
    "CSRBidirectionalPairwiseProcessor",
    "CSRCHManyToManyProcessor",
    "Partition",
    "partition_network",
    "partition_snapshot",
    "OverlayGraph",
    "build_overlay",
    "overlay_snapshot",
    "OverlayProcessor",
    "CSROverlayProcessor",
    "NestedOverlayGraph",
    "build_nested_overlay",
    "nested_overlay_snapshot",
    "NestedOverlayProcessor",
    "VecGraph",
    "VecSharedTreeProcessor",
    "numpy_available",
    "vec_batch_paths",
    "vec_dijkstra_path",
    "vec_view",
    "SearchEngine",
    "ENGINES",
    "get_engine",
    "list_engines",
]


@dataclass(frozen=True)
class SearchEngine:
    """One interchangeable search engine.

    Attributes
    ----------
    name:
        Registry key (also the CLI ``--engine`` value).
    description:
        One-line summary for ``--help`` texts and reports.
    prepare:
        ``prepare(network) -> context`` builds the engine's preprocessing
        artifact (landmark index, contracted graph, ...), or ``None`` for
        engines that need none.  Build it once, reuse it across queries.
    route:
        ``route(network, source, destination, context=None, stats=None)``
        answers one point query as a :class:`PathResult`.  Engines that
        require preprocessing build it on the fly when ``context`` is
        omitted (convenient, but pays the build cost per call).
    make_processor:
        Factory for the MSMD processor that runs this engine's strategy
        on obfuscated batches (used by
        :class:`~repro.core.server.DirectionsServer`).  One engine
        cannot batch honestly: Euclidean A*'s heuristic is inadmissible
        on travel-time networks, so the ``astar`` engine answers batches
        with the paper's exact shared SSMD trees instead.
    """

    name: str
    description: str
    prepare: Callable[[Any], Any]
    route: Callable[..., PathResult]
    make_processor: Callable[[], MultiSourceMultiDestProcessor]


def _route_dijkstra(network, source, destination, context=None, stats=None):
    return dijkstra_path(network, source, destination, stats=stats)


def _route_astar(network, source, destination, context=None, stats=None):
    return astar_path(network, source, destination, stats=stats)


def _route_bidirectional(network, source, destination, context=None, stats=None):
    return bidirectional_dijkstra_path(network, source, destination, stats=stats)


def _route_alt(network, source, destination, context=None, stats=None):
    if context is None:
        context = LandmarkIndex(network)
    return alt_path(network, source, destination, context, stats=stats)


def _route_ch(network, source, destination, context=None, stats=None):
    if context is None:
        context = contract_network(network)
    return ch_path(context, source, destination, stats=stats)


def _route_dijkstra_csr(network, source, destination, context=None, stats=None):
    return csr_dijkstra_path(network, source, destination, csr=context, stats=stats)


def _route_bidirectional_csr(network, source, destination, context=None, stats=None):
    return csr_bidirectional_path(
        network, source, destination, csr=context, stats=stats
    )


def _route_ch_csr(network, source, destination, context=None, stats=None):
    if context is None:
        context = ch_csr_hierarchy(network)
    return csr_ch_path(context, source, destination, stats=stats)


def _prepare_overlay(network):
    return overlay_snapshot(network, kernel="dict")


def _prepare_overlay_csr(network):
    return overlay_snapshot(network, kernel="csr")


def _route_overlay(network, source, destination, context=None, stats=None):
    if context is None:
        context = overlay_snapshot(network, kernel="dict")
    return context.route(source, destination, stats=stats)


def _route_overlay_csr(network, source, destination, context=None, stats=None):
    if context is None:
        context = overlay_snapshot(network, kernel="csr")
    return context.route(source, destination, stats=stats)


def _prepare_overlay_nested(network):
    return nested_overlay_snapshot(network, kernel="csr")


def _route_overlay_nested(network, source, destination, context=None, stats=None):
    if context is None:
        context = nested_overlay_snapshot(network, kernel="csr")
    return context.route(source, destination, stats=stats)


def _route_dijkstra_vec(network, source, destination, context=None, stats=None):
    vec = None if context is None else vec_view(context)
    return vec_dijkstra_path(network, source, destination, vec=vec, stats=stats)


#: every registered engine, keyed by name
ENGINES: dict[str, SearchEngine] = {
    engine.name: engine
    for engine in (
        SearchEngine(
            name="dijkstra",
            description="plain Dijkstra (shared SSMD trees for batches)",
            prepare=lambda network: None,
            route=_route_dijkstra,
            make_processor=SharedTreeProcessor,
        ),
        SearchEngine(
            name="astar",
            description=(
                "A* with the Euclidean heuristic "
                "(batches fall back to shared SSMD trees)"
            ),
            prepare=lambda network: None,
            route=_route_astar,
            make_processor=SharedTreeProcessor,
        ),
        SearchEngine(
            name="bidirectional",
            description="bidirectional Dijkstra per pair",
            prepare=lambda network: None,
            route=_route_bidirectional,
            make_processor=lambda: NaivePairwiseProcessor(engine="bidirectional"),
        ),
        SearchEngine(
            name="alt",
            description="A* with landmark lower bounds (preprocessed)",
            prepare=LandmarkIndex,
            route=_route_alt,
            make_processor=ALTPairwiseProcessor,
        ),
        SearchEngine(
            name="ch",
            description="Contraction Hierarchies (preprocessed, batch buckets)",
            prepare=contract_network,
            route=_route_ch,
            make_processor=CHManyToManyProcessor,
        ),
        SearchEngine(
            name="dijkstra-csr",
            description=(
                "Dijkstra on the flat CSR kernel (shared SSMD trees for "
                "batches; large ones in one numpy sweep when available)"
            ),
            prepare=csr_snapshot,
            route=_route_dijkstra_csr,
            make_processor=CSRSharedTreeProcessor,
        ),
        SearchEngine(
            name="bidirectional-csr",
            description="bidirectional Dijkstra on the flat CSR kernel, per pair",
            prepare=csr_snapshot,
            route=_route_bidirectional_csr,
            make_processor=CSRBidirectionalPairwiseProcessor,
        ),
        SearchEngine(
            name="ch-csr",
            description=(
                "Contraction Hierarchies on flat CSR arrays "
                "(preprocessed, batch buckets)"
            ),
            prepare=ch_csr_hierarchy,
            route=_route_ch_csr,
            make_processor=CSRCHManyToManyProcessor,
        ),
        SearchEngine(
            name="overlay",
            description=(
                "partition + boundary-overlay two-phase queries "
                "(CRP-style; per-cell recustomization)"
            ),
            prepare=_prepare_overlay,
            route=_route_overlay,
            make_processor=OverlayProcessor,
        ),
        SearchEngine(
            name="overlay-csr",
            description=(
                "partition overlay with flat per-cell CSR kernels "
                "(preprocessed, per-cell recustomization)"
            ),
            prepare=_prepare_overlay_csr,
            route=_route_overlay_csr,
            make_processor=CSROverlayProcessor,
        ),
        SearchEngine(
            name="overlay-nested",
            description=(
                "two-level nested partition overlay "
                "(boundary-of-boundary sweeps, per-supercell recustomization)"
            ),
            prepare=_prepare_overlay_nested,
            route=_route_overlay_nested,
            make_processor=NestedOverlayProcessor,
        ),
    )
}

# The numpy-vectorized tier registers only when numpy imports, so
# interpreters without numpy keep the exact engine catalogue above (and
# the conformance harness never parametrizes engines it cannot run).
if numpy_available():
    ENGINES["dijkstra-vec"] = SearchEngine(
        name="dijkstra-vec",
        description=(
            "numpy-vectorized batched SSMD frontier sweeps "
            "(2-D distance tables; requires numpy)"
        ),
        prepare=csr_snapshot,
        route=_route_dijkstra_vec,
        make_processor=VecSharedTreeProcessor,
    )


def get_engine(name: str) -> SearchEngine:
    """Look up a registered engine by name.

    Raises
    ------
    KeyError
        For unknown names; the message lists the valid ones.
    """
    try:
        return ENGINES[name]
    except KeyError:
        valid = ", ".join(sorted(ENGINES))
        raise KeyError(f"unknown engine {name!r}; valid: {valid}") from None


def list_engines() -> list[str]:
    """Registered engine names, sorted."""
    return sorted(ENGINES)
