"""Shortest-path search algorithms and the OPAQUE server-side processors.

Point-to-point searches (Dijkstra, A*, ALT, Contraction Hierarchies, the
flat CSR kernels, partition overlays), the single-source
multi-destination (SSMD) primitive the paper's server builds on, the
multi-source multi-destination (MSMD) processors that evaluate obfuscated
path queries, and the Lemma 1 analytic cost model.

The :data:`ENGINES` table is the one place a per-engine fact lives: each
:class:`SearchEngine` row holds the engine's name and description, how to
``prepare`` its artifact, how to ``route`` one point query, which MSMD
processor answers batches (``make_processor``) and which persistent
format the artifact spills in (``spill``).  The server, CLI, serving
caches, benchmarks and the README's engine table (checked by
``tools/check_docs.py``) all read engines through :func:`get_engine` and
:func:`list_engines`, so adding or deleting an engine is one row here.
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
from repro.search.multi import (
    MSMDResult,
    MultiSourceMultiDestProcessor,
    NaivePairwiseProcessor,
    SharedTreeProcessor,
    SideSelectingProcessor,
    UnionPassResult,
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
    "MSMDResult",
    "UnionPassResult",
    "MultiSourceMultiDestProcessor",
    "NaivePairwiseProcessor",
    "SharedTreeProcessor",
    "SideSelectingProcessor",
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
    """One interchangeable search engine: a row of :data:`ENGINES`.

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
    spill:
        Tag of the persistent format
        :class:`~repro.service.cache.PreprocessingCache` spills this
        engine's artifact in and reloads it from (``"csrb"``, ``"ovlb"``,
        ``"ch"``, ``"ch-flat"``), or ``None`` when the artifact has none
        and is rebuilt instead.
    """

    name: str
    description: str
    prepare: Callable[[Any], Any]
    route: Callable[..., PathResult]
    make_processor: Callable[[], MultiSourceMultiDestProcessor]
    spill: str | None = None


def _on_network(function, keyword=None, prepare=None):
    """``route`` for a point search over the network.

    ``function(network, source, destination, stats=...)``, handed the
    artifact as ``keyword`` when it takes one; an artifact it cannot do
    without is built with ``prepare`` when the caller brings none.
    """

    def route(network, source, destination, context=None, stats=None):
        if keyword is None:
            return function(network, source, destination, stats=stats)
        if context is None and prepare is not None:
            context = prepare(network)
        return function(
            network, source, destination, stats=stats, **{keyword: context}
        )

    return route


def _on_artifact(prepare, query):
    """``route`` for a point search over the artifact alone.

    ``query(artifact, source, destination, stats=...)``; the artifact is
    built with ``prepare`` when the caller brings none.
    """

    def route(network, source, destination, context=None, stats=None):
        if context is None:
            context = prepare(network)
        return query(context, source, destination, stats=stats)

    return route


#: every registered engine, keyed by name
ENGINES: dict[str, SearchEngine] = {
    engine.name: engine
    for engine in (
        SearchEngine(
            name="dijkstra",
            description="plain Dijkstra (shared SSMD trees for batches)",
            prepare=lambda network: None,
            route=_on_network(dijkstra_path),
            make_processor=SharedTreeProcessor,
        ),
        SearchEngine(
            name="astar",
            description=(
                "A* with the Euclidean heuristic "
                "(batches fall back to shared SSMD trees)"
            ),
            prepare=lambda network: None,
            route=_on_network(astar_path),
            make_processor=SharedTreeProcessor,
        ),
        SearchEngine(
            name="alt",
            description="A* with landmark lower bounds (preprocessed)",
            prepare=LandmarkIndex,
            route=_on_network(alt_path, "index", LandmarkIndex),
            make_processor=ALTPairwiseProcessor,
        ),
        SearchEngine(
            name="ch",
            description="Contraction Hierarchies (preprocessed, batch buckets)",
            prepare=contract_network,
            route=_on_artifact(contract_network, ch_path),
            make_processor=CHManyToManyProcessor,
            spill="ch",
        ),
        SearchEngine(
            name="dijkstra-csr",
            description=(
                "Dijkstra on the flat CSR kernel (shared SSMD trees for "
                "batches; large ones in one numpy sweep when available)"
            ),
            prepare=csr_snapshot,
            route=_on_network(csr_dijkstra_path, "csr"),
            make_processor=CSRSharedTreeProcessor,
            spill="csrb",
        ),
        SearchEngine(
            name="bidirectional-csr",
            description="bidirectional Dijkstra on the flat CSR kernel, per pair",
            prepare=csr_snapshot,
            route=_on_network(csr_bidirectional_path, "csr"),
            make_processor=CSRBidirectionalPairwiseProcessor,
            spill="csrb",
        ),
        SearchEngine(
            name="ch-csr",
            description=(
                "Contraction Hierarchies on flat CSR arrays "
                "(preprocessed, batch buckets)"
            ),
            prepare=ch_csr_hierarchy,
            route=_on_artifact(ch_csr_hierarchy, csr_ch_path),
            make_processor=CSRCHManyToManyProcessor,
            spill="ch-flat",
        ),
        SearchEngine(
            name="overlay-csr",
            description=(
                "partition overlay with flat per-cell CSR kernels "
                "(CRP-style two-phase queries, per-cell recustomization)"
            ),
            prepare=overlay_snapshot,
            route=_on_artifact(overlay_snapshot, OverlayGraph.route),
            make_processor=CSROverlayProcessor,
            spill="ovlb",
        ),
        SearchEngine(
            name="overlay-nested",
            description=(
                "two-level nested partition overlay "
                "(boundary-of-boundary sweeps, per-supercell recustomization)"
            ),
            prepare=nested_overlay_snapshot,
            route=_on_artifact(
                nested_overlay_snapshot, NestedOverlayGraph.route
            ),
            make_processor=NestedOverlayProcessor,
            spill="ovlb",
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
        route=_on_network(vec_dijkstra_path, "csr"),
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
