"""Shortest-path search algorithms and the OPAQUE server-side processors.

Point-to-point searches (Dijkstra, Contraction Hierarchies, the flat CSR
kernels), the single-source multi-destination (SSMD) primitive the
paper's server builds on, the multi-source multi-destination (MSMD)
processors that evaluate obfuscated path queries, and the Lemma 1
analytic cost model.

The :data:`ENGINES` table is the one place a per-engine fact lives: each
:class:`SearchEngine` row holds the engine's name and description, how to
``prepare`` its artifact, how to ``route`` one point query, which MSMD
processor answers batches (``make_processor``) and which persistent
format the artifact spills in (``spill``).  The server, CLI, serving
caches, benchmarks and the README's engine table (checked by
``tools/check_docs.py``) all read engines through :func:`get_engine` and
:func:`list_engines`, so adding or deleting an engine is one row here.

**Census rule.**  An engine stays in the table only if a workload of the
request ledger (``benchmarks/ledger``) or a named paper experiment
(``repro.experiments``) needs it.  Plain ``dijkstra`` is the exactness
oracle every other engine is checked against.  ``dijkstra-csr`` serves
every ledger workload, and the ledger's per-engine table also times
``ch-csr`` and ``dijkstra-vec`` (the always-batched form of
``dijkstra-csr``); ``ch-csr`` also answers experiments E2 and E6's CH
columns.  Two names are not rows of their own: ``ch`` names the
``ch-csr`` row and ``overlay-csr`` the ``dijkstra-csr`` row, because
the ledger asks for them (see the aliases below the table).  A
point-query speed-up alone does not keep an engine: the paper's server
only ever evaluates ``|S| x |T|`` batches.
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
from repro.search.ch import ContractedGraph, contract_network
from repro.network.csr import CSRGraph, csr_snapshot
from repro.search.kernels import (
    CSRCHManyToManyProcessor,
    CSRHierarchy,
    CSRSharedTreeProcessor,
    VecSharedTreeProcessor,
    ch_csr_hierarchy,
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
    "MSMDResult",
    "UnionPassResult",
    "MultiSourceMultiDestProcessor",
    "NaivePairwiseProcessor",
    "SharedTreeProcessor",
    "SideSelectingProcessor",
    "lemma1_cost_estimate",
    "point_query_cost_estimate",
    "ContractedGraph",
    "contract_network",
    "CSRGraph",
    "csr_snapshot",
    "CSRHierarchy",
    "ch_csr_hierarchy",
    "csr_dijkstra_path",
    "csr_dijkstra_to_many",
    "csr_ch_path",
    "CSRSharedTreeProcessor",
    "CSRCHManyToManyProcessor",
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
        artifact (contracted graph, CSR snapshot, ...), or ``None`` for
        engines that need none.  Build it once, reuse it across queries.
    route:
        ``route(network, source, destination, context=None, stats=None)``
        answers one point query as a :class:`PathResult`.  Engines that
        require preprocessing build it on the fly when ``context`` is
        omitted (convenient, but pays the build cost per call).
    make_processor:
        Factory for the MSMD processor that runs this engine's strategy
        on obfuscated batches (used by
        :class:`~repro.core.server.DirectionsServer`).
    spill:
        Tag of the persistent format
        :class:`~repro.service.cache.PreprocessingCache` spills this
        engine's artifact in and reloads it from (``"csrb"``,
        ``"ch-flat"``), or ``None`` when the artifact has none
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
    )
}

# ``ch`` names the ``ch-csr`` row: the request ledger's CH tie probe
# still asks for it by that name.  It goes once the probe runs ``ch-csr``.
ENGINES["ch"] = ENGINES["ch-csr"]
# ``overlay-csr`` names the ``dijkstra-csr`` row: the request ledger
# starts ``churn_overlay`` with it and times it in its engine table.  It
# goes once the ledger renames that workload.
ENGINES["overlay-csr"] = ENGINES["dijkstra-csr"]

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
