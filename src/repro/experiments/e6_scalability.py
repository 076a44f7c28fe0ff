"""E6 — Scalability with network size (Section III-B's area argument).

Run the same relative workload on grids of increasing size and compare
the MSMD processors.  Because the search cost is bounded by the area the
spanning trees touch, cost grows with the (scaled) query radius for every
processor, and the processor ranking (shared <= side-selecting <= naive)
is preserved at every size.

The Contraction Hierarchies columns show how a preprocessing-based engine
changes the scalability picture: per-query settled counts grow barely at
all with network size (the hierarchy absorbs the area term of Lemma 1),
so its speedup over naive *widens* as the map grows — the regime a
production service with millions of users operates in.  One-time
contraction cost is reported separately (``ch_prep_settled`` counts
witness-search settles) rather than folded into query cost.

The CH columns come from the flat-array bucket processor
(:class:`~repro.search.kernels.CSRCHManyToManyProcessor`).  The
``csr_settled`` column runs the flat-array shared-tree processor on the
same queries: its settled count tracks ``shared_settled`` at every size,
demonstrating that the CSR port accelerates the constant factor without
changing the algorithmic cost the paper models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import ProtectionSetting
from repro.experiments.harness import ExperimentResult
from repro.network.generators import grid_network
from repro.search.ch import contract_network
from repro.search.kernels import (
    CSRCHManyToManyProcessor,
    CSRHierarchy,
    CSRSharedTreeProcessor,
)
from repro.search.multi import (
    NaivePairwiseProcessor,
    SharedTreeProcessor,
    SideSelectingProcessor,
)
from repro.workloads.queries import distance_bounded_queries, requests_from_queries

__all__ = ["Config", "run"]


@dataclass(slots=True)
class Config:
    """E6 parameters."""

    grid_sizes: list[int] = field(default_factory=lambda: [20, 30, 40, 50])
    num_queries: int = 6
    f_s: int = 4
    f_t: int = 2  # |T| < |S| so side selection has something to exploit
    relative_min_distance: float = 0.25  # fraction of grid side
    relative_max_distance: float = 0.5
    seed: int = 6


def run(config: Config | None = None) -> ExperimentResult:
    """Run E6 and return its table."""
    if config is None:
        config = Config()
    processors = [
        NaivePairwiseProcessor(),
        SharedTreeProcessor(),
        SideSelectingProcessor(),
    ]
    result = ExperimentResult(
        experiment_id="E6",
        title="Server cost vs. network size (all MSMD processors)",
        columns=[
            "grid",
            "nodes",
            "naive_settled",
            "shared_settled",
            "side_settled",
            "ch_settled",
            "csr_settled",
            "shared_speedup",
            "side_speedup",
            "ch_speedup",
            "ch_prep_settled",
        ],
        expectation=(
            "costs grow with network size at fixed relative query radius; "
            "ranking shared <= side-selecting <= naive holds at every size; "
            "with |T| < |S| side selection beats plain shared; CH query "
            "cost stays near-flat so its speedup widens with size; the CSR "
            "kernel column tracks shared at every size"
        ),
    )
    for size in config.grid_sizes:
        network = grid_network(size, size, perturbation=0.1, seed=config.seed)
        queries = distance_bounded_queries(
            network,
            config.num_queries,
            config.relative_min_distance * size,
            config.relative_max_distance * size,
            seed=config.seed,
        )
        requests = requests_from_queries(
            queries, ProtectionSetting(config.f_s, config.f_t)
        )
        obfuscator = PathQueryObfuscator(network, seed=config.seed)
        records = [obfuscator.obfuscate_independent(r) for r in requests]
        contracted = contract_network(network)
        sized_processors = processors + [
            CSRSharedTreeProcessor(),
            CSRCHManyToManyProcessor(hierarchy=CSRHierarchy(contracted)),
        ]
        settled = {}
        for processor in sized_processors:
            total = 0
            for record in records:
                out = processor.process(
                    network,
                    list(record.query.sources),
                    list(record.query.destinations),
                )
                total += out.stats.settled_nodes
            settled[processor.name] = total
        result.rows.append(
            {
                "grid": f"{size}x{size}",
                "nodes": network.num_nodes,
                "naive_settled": settled["naive"],
                "shared_settled": settled["shared"],
                "side_settled": settled["side-selecting"],
                "ch_settled": settled["ch-csr"],
                "csr_settled": settled["dijkstra-csr"],
                "shared_speedup": settled["naive"] / max(settled["shared"], 1),
                "side_speedup": settled["naive"] / max(settled["side-selecting"], 1),
                "ch_speedup": settled["naive"] / max(settled["ch-csr"], 1),
                "ch_prep_settled": contracted.stats.witness_settled,
            }
        )
    return result


if __name__ == "__main__":
    print(run())
