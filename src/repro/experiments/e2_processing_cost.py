"""E2 — Server processing cost vs. |T| (Lemma 1 and Section III-B).

Fix |S| and sweep |T|.  The naive pairwise processor pays one full search
per (s, t) pair, so its cost grows linearly in |T|; the paper's shared
SSMD trees pay only for the furthest destination, so their cost is nearly
flat once |T| >= 2.  The Lemma 1 analytic estimate (normalized to settled
nodes via a single fitted constant) should track the shared curve.

The ``ch_settled`` column goes beyond the paper: the bucket-based
Contraction Hierarchies processor
(:class:`~repro.search.kernels.CSRCHManyToManyProcessor`) answers the
same queries over a preprocessed hierarchy, settling a near-constant
number of nodes per endpoint — its curve sits far below the Lemma 1
disc-area prediction because preprocessing already paid for the
long-range structure.  Preprocessing cost is excluded (paid once per
network, amortized over the server's lifetime).

The ``csr_settled`` column is a kernel-parity check: the flat-array
shared-tree processor (:mod:`repro.search.kernels`) runs the same
algorithm over a CSR snapshot, so its settled count must track
``shared_settled`` — the CSR port changes per-node constants (wall
clock), never the algorithmic work the paper's cost model predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.endpoints import CompactEndpointStrategy
from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import ProtectionSetting
from repro.experiments.harness import ExperimentResult
from repro.network.generators import grid_network
from repro.network.storage import PagedNetwork
from repro.search.cost_model import lemma1_cost_estimate
from repro.search.kernels import CSRCHManyToManyProcessor, CSRSharedTreeProcessor
from repro.search.multi import NaivePairwiseProcessor, SharedTreeProcessor
from repro.workloads.queries import distance_bounded_queries, requests_from_queries

__all__ = ["Config", "run"]


@dataclass(slots=True)
class Config:
    """E2 parameters."""

    grid_width: int = 40
    grid_height: int = 40
    num_queries: int = 8
    f_s: int = 2
    f_t_values: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 6, 8])
    min_query_distance: float = 8.0
    max_query_distance: float = 16.0
    page_capacity: int = 32
    buffer_capacity: int = 16
    seed: int = 2


def run(config: Config | None = None) -> ExperimentResult:
    """Run E2 and return its table."""
    if config is None:
        config = Config()
    network = grid_network(
        config.grid_width, config.grid_height, perturbation=0.1, seed=config.seed
    )
    queries = distance_bounded_queries(
        network,
        config.num_queries,
        config.min_query_distance,
        config.max_query_distance,
        seed=config.seed,
    )
    result = ExperimentResult(
        experiment_id="E2",
        title="Server cost vs. |T| at fixed |S| (naive vs. shared SSMD)",
        columns=[
            "f_t",
            "naive_settled",
            "shared_settled",
            "csr_settled",
            "ch_settled",
            "naive_faults",
            "shared_faults",
            "speedup",
            "ch_speedup",
            "lemma1_estimate",
        ],
        expectation=(
            "naive cost grows ~linearly in |T|; shared cost bounded by the "
            "furthest destination (near flat); speedup widens with |T|; "
            "CH pays one bounded sweep per endpoint, so it stays well below "
            "naive at every |T| (preprocessing paid once, excluded); the "
            "CSR kernel column tracks shared (same algorithm on flat "
            "arrays)"
        ),
    )
    naive = NaivePairwiseProcessor()
    shared = SharedTreeProcessor()
    ch = CSRCHManyToManyProcessor()
    csr_shared = CSRSharedTreeProcessor()
    for f_t in config.f_t_values:
        setting = ProtectionSetting(config.f_s, f_t)
        requests = requests_from_queries(queries, setting)
        obfuscator = PathQueryObfuscator(
            network, strategy=CompactEndpointStrategy(), seed=config.seed
        )
        records = [obfuscator.obfuscate_independent(r) for r in requests]

        totals = {"naive": [0, 0], "shared": [0, 0]}
        ch_settled = 0
        csr_settled = 0
        lemma1_total = 0.0
        for record in records:
            sources = list(record.query.sources)
            destinations = list(record.query.destinations)
            for key, processor in (("naive", naive), ("shared", shared)):
                paged = PagedNetwork(
                    network,
                    page_capacity=config.page_capacity,
                    buffer_capacity=config.buffer_capacity,
                )
                out = processor.process(paged, sources, destinations)
                totals[key][0] += out.stats.settled_nodes
                totals[key][1] += out.stats.page_faults
            ch_out = ch.process(network, sources, destinations)
            ch_settled += ch_out.stats.settled_nodes
            csr_out = csr_shared.process(network, sources, destinations)
            csr_settled += csr_out.stats.settled_nodes
            lemma1_total += lemma1_cost_estimate(network, sources, destinations)
        naive_settled, naive_faults = totals["naive"]
        shared_settled, shared_faults = totals["shared"]
        result.rows.append(
            {
                "f_t": f_t,
                "naive_settled": naive_settled,
                "shared_settled": shared_settled,
                "csr_settled": csr_settled,
                "ch_settled": ch_settled,
                "naive_faults": naive_faults,
                "shared_faults": shared_faults,
                "speedup": naive_settled / max(shared_settled, 1),
                "ch_speedup": naive_settled / max(ch_settled, 1),
                "lemma1_estimate": lemma1_total,
            }
        )
    return result


if __name__ == "__main__":
    print(run())
