"""E10 — Batching window: latency vs. privacy vs. server cost (extension).

The paper's shared obfuscated path queries presuppose that several
requests are in the obfuscator's hands at once (Section IV).  Online,
that means batching: a window of W seconds gathers arrivals before
obfuscating.  This extension experiment sweeps W under Poisson arrivals
and reports the three-way trade-off — the operational knob a deployed
OPAQUE service would actually tune.

Expected shape: longer windows raise mean latency ~linearly (half the
window on average), lower per-user breach (more real endpoints per shared
query), and reduce total server work (more sharing per window).

Each window is additionally run twice through one
:class:`~repro.service.serving.ServingStack`: a cold pass (empty caches)
and a warm pass replaying the same traffic, showing the serving layer
turning repeated workloads into result-cache hits (``settled_warm``
collapses toward 0).

The cross-session columns replay each window's server-visible
obfuscated stream through the ``coalesce_engine`` twice more, on the
same config: once one ``answer_batch([q])`` per query (every query pays
its own bucket pass) and once as one batch, whose distinct misses share
one union kernel pass.  Hotspot destinations repeat across sessions, so
the union pass shares their backward sweeps and ``settled_coalesced``
drops below ``settled_solo`` while the per-session answers stay
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.query import ProtectionSetting
from repro.core.system import OpaqueSystem
from repro.experiments.harness import ExperimentResult
from repro.network.generators import grid_network
from repro.service.cache import PreprocessingCache
from repro.service.serving import ServingConfig, ServingStack
from repro.service.simulator import BatchingObfuscationService, poisson_arrivals
from repro.workloads.queries import hotspot_queries, requests_from_queries

__all__ = ["Config", "run"]


@dataclass(slots=True)
class Config:
    """E10 parameters."""

    grid_width: int = 30
    grid_height: int = 30
    num_requests: int = 32
    arrival_rate: float = 2.0  # requests per second
    windows: list[float] = field(default_factory=lambda: [0.5, 1.0, 2.0, 4.0, 8.0])
    f_s: int = 3
    f_t: int = 3
    num_hotspots: int = 2
    engine: str = "dijkstra"
    #: engine for the cross-session coalescing columns (a bucket
    #: many-to-many engine, so union passes share per-endpoint sweeps)
    coalesce_engine: str = "ch-csr"
    seed: int = 10


def run(config: Config | None = None) -> ExperimentResult:
    """Run E10 and return its table."""
    if config is None:
        config = Config()
    network = grid_network(
        config.grid_width, config.grid_height, perturbation=0.1, seed=config.seed
    )
    queries = hotspot_queries(
        network, config.num_requests, num_hotspots=config.num_hotspots,
        seed=config.seed,
    )
    result = ExperimentResult(
        experiment_id="E10",
        title="Batching window vs. latency, privacy and server cost (extension)",
        columns=[
            "window_s",
            "mean_latency_s",
            "p95_latency_s",
            "mean_breach",
            "obfuscated_queries",
            "settled_cold",
            "settled_warm",
            "warm_hit_rate",
            "settled_solo",
            "settled_coalesced",
            "coalesced_queries",
        ],
        expectation=(
            "latency grows ~linearly with the window; breach and server "
            "cost fall as more requests share each window; the warm pass "
            "serves repeated queries from cache (settled_warm << cold); "
            "coalescing the window's concurrent queries into one union "
            "pass never exceeds one batch per query "
            "(settled_coalesced <= settled_solo)"
        ),
    )
    requests = requests_from_queries(
        queries, ProtectionSetting(config.f_s, config.f_t)
    )
    arrivals = poisson_arrivals(
        requests, rate=config.arrival_rate, seed=config.seed
    )
    # One preprocessing build (e.g. ch-csr contraction) shared by every
    # window's solo and coalesced replays.
    preprocessing = PreprocessingCache()
    for window in config.windows:
        # Cold pass: fresh serving stack, every query pays full search.
        stack = ServingStack.from_config(
            network,
            ServingConfig(engine=config.engine),
        )
        system = OpaqueSystem(
            network, mode="shared", serving=stack, seed=config.seed
        )
        service = BatchingObfuscationService(system, window=window)
        _results, report = service.run(arrivals)
        # The server-visible stream of this window sweep — replayed
        # below as "concurrent sessions" for the coalescing columns.
        observed = list(stack.server.observed_queries)

        # Warm pass: same stack, same traffic (a fresh same-seed system
        # rebuilds identical obfuscated queries) — cache hits replace work.
        warm_system = OpaqueSystem(
            network, mode="shared", serving=stack, seed=config.seed
        )
        warm_service = BatchingObfuscationService(warm_system, window=window)
        _warm_results, warm_report = warm_service.run(arrivals)
        stack.close()

        # Cross-session columns: one batch per query vs the window as one
        # batch (one union pass) over the same stream, on the bucket engine.
        bucket = ServingConfig(engine=config.coalesce_engine)
        with ServingStack.from_config(
            network, bucket, preprocessing_cache=preprocessing
        ) as solo_stack:
            for query in observed:
                solo_stack.answer_batch([query])
            settled_solo = solo_stack.server.counters.stats.settled_nodes
        with ServingStack.from_config(
            network, bucket, preprocessing_cache=preprocessing
        ) as co_stack:
            co_stack.answer_batch(observed)
            settled_coalesced = co_stack.server.counters.stats.settled_nodes
            coalesced_queries = co_stack.server.counters.coalesced_queries

        # Latency/breach/cost columns come from the canonical report
        # shape (ServiceReport.to_dict) so key names stay aligned with
        # what the gateway's /v1/metrics and serve-replay emit.
        report_doc = report.to_dict()
        warm_doc = warm_report.to_dict()
        warm_total = warm_doc["obfuscated_queries"]
        result.rows.append(
            {
                "window_s": window,
                "mean_latency_s": report_doc["mean_latency_s"],
                "p95_latency_s": report_doc["p95_latency_s"],
                "mean_breach": report_doc["mean_breach"],
                "obfuscated_queries": report_doc["obfuscated_queries"],
                "settled_cold": report_doc["server_settled_nodes"],
                "settled_warm": warm_doc["server_settled_nodes"],
                "warm_hit_rate": (
                    warm_doc["cached_queries"] / warm_total
                    if warm_total
                    else 0.0
                ),
                "settled_solo": settled_solo,
                "settled_coalesced": settled_coalesced,
                "coalesced_queries": coalesced_queries,
            }
        )
    return result


if __name__ == "__main__":
    print(run())
