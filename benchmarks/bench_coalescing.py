"""Cross-session coalescing bench: 8 concurrent sessions, shared passes.

The acceptance anchor for coalescing: 8 concurrent sessions whose
obfuscated queries overlap (hot origins and hotspot destinations — the
mix sticky decoys produce for recurring traffic, see E12) must get
>= 2x faster answered as one batch on a coalescing stack
(``ServingConfig(coalesce=True)``: one shared union kernel pass) than
under per-session dispatch — while every session's responses stay
byte-identical to the uncoalesced answers.

Run by explicit path (benchmarks are excluded from tier-1 collection):

    PYTHONPATH=src python -m pytest benchmarks/bench_coalescing.py -s --benchmark-disable
"""

from __future__ import annotations

import time

from repro.network.generators import grid_network
from repro.service.cache import PreprocessingCache
from repro.service.serving import ServingConfig, ServingStack
from repro.workloads.queries import overlapping_session_queries

_SESSIONS = 8
_QUERIES_PER_SESSION = 6
_NET = grid_network(30, 30, perturbation=0.1, seed=77)
_PREPROCESSING = PreprocessingCache()  # shared: pay contraction once


def _session_workloads():
    """The canonical hot-pool workload, shared with the CI perf gate."""
    return overlapping_session_queries(
        _NET,
        sessions=_SESSIONS,
        queries_per_session=_QUERIES_PER_SESSION,
        seed=4,
    )


def _run(stack: ServingStack, batches) -> tuple[float, list]:
    """Answer ``batches`` one after another; returns (s, flat tables)."""
    t0 = time.perf_counter()
    responses = [r for batch in batches for r in stack.answer_batch(batch)]
    elapsed = time.perf_counter() - t0
    return elapsed, [
        {
            pair: (path.nodes, path.distance)
            for pair, path in response.candidates.paths.items()
        }
        for response in responses
    ]


def _bench_engine(engine: str) -> None:
    sessions = _session_workloads()
    total = _SESSIONS * _QUERIES_PER_SESSION

    solo = ServingStack.from_config(
        _NET,
        ServingConfig(engine=engine),
        preprocessing_cache=_PREPROCESSING,
    )
    solo.warm()
    t_solo, solo_outputs = _run(solo, sessions)
    settled_solo = solo.server.counters.stats.settled_nodes
    solo.close()

    coalesced = ServingStack.from_config(
        _NET,
        ServingConfig(engine=engine, coalesce=True),
        preprocessing_cache=_PREPROCESSING,
    )
    coalesced.warm()
    # the batch is the window: the sessions meet in one answer_batch
    t_co, co_outputs = _run(
        coalesced, [[query for batch in sessions for query in batch]]
    )
    settled_co = coalesced.server.counters.stats.settled_nodes
    snapshot = coalesced.coalesce_snapshot()
    coalesced.close()

    speedup = t_solo / t_co
    print(
        f"\n[coalescing] engine={engine} sessions={_SESSIONS} "
        f"queries={total} nodes={_NET.num_nodes}\n"
        f"  per-session={t_solo * 1e3:.1f}ms coalesced={t_co * 1e3:.1f}ms "
        f"speedup={speedup:.1f}x\n"
        f"  settled: solo={settled_solo} coalesced={settled_co}\n"
        f"  windows={snapshot.windows} (max {snapshot.max_window}), "
        f"coalesced_queries={snapshot.coalesced_queries}, "
        f"union_pairs={snapshot.union_pairs}"
    )
    # Byte-identical per-session responses: same pairs, same order, same
    # paths, same distances.
    assert co_outputs == solo_outputs, "coalescing changed a session's answers"
    assert snapshot.coalesced_queries > 0
    assert settled_co <= settled_solo
    assert speedup >= 2.0


def test_coalescing_speedup_shared_trees():
    """dijkstra-csr: union shared trees must beat per-session dispatch >= 2x."""
    _bench_engine("dijkstra-csr")


def test_coalescing_speedup_ch_buckets():
    """ch-csr: one union bucket pass must beat per-session dispatch >= 2x."""
    _bench_engine("ch-csr")
