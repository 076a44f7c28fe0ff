#!/usr/bin/env python
"""Quick-mode benchmark runner for the CI perf gate.

Measures a small tracked-metric suite in a few seconds and writes it as
``BENCH_PR.json``; ``tools/bench_gate.py`` then compares that file
against the committed ``benchmarks/baseline.json`` and fails the build
on a >25% regression.  Two metric kinds are tracked:

* **counters** (``settled_*``) — deterministic algorithmic work, exact
  on every machine; any change is a real behavior change;
* **ratios** (``speedup_*``) — same-machine wall-clock ratios (best-of-N
  on both sides), which transfer across hardware far better than
  absolute times;
* **budgets** (``telemetry_overhead_pct``,
  ``throughput_under_churn_pct``) — quantities with a hard absolute
  ceiling or floor, gated by a ``max``/``min`` field on the baseline
  entry instead of the relative tolerance.

Absolute wall-clock values are recorded for humans under ``info`` but
never gated.  Usage::

    python tools/bench_quick.py -o BENCH_PR.json          # quick mode
    python tools/bench_quick.py --full -o BENCH_FULL.json # 10k-node grid
    python tools/bench_quick.py --grid200 -o BENCH_200.json

``--grid200`` runs a separate 40k-node tier (``mode: "grid200"``, gated
against ``benchmarks/baseline_200.json``) for the wins that only show up
at scale: the batched numpy MSMD sweep vs the scalar CSR kernel and the
mmap-backed cold shard warm-up from a spilled CSR blob.  It requires
numpy — the quick suite stays numpy-free so both CI matrix legs run it.

Refreshing the committed baselines after an intentional perf change::

    python tools/bench_quick.py -o benchmarks/baseline.json
    python tools/bench_quick.py --grid200 -o benchmarks/baseline_200.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import random
import sys
import time

_REPO = pathlib.Path(__file__).resolve().parent.parent
for _entry in (str(_REPO / "src"), str(_REPO / "benchmarks")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from timing import best_of as _best_of  # noqa: E402

from repro.network.csr import csr_snapshot  # noqa: E402
from repro.network.generators import grid_network  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.obs.record import MetricsRecorder, recording  # noqa: E402
from repro.search.ch import contract_network  # noqa: E402
from repro.search.ch.manytomany import ch_many_to_many  # noqa: E402
from repro.search.dijkstra import dijkstra_path  # noqa: E402
from repro.search.kernels import (  # noqa: E402
    CSRHierarchy,
    CSRSharedTreeProcessor,
    csr_ch_many_to_many,
    csr_dijkstra_path,
)
from repro.search.multi import SharedTreeProcessor  # noqa: E402
from repro.search.overlay import build_overlay  # noqa: E402
from repro.core.query import ObfuscatedPathQuery  # noqa: E402
from repro.search.result import SearchStats  # noqa: E402
from repro.service.cache import PreprocessingCache, ResultCache  # noqa: E402
from repro.service.gateway import GatewayConfig, GatewayServer  # noqa: E402
from repro.service.serving import ServingConfig, ServingStack  # noqa: E402
from repro.service.wire import RouteRequest, RouteResponse  # noqa: E402
from repro.workloads.loadgen import run_load  # noqa: E402
from repro.workloads.queries import overlapping_session_queries  # noqa: E402
from repro.workloads.scenarios import uniform_churn  # noqa: E402


def run_suite(full: bool = False, repeats: int = 3) -> dict:
    """Run the tracked-metric suite; returns the BENCH json document."""
    side = 100 if full else 40
    num_pairs = 20 if full else 12
    net = grid_network(side, side, perturbation=0.1, seed=7)
    nodes = list(net.nodes())
    rng = random.Random(1)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(num_pairs)]

    t0 = time.perf_counter()
    csr = csr_snapshot(net)
    t_snapshot = time.perf_counter() - t0

    # Point queries: dict Dijkstra vs the CSR kernel.
    t_dict, ref = _best_of(
        lambda: [dijkstra_path(net, s, t).distance for s, t in pairs], repeats
    )
    t_csr, got = _best_of(
        lambda: [csr_dijkstra_path(net, s, t, csr=csr).distance for s, t in pairs],
        repeats,
    )
    if ref != got:
        raise SystemExit("FATAL: dijkstra-csr distances diverge from dijkstra")

    # Deterministic algorithmic-work counter for the same workload.
    stats = SearchStats()
    for s, t in pairs:
        csr_dijkstra_path(net, s, t, csr=csr, stats=stats)
    settled_point = stats.settled_nodes

    # Telemetry overhead: the same point workload with a *recording*
    # MetricsRecorder installed vs the disabled default.  Recording
    # upper-bounds the disabled hook cost (one module-attribute read and
    # one branch per kernel invocation), and a same-machine wall ratio
    # transfers across hardware; the gate holds it under an absolute
    # 5%.  Each round times the off and on passes back-to-back and the
    # metric takes the *cleanest round's* ratio, so sustained machine
    # noise (GC, CPU contention) spanning a whole timing block cannot
    # masquerade as hook cost — any one quiet round yields the truth.
    overhead_repeats = max(repeats * 3, 9)
    recorder = MetricsRecorder(MetricsRegistry())

    def _hooks_off():
        return [
            csr_dijkstra_path(net, s, t, csr=csr).distance for s, t in pairs
        ]

    def _with_recorder():
        with recording(recorder):
            return [
                csr_dijkstra_path(net, s, t, csr=csr).distance for s, t in pairs
            ]

    t_hooks_off = t_hooks_on = float("inf")
    best_ratio = float("inf")
    for _ in range(overhead_repeats):
        start = time.perf_counter()
        _hooks_off()
        round_off = time.perf_counter() - start
        start = time.perf_counter()
        _with_recorder()
        round_on = time.perf_counter() - start
        t_hooks_off = min(t_hooks_off, round_off)
        t_hooks_on = min(t_hooks_on, round_on)
        best_ratio = min(best_ratio, round_on / round_off)
    telemetry_overhead = round(max(0.0, (best_ratio - 1.0) * 100.0), 2)

    # MSMD: the paper's shared SSMD trees, dict vs the scalar CSR loop
    # (pinned: with numpy installed dijkstra-csr would batch this query,
    # and the metric and its settled counter mean heap vs heap).
    rng2 = random.Random(5)
    sources = rng2.sample(nodes, 4)
    destinations = rng2.sample(nodes, 4)
    shared = SharedTreeProcessor()
    csr_shared = CSRSharedTreeProcessor()
    csr_shared.batch_min_settled = float("inf")
    csr_shared.artifact_for(net)
    t_msmd_dict, ref_msmd = _best_of(
        lambda: shared.process(net, sources, destinations), repeats
    )
    t_msmd_csr, got_msmd = _best_of(
        lambda: csr_shared.process(net, sources, destinations), repeats
    )
    for pair, path in ref_msmd.paths.items():
        if got_msmd.paths[pair].distance != path.distance:
            raise SystemExit("FATAL: CSR MSMD distances diverge from shared trees")

    # CH many-to-many: dict buckets vs CSR buckets (one shared contraction,
    # also timed as the "full rebuild" a traffic update would cost a CH
    # deployment — the denominator of the recustomization ratio below).
    t_contract, contracted = _best_of(lambda: contract_network(net), repeats)
    hierarchy = CSRHierarchy(contracted)
    t_m2m_dict, _ = _best_of(
        lambda: ch_many_to_many(contracted, sources, destinations), repeats
    )
    t_m2m_csr, _ = _best_of(
        lambda: csr_ch_many_to_many(hierarchy, sources, destinations), repeats
    )
    ch_stats = SearchStats()
    csr_ch_many_to_many(hierarchy, sources, destinations, stats=ch_stats)

    # Partition overlay: two-phase point queries vs the flat Dijkstra
    # kernel on the same pairs, plus the incremental-customization win —
    # recustomizing the single cell containing a re-weighted edge vs the
    # full CH contraction above.  Cut/boundary/clique counters are
    # deterministic partitioner outputs; any change is a layout change.
    overlay = build_overlay(net)
    t_overlay, got_overlay = _best_of(
        lambda: [overlay.route(s, t).distance for s, t in pairs], repeats
    )
    if any(abs(a - b) > 1e-9 for a, b in zip(ref, got_overlay)):
        raise SystemExit("FATAL: overlay-csr distances diverge from dijkstra")
    overlay_stats = SearchStats()
    for s, t in pairs:
        overlay.route(s, t, stats=overlay_stats)
    reweight_edge = next(
        (u, v, w) for u, v, w in net.edges()
        if overlay.touched_cells([(u, v)])
    )
    u, v, w = reweight_edge
    net.add_edge(u, v, w * 2.0)
    touched = overlay.touched_cells([(u, v)])
    t_recustomize, refreshed = _best_of(
        lambda: overlay.recustomized(touched), repeats
    )
    net.add_edge(u, v, w)  # restore: later sections measure the same net

    # Cross-session coalescing: 8 sessions with hot origin/destination
    # pools (the same canonical workload bench_coalescing.py anchors
    # on), per-session dispatch vs one shared union pass.  Result
    # caching is disabled on both stacks so every timing repeat pays the
    # same cold search work.
    session_batches = overlapping_session_queries(net, seed=9)
    preprocessing = PreprocessingCache()

    def run_sessions(coalesce: bool):
        stack = ServingStack.from_config(
            net,
            ServingConfig(engine="dijkstra-csr", coalesce=coalesce),
            preprocessing_cache=preprocessing,
            result_cache=ResultCache(capacity=0),
        )
        stack.warm()
        try:
            if not coalesce:
                for batch in session_batches:
                    stack.answer_batch(batch)
            else:
                # the batch is the window: every session's queries in one
                stack.answer_batch(
                    [query for batch in session_batches for query in batch]
                )
            return stack.coalesce_snapshot()
        finally:
            stack.close()

    t_sessions, _ = _best_of(lambda: run_sessions(False), repeats)
    t_coalesced, coalesce_snapshot = _best_of(
        lambda: run_sessions(True), repeats
    )

    # Traffic churn: answer_batch throughput while a churn schedule
    # installs epochs through stack.reweight between batches, against
    # an idle (zero events) baseline on a fresh copy of the same grid.
    # The result cache is off on both sides — churn changes the serving
    # fingerprint on every epoch install, so a cache-hit baseline would
    # compare cached-table lookups against real searches.  The metric
    # is an absolute gate (a hard budget, not a ratio to a noisy
    # committed number): churned throughput must keep an absolute floor
    # of the idle baseline measured in the same process.  Each round
    # times idle and churn back-to-back and the metric takes the
    # *cleanest round's* ratio — the same trick the telemetry-overhead
    # metric uses — so sustained machine noise spanning one whole run
    # cannot masquerade as churn cost.  Even two events in a 0.6s
    # window is ~200 churned cells per minute, orders of magnitude
    # above the 5% cells-per-minute churn floor the serving SLO targets.
    churn_duration_s = 0.6
    churn_events_n = 3 if full else 2
    churn_rounds = 3
    rng3 = random.Random(11)
    churn_queries = [
        ObfuscatedPathQuery(
            tuple(rng3.sample(nodes, 3)), tuple(rng3.sample(nodes, 3))
        )
        for _ in range(16)
    ]

    def run_churn(churn_events):
        stack = ServingStack.from_config(
            net.copy(),
            ServingConfig(engine="overlay-csr", max_workers=2),
            result_cache=ResultCache(capacity=0),
        )
        stack.warm()
        served = cursor = 0
        start = time.perf_counter()
        try:
            while True:
                elapsed = time.perf_counter() - start
                if elapsed >= churn_duration_s:
                    break
                due_ms = elapsed * 1000.0
                due = []
                while (
                    cursor < len(churn_events)
                    and churn_events[cursor].at_ms <= due_ms
                ):
                    due.append(churn_events[cursor].as_change())
                    cursor += 1
                if due:
                    stack.reweight(due)
                stack.answer_batch(
                    [
                        churn_queries[(served + i) % len(churn_queries)]
                        for i in range(8)
                    ]
                )
                served += 8
            elapsed = time.perf_counter() - start
        finally:
            stack.close()
        return served / elapsed

    churn_schedule = uniform_churn(
        net,
        duration_ms=round(churn_duration_s * 1000.0),
        events=churn_events_n,
        seed=13,
    )
    churn_ratio = 0.0
    for _ in range(churn_rounds):
        round_idle = run_churn([])
        churn_ratio = max(churn_ratio, run_churn(churn_schedule) / round_idle)

    # Network gateway: RPS and tail latency over real HTTP through the
    # asyncio front-end, single-process vs shard workers.  Every
    # response body captured during both runs must be byte-identical to
    # the in-process answer_batch encoding of the same query (FATAL,
    # not gated — a divergence is a correctness bug, not a regression).
    # Both runs replay the same queries with the result cache on, so the
    # single-process run is mostly cache hits answered on the event
    # loop while every multi-process request still crosses a pipe: their
    # ratio measures that design, not a dispatch fault, and read
    # 0.16-0.51 on untouched code besides.  Each side is gated on its
    # own absolute floor; the ratio stays under "info" for humans.
    gateway_engine = "dijkstra-csr"
    gateway_queries = churn_queries
    gateway_requests = [RouteRequest.from_query(q) for q in gateway_queries]
    gateway_repeats = 3 if full else 2
    with ServingStack.from_config(
        net,
        ServingConfig(engine=gateway_engine),
        preprocessing_cache=preprocessing,
        result_cache=ResultCache(capacity=0),
    ) as identity_stack:
        expected_payloads = sorted(
            RouteResponse.from_server(r).payload_json()
            for r in identity_stack.answer_batch(gateway_queries)
        ) * gateway_repeats

    def run_gateway_load(workers: int):
        label = f"{workers}-worker" if workers else "single-process"
        with GatewayServer(
            net,
            ServingConfig(engine=gateway_engine),
            GatewayConfig(workers=workers),
        ) as server:
            best = None
            for _ in range(repeats):
                report = run_load(
                    server.host,
                    server.port,
                    gateway_requests,
                    clients=4,
                    repeats=gateway_repeats,
                    capture_payloads=True,
                )
                if report.errors:
                    raise SystemExit(
                        f"FATAL: gateway {label} run returned "
                        f"{report.errors} HTTP errors"
                    )
                got = sorted(
                    RouteResponse.from_json(p).payload_json()
                    for p in report.payloads
                )
                if sorted(got) != sorted(expected_payloads):
                    raise SystemExit(
                        f"FATAL: gateway {label} responses diverge from "
                        "in-process answer_batch"
                    )
                if best is None or report.rps > best.rps:
                    best = report
            return best

    gateway_single = run_gateway_load(0)
    gateway_workers = 4
    gateway_multi = run_gateway_load(gateway_workers)
    cores = os.cpu_count() or 1
    mp_speedup_per_core = (
        (gateway_multi.rps / gateway_single.rps)
        / min(gateway_workers, cores)
    )

    metrics = {
        "speedup_point_dijkstra_csr": {
            "value": round(t_dict / t_csr, 3),
            "direction": "higher",
            "desc": "point-query wall ratio, dijkstra vs dijkstra-csr",
        },
        "speedup_msmd_shared_csr": {
            "value": round(t_msmd_dict / t_msmd_csr, 3),
            "direction": "higher",
            "desc": "shared-SSMD-tree wall ratio, dict vs CSR kernel",
        },
        "settled_point_dijkstra_csr": {
            "value": settled_point,
            "direction": "lower",
            "desc": "nodes settled by dijkstra-csr over the point workload",
        },
        "settled_msmd_shared_csr": {
            "value": got_msmd.stats.settled_nodes,
            "direction": "lower",
            "desc": "nodes settled by the CSR shared trees (MSMD workload)",
        },
        "settled_m2m_ch_csr": {
            "value": ch_stats.settled_nodes,
            "direction": "lower",
            "desc": "nodes settled by the CSR CH buckets (MSMD workload)",
        },
        "overlay_point_speedup": {
            "value": round(t_csr / t_overlay, 3),
            "direction": "higher",
            "desc": "point-query wall ratio, dijkstra-csr vs overlay-csr",
        },
        "recustomize_vs_rebuild_speedup": {
            "value": round(t_contract / t_recustomize, 3),
            "direction": "higher",
            "desc": (
                "single-cell overlay recustomization vs full CH "
                "contraction wall ratio after one edge re-weight"
            ),
        },
        "overlay_cut_edges": {
            "value": overlay.partition.num_cut_edges,
            "direction": "lower",
            "desc": "cut edges of the default partition (deterministic)",
        },
        "overlay_boundary_nodes": {
            "value": overlay.num_boundary_nodes,
            "direction": "lower",
            "desc": "boundary nodes of the default partition (deterministic)",
        },
        "overlay_clique_arcs": {
            "value": overlay.num_clique_arcs,
            "direction": "lower",
            "desc": "kept clique shortcut arcs after pruning (deterministic)",
        },
        "settled_point_overlay": {
            "value": overlay_stats.settled_nodes,
            "direction": "lower",
            "desc": "nodes settled by overlay-csr over the point workload",
        },
        "settled_recustomize_one_cell": {
            "value": refreshed.customize_stats.settled_nodes,
            "direction": "lower",
            "desc": "nodes settled recustomizing one re-weighted cell",
        },
        "coalesce_speedup_8_sessions": {
            "value": round(t_sessions / t_coalesced, 3),
            "direction": "higher",
            "desc": "8-session wall ratio, per-session dispatch vs coalesced",
        },
        "coalesced_batch_pairs": {
            "value": coalesce_snapshot.union_pairs,
            "direction": "lower",
            "desc": "distinct pairs the coalesced union passes evaluated",
        },
        "throughput_under_churn_pct": {
            "value": round(min(100.0, 100.0 * churn_ratio), 1),
            "direction": "higher",
            "min": 80.0,
            "desc": (
                "answer_batch throughput under cell churn as % of the "
                "idle baseline (gated absolutely at 80%)"
            ),
        },
        "telemetry_overhead_pct": {
            "value": telemetry_overhead,
            "direction": "lower",
            "max": 5.0,
            "desc": (
                "point-kernel wall overhead (%) with a recording "
                "MetricsRecorder installed (gated absolutely at 5%)"
            ),
        },
        "gateway_http_rps": {
            "value": round(gateway_single.rps, 1),
            "direction": "higher",
            "min": 25.0,
            "desc": (
                "single-process HTTP requests/s through the gateway "
                "(4 keep-alive clients; conservative absolute floor)"
            ),
        },
        "gateway_p99_ms": {
            "value": round(gateway_single.p99_latency * 1000.0, 2),
            "direction": "lower",
            "max": 250.0,
            "desc": (
                "per-request p99 latency (ms) over HTTP, single-process "
                "(gated absolutely at 250ms)"
            ),
        },
        "gateway_rps_mp": {
            "value": round(gateway_multi.rps, 1),
            "direction": "higher",
            "min": 25.0,
            "desc": (
                "HTTP requests/s through 4 shard workers (every request "
                "crosses a worker pipe; conservative absolute floor)"
            ),
        },
    }
    return {
        "schema": 1,
        "mode": "full" if full else "quick",
        "grid": f"{side}x{side}",
        "metrics": metrics,
        "info": {
            "python": platform.python_version(),
            "csr_snapshot_ms": round(t_snapshot * 1000, 2),
            "point_dict_ms": round(t_dict * 1000, 2),
            "point_csr_ms": round(t_csr * 1000, 2),
            "msmd_dict_ms": round(t_msmd_dict * 1000, 2),
            "msmd_csr_ms": round(t_msmd_csr * 1000, 2),
            # CH m2m finishes in ~10ms on the quick grid, so its wall
            # ratio is too noisy to gate — recorded for humans only.
            "m2m_ch_dict_ms": round(t_m2m_dict * 1000, 2),
            "m2m_ch_csr_ms": round(t_m2m_csr * 1000, 2),
            "ch_contract_ms": round(t_contract * 1000, 2),
            "overlay_point_ms": round(t_overlay * 1000, 2),
            "overlay_recustomize_ms": round(t_recustomize * 1000, 2),
            "overlay_cells": overlay.num_cells,
            "coalesce_sessions_ms": round(t_sessions * 1000, 2),
            "coalesce_coalesced_ms": round(t_coalesced * 1000, 2),
            "telemetry_hooks_off_ms": round(t_hooks_off * 1000, 2),
            "telemetry_hooks_on_ms": round(t_hooks_on * 1000, 2),
            "gateway_cores": cores,
            "gateway_workers": gateway_workers,
            "gateway_rps_single": round(gateway_single.rps, 1),
            "gateway_mp_speedup_per_core": round(mp_speedup_per_core, 3),
            "gateway_p50_ms": round(
                gateway_single.p50_latency * 1000.0, 2
            ),
            "gateway_mp_p99_ms": round(
                gateway_multi.p99_latency * 1000.0, 2
            ),
        },
    }


def run_grid200(repeats: int = 3) -> dict:
    """Run the 200x200 large-grid tier; returns the BENCH json document.

    A separate ``mode: "grid200"`` document, gated against
    ``benchmarks/baseline_200.json`` (``bench_gate`` refuses to compare
    documents of different modes).  The tier exists because its three
    headline wins are invisible at quick-suite scale: the batched numpy
    sweep amortizes per-node python overhead only when frontiers are
    wide, and mmap warm-up only matters when a rebuild costs seconds.
    All speedups are measured with the two sides interleaved round by
    round, taking each side's best round — one quiet round per side
    recovers the truth on a noisy box.
    """
    import tempfile

    from repro.search.kernels import VecSharedTreeProcessor
    from repro.search.vectorized import numpy_available
    from repro.service.blob import read_overlay_blob, write_overlay_blob
    from repro.service.cache import network_fingerprint

    if not numpy_available():
        raise SystemExit(
            "FATAL: the grid200 tier gates the vectorized kernels and "
            "requires numpy; run the quick suite on numpy-less hosts"
        )
    side = 200
    net = grid_network(side, side, perturbation=0.1, seed=7)
    nodes = list(net.nodes())

    t0 = time.perf_counter()
    csr = csr_snapshot(net)
    t_snapshot = time.perf_counter() - t0

    # Batched MSMD: the scalar CSR shared trees vs the 2-D numpy sweep,
    # same sources/destinations, trees grown to the same frontier.  Both
    # are forms of one processor, which left alone would batch this
    # query on either side: the scalar side is pinned to the heap loop
    # so the ratio keeps meaning "scalar vs batched".  The contract is
    # *bit*-identical results, so the parity check compares distances
    # and node sequences exactly.
    rng = random.Random(5)
    sources = rng.sample(nodes, 6)
    destinations = rng.sample(nodes, 6)
    csr_shared = CSRSharedTreeProcessor()
    csr_shared.batch_min_settled = float("inf")
    vec_shared = VecSharedTreeProcessor()
    csr_shared.artifact_for(net)
    vec_shared.artifact_for(net)
    t_msmd_csr = t_msmd_vec = float("inf")
    ref_msmd = got_msmd = None
    for _ in range(repeats):
        start = time.perf_counter()
        ref_msmd = csr_shared.process(net, sources, destinations)
        t_msmd_csr = min(t_msmd_csr, time.perf_counter() - start)
        start = time.perf_counter()
        got_msmd = vec_shared.process(net, sources, destinations)
        t_msmd_vec = min(t_msmd_vec, time.perf_counter() - start)
    for pair, path in ref_msmd.paths.items():
        got_path = got_msmd.paths[pair]
        if got_path.distance != path.distance or got_path.nodes != path.nodes:
            raise SystemExit(
                "FATAL: dijkstra-vec MSMD diverges from the CSR shared trees"
            )

    # The flat overlay the blob round trip below writes and reads.
    t0 = time.perf_counter()
    flat = build_overlay(net, cell_capacity=80)
    t_flat_build = time.perf_counter() - t0

    # Cold shard warm-up: a fresh PreprocessingCache pointed at a spill
    # dir holding the CSR blob a sibling process force-spilled — exactly
    # the gateway's worker handoff (gateway engine, dijkstra-csr).  The
    # gate is an absolute ceiling: the point of the mmap format is that
    # this is milliseconds, not the seconds a rebuild costs, and a ratio
    # to a noisy committed number would let it creep back up.
    fingerprint = network_fingerprint(net)
    with tempfile.TemporaryDirectory(prefix="bench-spill-") as spill:
        spill_dir = pathlib.Path(spill)
        warm_cache = PreprocessingCache(spill_dir=spill_dir)
        warm_cache.get(net, "dijkstra-csr", fingerprint=fingerprint)
        if warm_cache.spill_now(fingerprint, "dijkstra-csr") is None:
            raise SystemExit("FATAL: the dijkstra-csr artifact did not spill")
        t_warm = float("inf")
        loaded = None
        for _ in range(max(repeats, 3)):
            cold_cache = PreprocessingCache(spill_dir=spill_dir)
            start = time.perf_counter()
            loaded = cold_cache.get(net, "dijkstra-csr", fingerprint=fingerprint)
            t_warm = min(t_warm, time.perf_counter() - start)
            if cold_cache.disk_loads != 1:
                raise SystemExit(
                    "FATAL: the cold cache rebuilt the CSR snapshot instead "
                    "of loading the spilled blob"
                )
        s0, t0_node = nodes[0], nodes[-1]
        want = csr_dijkstra_path(net, s0, t0_node, csr=csr).distance
        got = csr_dijkstra_path(net, s0, t0_node, csr=loaded).distance
        if abs(got - want) > 1e-9:
            raise SystemExit(
                "FATAL: the blob-loaded CSR snapshot diverges from the "
                "in-memory one"
            )
        # Overlay blob round trip at the same capacity, for humans: the
        # overlay reload rebuilds per-cell kernels, so it is slower than
        # the CSR load but still far under an overlay build.
        t0 = time.perf_counter()
        write_overlay_blob(flat, spill_dir / "flat.ovlb")
        t_ovl_write = time.perf_counter() - t0
        t0 = time.perf_counter()
        read_overlay_blob(spill_dir / "flat.ovlb", net)
        t_ovl_read = time.perf_counter() - t0

    metrics = {
        "vec_union_speedup": {
            "value": round(t_msmd_csr / t_msmd_vec, 3),
            "direction": "higher",
            "min": 3.0,
            "desc": (
                "shared-SSMD-tree wall ratio, scalar CSR kernel vs the "
                "batched numpy sweep (gated absolutely at 3x)"
            ),
        },
        "shard_cold_warmup_ms": {
            "value": round(t_warm * 1000.0, 2),
            "direction": "lower",
            "max": 250.0,
            "desc": (
                "cold PreprocessingCache.get satisfied from the spilled "
                "CSR blob — the gateway worker handoff (gated absolutely "
                "at 250ms)"
            ),
        },
    }
    return {
        "schema": 1,
        "mode": "grid200",
        "grid": f"{side}x{side}",
        "metrics": metrics,
        "info": {
            "python": platform.python_version(),
            "csr_snapshot_ms": round(t_snapshot * 1000, 2),
            "msmd_csr_ms": round(t_msmd_csr * 1000, 2),
            "msmd_vec_ms": round(t_msmd_vec * 1000, 2),
            "flat_build_ms": round(t_flat_build * 1000, 2),
            "flat_cells": flat.num_cells,
            "shard_cold_warmup_ms": round(t_warm * 1000, 2),
            "overlay_blob_write_ms": round(t_ovl_write * 1000, 2),
            "overlay_blob_read_ms": round(t_ovl_read * 1000, 2),
        },
    }


def run_metro(
    num_nodes: int = 60_000,
    repeats: int = 1,
    cell_capacity: int | None = None,
) -> dict:
    """Run the metro-region build-time tier; returns the BENCH document.

    Generate a :func:`metro_network`, build its partition overlay with
    the serial per-cell customization and gate the build's wall time
    under an absolute ceiling, so a customization regression that only
    bites at scale still fails CI.  CI runs this at the default 60k
    nodes against ``benchmarks/baseline_metro.json``; a larger run is
    the same command with ``--metro-nodes 1000000`` to a scratch file
    (its deterministic shape counters differ from the 60k baseline, so
    it is not gate-comparable — by design).
    """
    from repro.network.generators import metro_network
    from repro.network.io import read_dimacs, write_dimacs
    from repro.network.partition import default_cell_capacity

    t0 = time.perf_counter()
    net = metro_network(num_nodes, seed=7)
    t_gen = time.perf_counter() - t0
    nodes = list(net.nodes())
    num_edges = sum(1 for _ in net.edges())
    avg_degree = 2.0 * num_edges / len(nodes)
    # n^(2/3) cells get expensive in wall time long before they pay off
    # at this scale; cap cell size so the tier finishes in CI minutes.
    capacity = (
        cell_capacity
        if cell_capacity is not None
        else min(192, default_cell_capacity(len(net)))
    )

    t0 = time.perf_counter()
    overlay = build_overlay(net, cell_capacity=capacity)
    t_build = time.perf_counter() - t0

    # Correctness spot check: overlay answers match flat Dijkstra.
    csr = csr_snapshot(net)
    rng = random.Random(3)
    for s, t in (tuple(rng.sample(nodes, 2)) for _ in range(2)):
        want = csr_dijkstra_path(net, s, t, csr=csr).distance
        got = overlay.route(s, t).distance
        if abs(want - got) > 1e-9:
            raise SystemExit(
                "FATAL: metro overlay distances diverge from dijkstra-csr"
            )

    # DIMACS interchange round trip at CI scale (the 10⁶ run skips it —
    # minutes of text parsing would dominate the tier's wall time).
    dimacs_ms = None
    if num_nodes <= 200_000:
        import tempfile

        ids = {u: i + 1 for i, u in enumerate(nodes)}
        from repro.network.graph import RoadNetwork

        renamed = RoadNetwork(directed=False)
        for u in nodes:
            p = net.position(u)
            renamed.add_node(ids[u], p.x, p.y)
        for u, v, w in net.edges():
            renamed.add_edge(ids[u], ids[v], w)
        with tempfile.TemporaryDirectory(prefix="bench-dimacs-") as tmp:
            gr = pathlib.Path(tmp) / "metro.gr"
            co = pathlib.Path(tmp) / "metro.co"
            t0 = time.perf_counter()
            write_dimacs(renamed, gr, co)
            back = read_dimacs(gr, co, directed=False)
            dimacs_ms = round((time.perf_counter() - t0) * 1000.0, 2)
        if len(back) != len(net):
            raise SystemExit("FATAL: DIMACS round trip changed the node set")

    metrics = {
        "metro_build_s": {
            "value": round(t_build, 2),
            "direction": "lower",
            "max": 8.0,
            "desc": (
                "serial overlay build (partition plus every cell's "
                "customization) of the metro network (absolute ceiling, "
                "~2.5x the measured build; at this cell size the batched "
                "sweep and the heap fallback cost about the same, so "
                "the sweep's path is pinned by a test, not this ceiling)"
            ),
        },
        "metro_avg_degree": {
            "value": round(avg_degree, 3),
            "direction": "lower",
            "desc": (
                "average degree of the generated metro network "
                "(deterministic at fixed node count and seed)"
            ),
        },
        "metro_overlay_cells": {
            "value": overlay.num_cells,
            "direction": "lower",
            "desc": (
                "partition cells of the metro overlay (deterministic "
                "at fixed node count and seed)"
            ),
        },
    }
    del repeats  # build tier: one cold build is the measurement
    return {
        "schema": 1,
        "mode": "metro",
        "grid": f"metro-{num_nodes}",
        "metrics": metrics,
        "info": {
            "python": platform.python_version(),
            "requested_nodes": num_nodes,
            "nodes": len(nodes),
            "edges": num_edges,
            "generate_s": round(t_gen, 2),
            "cell_capacity": capacity,
            "build_s": round(t_build, 2),
            "cells_per_sec": round(overlay.num_cells / t_build, 2),
            "dimacs_roundtrip_ms": dimacs_ms,
        },
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output", default="BENCH_PR.json", help="output JSON path"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="10k-node grid instead of the quick 1.6k-node one",
    )
    parser.add_argument(
        "--grid200",
        action="store_true",
        help=(
            "run the 40k-node tier gating the vectorized/mmap "
            "wins (requires numpy; baseline_200.json)"
        ),
    )
    parser.add_argument(
        "--metro",
        action="store_true",
        help=(
            "run the metro-region build-time tier (serial overlay "
            "build ceiling; baseline_metro.json)"
        ),
    )
    parser.add_argument(
        "--metro-nodes",
        type=int,
        default=60_000,
        help=(
            "metro tier node count (CI keeps the 60k default; the full "
            "scale proof passes 1000000 to a scratch output)"
        ),
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    args = parser.parse_args(argv)
    if args.metro:
        doc = run_metro(num_nodes=args.metro_nodes, repeats=args.repeats)
    elif args.grid200:
        doc = run_grid200(repeats=args.repeats)
    else:
        doc = run_suite(full=args.full, repeats=args.repeats)
    path = pathlib.Path(args.output)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"[bench-quick] mode={doc['mode']} grid={doc['grid']} -> {path}")
    for name, m in doc["metrics"].items():
        print(f"  {name:32s} {m['value']:>10}  ({m['direction']} is better)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
