"""Command-line interface: generate maps, route, protect queries, run experiments.

Usage (also via ``python -m repro``):

    repro generate grid --width 20 --height 20 -o city.txt
    repro summarize city.txt
    repro route city.txt 21 352 --engine dijkstra-csr   # flat CSR kernel
    repro route city.txt 21 352 --avoid-highways
    repro protect city.txt 21 352 --f-s 3 --f-t 3
    repro workload city.txt -o rush.txt --count 40 --kind hotspot
    repro scenario morning-rush city.txt -o traffic.txt --merge-workload rush.txt
    repro serve-replay city.txt rush.txt --engine ch-csr --repeat 3
    repro serve-replay city.txt traffic.txt --engine dijkstra-csr
    repro serve-replay city.txt rush.txt --engine ch-csr --batch 8
    repro serve-replay city.txt rush.txt --metrics-out m.json --trace-out t.jsonl
    repro serve city.txt --port 8080 --engine dijkstra-csr --workers 4
    repro loadgen city.txt rush.txt --host 127.0.0.1 --port 8080 --clients 4
    repro obs-report --metrics m.json --traces t.jsonl
    repro experiment E1 E4
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.privacy import breach_probability
from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.core.system import OpaqueSystem
from repro.exceptions import ReproError
from repro.network.generators import (
    grid_network,
    random_geometric_network,
    ring_radial_network,
    tiger_like_network,
)
from repro.network.io import read_network, write_network
from repro.network.metrics import summarize_network
from repro.network.views import avoid_fast_roads
from repro.search import get_engine, list_engines
from repro.search.result import SearchStats

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OPAQUE path-privacy reproduction toolkit (ICDE 2009)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic road network")
    gen.add_argument(
        "topology", choices=["grid", "geometric", "ring-radial", "tiger"]
    )
    gen.add_argument("--width", type=int, default=20, help="grid width")
    gen.add_argument("--height", type=int, default=20, help="grid height")
    gen.add_argument("--nodes", type=int, default=500, help="geometric node count")
    gen.add_argument("--radius", type=float, default=0.08, help="geometric radius")
    gen.add_argument("--rings", type=int, default=6)
    gen.add_argument("--spokes", type=int, default=12)
    gen.add_argument("--blocks", type=int, default=4)
    gen.add_argument("--block-size", type=int, default=5)
    gen.add_argument("--perturbation", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True, help="output map file")

    summ = sub.add_parser("summarize", help="print structure stats of a map file")
    summ.add_argument("network", help="map file from 'generate'")

    route = sub.add_parser("route", help="unprotected shortest-path query")
    route.add_argument("network")
    route.add_argument("source", type=int)
    route.add_argument("destination", type=int)
    route.add_argument(
        "--engine",
        choices=list_engines(),
        default="dijkstra",
        help="search engine (preprocessing engines build their index first)",
    )
    route.add_argument(
        "--avoid-highways",
        action="store_true",
        help="exclude roads faster than local streets",
    )

    protect = sub.add_parser("protect", help="OPAQUE-protected path query")
    protect.add_argument("network")
    protect.add_argument("source", type=int)
    protect.add_argument("destination", type=int)
    protect.add_argument("--f-s", type=int, default=3, help="source set size")
    protect.add_argument("--f-t", type=int, default=3, help="destination set size")
    protect.add_argument(
        "--engine",
        choices=list_engines(),
        default="dijkstra",
        help="server-side search engine answering the obfuscated query",
    )
    protect.add_argument("--seed", type=int, default=0)

    work = sub.add_parser(
        "workload", help="synthesize a replayable protected-query workload"
    )
    work.add_argument("network")
    work.add_argument("-o", "--output", required=True, help="output workload file")
    work.add_argument("--count", type=int, default=32, help="number of queries")
    work.add_argument(
        "--kind",
        choices=["hotspot", "uniform"],
        default="hotspot",
        help="endpoint mix (hotspot repeats popular destinations)",
    )
    work.add_argument("--f-s", type=int, default=3, help="source set size")
    work.add_argument("--f-t", type=int, default=3, help="destination set size")
    work.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve-replay",
        help="replay a workload through the caching serving stack",
    )
    serve.add_argument("network")
    serve.add_argument("workload", help="workload file from 'workload'")
    serve.add_argument(
        "--engine",
        choices=list_engines(),
        default="dijkstra",
        help="server-side search engine (preprocessing is cached)",
    )
    serve.add_argument(
        "--mode",
        choices=["independent", "shared"],
        default="independent",
        help="obfuscation variant applied to the workload",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=2,
        help="passes over the stream (pass 1 is cold, later ones warm)",
    )
    serve.add_argument(
        "--batch",
        type=int,
        default=8,
        help="queries per batch (its distinct misses share one union pass)",
    )
    serve.add_argument(
        "--result-capacity", type=int, default=256, help="result-cache entries"
    )
    serve.add_argument(
        "--spill-dir",
        default=None,
        help="directory for evicted preprocessing artifacts (CH graphs)",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--metrics-out",
        default=None,
        help="write the stack's metrics registry to this JSON file",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        help="record per-query span trees and write them to this JSONL file",
    )
    serve.add_argument(
        "--slow-query-ms",
        type=float,
        default=None,
        help=(
            "log batches slower than this many milliseconds as JSON lines "
            "on stderr (implies tracing)"
        ),
    )

    scen = sub.add_parser(
        "scenario",
        help="synthesize a timed traffic-event stream (v2 workload file)",
    )
    scen.add_argument(
        "name",
        choices=["morning-rush", "evening-rush", "incident", "uniform"],
        help="traffic scenario shape",
    )
    scen.add_argument("network")
    scen.add_argument("-o", "--output", required=True, help="output file")
    scen.add_argument(
        "--duration-ms",
        type=int,
        default=60_000,
        help="scenario duration in milliseconds",
    )
    scen.add_argument(
        "--events", type=int, default=200, help="traffic events to emit"
    )
    scen.add_argument("--seed", type=int, default=0)
    scen.add_argument(
        "--merge-workload",
        default=None,
        help=(
            "interleave this workload file's queries evenly into the "
            "event stream (producing a mixed q/w v2 file)"
        ),
    )

    obs = sub.add_parser(
        "obs-report",
        help="summarize telemetry files written by serve-replay/experiment",
    )
    obs.add_argument(
        "--metrics",
        default=None,
        help="metrics JSON file (from --metrics-out)",
    )
    obs.add_argument(
        "--traces",
        default=None,
        help="trace JSONL file (from --trace-out)",
    )
    obs.add_argument(
        "--top",
        type=int,
        default=5,
        help="slowest root spans to list (0 disables)",
    )

    gw = sub.add_parser(
        "serve",
        help="serve a network over HTTP (the asyncio gateway)",
    )
    gw.add_argument("network")
    gw.add_argument("--host", default="127.0.0.1", help="bind address")
    gw.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = pick free)"
    )
    gw.add_argument(
        "--workers",
        type=int,
        default=0,
        help=(
            "shard worker processes (0 serves in-process; N spawns N "
            "warmed per-shard serving stacks)"
        ),
    )
    gw.add_argument(
        "--engine",
        choices=list_engines(),
        default="dijkstra-csr",
        help="server-side search engine in every shard",
    )
    gw.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="admission ceiling before 429 + Retry-After",
    )
    gw.add_argument(
        "--window-ms",
        type=float,
        default=0.0,
        help="micro-batch admission window per shard (milliseconds)",
    )
    gw.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help="queries per micro-batch (its distinct misses share one pass)",
    )
    gw.add_argument(
        "--spill-dir",
        default=None,
        help=(
            "artifact spill/handoff directory shared with shard workers "
            "(a temporary one is created when workers > 0)"
        ),
    )

    lg = sub.add_parser(
        "loadgen",
        help="drive a running gateway with concurrent HTTP clients",
    )
    lg.add_argument("network", help="map file (for workload obfuscation)")
    lg.add_argument("workload", help="workload file from 'workload'")
    lg.add_argument("--host", default="127.0.0.1", help="gateway host")
    lg.add_argument("--port", type=int, required=True, help="gateway port")
    lg.add_argument(
        "--clients", type=int, default=4, help="concurrent connections"
    )
    lg.add_argument(
        "--repeats", type=int, default=1, help="passes over the stream"
    )
    lg.add_argument(
        "--mode",
        choices=["independent", "shared"],
        default="independent",
        help="obfuscation variant applied to the workload",
    )
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument(
        "--json-out",
        default=None,
        help="also write the load report (LoadReport.to_dict) to this file",
    )

    exp = sub.add_parser("experiment", help="run experiments (E1..E12)")
    exp.add_argument("ids", nargs="+", help="experiment ids, e.g. E1 E4")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.topology == "grid":
        net = grid_network(
            args.width, args.height, perturbation=args.perturbation, seed=args.seed
        )
    elif args.topology == "geometric":
        net = random_geometric_network(args.nodes, args.radius, seed=args.seed)
    elif args.topology == "ring-radial":
        net = ring_radial_network(args.rings, args.spokes, seed=args.seed)
    else:
        net = tiger_like_network(
            blocks=args.blocks,
            block_size=args.block_size,
            perturbation=args.perturbation,
            seed=args.seed,
        )
    write_network(net, args.output)
    print(f"wrote {net.num_nodes} nodes, {net.num_edges} edges to {args.output}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    net = read_network(args.network)
    summary = summarize_network(net)
    print(f"nodes:            {summary.num_nodes}")
    print(f"edges:            {summary.num_edges}")
    print(f"components:       {summary.num_components}")
    print(f"average degree:   {summary.average_degree:.2f}")
    print(f"max degree:       {summary.max_degree}")
    print(f"avg edge weight:  {summary.average_edge_weight:.3f}")
    print(f"road-like:        {'yes' if summary.is_road_like else 'no'}")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    net = read_network(args.network)
    searchable = avoid_fast_roads(net) if args.avoid_highways else net
    stats = SearchStats()
    engine = get_engine(args.engine)
    context = engine.prepare(searchable)
    path = engine.route(
        searchable, args.source, args.destination, context=context, stats=stats
    )
    print(f"distance: {path.distance:.4f} over {path.num_edges} segments")
    print(f"route: {' '.join(str(n) for n in path.nodes)}")
    print(f"settled nodes: {stats.settled_nodes}")
    return 0


def _cmd_protect(args: argparse.Namespace) -> int:
    net = read_network(args.network)
    system = OpaqueSystem(
        net, mode="independent", engine=args.engine, seed=args.seed
    )
    request = ClientRequest(
        "cli-user",
        PathQuery(args.source, args.destination),
        ProtectionSetting(args.f_s, args.f_t),
    )
    paths = system.submit([request])
    path = paths["cli-user"]
    report = system.last_report
    assert report is not None
    record = report.records[0]
    print(f"distance: {path.distance:.4f} over {path.num_edges} segments")
    print(f"route: {' '.join(str(n) for n in path.nodes)}")
    print(f"server saw S = {record.query.sources}")
    print(f"server saw T = {record.query.destinations}")
    print(f"breach probability: {breach_probability(record.query):.4f}")
    print(f"server settled nodes: {report.server_stats.settled_nodes}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.workloads.replay import synthesize_workload, write_workload

    net = read_network(args.network)
    entries = synthesize_workload(
        net,
        args.count,
        f_s=args.f_s,
        f_t=args.f_t,
        kind=args.kind,
        seed=args.seed,
    )
    write_workload(entries, args.output)
    print(f"wrote {len(entries)} {args.kind} queries to {args.output}")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.workloads.replay import read_workload, write_workload_items
    from repro.workloads.scenarios import scenario_events

    net = read_network(args.network)
    events = scenario_events(
        args.name,
        net,
        duration_ms=args.duration_ms,
        events=args.events,
        seed=args.seed,
    )
    items: list = list(events)
    queries = 0
    if args.merge_workload:
        entries = read_workload(args.merge_workload)
        queries = len(entries)
        # Spread queries evenly through the timed event stream: query j
        # lands at the fraction (j+1)/(q+1) of the scenario duration.
        merged: list = []
        duration = max((e.at_ms for e in events), default=0)
        qpos = [
            (j + 1) * duration / (queries + 1) for j in range(queries)
        ]
        ei = qi = 0
        while ei < len(events) or qi < queries:
            if qi >= queries or (
                ei < len(events) and events[ei].at_ms <= qpos[qi]
            ):
                merged.append(events[ei])
                ei += 1
            else:
                merged.append(entries[qi])
                qi += 1
        items = merged
    write_workload_items(items, args.output)
    print(
        f"wrote {len(events)} {args.name} traffic events"
        + (f" and {queries} queries" if queries else "")
        + f" to {args.output}"
    )
    return 0


def _cmd_serve_replay(args: argparse.Namespace) -> int:
    import logging

    from repro.core.obfuscator import PathQueryObfuscator
    from repro.obs import JSONLogFormatter, MetricsRegistry, Tracer
    from repro.obs.trace import SLOW_QUERY_LOGGER
    from repro.service.cache import ResultCache
    from repro.service.serving import ServingConfig, ServingStack, replay
    from repro.workloads.replay import (
        TrafficEvent,
        WorkloadEntry,
        read_workload_items,
    )

    if args.repeat < 1 or args.batch < 1:
        print("error: --repeat and --batch must be >= 1", file=sys.stderr)
        return 1
    if args.result_capacity < 0:
        print("error: --result-capacity must be >= 0", file=sys.stderr)
        return 1
    net = read_network(args.network)
    items = read_workload_items(args.workload)
    entries = [item for item in items if isinstance(item, WorkloadEntry)]
    traffic = [item for item in items if isinstance(item, TrafficEvent)]
    if not entries:
        print("error: empty workload", file=sys.stderr)
        return 1
    # Obfuscate the workload once so the server-visible stream is fixed;
    # replaying it R times models the recurring traffic of a long-lived
    # deployment (same decoys, same Q(S, T)).
    obfuscator = PathQueryObfuscator(net, seed=args.seed)
    requests = [e.as_request(f"w-{i}") for i, e in enumerate(entries)]
    records = obfuscator.obfuscate_batch(requests, mode=args.mode)
    queries = [record.query for record in records]
    # The server-visible mixed stream: obfuscated queries where the q
    # lines sat, traffic events where the w lines sat.
    obfuscated = iter(queries)
    mixed = [
        item if isinstance(item, TrafficEvent) else next(obfuscated)
        for item in items
    ]

    tracer = None
    slow_handler = None
    if args.trace_out or args.slow_query_ms is not None:
        threshold = (
            args.slow_query_ms / 1000.0
            if args.slow_query_ms is not None
            else None
        )
        tracer = Tracer(slow_threshold_s=threshold)
        if threshold is not None:
            slow_handler = logging.StreamHandler(sys.stderr)
            slow_handler.setFormatter(JSONLogFormatter())
            logging.getLogger(SLOW_QUERY_LOGGER).addHandler(slow_handler)
    registry = MetricsRegistry()
    with ServingStack.from_config(
        net,
        ServingConfig(engine=args.engine, spill_dir=args.spill_dir),
        result_cache=ResultCache(
            capacity=args.result_capacity, metrics=registry
        ),
        metrics=registry,
        tracer=tracer,
    ) as stack:
        try:
            report = replay(
                stack, mixed, repeats=args.repeat, batch_size=args.batch
            )
        finally:
            if slow_handler is not None:
                logging.getLogger(SLOW_QUERY_LOGGER).removeHandler(
                    slow_handler
                )
        epoch = stack.epoch
        installs = stack.metrics.histogram("repro_serve_reweight_seconds")
        if args.metrics_out:
            from pathlib import Path

            Path(args.metrics_out).write_text(
                stack.metrics.to_json(), encoding="utf-8"
            )
            print(f"wrote metrics to {args.metrics_out}")
        if args.trace_out and tracer is not None:
            roots = tracer.write_jsonl(args.trace_out)
            print(f"wrote {roots} trace trees to {args.trace_out}")
    cache = report.cache
    print(
        f"replayed {report.queries} obfuscated queries "
        f"({len(queries)} unique x {args.repeat} passes, "
        f"engine={args.engine}, batch={args.batch}) "
        f"in {report.total_seconds:.3f}s"
    )
    print(
        f"latency p50/p95/p99: {report.p50_latency * 1e3:.2f} / "
        f"{report.p95_latency * 1e3:.2f} / {report.p99_latency * 1e3:.2f} ms"
    )
    print(
        f"result cache:        {cache.result_hits} hits, "
        f"{cache.result_misses} misses, {cache.result_evictions} evictions "
        f"(hit rate {cache.result_hit_rate:.0%})"
    )
    print(
        f"preprocessing cache: {cache.preprocessing_hits} hits, "
        f"{cache.preprocessing_misses} misses, "
        f"{cache.preprocessing_disk_loads} disk loads "
        f"(hit rate {cache.preprocessing_hit_rate:.0%})"
    )
    if traffic:
        print(
            f"traffic epochs:      {len(traffic) * args.repeat} events "
            f"-> epoch {epoch} "
            f"(install mean {installs.sum / installs.count * 1e3:.2f} ms)"
        )
    return 0


def _walk_span_dicts(doc: dict):
    """Yield ``doc`` and every descendant span dict (pre-order)."""
    yield doc
    for child in doc.get("children", ()):
        yield from _walk_span_dicts(child)


def _cmd_obs_report(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.service.stats import percentile

    if not args.metrics and not args.traces:
        print("error: pass --metrics and/or --traces", file=sys.stderr)
        return 1
    if args.metrics:
        doc = json.loads(Path(args.metrics).read_text(encoding="utf-8"))
        metrics = doc.get("metrics", {})
        print(f"metrics: {len(metrics)} instruments from {args.metrics}")
        for name in sorted(metrics):
            entry = metrics[name]
            if entry["type"] == "histogram":
                shown = f"count={entry['count']} sum={entry['sum']:.6f}"
            else:
                shown = f"value={entry['value']}"
            print(f"  {entry['type']:<9} {name} {shown}")
    if args.traces:
        roots = [
            json.loads(line)
            for line in Path(args.traces)
            .read_text(encoding="utf-8")
            .splitlines()
            if line.strip()
        ]
        durations: dict[str, list[float]] = {}
        for root in roots:
            for span in _walk_span_dicts(root):
                durations.setdefault(span["name"], []).append(
                    span["duration"]
                )
        print(f"traces: {len(roots)} root spans from {args.traces}")
        for name in sorted(durations):
            values = sorted(durations[name])
            p50 = percentile(values, 0.50) * 1e3
            p95 = percentile(values, 0.95) * 1e3
            print(
                f"  {name:<24} n={len(values):<6} "
                f"p50={p50:.3f}ms p95={p95:.3f}ms"
            )
        if args.top > 0 and roots:
            slowest = sorted(
                roots, key=lambda r: r["duration"], reverse=True
            )[: args.top]
            print(f"slowest {len(slowest)} roots:")
            for root in slowest:
                attrs = root.get("attrs", {})
                shown = " ".join(
                    f"{k}={attrs[k]}" for k in sorted(attrs)
                )
                print(
                    f"  {root['duration'] * 1e3:9.3f}ms "
                    f"{root['name']} {shown}"
                )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.harness import run_all

    for result in run_all([eid.upper() for eid in args.ids]):
        print(result)
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.gateway import GatewayConfig, run_gateway
    from repro.service.serving import ServingConfig

    if args.workers < 0:
        print("error: --workers must be >= 0", file=sys.stderr)
        return 1
    net = read_network(args.network)
    serving = ServingConfig(engine=args.engine, spill_dir=args.spill_dir)
    config = GatewayConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight=args.max_inflight,
        window_ms=args.window_ms,
        max_batch=args.max_batch,
    )
    run_gateway(net, serving=serving, config=config)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.core.obfuscator import PathQueryObfuscator
    from repro.service.wire import RouteRequest
    from repro.workloads.loadgen import run_load
    from repro.workloads.replay import WorkloadEntry, read_workload_items

    if args.clients < 1 or args.repeats < 1:
        print(
            "error: --clients and --repeats must be >= 1", file=sys.stderr
        )
        return 1
    net = read_network(args.network)
    entries = [
        item
        for item in read_workload_items(args.workload)
        if isinstance(item, WorkloadEntry)
    ]
    if not entries:
        print("error: empty workload", file=sys.stderr)
        return 1
    # Same one-time obfuscation as serve-replay: the gateway sees the
    # fixed server-visible stream, repeated --repeats times.
    obfuscator = PathQueryObfuscator(net, seed=args.seed)
    requests = [e.as_request(f"w-{i}") for i, e in enumerate(entries)]
    records = obfuscator.obfuscate_batch(requests, mode=args.mode)
    wire_requests = [
        RouteRequest.from_query(record.query) for record in records
    ]
    report = run_load(
        args.host,
        args.port,
        wire_requests,
        clients=args.clients,
        repeats=args.repeats,
    )
    print(
        f"sent {report.requests} requests over {args.clients} clients "
        f"in {report.total_seconds:.3f}s ({report.rps:.0f} rps)"
    )
    print(
        f"latency p50/p99: {report.p50_latency * 1e3:.2f} / "
        f"{report.p99_latency * 1e3:.2f} ms; errors: {report.errors}"
    )
    if args.json_out:
        from pathlib import Path
        import json as _json

        Path(args.json_out).write_text(
            _json.dumps(report.to_dict(), indent=2), encoding="utf-8"
        )
        print(f"wrote load report to {args.json_out}")
    return 0 if report.errors == 0 else 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "summarize": _cmd_summarize,
        "route": _cmd_route,
        "protect": _cmd_protect,
        "workload": _cmd_workload,
        "scenario": _cmd_scenario,
        "serve-replay": _cmd_serve_replay,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "obs-report": _cmd_obs_report,
        "experiment": _cmd_experiment,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
