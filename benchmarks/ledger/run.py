#!/usr/bin/env python3
"""The request ledger: one protected-request benchmark, layer by layer.

Driver contract (one workload, one mode, time-boxed)::

    python3 benchmarks/ledger/run.py --workload cold_far --seed 11 \\
        --seconds 20 --trace 0

Everything at once, with fixed request counts so counters repeat
exactly, written to a results file::

    python3 benchmarks/ledger/run.py --seed 11 --out results/seed-11.json

Also ``--compare A.json B.json`` and ``--self-test``.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import multiprocessing
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(
        f"error: {ROOT / 'src' / 'repro'} not found — the ledger measures "
        "the repro package and must run inside its checkout"
    )
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from repro.network.io import read_network, write_network  # noqa: E402
from repro.service.serving import ServingConfig, ServingStack  # noqa: E402

from ledger import checks, client, compare, layers, report, selftest  # noqa: E402
from ledger.server import Server  # noqa: E402
from ledger.spans import Recorder  # noqa: E402
from ledger.workloads import WORKLOADS, Stream  # noqa: E402

#: server spawns per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: a fixed-count traced run covers this fraction of the workload's count
TRACED_COUNT_SHARE = 0.2


def _pin_to_one_cpu() -> bool:
    """Proxy, gateway and shard workers all share one CPU (inherited).

    On a 2-vCPU sandbox cross-CPU wake-ups made identical runs differ by
    12-20%; on one CPU they differ by ~5%, and throughput reads directly
    as 1 / (CPU seconds per request).  Returns whether it worked: where
    it is not permitted the run goes ahead unpinned, just noisier, and
    says so.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError:
        return False
    return True


def _fresh(function, *args) -> dict:
    """Run one measurement in a fresh interpreter, as a driver run is.

    A traced run that inherits the heap of the runs before it replays
    measurably slower than the server it is compared with.
    """
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(function, args)


class Bench:
    """One workload's files, streams and server for one run."""

    def __init__(self, workload, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.workdir = ROOT / ".ledger_work" / workload.name
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.network_file = self.workdir / "network.txt"
        write_network(workload.make_network(), self.network_file)
        # judge against what the server reads, not what was generated
        self.network = read_network(self.network_file)
        self.stream = Stream(workload, self.network, seed)
        self.warmup = Stream(workload, self.network, seed, salt=1)
        self.server = Server(ROOT, self.workdir, self.network_file,
                             workload.engine, workload.workers)

    def drive(self, starts: int, **drive_args):
        """Start the server ``starts`` times, drive the last one, stop it.

        Returns ``(drive result, /v1/metrics, peak RSS MiB, set-up times)``.
        """
        server = self.server

        async def session():
            result = await client.drive(
                server.host, server.port, self.network, self.stream,
                self.seed, warmup=self.warmup, **drive_args,
            )
            return result, await client.fetch_metrics(server.host, server.port)

        setups = []
        try:
            for _ in range(starts):
                server.stop()
                setups.append(server.start())
            result, metrics = asyncio.run(session())
            return result, metrics, server.peak_rss_mb(), setups
        finally:
            server.stop()


def run_untraced(workload, seed: int, seconds: float | None,
                 count: int | None, starts: int = SETUP_REPEATS,
                 corrupt: bool = False) -> dict:
    """Two connections, tracing off: the end-to-end numbers."""
    bench = Bench(workload, seed)
    result, _, rss_mb, setups = bench.drive(
        starts, connections=2, seconds=seconds, count=count
    )
    if corrupt:  # self-test: a wrong path handed to a user must be caught
        victim = result.outcomes[len(result.outcomes) // 2]
        victim.path = dataclasses.replace(
            victim.path, distance=victim.path.distance + 1.0
        )
    stack = None
    if not workload.reweight_every:  # static map: byte-identity applies
        stack = ServingStack.from_config(
            bench.network, ServingConfig(engine=workload.engine)
        )
    try:
        failures = checks.run_checks(result, bench.network, seed, stack)
    finally:
        if stack is not None:
            stack.close()
    values, spread = report.end_to_end(result, failures, setups, rss_mb)
    return {
        "values": values,
        "spread": spread,
        "attempted": len(result.outcomes) + len(result.reweights),
        "failures": failures,
    }


def run_traced(workload, seed: int, seconds: float | None,
               count: int | None) -> dict:
    """One connection, spans on, replay alongside: the per-layer numbers."""
    bench = Bench(workload, seed)
    recorder = Recorder()
    static, replay_network = layers.static_probes(workload, bench.network_file)
    replayer = layers.Replayer(workload, replay_network, recorder)
    try:
        result, server_metrics, _, _ = bench.drive(
            1, connections=1, seconds=seconds, count=count,
            recorder=recorder, replayer=replayer,
        )
    finally:
        counters = replayer.close()
    failures = checks.run_checks(result, bench.network, seed)
    for index, miss in replayer.misses.items():
        failures.setdefault(index, miss)
    recorder.write(bench.workdir / "trace.jsonl")
    values = {
        **report.per_layer(recorder.rows, result),
        **static, **counters, **layers.server_counters(server_metrics),
        **layers.engine_table(workload, seed),
        "search.ch_tie_failures": layers.ch_tie_failures(),
    }
    return {
        "values": values,
        "rows": recorder.rows,
        "attempted": len(result.outcomes) + len(result.reweights),
        "failures": failures,
    }


def _named(spec_metrics: list[dict], values: dict) -> dict:
    """Every metric the spec names, as measured: none is defaulted."""
    return {m["name"]: values[m["name"]] for m in spec_metrics}


def _residual_miss(name: str, layer: dict) -> bool:
    """Report the reconciliation gate's verdict on one traced run."""
    if report.residual_ok(layer):
        return False
    print(
        f"FAILED {name}: |ledger.residual_share| = "
        f"{abs(layer['ledger.residual_share']):.3f} > "
        f"{report.RESIDUAL_LIMIT}", file=sys.stderr,
    )
    return True


def _report_failures(failures: dict) -> None:
    for key, miss in sorted(failures.items(), key=str)[:10]:
        print(f"FAILED {key}: {miss}", file=sys.stderr)


def _print_issue_extras(untraced: dict, failed: int, attempted: int) -> None:
    """The two end-to-end metrics of the issue the driver's list cannot
    carry: ``fail_ratio`` is 0 on a good run and ``reweight_p50_ms``
    exists on ``churn_overlay`` only."""
    report.print_row("fail_ratio", failed / attempted, "ratio")
    if "reweight_p50_ms" in untraced["values"]:
        report.print_row(
            "reweight_p50_ms", untraced["values"]["reweight_p50_ms"], "ms"
        )


def driver_run(args, spec, pinned: bool) -> int:
    """``--workload``: one time-boxed run, the driver's JSON last."""
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    run = (run_traced if trace else run_untraced)(
        workload, args.seed, args.seconds, None
    )
    metrics = spec["per_layer" if trace else "end_to_end"]
    values = _named(metrics, run["values"])
    report.print_metrics(
        f"{workload.name} seed={args.seed} trace={int(trace)} "
        f"pinned={int(pinned)}", metrics, values,
    )
    failed = len(run["failures"])
    if not trace:
        _print_issue_extras(run, failed, run["attempted"])
    _report_failures(run["failures"])
    unreconciled = trace and _residual_miss(workload.name, values)
    print(report.result_line(metrics, values, run["attempted"], failed))
    return 1 if failed or unreconciled else 0


def full_run(args, spec, pinned: bool) -> int:
    """Every workload, untraced then traced, with fixed request counts."""
    document = {"seed": args.seed, "pinned": pinned, "workloads": {}}
    status = 0
    for name, workload in WORKLOADS.items():
        untraced = _fresh(
            run_untraced, workload, args.seed, None, workload.count
        )
        traced = _fresh(
            run_traced, workload, args.seed, None,
            int(workload.count * TRACED_COUNT_SHARE),
        )
        end_to_end = _named(spec["end_to_end"], untraced["values"])
        layer = _named(spec["per_layer"], traced["values"])
        failed = len(untraced["failures"]) + len(traced["failures"])
        attempted = untraced["attempted"] + traced["attempted"]
        report.print_metrics(
            f"{name} seed={args.seed} pinned={int(pinned)} end to end "
            f"(n={untraced['attempted']})", spec["end_to_end"], end_to_end,
        )
        _print_issue_extras(untraced, failed, attempted)
        report.print_metrics(
            f"{name} seed={args.seed} pinned={int(pinned)} per layer "
            f"(n={traced['attempted']})", spec["per_layer"], layer,
        )
        _report_failures(untraced["failures"] | traced["failures"])
        if failed or _residual_miss(name, layer):
            status = 1
        document["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "end_to_end": end_to_end,
            "spread": untraced["spread"],
            "per_layer": layer,
        }
        if "reweight_p50_ms" in untraced["values"]:
            document["workloads"][name]["reweight_p50_ms"] = (
                untraced["values"]["reweight_p50_ms"]
            )
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file of a full run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    pinned = _pin_to_one_cpu()
    spec = report.load_spec(ROOT)
    if args.compare:
        return compare.main(spec, *args.compare)
    if args.self_test:
        return selftest.main(spec, run_untraced, run_traced)
    if args.workload is None:
        return full_run(args, spec, pinned)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return driver_run(args, spec, pinned)


if __name__ == "__main__":
    sys.exit(main())
