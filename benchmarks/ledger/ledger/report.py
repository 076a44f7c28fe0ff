"""Turning a run into the named metrics of ``BENCHMARK.json``."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from ledger.client import DriveResult
from ledger.spans import ROOT, reconcile, self_times

#: the harness fails when more of a request than this is unexplained
RESIDUAL_LIMIT = 0.10
#: an untraced run's own spread is taken over this many segments
SEGMENTS = 5


def load_spec(root: Path) -> dict:
    """``BENCHMARK.json``: the one place metric names and bounds live."""
    return json.loads((root / "BENCHMARK.json").read_text())


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def _window(outcomes, started_at: float) -> dict:
    """Latency, throughput and size over one stretch of completed requests."""
    latencies = sorted(o.latency * 1e3 for o in outcomes)
    wall = max(o.done_at for o in outcomes) - started_at
    return {
        "req_p50_ms": percentile(latencies, 0.50),
        "req_p95_ms": percentile(latencies, 0.95),
        "rps": len(outcomes) / wall,
        "resp_kb_per_req":
            sum(len(o.body) for o in outcomes) / len(outcomes) / 1024.0,
    }


def _spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (the driver's measure)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def end_to_end(
    result: DriveResult, failures: dict, setup_s: list[float], rss_mb: float
) -> tuple[dict, dict]:
    """The user-visible numbers of one untraced run, and their spread.

    The spread of each timing is taken over ``SEGMENTS`` consecutive
    equal-count stretches of the run; ``--compare`` uses it to tell
    "no change" from "cannot tell".
    """
    ok = sorted(
        (o for o in result.outcomes if o.index not in failures),
        key=lambda o: o.done_at,
    )
    values = {
        "setup_s": statistics.median(setup_s),
        **_window(ok, result.started_at),
        "server_rss_mb": rss_mb,
    }
    spread = {name: 0.0 for name in values}
    if len(setup_s) >= 2:
        spread["setup_s"] = _spread(setup_s)
    size = len(ok) // SEGMENTS
    if size >= 2:
        segments = []
        for k in range(SEGMENTS):
            started = ok[k * size - 1].done_at if k else result.started_at
            segments.append(_window(ok[k * size:(k + 1) * size], started))
        for name in segments[0]:
            spread[name] = _spread([segment[name] for segment in segments])
    if result.reweights:
        # the issue's eighth end-to-end metric; only a workload with
        # traffic updates has it, so the driver's list cannot carry it
        latencies = [r.latency * 1e3 for r in result.reweights]
        values["reweight_p50_ms"] = statistics.median(latencies)
        size = len(latencies) // SEGMENTS
        spread["reweight_p50_ms"] = _spread([
            statistics.median(latencies[k * size:(k + 1) * size])
            for k in range(SEGMENTS)
        ]) if size >= 2 else 0.0
    return values, spread


def per_layer(rows: list[list], result: DriveResult) -> dict:
    """Everything the span table and the drive log say about the layers.

    Nothing is defaulted: a span name without a single sample raises,
    because a traced run records every one of them (request 0 is traced
    and a cache miss; a read-only workload ends with one reweight).
    """
    by_name: dict[str, list[float]] = {}
    self_by_name: dict[str, list[float]] = {}
    attrs_by_name: dict[str, list[dict]] = {}
    for (name, start, end, _, _, attrs), own in zip(rows, self_times(rows)):
        by_name.setdefault(name, []).append(end - start)
        self_by_name.setdefault(name, []).append(own)
        attrs_by_name.setdefault(name, []).append(attrs)

    def ms(name, table=by_name):
        return statistics.median(table[name]) * 1e3

    def us(name):
        return ms(name) * 1e3

    def mean_attr(name, key):
        return statistics.fmean(a[key] for a in attrs_by_name[name])

    ledger = reconcile(rows)
    e2e = ledger["e2e"]

    def share(layer):
        return ledger["layers"][layer] / e2e

    base = statistics.median(
        o.latency for o in result.outcomes if not o.traced and not o.error
    )
    traced = statistics.median(
        o.latency for o in result.outcomes if o.traced and not o.error
    )
    requests = len(by_name[ROOT])
    return {
        "obfuscator.obfuscate_ms": ms("core.obfuscator.obfuscate"),
        "obfuscator.share": share("obfuscator"),
        "obfuscator.pairs_per_query":
            mean_attr("core.obfuscator.obfuscate", "pairs"),
        "wire.encode_request_us": us("service.wire.encode_request"),
        "wire.decode_request_us": us("service.wire.decode_request"),
        "wire.encode_response_us": us("service.wire.encode_response"),
        "wire.decode_response_us": us("service.wire.decode_response"),
        "wire.request_bytes": mean_attr("service.wire.encode_request", "bytes"),
        "wire.response_bytes":
            mean_attr("service.wire.decode_response", "bytes"),
        "wire.share": share("wire"),
        "gateway.http_rtt_ms": ms("service.gateway.http"),
        "gateway.self_ms": ms("service.gateway.http", self_by_name),
        "gateway.share": share("gateway"),
        "gateway.envelope_pickle_us": us("service.gateway.envelope_pickle"),
        "serving.answer_ms": ms("service.serving.answer"),
        "serving.self_ms": ms("service.serving.answer", self_by_name),
        "serving.share": share("serving"),
        "cache.result_get_us": us("service.cache.result_get"),
        "search.process_ms": ms("search.process"),
        "search.share": share("search"),
        "filter.extract_us": us("core.filter.extract"),
        "reweight.http_ms":
            statistics.median(r.latency for r in result.reweights) * 1e3,
        "reweight.inproc_ms": ms("service.pipeline.reweight_inproc"),
        "reweight.touched_cells":
            mean_attr("service.pipeline.reweight_inproc", "touched_cells"),
        "ledger.adapt_us": us("ledger.adapt"),
        "ledger.traced_requests": requests,
        "ledger.residual_ms": ledger["residual"] / requests * 1e3,
        "ledger.residual_share": ledger["residual"] / e2e,
        "ledger.trace_overhead_pct": (traced - base) / base * 100.0,
    }


def residual_ok(metrics: dict) -> bool:
    """The reconciliation gate: unexplained time is a bug.

    The client-side spans tile the root up to the record's discard, and
    ``gateway.self_ms`` is by definition what the replay leaves of the
    round trip, so unattributed *server* time reads as gateway share,
    not as residual.  What the gate catches is a span that went missing
    and a replay that explains more time than the round trip had.
    """
    return abs(metrics["ledger.residual_share"]) <= RESIDUAL_LIMIT


def result_line(spec_metrics: list[dict], values: dict, attempted: int,
                failed: int) -> str:
    """The driver's last-line JSON object, metrics in spec order."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics
        },
    })


def print_row(name: str, value: float, unit: str) -> None:
    print(f"{name:<36} {value:>14.6g} {unit}")


def print_metrics(title: str, spec_metrics: list[dict], values: dict) -> None:
    """Every metric by name, with its unit."""
    print(f"-- {title}")
    for m in spec_metrics:
        print_row(m["name"], values[m["name"]], m["unit"])
