"""``--self-test``: the instrument checks itself on a 12x12 map.

Fifty requests per workload, both modes.  Asserts that every metric
``BENCHMARK.json`` names is measured on every workload (the run has no
defaults to fall back on, and a timing or size that reads 0 is not a
measurement), that the reconciliation gate fires on a doctored trace,
and that a wrong path handed to a user is counted as a failure.
"""

from __future__ import annotations

import math

from ledger import report
from ledger.spans import reconcile
from ledger.workloads import SELF_TEST_WORKLOADS

_SEED = 5
#: per-layer metrics for which 0 is a real reading: error counters and
#: the CH probe (target 0), signed instrument rows, cells touched by a
#: one-edge update (0 on a boundary edge or a non-overlay engine)
_MAY_BE_ZERO = {
    "gateway.rejected_total", "gateway.errors_total",
    "search.ch_tie_failures", "reweight.touched_cells",
    "ledger.residual_ms", "ledger.residual_share",
    "ledger.trace_overhead_pct",
}
#: cache hits are 0 wherever every query is distinct; the workload that
#: exists to produce them must show some
_HITS = {"cache.result_hits", "cache.result_hit_ratio"}


def _require(ok, *context) -> None:
    if not ok:
        raise SystemExit(f"self-test FAILED: {context}")


def main(spec: dict, run_untraced, run_traced) -> int:
    rows = {}
    for name, workload in SELF_TEST_WORKLOADS.items():
        untraced = run_untraced(workload, _SEED, None, workload.count, starts=2)
        _require(not untraced["failures"], name, untraced["failures"])
        for metric in spec["end_to_end"]:
            value = untraced["values"][metric["name"]]
            _require(value > 0 and metric["unit"], name, metric, value)
        traced = run_traced(workload, _SEED, None, workload.count)
        _require(not traced["failures"], name, traced["failures"])
        _require(report.residual_ok(traced["values"]), name,
                 traced["values"]["ledger.residual_share"])
        for metric in spec["per_layer"]:
            key = metric["name"]
            value = traced["values"][key]  # KeyError: not measured here
            _require(math.isfinite(value) and metric["unit"], name, metric)
            may_be_zero = key in _MAY_BE_ZERO or (
                key in _HITS and name != "hot_repeat"
            )
            _require(may_be_zero or value > 0, name, key, value)
        rows[name] = traced["rows"]
        print(f"ok   {name}: {untraced['attempted']} untraced + "
              f"{traced['attempted']} traced requests, 0 failed")
    print(f"ok   all {len(spec['end_to_end'])} end-to-end and "
          f"{len(spec['per_layer'])} per-layer metrics are measured on "
          "every workload")

    doctored = [
        ["lost", *row[1:]] if row[0] == "service.gateway.http" else row
        for row in rows["hot_repeat"]
    ]
    share = reconcile(doctored)
    _require(
        abs(share["residual"] / share["e2e"]) > report.RESIDUAL_LIMIT, share
    )
    print("ok   a trace without its HTTP spans trips the residual gate "
          f"({share['residual'] / share['e2e']:.2f} unexplained)")

    workload = SELF_TEST_WORKLOADS["hot_repeat"]
    tampered = run_untraced(
        workload, _SEED, None, workload.count, starts=1, corrupt=True
    )
    _require(len(tampered["failures"]) == 1, tampered["failures"])
    print("ok   a path with the wrong cost is counted: fail_ratio "
          f"{len(tampered['failures']) / tampered['attempted']:.3f}")
    return 0
