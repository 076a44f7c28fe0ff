"""``--compare A.json B.json``: judge B against A by the fixed bounds.

A is the base.  One row per (workload, end-to-end metric):

* ``unresolved`` — either run's own spread (quartile distance over its
  five segments, as a share of their median) is wider than the bound,
  so the pair cannot tell a regression from noise, whatever B/A reads;
* ``regressed``  — B is worse than A by more than the metric's bound;
* ``ok``         — otherwise.

The bounds are ``BENCHMARK.json``'s.  The issue's two end-to-end
metrics that file cannot list (one is 0 on a good run, the other exists
on one workload only) are judged here with the issue's bounds:
``fail_ratio`` (+0) and ``reweight_p50_ms`` (+15 %, ``churn_overlay``).

Exact counters must be identical between two runs of the same code on
the same seed; they are listed after the timings.
"""

from __future__ import annotations

import json

REWEIGHT_P50 = {"name": "reweight_p50_ms", "better": "lower", "bound": 0.15}

#: (section, metric) pairs that repeat exactly for one seed and count.
#: ``resp_kb_per_req`` is not among them: with two connections a
#: ``churn_overlay`` request may legitimately land on either side of a
#: reweight; the one-connection ``wire.response_bytes`` is its exact twin.
EXACT = (
    ("per_layer", "search.settled_per_query"),
    ("per_layer", "search.relaxed_per_query"),
    ("per_layer", "cache.result_hits"),
    ("per_layer", "wire.response_bytes"),
)


def judge(metric: dict, base: float, new: float, spread: float) -> tuple:
    """``(status, worse)`` with ``worse`` the signed share of ``base``."""
    delta = (new - base) / base
    worse = delta if metric["better"] == "lower" else -delta
    if spread > metric["bound"]:
        status = "unresolved"
    elif worse > metric["bound"]:
        status = "regressed"
    else:
        status = "ok"
    return status, worse


def main(spec: dict, path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    if a["seed"] != b["seed"]:
        print(f"note: comparing seed {a['seed']} with {b['seed']}: "
              "exact counters may differ")
    if not (a["pinned"] and b["pinned"]):
        print(f"note: pinned to one CPU: A {a['pinned']}, B {b['pinned']}; "
              "an unpinned run is 12-20% noisier and not comparable "
              "with a pinned one")
    statuses = []
    print(f"{'workload':<14} {'metric':<17} {'A (base)':>12} {'B':>12} "
          f"{'B/A':>7} {'worse':>8} {'bound':>6} {'spread':>7}  status")

    def row(name, metric, base, new, spread):
        status, worse = judge(metric, base, new, spread)
        statuses.append(status)
        print(f"{name:<14} {metric['name']:<17} {base:>12.5g} {new:>12.5g} "
              f"{new / base:>7.3f} {worse:>+8.1%} {metric['bound']:>6.0%} "
              f"{spread:>7.1%}  {status}")

    for name, run_a in a["workloads"].items():
        run_b = b["workloads"][name]

        def spread(key):
            return max(run_a["spread"][key], run_b["spread"][key])

        for metric in spec["end_to_end"]:
            key = metric["name"]
            row(name, metric, run_a["end_to_end"][key],
                run_b["end_to_end"][key], spread(key))
        if REWEIGHT_P50["name"] in run_a:
            key = REWEIGHT_P50["name"]
            row(name, REWEIGHT_P50, run_a[key], run_b[key], spread(key))
        base, new = run_a["fail_ratio"], run_b["fail_ratio"]
        status = "ok" if new <= base else "regressed"
        statuses.append(status)
        print(f"{name:<14} {'fail_ratio':<17} {base:>12.5g} {new:>12.5g} "
              f"{'':>7} {'':>8} {'+0':>6} {'':>7}  {status}")
    print()
    for name, run_a in a["workloads"].items():
        run_b = b["workloads"][name]
        for section, key in EXACT:
            base, new = run_a[section][key], run_b[section][key]
            status = "identical" if base == new else "differs"
            print(f"{name:<14} {key:<28} {base!r:>22} {new!r:>22}  {status}")
    regressed = statuses.count("regressed")
    print(f"\n{regressed} regressed, {statuses.count('unresolved')} "
          f"unresolved, {statuses.count('ok')} ok")
    return 1 if regressed else 0
