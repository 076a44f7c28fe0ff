#!/usr/bin/env python3
"""Measure the crossover behind the search layer's per-query kernel choice.

``CSRSharedTreeProcessor`` picks a kernel per query from
``estimated_settled`` against ``BATCH_MIN_SETTLED``; this prints the
table that constant is read from (docs/ARCHITECTURE.md, "Kernel
selection").  Per map and protection level, trips are banded by
Euclidean length and obfuscated exactly as the request ledger does;
each band reports the medians of the estimate, the nodes the scalar
kernel really settled, and both kernels' best-of-three wall time for
the same ``Q(S, T)``.

    PYTHONPATH=src python tools/kernel_crossover.py [kernel]
"""

from __future__ import annotations

import statistics
import sys
import time

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import ClientRequest, ProtectionSetting
from repro.network.csr import csr_snapshot
from repro.network.generators import grid_network
from repro.search.kernels import BATCH_MIN_SETTLED, CSRSharedTreeProcessor
from repro.search.vectorized import (
    estimated_settled,
    numpy_available,
    vec_view,
)
from repro.workloads.queries import distance_bounded_queries

#: (grid side, f_s = f_t): the ledger's map sizes and protection levels
CONFIGS = ((40, 2), (100, 2), (100, 4))
#: Euclidean trip-length bands, in grid spacings
BANDS = ((1, 4), (4, 8), (8, 12), (12, 16), (16, 24), (24, 32), (32, 48),
         (48, 64), (64, 96))
QUERIES_PER_BAND = 30
REPEATS = 3
SEED = 11


def _best_ms(call, *args):
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = call(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3, result


def kernel_table() -> int:
    """Print one crossover table per configuration."""
    if not numpy_available():
        print("error: numpy is required to time the batched kernel",
              file=sys.stderr)
        return 2
    scalar, batched = CSRSharedTreeProcessor(), CSRSharedTreeProcessor()
    scalar.batch_min_settled = float("inf")
    batched.batch_min_settled = 0
    print(f"BATCH_MIN_SETTLED = {BATCH_MIN_SETTLED}")
    for side, f in CONFIGS:
        net = grid_network(side, side, perturbation=0.1, seed=7)
        vec = vec_view(csr_snapshot(net))
        obfuscator = PathQueryObfuscator(net, seed=SEED)
        setting = ProtectionSetting(f, f)
        print(f"\n{side}x{side}, f={f}  "
              "(trip, estimate, settled, scalar ms, batched ms, ratio)")
        for lo, hi in BANDS:
            if hi > side * 1.2:
                continue
            rows = []
            trips = distance_bounded_queries(
                net, QUERIES_PER_BAND, float(lo), float(hi), seed=SEED
            )
            for k, trip in enumerate(trips):
                query = obfuscator.obfuscate_independent(
                    ClientRequest(f"u{k}", trip, setting)
                ).query
                sources, dests = list(query.sources), list(query.destinations)
                estimate = estimated_settled(
                    vec, sources, [dests] * len(sources)
                )
                s_ms, ref = _best_ms(scalar.process, net, sources, dests)
                b_ms, got = _best_ms(batched.process, net, sources, dests)
                if ref.paths != got.paths:
                    print("error: the kernels disagree", file=sys.stderr)
                    return 1
                rows.append((estimate, ref.stats.settled_nodes, s_ms, b_ms))
            est, settled, s_ms, b_ms = (
                statistics.median(col) for col in zip(*rows)
            )
            print(f"  {lo:>3}-{hi:<3} {est:>8.0f} {settled:>8.0f} "
                  f"{s_ms:>8.2f} {b_ms:>8.2f} {s_ms / b_ms:>6.2f}x")
    return 0


def main(argv: list[str]) -> int:
    """Print the kernel table (the one table; ``kernel`` names it)."""
    if argv not in ([], ["kernel"]):
        print(__doc__, file=sys.stderr)
        return 2
    return kernel_table()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
