#!/usr/bin/env python3
"""Measure the crossovers behind the search layer's two per-query choices.

``kernel``: ``CSRSharedTreeProcessor`` picks a kernel per query from
``estimated_settled`` against ``BATCH_MIN_SETTLED``; this prints the
table that constant is read from (docs/ARCHITECTURE.md, "Kernel
selection").  Per map and protection level, trips are banded by
Euclidean length and obfuscated exactly as the request ledger does;
each band reports the medians of the estimate, the nodes the scalar
kernel really settled, and both kernels' best-of-three wall time for
the same ``Q(S, T)``.

``overlay``: ``OverlayGraph.many_to_many`` answers pair by pair up to
``PAIR_SWEEP_MAX_TARGETS`` destinations and with one shared sweep per
source beyond; this prints the ``|T|`` x trip-length table that
constant is read from (docs/ARCHITECTURE.md, "Partition overlay"):
median best-of-three ms of both modes for the same ``Q(S, T)``, with
the decoys the obfuscator really sends (compact) and with decoy
destinations drawn uniformly over the map (the widest ``T`` a client
could send).  A second table times both modes against the number of
arcs reweighted below their straight-line length, which the pair
sweeps' bound has to allow for (``MAX_UNDERCUT_ARCS``).

    PYTHONPATH=src python tools/kernel_crossover.py [kernel|overlay]
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import ClientRequest, ProtectionSetting
from repro.network.csr import csr_snapshot
from repro.network.generators import grid_network
from repro.search import overlay as overlay_module
from repro.search.kernels import BATCH_MIN_SETTLED, CSRSharedTreeProcessor
from repro.search.overlay import (
    MAX_UNDERCUT_ARCS,
    PAIR_SWEEP_MAX_TARGETS,
    build_overlay,
)
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


#: overlay table: grid sides, ``|T|`` rows, trip bands, ``|S|``
OVERLAY_SIDES = (100, 200)
OVERLAY_TARGETS = (1, 2, 3, 4, 5, 6, 8, 12)
OVERLAY_BANDS = ((8, 12), (24, 32), (48, 64), (96, 128))
OVERLAY_SOURCES = 2
OVERLAY_QUERIES_PER_BAND = 10
#: undercut table: arcs below their straight line, ``|S| = |T|``
UNDERCUT_ARCS = (0, 2, 4, 8, 16, 32, 64)
UNDERCUT_PROTECTION = 3


def _both_modes(overlay, sources, dests) -> tuple[float, float]:
    """Best-of-three ms of pair sweeps and of shared sweeps, same table."""
    try:
        overlay_module.PAIR_SWEEP_MAX_TARGETS = math.inf
        pair_ms, got = _best_ms(overlay.many_to_many, sources, dests)
        overlay_module.PAIR_SWEEP_MAX_TARGETS = 0
        shared_ms, ref = _best_ms(overlay.many_to_many, sources, dests)
    finally:
        overlay_module.PAIR_SWEEP_MAX_TARGETS = PAIR_SWEEP_MAX_TARGETS
    if got != ref:
        raise SystemExit("error: the modes disagree")
    return pair_ms, shared_ms


def undercut_table() -> None:
    """Print both modes' ms against the number of undercut arcs."""
    side, f = OVERLAY_SIDES[0], UNDERCUT_PROTECTION
    net = grid_network(side, side, perturbation=0.1, seed=7)
    overlay = build_overlay(net)
    nodes = sorted(net.nodes())
    edges = sorted(net.edges())
    trips = distance_bounded_queries(
        net, 3 * OVERLAY_QUERIES_PER_BAND, 8.0, 64.0, seed=SEED
    )
    obfuscator = PathQueryObfuscator(net, seed=SEED)
    rng = random.Random(SEED)
    queries = []
    for k, trip in enumerate(trips):
        query = obfuscator.obfuscate_independent(
            ClientRequest(f"u{k}", trip, ProtectionSetting(f, f))
        ).query
        queries.append((
            list(query.sources), list(query.destinations),
            [trip.destination] + rng.sample(nodes, f - 1),
        ))
    print(f"\n{side}x{side}, |S|=|T|={f}, trips of 8-64: arcs below their "
          f"straight line (MAX_UNDERCUT_ARCS = {MAX_UNDERCUT_ARCS})")
    print("  arcs   compact decoys    uniform decoys   (pair ms / shared ms)")
    try:
        overlay_module.MAX_UNDERCUT_ARCS = math.inf  # time pairs past the cap
        for arcs in UNDERCUT_ARCS:
            changed = []
            while len(overlay.undercut) + 2 * len(changed) < arcs:
                u, v, w = edges.pop(rng.randrange(len(edges)))
                net.add_edge(u, v, w * rng.uniform(0.5, 0.95))
                changed.append((u, v))
            overlay = overlay.recustomized(
                overlay.touched_cells(changed), changed_edges=changed
            )
            compact = [_both_modes(overlay, s, t) for s, t, _ in queries]
            uniform = [_both_modes(overlay, s, t) for s, _, t in queries]
            print(f"  {len(overlay.undercut):>4}   " + "    ".join(
                f"{statistics.median(p for p, _ in rows):>6.2f}/"
                f"{statistics.median(s for _, s in rows):<6.2f}"
                for rows in (compact, uniform)
            ), flush=True)
    finally:
        overlay_module.MAX_UNDERCUT_ARCS = MAX_UNDERCUT_ARCS


def overlay_table() -> int:
    """Print pair-sweep vs shared-sweep ms per ``|T|`` and trip band."""
    print(f"PAIR_SWEEP_MAX_TARGETS = {PAIR_SWEEP_MAX_TARGETS}")
    for side in OVERLAY_SIDES:
        net = grid_network(side, side, perturbation=0.1, seed=7)
        overlay = build_overlay(net)
        nodes = sorted(net.nodes())
        bands = [band for band in OVERLAY_BANDS if band[1] <= side * 1.2]
        trips = {
            band: distance_bounded_queries(
                net, OVERLAY_QUERIES_PER_BAND, float(band[0]), float(band[1]),
                seed=SEED,
            )
            for band in bands
        }
        for decoys in ("compact", "uniform"):
            obfuscator = PathQueryObfuscator(net, seed=SEED)
            rng = random.Random(SEED)
            print(f"\n{side}x{side}, |S|={OVERLAY_SOURCES}, {decoys} decoys, "
                  f"{overlay.num_boundary_nodes} boundary nodes  "
                  "(pair ms / shared ms per trip band)")
            print("  |T|  " + "  ".join(f"{lo:>5}-{hi:<7}" for lo, hi in bands))
            for f_t in OVERLAY_TARGETS:
                cells = []
                for band in bands:
                    pair_ms, shared_ms = [], []
                    for k, trip in enumerate(trips[band]):
                        query = obfuscator.obfuscate_independent(
                            ClientRequest(
                                f"u{k}", trip,
                                ProtectionSetting(OVERLAY_SOURCES, f_t),
                            )
                        ).query
                        sources = list(query.sources)
                        dests = list(query.destinations)
                        if decoys == "uniform":
                            dests = [trip.destination] + rng.sample(
                                nodes, f_t - 1
                            )
                        p_ms, s_ms = _both_modes(overlay, sources, dests)
                        pair_ms.append(p_ms)
                        shared_ms.append(s_ms)
                    cells.append(f"{statistics.median(pair_ms):>6.2f}/"
                                 f"{statistics.median(shared_ms):<6.2f}")
                print(f"  {f_t:>3}  " + "  ".join(cells), flush=True)
    undercut_table()
    return 0


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
    """Print the requested table (both without an argument)."""
    tables = {"kernel": kernel_table, "overlay": overlay_table}
    if len(argv) > 1 or any(name not in tables for name in argv):
        print(__doc__, file=sys.stderr)
        return 2
    return max(tables[name]() for name in argv or tables)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
