"""Acceptance bench for the partition-overlay engine.

Two anchors on the 10k-node grid, mirroring the issue's acceptance
criteria:

* ``test_overlay_point_speedup`` — the two-phase ``overlay-csr`` point
  query answers the same random pairs >= 2x faster than the flat
  ``dijkstra-csr`` kernel (preprocessing excluded on both sides,
  identical distances required; measured ~2.5-3x).
* ``test_recustomize_vs_ch_rebuild`` — after a traffic re-weight of one
  intra-cell edge, recustomizing the touched cell is >= 10x faster than
  rebuilding a Contraction Hierarchy from scratch (measured ~1000x),
  and the refreshed overlay is byte-identical to a from-scratch overlay
  build on the re-weighted network.

Run by explicit path (not part of tier-1)::

    python -m pytest benchmarks/bench_overlay.py -s --benchmark-disable
"""

from __future__ import annotations

import random
import time

from timing import best_of as _best_of

from repro.network.csr import csr_snapshot
from repro.network.generators import grid_network
from repro.search.ch import contract_network
from repro.search.kernels import csr_dijkstra_path
from repro.search.overlay import build_overlay, dumps_overlay

_NET = grid_network(100, 100, perturbation=0.1, seed=7)
_NODES = list(_NET.nodes())
_PAIRS = [tuple(random.Random(seed).sample(_NODES, 2)) for seed in range(25)]


def test_overlay_point_speedup():
    """overlay-csr >= 2x over dijkstra-csr on 10k-grid point queries."""
    csr = csr_snapshot(_NET)
    overlay = build_overlay(_NET)
    t_csr, ref = _best_of(
        lambda: [csr_dijkstra_path(_NET, s, t, csr=csr).distance
                 for s, t in _PAIRS]
    )
    t_overlay, got = _best_of(
        lambda: [overlay.route(s, t).distance for s, t in _PAIRS]
    )
    assert all(abs(a - b) < 1e-9 for a, b in zip(ref, got)), (
        "overlay distances diverge from dijkstra-csr"
    )
    speedup = t_csr / t_overlay
    print(
        f"\n[bench-overlay] point queries: dijkstra-csr {t_csr * 1e3:.1f}ms, "
        f"overlay-csr {t_overlay * 1e3:.1f}ms -> {speedup:.2f}x "
        f"(cells={overlay.num_cells}, boundary={overlay.num_boundary_nodes})"
    )
    assert speedup >= 2.0, f"overlay point speedup {speedup:.2f}x < 2x"


def test_recustomize_vs_ch_rebuild():
    """Single-cell recustomization >= 10x faster than a full CH rebuild."""
    overlay = build_overlay(_NET)
    u, v, w = next(_NET.edges())
    _NET.add_edge(u, v, w * 2.0)
    try:
        touched = overlay.touched_cells([(u, v)])
        assert touched, "expected the first grid edge to be intra-cell"
        t_recustomize, refreshed = _best_of(
            lambda: overlay.recustomized(touched)
        )
        assert dumps_overlay(refreshed) == dumps_overlay(
            build_overlay(_NET)
        ), "recustomized overlay differs from a from-scratch build"
        t0 = time.perf_counter()
        contract_network(_NET)
        t_contract = time.perf_counter() - t0
    finally:
        _NET.add_edge(u, v, w)
    speedup = t_contract / t_recustomize
    print(
        f"\n[bench-overlay] customization: CH rebuild {t_contract:.2f}s, "
        f"recustomize {len(touched)} of {overlay.num_cells} cells "
        f"{t_recustomize * 1e3:.1f}ms -> {speedup:.0f}x"
    )
    assert speedup >= 10.0, f"recustomize speedup {speedup:.0f}x < 10x"
