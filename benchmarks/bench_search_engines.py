"""Ablation bench: point-to-point engines the server could run.

Times Dijkstra, Contraction Hierarchies and the flat CSR kernels on the
same long-radius queries — the engine choice underneath the naive
pairwise processor, and a sanity anchor for every settled-node
comparison in the experiment suite.  Preprocessing (CH contraction, CSR
snapshots) is
deliberately excluded from the timed query regions — it is a build-time
cost — and reported separately by the dedicated preprocessing/speedup
tests below, which cover a >= 10k-node grid and a hub-heavy scale-free
network.

The ``test_csr_*`` speedup tests are the acceptance anchors of the CSR
kernel port: >= 3x point queries for ``dijkstra-csr`` vs ``dijkstra``
and >= 2x shared-tree MSMD batches on the 10k-node grid, identical
distances required.  The CI perf gate (tools/bench_quick.py +
tools/bench_gate.py) tracks the same ratios on a smaller grid on every
push.
"""

from __future__ import annotations

import random
import time

import pytest

from timing import best_of as _best_of

from repro.network.csr import csr_snapshot
from repro.network.generators import grid_network, scale_free_network
from repro.search.ch import ch_path, contract_network
from repro.search.dijkstra import dijkstra_path
from repro.search.kernels import (
    CSRHierarchy,
    CSRSharedTreeProcessor,
    csr_ch_path,
    csr_dijkstra_path,
)
from repro.search.multi import SharedTreeProcessor

_NET = grid_network(50, 50, perturbation=0.1, seed=77)
_NODES = list(_NET.nodes())
_CH = contract_network(_NET)
_CSR = csr_snapshot(_NET)
_CSR_CH = CSRHierarchy(_CH)
_PAIRS = [
    tuple(random.Random(seed).sample(_NODES, 2)) for seed in range(8)
]


def _run_all(engine):
    total = 0.0
    for s, t in _PAIRS:
        total += engine(s, t).distance
    return total


@pytest.fixture(scope="module")
def reference_total():
    return _run_all(lambda s, t: dijkstra_path(_NET, s, t))


def test_engine_dijkstra(benchmark, reference_total):
    total = benchmark(_run_all, lambda s, t: dijkstra_path(_NET, s, t))
    assert total == pytest.approx(reference_total)


def test_engine_ch(benchmark, reference_total):
    total = benchmark(_run_all, lambda s, t: ch_path(_CH, s, t))
    assert total == pytest.approx(reference_total)


def test_engine_dijkstra_csr(benchmark, reference_total):
    total = benchmark(
        _run_all, lambda s, t: csr_dijkstra_path(_NET, s, t, csr=_CSR)
    )
    assert total == pytest.approx(reference_total)


def test_engine_ch_csr(benchmark, reference_total):
    total = benchmark(_run_all, lambda s, t: csr_ch_path(_CSR_CH, s, t))
    assert total == pytest.approx(reference_total)


def test_ch_preprocessing_cost(benchmark):
    """One-time contraction cost on a 625-node grid (build-time budget)."""
    net = grid_network(25, 25, perturbation=0.1, seed=5)
    graph = benchmark.pedantic(
        contract_network, args=(net,), rounds=3, iterations=1
    )
    assert graph.num_nodes == net.num_nodes


def _speedup_report(label, net, num_pairs, seed):
    """Time Dijkstra vs. CH on shared pairs; return the timings."""
    nodes = list(net.nodes())
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(num_pairs)]

    t0 = time.perf_counter()
    graph = contract_network(net)
    prep_ch = time.perf_counter() - t0

    t0 = time.perf_counter()
    ref = [dijkstra_path(net, s, t).distance for s, t in pairs]
    t_dij = time.perf_counter() - t0
    t0 = time.perf_counter()
    via_ch = [ch_path(graph, s, t).distance for s, t in pairs]
    t_ch = time.perf_counter() - t0

    for a, c in zip(ref, via_ch):
        assert abs(a - c) < 1e-6
    per = num_pairs / 1000.0  # ms per query
    print(
        f"\n[{label}] nodes={net.num_nodes} shortcuts={graph.num_shortcuts}\n"
        f"  preprocessing: ch={prep_ch:.1f}s\n"
        f"  query: dijkstra={t_dij / per:.2f}ms ch={t_ch / per:.2f}ms\n"
        f"  speedup: ch-vs-dijkstra={t_dij / t_ch:.1f}x"
    )
    return t_dij, t_ch


def test_ch_speedup_grid_10k():
    """Acceptance anchor: >= 5x point-query speedup over Dijkstra on a
    >= 10k-node network, preprocessing excluded."""
    net = grid_network(100, 100, perturbation=0.1, seed=7)
    assert net.num_nodes >= 10_000
    t_dij, t_ch = _speedup_report("grid-100x100", net, 20, seed=1)
    assert t_dij / t_ch >= 5.0


def test_ch_speedup_scale_free():
    """Hub-heavy topology: contraction is harder (hubs are expensive to
    bypass) but query speedups are even larger than on grids."""
    net = scale_free_network(2000, attachment=2, seed=3)
    t_dij, t_ch = _speedup_report("scale-free-2k", net, 30, seed=2)
    assert t_dij / t_ch >= 5.0


def test_csr_point_speedup_grid_10k():
    """Acceptance anchor: >= 3x point-query speedup for the CSR Dijkstra
    kernel over dict-based Dijkstra on a >= 10k-node grid, identical
    distances (snapshot build excluded: it is a one-time cost paid by
    ``prepare``/the preprocessing cache, ~10ms for this grid)."""
    net = grid_network(100, 100, perturbation=0.1, seed=7)
    assert net.num_nodes >= 10_000
    nodes = list(net.nodes())
    rng = random.Random(1)
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(20)]
    csr = csr_snapshot(net)

    t_dict, ref = _best_of(
        lambda: [dijkstra_path(net, s, t).distance for s, t in pairs]
    )
    t_csr, got = _best_of(
        lambda: [csr_dijkstra_path(net, s, t, csr=csr).distance for s, t in pairs]
    )
    assert ref == got  # identical float distances, not just approx
    speedup = t_dict / t_csr
    print(
        f"\n[csr-point grid-100x100] dict={t_dict * 1000:.0f}ms "
        f"csr={t_csr * 1000:.0f}ms speedup={speedup:.2f}x"
    )
    assert speedup >= 3.0


def test_csr_msmd_speedup_grid_10k():
    """Acceptance anchor: >= 2x MSMD (shared SSMD trees) speedup for the
    CSR kernel on the 10k-node grid, identical distances and settled
    counts."""
    net = grid_network(100, 100, perturbation=0.1, seed=7)
    nodes = list(net.nodes())
    rng = random.Random(5)
    sources = rng.sample(nodes, 4)
    destinations = rng.sample(nodes, 4)
    shared = SharedTreeProcessor()
    csr_shared = CSRSharedTreeProcessor()
    # the anchor is heap vs heap: keep numpy hosts off the batched sweep
    csr_shared.batch_min_settled = float("inf")
    csr_shared.artifact_for(net)  # build the snapshot outside the timing

    t_dict, ref = _best_of(lambda: shared.process(net, sources, destinations))
    t_csr, got = _best_of(
        lambda: csr_shared.process(net, sources, destinations)
    )
    assert set(got.paths) == set(ref.paths)
    for pair, path in ref.paths.items():
        assert got.paths[pair].distance == path.distance
    assert got.stats.settled_nodes == ref.stats.settled_nodes
    speedup = t_dict / t_csr
    print(
        f"\n[csr-msmd grid-100x100] dict={t_dict * 1000:.0f}ms "
        f"csr={t_csr * 1000:.0f}ms speedup={speedup:.2f}x"
    )
    assert speedup >= 2.0
