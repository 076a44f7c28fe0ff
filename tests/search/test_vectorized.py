"""Tests for the batched numpy kernels and their numpy-absent gating.

The bit-identity contract (``dijkstra-vec`` vs the scalar CSR shared
trees) and the oracle parity of the engine itself are exercised by the
auto-parametrized conformance harness in ``test_engine_conformance.py``
whenever numpy is installed; this module covers what the harness cannot:
the numpy-availability boundary.  One CI matrix leg installs numpy and
runs the skip-marked half; every other leg runs the ``np = None`` half,
proving the module imports cleanly, reports itself unavailable, stays
out of the engine registry, and fails loudly — ``ImportError`` with an
actionable message, never a silent wrong answer — when its kernels are
called anyway.
"""

from __future__ import annotations

import gc
import hashlib
import weakref

import pytest

import repro.search.vectorized as vectorized
from repro.exceptions import NoPathError
from repro.network.csr import CSRGraph, csr_snapshot
from repro.network.generators import grid_network
from repro.search import ENGINES
from repro.search.dijkstra import dijkstra_path
from repro.search.kernels import CSRSharedTreeProcessor, VecSharedTreeProcessor
from repro.search.vectorized import (
    numpy_available,
    vec_batch_paths,
    vec_dijkstra_path,
    vec_view,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


def test_engine_registered_iff_numpy_available():
    """The registry mirrors availability — never a dead engine entry."""
    assert ("dijkstra-vec" in ENGINES) == numpy_available()


@needs_numpy
class TestVectorizedKernels:
    """Behavior with numpy installed (one CI leg)."""

    @pytest.fixture()
    def net(self):
        return grid_network(10, 10, perturbation=0.1, seed=3)

    def test_point_matches_dijkstra_exactly(self, net):
        pairs = [(0, 99), (5, 77), (90, 9), (42, 42)]
        for s, t in pairs:
            assert (
                vec_dijkstra_path(net, s, t).distance
                == dijkstra_path(net, s, t).distance
            )

    def test_batch_matches_scalar_shared_trees_bit_identically(self, net):
        sources = [0, 33, 67]
        destinations = [99, 12, 58]
        ref = CSRSharedTreeProcessor().process(net, sources, destinations)
        got = VecSharedTreeProcessor().process(net, sources, destinations)
        assert list(got.paths) == list(ref.paths)
        for pair, path in ref.paths.items():
            assert got.paths[pair].distance == path.distance
            assert got.paths[pair].nodes == path.nodes

    def test_strict_unreachable_raises(self):
        from repro.network.graph import RoadNetwork

        net = RoadNetwork()
        for node, x in ((0, 0.0), (1, 1.0), (2, 5.0)):
            net.add_node(node, x, 0.0)
        net.add_edge(0, 1, 1.0)  # node 2 is an island
        with pytest.raises(NoPathError):
            vec_batch_paths(net, [0], [[1, 2]])
        rows = vec_batch_paths(net, [0], [[1, 2]], strict=False)
        assert list(rows[0]) == [1]  # the unreachable column is omitted

    def test_walk_back_leaves_a_zero_weight_cycle(self):
        """1 <-> 2 at weight 0: the walk from 4 reaches 1, whose first
        tight in-neighbour is 2 again — it used to bounce between the
        two until the hop limit and report a reachable pair as no path."""
        from repro.network.graph import RoadNetwork

        net = RoadNetwork(directed=True)
        for node in range(5):
            net.add_node(node, float(node), 0.0)
        for u, v, w in (
            (0, 3, 1.0), (1, 2, 0.0), (3, 2, 0.0), (2, 1, 0.0), (1, 4, 1.0)
        ):
            net.add_edge(u, v, w)
        path = vec_batch_paths(net, [0], [[4]])[0][4]
        assert path.nodes == (0, 3, 2, 1, 4)
        assert path.distance == 2.0

    def test_snapshot_memoized_until_mutation(self, net):
        first = vec_view(csr_snapshot(net))
        assert vec_view(csr_snapshot(net)) is first
        u, v, w = next(net.edges())
        net.add_edge(u, v, w * 2.0)
        assert vec_view(csr_snapshot(net)) is not first

    def test_view_dies_with_its_snapshot(self, net):
        """The memo must not keep its snapshot alive: every reweight
        epoch makes a new snapshot, so a view that pins its key leaks a
        snapshot and its padded tables per epoch."""
        csr = CSRGraph.from_network(net)
        vec_view(csr).neighbour_tables()
        dead = weakref.ref(csr)
        del csr
        gc.collect()
        assert dead() is None


    def test_snapshot_dies_on_its_last_reference(self, net):
        """No cycle between a snapshot and its views: with the cyclic
        collector off, a snapshot that served a batched query is freed
        by its last ``del``, and a retired epoch's snapshot as soon as
        the network's memo moves on."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            csr = CSRGraph.from_network(net)
            view = vec_view(csr)
            view.neighbour_tables()
            vec_batch_paths(net, [0, 5], [[99], [90]], vec=view)
            assert vec_view(csr) is view  # memoized while it is held
            dead = weakref.ref(csr)
            del csr, view
            assert dead() is None

            vec_batch_paths(net, [0], [[99]])  # memoized network snapshot
            retired = weakref.ref(csr_snapshot(net))
            u, v, w = next(net.edges())
            net.add_edge(u, v, w * 2.0)
            vec_batch_paths(net, [0], [[99]])
            assert retired() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_view_keeps_its_snapshot(self):
        """A view is all a caller needs to hold to keep searching."""
        view = vec_view(csr_snapshot(grid_network(6, 6, seed=2)))
        gc.collect()
        assert view.csr.num_nodes == 36
        assert vec_batch_paths(None, [0], [[35]], vec=view)[0][35].nodes


def _integer_tie_map():
    """A 20x20 unit-spaced grid with integer weights 1-3: most pairs
    have many shortest paths, so the tie rule decides every walk."""
    net = grid_network(20, 20, perturbation=0.0, seed=0)
    for u, v, _ in list(net.edges()):
        net.add_edge(u, v, float(1 + (u * 7 + v * 3) % 3))
    return net


def _sweep_digest(net, seed, batches=6, size=4):
    """SHA-256 over seeded batches' dist table bytes, counters and
    walked node sequences (each batch: ``size`` sources x ``size``
    destinations, as one obfuscated query)."""
    import random

    import numpy as np

    from repro.search.result import SearchStats
    from repro.search.vectorized import _sweep_tables

    rng = random.Random(seed)
    csr = csr_snapshot(net)
    vec = vec_view(csr)
    nodes = sorted(net.nodes())
    digest = hashlib.sha256()
    for _ in range(batches):
        sources = rng.sample(nodes, size)
        dests = rng.sample(nodes, size)
        stats = SearchStats()
        src_idx = np.array([csr.index(s) for s in sources], dtype=np.int64)
        dist = _sweep_tables(
            vec, src_idx, [[csr.index(t) for t in dests]] * size, stats
        )
        digest.update(dist.tobytes())
        digest.update(repr((
            stats.settled_nodes, stats.relaxed_edges, stats.heap_pushes,
            stats.max_settled_distance,
        )).encode())
        rows = vec_batch_paths(net, sources, [dests] * size, vec=vec)
        for row in rows:
            for t in dests:
                digest.update(repr((row[t].nodes, row[t].distance)).encode())
    return digest.hexdigest()


@needs_numpy
@pytest.mark.parametrize(
    "make, expected",
    [
        (
            lambda: grid_network(30, 30, perturbation=0.3, seed=5),
            "0c5b6271ac9df220eb1be647741e136b5d19f6713e1c174cc87bdf448823d8d2",
        ),
        (
            _integer_tie_map,
            "7e361a0d220f91eecd72937b77a4af48e436f3b55b8357c7e22e6b1314c14d37",
        ),
    ],
    ids=["perturbed-30x30", "integer-ties-20x20"],
)
def test_sweep_and_walk_are_byte_identical_to_the_recorded_run(make, expected):
    """Digests recorded before the wave loop and the walk-back were
    trimmed: a later speed-up that moves a label, a counter or a tie
    fails here, not in a served answer."""
    assert _sweep_digest(make(), seed=34) == expected


class TestNumpyAbsent:
    """Behavior when numpy is missing, simulated by ``np = None``."""

    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(vectorized, "np", None)

    def test_reports_unavailable(self, no_numpy):
        assert not vectorized.numpy_available()

    @pytest.mark.parametrize(
        "call",
        [
            lambda net: vec_view(csr_snapshot(net)),
            lambda net: vectorized.VecGraph(csr_snapshot(net)),
            lambda net: vec_dijkstra_path(net, 0, 8),
            lambda net: vec_batch_paths(net, [0], [[8]]),
            lambda net: VecSharedTreeProcessor().process(net, [0], [8]),
        ],
        ids=["snapshot", "vecgraph", "point", "batch", "processor"],
    )
    def test_kernels_raise_actionable_importerror(self, no_numpy, call):
        net = grid_network(3, 3, seed=1)
        with pytest.raises(ImportError, match="numpy is required"):
            call(net)

    def test_scalar_engines_unaffected(self, no_numpy):
        net = grid_network(3, 3, seed=1)
        result = CSRSharedTreeProcessor().process(net, [0], [8])
        assert result.paths[(0, 8)].distance == dijkstra_path(net, 0, 8).distance
