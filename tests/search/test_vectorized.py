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

import pytest

import repro.search.vectorized as vectorized
from repro.exceptions import NoPathError
from repro.network.csr import csr_snapshot
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
