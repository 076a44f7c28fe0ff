"""Unit tests for the CSR search kernels and the ``*-csr`` engines."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.core.system import OpaqueSystem
from repro.exceptions import NoPathError, UnknownNodeError
from repro.network.csr import csr_snapshot
from repro.network.graph import RoadNetwork
from repro.search import ENGINES, get_engine
from repro.search.ch import ch_path, contract_network
from repro.search.dijkstra import dijkstra_path, dijkstra_to_many
from repro.search.kernels import (
    BATCH_MIN_SETTLED,
    CSRBidirectionalPairwiseProcessor,
    CSRCHManyToManyProcessor,
    CSRHierarchy,
    CSRSharedTreeProcessor,
    ch_csr_hierarchy,
    csr_bidirectional_path,
    csr_ch_many_to_many,
    csr_ch_path,
    csr_dijkstra_path,
    csr_dijkstra_to_many,
    scratch_for,
)
from repro.search.multi import SharedTreeProcessor
from repro.search.result import SearchStats
from repro.search.vectorized import estimated_settled, numpy_available


def _sample_pairs(net, count, seed=123):
    nodes = list(net.nodes())
    rng = random.Random(seed)
    return [tuple(rng.sample(nodes, 2)) for _ in range(count)]


class TestPointKernels:
    # Oracle parity vs. Dijkstra (grid, directed, disconnected) is
    # covered for every engine by tests/search/test_engine_conformance.py;
    # this one pins the *bit-identical* accumulation of the CSR kernel.

    def test_bit_identical_distances_on_grid(self, small_grid):
        for s, t in _sample_pairs(small_grid, 10):
            ref = dijkstra_path(small_grid, s, t)
            # Same left-to-right accumulation: bit-identical distances.
            assert csr_dijkstra_path(small_grid, s, t).distance == ref.distance

    def test_paths_are_walkable(self, small_grid):
        for s, t in _sample_pairs(small_grid, 10, seed=7):
            path = csr_dijkstra_path(small_grid, s, t)
            assert path.nodes[0] == s and path.nodes[-1] == t
            total = sum(
                small_grid.edge_weight(u, v) for u, v in path.edges()
            )
            assert total == pytest.approx(path.distance)

    def test_exact_path_on_triangle(self, tiny_triangle):
        path = csr_dijkstra_path(tiny_triangle, "a", "c")
        assert path.nodes == ("a", "b", "c")
        assert path.distance == 2.0

    def test_trivial_and_errors(self, small_grid):
        assert csr_dijkstra_path(small_grid, 5, 5).nodes == (5,)
        assert csr_bidirectional_path(small_grid, 5, 5).nodes == (5,)
        with pytest.raises(UnknownNodeError):
            csr_dijkstra_path(small_grid, 5, "missing")
        with pytest.raises(UnknownNodeError):
            csr_bidirectional_path(small_grid, "missing", 5)

    def test_no_path_raises(self):
        net = RoadNetwork()
        for i in range(4):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        with pytest.raises(NoPathError):
            csr_dijkstra_path(net, 0, 3)
        with pytest.raises(NoPathError):
            csr_bidirectional_path(net, 0, 3)

    def test_stats_settled_parity_with_dict_engine(self, small_grid):
        for s, t in _sample_pairs(small_grid, 10, seed=42):
            ref_stats, got_stats = SearchStats(), SearchStats()
            dijkstra_path(small_grid, s, t, stats=ref_stats)
            csr_dijkstra_path(small_grid, s, t, stats=got_stats)
            assert got_stats.settled_nodes == ref_stats.settled_nodes
            assert got_stats.max_settled_distance == pytest.approx(
                ref_stats.max_settled_distance
            )


class TestToMany:
    def test_matches_dict_to_many(self, small_grid):
        nodes = list(small_grid.nodes())
        rng = random.Random(3)
        for _ in range(8):
            s = rng.choice(nodes)
            targets = rng.sample(nodes, 5)
            ref = dijkstra_to_many(small_grid, s, targets)
            got = csr_dijkstra_to_many(small_grid, s, targets)
            assert set(got) == set(ref)
            for t in targets:
                assert got[t].distance == ref[t].distance

    def test_source_in_targets_is_trivial(self, small_grid):
        got = csr_dijkstra_to_many(small_grid, 8, [8, 20])
        assert got[8].nodes == (8,)
        assert got[8].distance == 0.0

    def test_strict_flag(self):
        net = RoadNetwork()
        for i in range(3):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0)
        with pytest.raises(NoPathError):
            csr_dijkstra_to_many(net, 0, [1, 2])
        got = csr_dijkstra_to_many(net, 0, [1, 2], strict=False)
        assert set(got) == {1}


class TestCHKernels:
    def test_point_matches_dict_ch(self, small_grid):
        contracted = contract_network(small_grid)
        hierarchy = CSRHierarchy(contracted)
        for s, t in _sample_pairs(small_grid, 20, seed=5):
            ref = ch_path(contracted, s, t)
            got = csr_ch_path(hierarchy, s, t)
            assert got.distance == ref.distance
            total = sum(
                small_grid.edge_weight(u, v) for u, v in got.edges()
            )
            assert total == pytest.approx(got.distance)

    def test_many_to_many_matches_shared_trees(self, small_grid):
        hierarchy = ch_csr_hierarchy(small_grid)
        nodes = list(small_grid.nodes())
        rng = random.Random(8)
        sources = rng.sample(nodes, 3)
        destinations = rng.sample(nodes, 4)
        ref = SharedTreeProcessor().process(small_grid, sources, destinations)
        got = csr_ch_many_to_many(hierarchy, sources, destinations)
        for pair, path in ref.paths.items():
            assert got[pair].distance == pytest.approx(path.distance)

    def test_unreachable_pair_omitted_and_processor_raises(self):
        net = RoadNetwork()
        for i in range(4):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        hierarchy = ch_csr_hierarchy(net)
        table = csr_ch_many_to_many(hierarchy, [0], [1, 3])
        assert set(table) == {(0, 1)}
        with pytest.raises(NoPathError):
            CSRCHManyToManyProcessor().process(net, [0], [1, 3])

    def test_unknown_endpoint(self, small_grid):
        hierarchy = ch_csr_hierarchy(small_grid)
        with pytest.raises(UnknownNodeError):
            csr_ch_path(hierarchy, 0, "missing")
        with pytest.raises(UnknownNodeError):
            csr_ch_many_to_many(hierarchy, [0], ["missing"])


class TestProcessorsAndEngines:
    def test_registry_contains_csr_engines(self):
        for name in ("dijkstra-csr", "bidirectional-csr", "ch-csr"):
            engine = get_engine(name)
            assert engine.name == name
            assert ENGINES[name] is engine

    # Engine-route oracle parity is covered for every registered engine
    # by tests/search/test_engine_conformance.py.

    def test_shared_tree_processor_parity(self, small_grid):
        nodes = list(small_grid.nodes())
        rng = random.Random(10)
        sources = rng.sample(nodes, 3)
        destinations = rng.sample(nodes, 3)
        ref = SharedTreeProcessor().process(small_grid, sources, destinations)
        got = CSRSharedTreeProcessor().process(
            small_grid, sources, destinations
        )
        assert set(got.paths) == set(ref.paths)
        for pair, path in ref.paths.items():
            assert got.paths[pair].distance == path.distance
        assert got.stats.settled_nodes == ref.stats.settled_nodes
        assert got.searches == ref.searches

    def test_bidirectional_processor_matches_dict(self, small_grid):
        nodes = list(small_grid.nodes())
        rng = random.Random(11)
        sources = rng.sample(nodes, 2)
        destinations = rng.sample(nodes, 3)
        got = CSRBidirectionalPairwiseProcessor().process(
            small_grid, sources, destinations
        )
        for (s, t), path in got.paths.items():
            point = csr_bidirectional_path(small_grid, s, t)
            assert path.distance == point.distance
            assert path.distance == pytest.approx(
                dijkstra_path(small_grid, s, t).distance, abs=1e-9
            )

    @pytest.mark.parametrize("engine", ["dijkstra-csr", "ch-csr"])
    def test_end_to_end_through_opaque_system(self, small_grid, engine):
        system = OpaqueSystem(small_grid, engine=engine)
        baseline = OpaqueSystem(small_grid, engine="dijkstra")
        request = ClientRequest(
            "u1", PathQuery(3, 77), ProtectionSetting(3, 3)
        )
        got = system.submit([request])["u1"]
        ref = baseline.submit([request])["u1"]
        assert got.distance == pytest.approx(ref.distance)

    def test_processor_artifact_injection(self, small_grid):
        processor = CSRSharedTreeProcessor()
        snapshot = csr_snapshot(small_grid)
        processor.use_artifact(snapshot)
        out = processor.process(small_grid, [0], [50])
        assert out.paths[(0, 50)].distance == pytest.approx(
            dijkstra_path(small_grid, 0, 50).distance
        )


class _GeometryStub:
    """What ``estimated_settled`` may read, with the reads counted."""

    def __init__(self, csr, density):
        self.csr, self.density, self.reads = self, density, 0
        self.xs, self.ys, self.num_nodes = csr.xs, csr.ys, csr.num_nodes
        self._index = csr.index

    def index(self, node):
        self.reads += 1
        return self._index(node)


class TestKernelSelection:
    """The per-query kernel choice of ``dijkstra-csr`` (numpy-free half;
    the byte-identity properties are in
    ``tests/properties/test_property_kernel_choice.py``)."""

    @pytest.fixture()
    def geometry(self, medium_grid):
        return _GeometryStub(csr_snapshot(medium_grid), density=1.0)

    def test_estimate_grows_with_extent_and_is_capped(self, geometry):
        n = geometry.num_nodes
        # node 0 is a corner of the 25x25 grid; 1, 5, 12 run along its row
        near, mid, far = (
            estimated_settled(geometry, [0], [[t]]) for t in (1, 5, 12)
        )
        assert 0 < near < mid < far < n
        assert estimated_settled(geometry, [0], [[1, 12, 5]]) == far
        assert estimated_settled(geometry, [0], [[n - 1]]) == n
        assert estimated_settled(geometry, [0, 1], [[n - 1]] * 2) == 2 * n
        assert estimated_settled(geometry, [0], [[0]]) == 0

    def test_estimate_scales_with_density(self, medium_grid):
        csr = csr_snapshot(medium_grid)
        sparse, dense = _GeometryStub(csr, 1.0), _GeometryStub(csr, 2.0)
        assert estimated_settled(dense, [0], [[5]]) == pytest.approx(
            2 * estimated_settled(sparse, [0], [[5]])
        )
        degenerate = _GeometryStub(csr, float("inf"))
        assert estimated_settled(degenerate, [0], [[0]]) == csr.num_nodes

    def test_estimate_reads_each_endpoint_once_and_nothing_else(
        self, geometry
    ):
        sources, rows = [0, 30, 60], [[7, 8], [9], [10, 11, 12, 13]]
        estimated_settled(geometry, sources, rows)
        assert geometry.reads == len(sources) + sum(map(len, rows))

    def test_estimate_rejects_unknown_endpoints(self, geometry):
        with pytest.raises(UnknownNodeError):
            estimated_settled(geometry, [0], [[10**9]])

    def test_without_numpy_the_processor_is_the_scalar_loop(
        self, medium_grid, monkeypatch
    ):
        import repro.search.kernels as kernels_module
        import repro.search.vectorized as vectorized

        def fail(*args, **kwargs):
            raise AssertionError("numpy path taken without numpy")

        monkeypatch.setattr(vectorized, "np", None)
        monkeypatch.setattr(kernels_module, "vec_view", fail)
        monkeypatch.setattr(kernels_module, "vec_batch_paths", fail)
        sources, destinations = [0, 24, 300], [624, 600, 312]
        eager = CSRSharedTreeProcessor()
        eager.batch_min_settled = 1  # would batch anything, given numpy
        got = eager.process(medium_grid, sources, destinations)
        csr = csr_snapshot(medium_grid)
        stats = SearchStats()
        for s in sources:
            ref = csr_dijkstra_to_many(
                medium_grid, s, destinations, csr=csr, stats=stats
            )
            for t in destinations:
                assert got.paths[(s, t)] == ref[t]
        assert list(got.paths) == [(s, t) for s in sources for t in destinations]
        assert got.stats == stats
        assert got.searches == len(sources)
        union = eager.process_union(medium_grid, [(sources, destinations)])
        assert union.tables[0].paths == got.paths

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_large_queries_batch_and_small_ones_do_not(
        self, medium_grid, monkeypatch
    ):
        import repro.search.kernels as kernels_module

        sweeps = []
        real = kernels_module.vec_batch_paths
        monkeypatch.setattr(
            kernels_module, "vec_batch_paths",
            lambda *a, **k: sweeps.append(len(a[1])) or real(*a, **k),
        )
        processor = CSRSharedTreeProcessor()
        assert processor.batch_min_settled == BATCH_MIN_SETTLED
        near = processor.process(medium_grid, [0, 1], [2, 26])
        assert sweeps == []
        far = processor.process(medium_grid, [0, 24, 300], [624, 600, 312])
        assert sweeps == [3]
        for result in (near, far):
            for (s, t), path in result.paths.items():
                assert path.distance == dijkstra_path(medium_grid, s, t).distance


class TestScratchPool:
    def test_reused_within_thread(self):
        assert scratch_for(64) is scratch_for(64)
        assert scratch_for(64) is not scratch_for(128)

    def test_distinct_across_threads(self):
        mine = scratch_for(32)
        other = []
        thread = threading.Thread(target=lambda: other.append(scratch_for(32)))
        thread.start()
        thread.join()
        assert other[0] is not mine

    def test_generation_isolates_queries(self, small_grid):
        # Two back-to-back queries over the same scratch must not leak
        # state: run interleaved directions and re-check distances.
        pairs = _sample_pairs(small_grid, 6, seed=13)
        expected = [dijkstra_path(small_grid, s, t).distance for s, t in pairs]
        got = [csr_dijkstra_path(small_grid, s, t).distance for s, t in pairs]
        again = [csr_dijkstra_path(small_grid, t, s).distance for s, t in pairs]
        assert got == expected
        # Undirected network: reverse distances match (ulp-equal — the
        # reverse walk sums the same weights in the opposite order).
        assert again == pytest.approx(expected, rel=1e-12)

    def test_concurrent_queries_are_correct(self, medium_grid):
        pairs = _sample_pairs(medium_grid, 12, seed=14)
        expected = {
            pair: dijkstra_path(medium_grid, *pair).distance for pair in pairs
        }
        results: dict = {}
        errors: list = []

        def worker(chunk):
            try:
                for pair in chunk:
                    results[pair] = csr_dijkstra_path(
                        medium_grid, *pair
                    ).distance
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(pairs[i::3],))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results == expected
