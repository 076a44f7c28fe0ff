"""Unit tests for the ``overlay-csr`` engine name.

``overlay-csr`` is no engine of its own: it names the ``dijkstra-csr``
row (flat CSR snapshots, shared search trees per batch), because the
request ledger's churn workload and engine table ask for it by name.
Oracle parity over random networks is covered for every name by
tests/search/test_engine_conformance.py; these tests pin down what a
caller of the name relies on — the registry row, the memoized snapshot
it routes over, its persistent format, and the targeted point and batch
cases a conformance sweep may miss.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import GraphError, NoPathError, UnknownNodeError
from repro.network.csr import CSRGraph, csr_snapshot
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.search import ENGINES, get_engine
from repro.search.dijkstra import dijkstra_path
from repro.search.kernels import CSRSharedTreeProcessor
from repro.search.result import SearchStats


@pytest.fixture(scope="module", params=["csr"])
def kernel(request):
    """The kernel the name is served by (flat CSR snapshots)."""
    return request.param


@pytest.fixture(scope="module")
def net():
    return grid_network(12, 12, perturbation=0.1, seed=9)


@pytest.fixture(scope="module")
def engine(kernel):
    return get_engine("overlay-csr")


@pytest.fixture(scope="module")
def snapshot(net, engine):
    return engine.prepare(net)


def _two_islands():
    net = RoadNetwork()
    for i in range(4):
        net.add_node(i, float(i), 0.0)
    net.add_edge(0, 1, 1.0)
    net.add_edge(2, 3, 1.0)
    return net


class TestBuild:
    def test_registry(self):
        assert "overlay-csr" in ENGINES
        assert ENGINES["overlay-csr"] is ENGINES["dijkstra-csr"]
        assert isinstance(
            get_engine("overlay-csr").make_processor(), CSRSharedTreeProcessor
        )

    def test_repr_and_counters(self, net, snapshot):
        assert isinstance(snapshot, CSRGraph)
        assert "CSRGraph(" in repr(snapshot)
        assert snapshot.num_nodes == net.num_nodes
        assert snapshot.num_arcs == len(snapshot.targets)
        assert len(snapshot.offsets) == snapshot.num_nodes + 1

    def test_snapshot_memoized(self, kernel):
        net = grid_network(6, 6, seed=2)
        a = csr_snapshot(net)
        assert csr_snapshot(net) is a
        net.add_edge(0, 7, 1.0)
        assert csr_snapshot(net) is not a

    def test_snapshot_does_not_pin_network(self, kernel):
        # The memo must hold snapshots weakly: a strong global cache
        # would leak every network routed with the engine.
        import gc
        import weakref

        net = grid_network(5, 5, seed=3)
        csr_snapshot(net)
        ref = weakref.ref(net)
        del net
        gc.collect()
        assert ref() is None


class TestRoute:
    def test_trivial_and_errors(self, net, engine, snapshot):
        path = engine.route(net, 5, 5, snapshot)
        assert path.nodes == (5,)
        with pytest.raises(UnknownNodeError):
            engine.route(net, -1, 5, snapshot)
        with pytest.raises(UnknownNodeError):
            engine.route(net, 5, "nope", snapshot)

    def test_no_path_on_disconnected(self, engine):
        with pytest.raises(NoPathError):
            engine.route(_two_islands(), 0, 3)

    def test_same_cell_exit_and_reenter(self, engine):
        # The direct road between two neighbours is a detour (weight
        # 10); the shortest path leaves it for the three-edge route (3).
        net = RoadNetwork()
        net.add_node(0, 0.0, 0.0)
        net.add_node(1, 1.0, 0.0)
        net.add_node(2, 0.0, 1.0)
        net.add_node(3, 1.0, 1.0)
        net.add_edge(0, 1, 10.0)
        net.add_edge(0, 2, 1.0)
        net.add_edge(2, 3, 1.0)
        net.add_edge(3, 1, 1.0)
        path = engine.route(net, 0, 1)
        assert path.distance == pytest.approx(3.0)
        assert path.nodes == (0, 2, 3, 1)

    def test_stats_accumulate(self, net, engine, snapshot):
        stats = SearchStats()
        engine.route(net, 0, net.num_nodes - 1, snapshot, stats=stats)
        assert stats.settled_nodes > 0
        assert stats.heap_pushes > 0

    def test_engine_route_builds_context(self, net, engine):
        ref = dijkstra_path(net, 3, 140).distance
        assert engine.route(net, 3, 140).distance == pytest.approx(ref)


class TestPersistence:
    """The name's artifact spills as the CSR blob of its row."""

    def test_rejects_non_integer_ids(self, kernel, tmp_path):
        from repro.service.blob import write_csr_blob

        assert get_engine("overlay-csr").spill == "csrb"
        net = RoadNetwork()
        net.add_node("a", 0.0, 0.0)
        net.add_node("b", 1.0, 0.0)
        net.add_edge("a", "b", 1.0)
        with pytest.raises(GraphError, match="integer"):
            write_csr_blob(csr_snapshot(net), tmp_path / "x.csrb")


class TestProcessor:
    def test_unreachable_pair_raises(self, engine):
        processor = engine.make_processor()
        with pytest.raises(NoPathError):
            processor.process(_two_islands(), [0], [1, 3])

    def test_wire_order_and_parity(self, net, engine):
        processor = engine.make_processor()
        rng = random.Random(4)
        nodes = list(net.nodes())
        sources = rng.sample(nodes, 3)
        destinations = rng.sample(nodes, 3)
        result = processor.process(net, sources, destinations)
        assert list(result.paths) == [
            (s, t) for s in sources for t in destinations
        ]
        for (s, t), path in result.paths.items():
            ref = dijkstra_path(net, s, t).distance
            assert path.distance == pytest.approx(ref, abs=1e-9)
        # one shared tree per source: never one search per pair
        assert result.searches == len(sources)
