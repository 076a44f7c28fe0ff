"""Unit tests for the Contraction Hierarchies subsystem."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import GraphError, NoPathError, UnknownNodeError
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.search import ENGINES, get_engine, list_engines, numpy_available
from repro.search.ch import (
    CHManyToManyProcessor,
    ch_many_to_many,
    ch_path,
    contract_network,
    dumps_contracted,
    loads_contracted,
    read_contracted,
    unpack_path,
    write_contracted,
)
from repro.search.dijkstra import dijkstra_path
from repro.search.result import SearchStats
from repro.workloads.queries import uniform_queries


@pytest.fixture(scope="module")
def grid():
    return grid_network(12, 12, perturbation=0.1, seed=11)


@pytest.fixture(scope="module")
def contracted(grid):
    return contract_network(grid)


class TestContraction:
    def test_every_node_ranked_exactly_once(self, grid, contracted):
        ranks = [contracted.rank_of(n) for n in grid.nodes()]
        assert sorted(ranks) == list(range(grid.num_nodes))

    def test_upward_edges_point_upward(self, contracted):
        for node in contracted.nodes():
            for higher in contracted.upward(node):
                assert contracted.rank_of(higher) > contracted.rank_of(node)
            for higher in contracted.downward_in(node):
                assert contracted.rank_of(higher) > contracted.rank_of(node)

    def test_stats_describe_the_run(self, grid, contracted):
        stats = contracted.stats
        assert stats.original_nodes == grid.num_nodes
        assert stats.original_edges == 2 * grid.num_edges  # undirected
        assert stats.witness_searches > 0
        assert stats.overlay_edges >= stats.original_edges

    def test_rejects_bad_witness_limit(self, grid):
        with pytest.raises(ValueError):
            contract_network(grid, witness_settled_limit=0)

    def test_shortcut_middles_are_recorded(self, contracted):
        assert contracted.num_shortcuts > 0
        for (u, v, _w) in contracted.edges():
            mid = contracted.middle(u, v)
            if mid is not None:
                # The middle was contracted before both endpoints.
                assert contracted.rank_of(mid) < contracted.rank_of(u)
                assert contracted.rank_of(mid) < contracted.rank_of(v)


class TestPointQueries:
    # Oracle parity vs. Dijkstra (including on directed and
    # disconnected networks) is covered for every engine by
    # tests/search/test_engine_conformance.py.

    def test_paths_are_walkable_original_edges(self, grid, contracted):
        rng = random.Random(4)
        nodes = list(grid.nodes())
        for _ in range(40):
            s, t = rng.sample(nodes, 2)
            path = ch_path(contracted, s, t)
            total = sum(grid.edge_weight(u, v) for u, v in path.edges())
            assert total == pytest.approx(path.distance, abs=1e-9)

    def test_trivial_query(self, contracted):
        node = next(contracted.nodes())
        path = ch_path(contracted, node, node)
        assert path.nodes == (node,)
        assert path.distance == 0.0

    def test_unknown_nodes_raise(self, contracted):
        node = next(contracted.nodes())
        with pytest.raises(UnknownNodeError):
            ch_path(contracted, "nope", node)
        with pytest.raises(UnknownNodeError):
            ch_path(contracted, node, "nope")

    def test_unreachable_raises_no_path(self):
        net = RoadNetwork()
        for i in range(4):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        graph = contract_network(net)
        with pytest.raises(NoPathError):
            ch_path(graph, 0, 3)

    @pytest.mark.parametrize("name", ["ch", "ch-csr"])
    def test_exact_on_a_unit_grid_where_every_path_ties(self, name):
        """A witness path can run through a node that is not a neighbour
        of the one being contracted; reusing an earlier simulation once
        that node was contracted lost the only equal-length path of 14
        of these 100 queries (``NoPathError`` on a connected map)."""
        net = grid_network(20, 20)
        engine, oracle = get_engine(name), get_engine("dijkstra")
        context = engine.prepare(net)
        for query in uniform_queries(net, 100, seed=0):
            want = oracle.route(net, *query.as_pair()).distance
            got = engine.route(net, *query.as_pair(), context).distance
            assert got == pytest.approx(want, abs=1e-9)

    def test_settles_fewer_nodes_than_dijkstra(self, medium_grid):
        graph = contract_network(medium_grid)
        nodes = list(medium_grid.nodes())
        ch_stats, dij_stats = SearchStats(), SearchStats()
        dijkstra_path(medium_grid, nodes[0], nodes[-1], stats=dij_stats)
        ch_path(graph, nodes[0], nodes[-1], stats=ch_stats)
        assert ch_stats.settled_nodes < dij_stats.settled_nodes / 2


class TestUnpacking:
    def test_line_graph_shortcut_unpacks_to_original_nodes(self):
        # A path graph contracts its interior first, leaving one nested
        # shortcut chain between the endpoints.
        net = RoadNetwork()
        n = 8
        for i in range(n):
            net.add_node(i, float(i), 0.0)
        for i in range(n - 1):
            net.add_edge(i, i + 1, 1.0 + 0.1 * i)
        graph = contract_network(net)
        assert graph.num_shortcuts > 0
        path = ch_path(graph, 0, n - 1)
        assert path.nodes == tuple(range(n))
        assert path.distance == pytest.approx(
            sum(1.0 + 0.1 * i for i in range(n - 1))
        )

    def test_unpack_path_expands_overlay_edges(self):
        net = RoadNetwork()
        for i in range(5):
            net.add_node(i, float(i), 0.0)
        for i in range(4):
            net.add_edge(i, i + 1, 1.0)
        graph = contract_network(net)
        # Find an overlay edge that is a shortcut and expand it.
        shortcut = next(
            (u, v) for u, v, _w in graph.edges() if graph.middle(u, v) is not None
        )
        expanded = unpack_path(graph, list(shortcut))
        assert expanded[0] == shortcut[0]
        assert expanded[-1] == shortcut[1]
        assert len(expanded) > 2
        for u, v in zip(expanded, expanded[1:]):
            assert net.has_edge(u, v)

    def test_unpack_empty_path(self, contracted):
        assert unpack_path(contracted, []) == []


class TestManyToMany:
    # MSMD oracle parity is covered for every engine by
    # tests/search/test_engine_conformance.py.

    def test_searches_counts_sweeps(self, grid, contracted):
        nodes = list(grid.nodes())
        proc = CHManyToManyProcessor(graph=contracted)
        got = proc.process(grid, nodes[:3], nodes[10:14])
        assert got.searches == 3 + 4

    def test_overlapping_sources_and_destinations(self, grid, contracted):
        nodes = list(grid.nodes())
        shared = nodes[5]
        paths = ch_many_to_many(contracted, [shared, nodes[9]], [shared])
        assert paths[(shared, shared)].distance == 0.0
        assert paths[(shared, shared)].nodes == (shared,)

    def test_unreachable_pair_raises(self):
        net = RoadNetwork()
        for i in range(4):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        proc = CHManyToManyProcessor()
        with pytest.raises(NoPathError):
            proc.process(net, [0], [1, 3])

    def test_processor_caches_contraction_per_network(self, grid):
        proc = CHManyToManyProcessor()
        first = proc.graph_for(grid)
        again = proc.graph_for(grid)
        assert first is again

    def test_registered_in_processor_registry(self):
        proc = get_engine("ch").make_processor()
        assert isinstance(proc, CHManyToManyProcessor)
        assert proc.name == "ch"

    def test_unknown_processor_message_lists_ch(self):
        with pytest.raises(KeyError, match="ch"):
            get_engine("bogus")


class TestPersist:
    def test_round_trip_file(self, grid, contracted, tmp_path):
        target = tmp_path / "grid.ch"
        write_contracted(contracted, target)
        loaded = read_contracted(target)
        assert loaded.num_nodes == contracted.num_nodes
        assert loaded.num_shortcuts == contracted.num_shortcuts
        assert loaded.directed == contracted.directed
        rng = random.Random(8)
        nodes = list(grid.nodes())
        for _ in range(40):
            s, t = rng.sample(nodes, 2)
            assert ch_path(loaded, s, t).distance == pytest.approx(
                ch_path(contracted, s, t).distance, abs=1e-12
            )

    def test_round_trip_string(self, contracted):
        loaded = loads_contracted(dumps_contracted(contracted))
        assert {n: loaded.rank_of(n) for n in loaded.nodes()} == {
            n: contracted.rank_of(n) for n in contracted.nodes()
        }

    def test_loaded_graph_answers_queries_without_network(self, grid, contracted):
        # The persisted artifact alone answers queries — preprocessing is
        # genuinely paid once per network.
        loaded = loads_contracted(dumps_contracted(contracted))
        nodes = list(grid.nodes())
        ref = dijkstra_path(grid, nodes[0], nodes[-1]).distance
        assert ch_path(loaded, nodes[0], nodes[-1]).distance == pytest.approx(
            ref, abs=1e-9
        )

    def test_malformed_input_raises(self):
        with pytest.raises(GraphError):
            loads_contracted("rank 0 0\n")  # before 'directed' header
        with pytest.raises(GraphError):
            loads_contracted(
                "directed 0\ncounts 2 0\nrank 0 0\nrank 1 0\n"
            )  # duplicate rank value
        with pytest.raises(GraphError):
            loads_contracted("directed 0\nfrobnicate 1 2\n")

    def test_truncated_file_raises(self, contracted):
        text = dumps_contracted(contracted)
        truncated = "\n".join(text.splitlines()[: len(text.splitlines()) // 2])
        with pytest.raises(GraphError, match="truncated"):
            loads_contracted(truncated)


class TestEngineRegistry:
    def test_all_engines_registered(self):
        expected = {"dijkstra", "ch", "dijkstra-csr", "ch-csr", "overlay-csr"}
        if numpy_available():
            expected.add("dijkstra-vec")
        assert set(list_engines()) == expected

    def test_unknown_engine_raises(self):
        with pytest.raises(KeyError, match="valid"):
            get_engine("teleport")

    def test_every_engine_routes_the_same_distance(self, small_grid):
        nodes = list(small_grid.nodes())
        s, t = nodes[3], nodes[-4]
        ref = dijkstra_path(small_grid, s, t).distance
        for name, engine in ENGINES.items():
            context = engine.prepare(small_grid)
            path = engine.route(small_grid, s, t, context=context)
            assert path.distance == pytest.approx(ref, abs=1e-9), name

    def test_ch_engine_routes_without_context(self, small_grid):
        engine = get_engine("ch")
        nodes = list(small_grid.nodes())
        ref = dijkstra_path(small_grid, nodes[0], nodes[-1]).distance
        path = engine.route(small_grid, nodes[0], nodes[-1])
        assert path.distance == pytest.approx(ref, abs=1e-9)
