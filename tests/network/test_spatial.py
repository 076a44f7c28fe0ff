"""Unit tests for repro.network.spatial."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import UnknownNodeError
from repro.network.generators import grid_network, metro_network
from repro.network.graph import RoadNetwork
from repro.network.spatial import GridSpatialIndex


@pytest.fixture(scope="module")
def indexed_grid():
    net = grid_network(12, 12, perturbation=0.1, seed=2)
    return net, GridSpatialIndex(net)


@pytest.fixture(scope="module")
def sparse_map():
    """Jittered streets whose 0.37-wide bucket grid has empty columns."""
    return metro_network(600, seed=4)


class TestConstruction:
    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            GridSpatialIndex(RoadNetwork())

    def test_invalid_cell_size_rejected(self, small_grid):
        with pytest.raises(ValueError):
            GridSpatialIndex(small_grid, cell_size=0.0)

    def test_automatic_cell_size_positive(self, small_grid):
        index = GridSpatialIndex(small_grid)
        assert index.cell_size > 0

    def test_single_node_network(self):
        net = RoadNetwork()
        net.add_node(7, 3.0, 4.0)
        index = GridSpatialIndex(net, cell_size=1.0)
        assert index.nearest_node(100.0, 100.0) == 7


class TestNearestNode:
    def test_exact_hit(self, indexed_grid):
        net, index = indexed_grid
        for node in list(net.nodes())[:20]:
            p = net.position(node)
            assert index.nearest_node(p.x, p.y) == node

    def test_matches_brute_force(self, indexed_grid):
        net, index = indexed_grid
        rng = random.Random(5)
        for _ in range(50):
            x = rng.uniform(-2, 13)
            y = rng.uniform(-2, 13)
            got = index.nearest_node(x, y)
            best = min(
                net.nodes(),
                key=lambda n: (net.position(n).x - x) ** 2
                + (net.position(n).y - y) ** 2,
            )
            got_d = (net.position(got).x - x) ** 2 + (net.position(got).y - y) ** 2
            best_d = (net.position(best).x - x) ** 2 + (net.position(best).y - y) ** 2
            assert got_d == pytest.approx(best_d)

    def test_far_away_query_still_answers(self, indexed_grid):
        _net, index = indexed_grid
        assert index.nearest_node(1e6, 1e6) is not None


class TestRangeQueries:
    def test_nodes_in_box_matches_brute_force(self, indexed_grid):
        net, index = indexed_grid
        got = set(index.nodes_in_box(2.0, 2.0, 5.0, 6.0))
        expected = {
            n
            for n in net.nodes()
            if 2.0 <= net.position(n).x <= 5.0 and 2.0 <= net.position(n).y <= 6.0
        }
        assert got == expected

    @settings(max_examples=200, deadline=None)
    @given(
        corners=st.tuples(*[st.floats(-30.0, 40.0)] * 4),
        cell_size=st.sampled_from([None, 0.37, 1.0, 5.0]),
    )
    def test_nodes_in_box_is_the_position_filter_in_bucket_order(
        self, indexed_grid, corners, cell_size
    ):
        """Interior buckets are taken untested; the result — and its
        order, which seeded decoy sampling depends on — must be what
        testing every node gives.  Boxes larger than the map, boxes off
        the map, points, lines and inverted boxes included."""
        net, _ = indexed_grid
        index = GridSpatialIndex(net, cell_size=cell_size)
        min_x, min_y, max_x, max_y = corners
        inside = [
            n
            for n in net.nodes()
            if min_x <= net.position(n).x <= max_x
            and min_y <= net.position(n).y <= max_y
        ]
        # buckets column by column, insertion order within a bucket
        expected = sorted(inside, key=index.snap)
        assert index.nodes_in_box(min_x, min_y, max_x, max_y) == expected

    def test_nodes_in_box_on_exact_node_coordinates(self, indexed_grid):
        """Box edges that coincide with node positions (the obfuscator's
        boxes are built from them) keep the closed-box semantics."""
        net, index = indexed_grid
        nodes = sorted(net.nodes())
        for a, b in [(nodes[0], nodes[-1]), (nodes[5], nodes[77]), (nodes[3], nodes[3])]:
            pa, pb = net.position(a), net.position(b)
            box = (min(pa.x, pb.x), min(pa.y, pb.y), max(pa.x, pb.x), max(pa.y, pb.y))
            expected = sorted(
                (
                    n
                    for n in net.nodes()
                    if box[0] <= net.position(n).x <= box[2]
                    and box[1] <= net.position(n).y <= box[3]
                ),
                key=index.snap,
            )
            assert index.nodes_in_box(*box) == expected
            assert a in expected and b in expected

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_column_runs_are_the_position_filter_in_bucket_order(
        self, indexed_grid, sparse_map, data
    ):
        """The box query slices prebuilt column runs and tests only the
        border buckets; it must list exactly what testing every node
        lists, in bucket order, on a grid and on a jittered map with
        empty buckets and empty columns.  Boxes off the map, inverted,
        zero-width and with edges on node coordinates included."""
        net = data.draw(st.sampled_from([indexed_grid[0], sparse_map]))
        index = GridSpatialIndex(
            net, cell_size=data.draw(st.sampled_from([None, 0.37, 1.0]))
        )
        nodes = sorted(net.nodes())
        min_x, min_y, max_x, max_y = net.bounding_box()
        on_node = st.sampled_from(nodes).map(net.position)
        coord_x = st.one_of(
            st.floats(min_x - 5.0, max_x + 5.0), on_node.map(lambda p: p.x)
        )
        coord_y = st.one_of(
            st.floats(min_y - 5.0, max_y + 5.0), on_node.map(lambda p: p.y)
        )
        x0, x1 = data.draw(coord_x), data.draw(coord_x)
        y0, y1 = data.draw(coord_y), data.draw(coord_y)
        shape = data.draw(st.sampled_from(["box", "inverted", "zero-width"]))
        if shape == "box":
            x0, x1 = sorted((x0, x1))
            y0, y1 = sorted((y0, y1))
        elif shape == "inverted":
            x0, x1 = sorted((x0, x1), reverse=True)
        else:
            x1 = x0
        # buckets column by column, insertion order within a bucket
        expected = sorted(
            (
                n
                for n in net.nodes()
                if x0 <= net.position(n).x <= x1
                and y0 <= net.position(n).y <= y1
            ),
            key=index.snap,
        )
        got = index.nodes_in_box(x0, y0, x1, y1)
        assert got == expected

    def test_sparse_map_has_empty_buckets_and_columns(self, sparse_map):
        index = GridSpatialIndex(sparse_map, cell_size=0.37)
        keys = {index.snap(n) for n in sparse_map.nodes()}
        columns = {x for x, _ in keys}
        rows = {y for _, y in keys}
        assert len(columns) < max(columns) - min(columns) + 1
        assert len(keys) < len(columns) * len(rows)

    def test_nodes_within_matches_brute_force(self, indexed_grid):
        net, index = indexed_grid
        got = set(index.nodes_within(6.0, 6.0, 2.5))
        expected = {
            n
            for n in net.nodes()
            if (net.position(n).x - 6.0) ** 2 + (net.position(n).y - 6.0) ** 2
            <= 2.5**2 + 1e-12
        }
        assert got == expected

    def test_nodes_within_negative_radius_rejected(self, indexed_grid):
        _net, index = indexed_grid
        with pytest.raises(ValueError):
            index.nodes_within(0, 0, -1.0)

    def test_ring_excludes_inner_disc(self, indexed_grid):
        net, index = indexed_grid
        ring = index.nodes_in_ring(6.0, 6.0, 2.0, 4.0)
        for node in ring:
            d = ((net.position(node).x - 6.0) ** 2 + (net.position(node).y - 6.0) ** 2) ** 0.5
            assert 2.0 - 1e-9 <= d <= 4.0 + 1e-9

    def test_ring_invalid_bounds_rejected(self, indexed_grid):
        _net, index = indexed_grid
        with pytest.raises(ValueError):
            index.nodes_in_ring(0, 0, 3.0, 2.0)

    def test_empty_box_returns_empty(self, indexed_grid):
        _net, index = indexed_grid
        assert index.nodes_in_box(100, 100, 101, 101) == []


class TestRandomNodeNear:
    def test_respects_radius_and_exclusions(self, indexed_grid):
        net, index = indexed_grid
        rng = random.Random(3)
        exclude = set(list(net.nodes())[:5])
        for _ in range(20):
            node = index.random_node_near(5.0, 5.0, 3.0, rng, exclude=exclude)
            assert node is not None
            assert node not in exclude
            d = ((net.position(node).x - 5.0) ** 2 + (net.position(node).y - 5.0) ** 2) ** 0.5
            assert d <= 3.0 + 1e-9

    def test_returns_none_when_no_candidates(self, indexed_grid):
        _net, index = indexed_grid
        rng = random.Random(3)
        assert index.random_node_near(500.0, 500.0, 1.0, rng) is None


class TestCellOperations:
    def test_snap_and_members_consistent(self, indexed_grid):
        net, index = indexed_grid
        node = next(net.nodes())
        cell = index.snap(node)
        assert node in index.cell_members(cell)

    def test_snap_unknown_node(self, indexed_grid):
        _net, index = indexed_grid
        with pytest.raises(UnknownNodeError):
            index.snap(-42)

    def test_unknown_cell_is_empty(self, indexed_grid):
        _net, index = indexed_grid
        assert index.cell_members((999, 999)) == []

    def test_cells_partition_all_nodes(self, indexed_grid):
        net, index = indexed_grid
        seen: list = []
        for cell in {index.snap(n) for n in net.nodes()}:
            seen.extend(index.cell_members(cell))
        assert sorted(seen) == sorted(net.nodes())
