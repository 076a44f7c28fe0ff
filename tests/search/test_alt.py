"""Unit tests for repro.search.alt (ALT landmark search)."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import UnknownNodeError
from repro.network.generators import grid_network, tiger_like_network
from repro.network.graph import RoadNetwork
from repro.search.alt import LandmarkIndex, alt_path, select_landmarks_farthest
from repro.search.dijkstra import dijkstra_path
from repro.search.result import SearchStats


@pytest.fixture(scope="module")
def net():
    return grid_network(20, 20, perturbation=0.1, seed=301)


@pytest.fixture(scope="module")
def index(net):
    return LandmarkIndex(net, num_landmarks=4)


class TestLandmarkSelection:
    def test_requested_count(self, net):
        assert len(select_landmarks_farthest(net, 5)) == 5

    def test_landmarks_distinct_and_valid(self, net):
        landmarks = select_landmarks_farthest(net, 6)
        assert len(set(landmarks)) == 6
        assert all(lm in net for lm in landmarks)

    def test_landmarks_spread_apart(self, net):
        """Farthest-point selection must not cluster landmarks."""
        landmarks = select_landmarks_farthest(net, 4)
        for i, a in enumerate(landmarks):
            for b in landmarks[i + 1 :]:
                assert net.euclidean_distance(a, b) > 5.0

    def test_deterministic(self, net):
        assert select_landmarks_farthest(net, 4) == select_landmarks_farthest(net, 4)

    def test_count_capped_by_network(self):
        tiny = RoadNetwork()
        tiny.add_node(1, 0, 0)
        tiny.add_node(2, 1, 0)
        tiny.add_edge(1, 2)
        landmarks = select_landmarks_farthest(tiny, 10)
        assert 1 <= len(landmarks) <= 2

    def test_invalid_arguments(self, net):
        with pytest.raises(ValueError):
            select_landmarks_farthest(net, 0)
        with pytest.raises(UnknownNodeError):
            select_landmarks_farthest(net, 2, seed_node=-1)


class TestLandmarkIndex:
    def test_explicit_landmarks(self, net):
        nodes = list(net.nodes())
        index = LandmarkIndex(net, landmarks=[nodes[0], nodes[-1]])
        assert index.landmarks == [nodes[0], nodes[-1]]

    def test_directed_supported(self):
        directed = RoadNetwork(directed=True)
        directed.add_node(1, 0, 0)
        directed.add_node(2, 1, 0)
        directed.add_node(3, 2, 0)
        directed.add_edge(1, 2, 1.0)
        directed.add_edge(2, 3, 1.0)
        directed.add_edge(3, 1, 5.0)
        index = LandmarkIndex(directed, num_landmarks=1)
        assert alt_path(directed, 1, 3, index).distance == pytest.approx(2.0)
        assert alt_path(directed, 3, 1, index).distance == pytest.approx(5.0)

    def test_empty_landmark_list_rejected(self, net):
        with pytest.raises(ValueError):
            LandmarkIndex(net, landmarks=[])

    def test_unknown_landmark_rejected(self, net):
        with pytest.raises(UnknownNodeError):
            LandmarkIndex(net, landmarks=[-5])

    def test_heuristic_is_admissible(self, net, index):
        """h(n) must lower-bound the true network distance everywhere."""
        rng = random.Random(5)
        nodes = list(net.nodes())
        for _ in range(15):
            s, t = rng.sample(nodes, 2)
            h = index.heuristic_for(t)
            true = dijkstra_path(net, s, t).distance
            assert h(s) <= true + 1e-9

    def test_heuristic_zero_at_destination(self, net, index):
        node = next(net.nodes())
        assert index.heuristic_for(node)(node) == 0.0

    def test_lower_bound_symmetry(self, net, index):
        nodes = list(net.nodes())
        assert index.lower_bound(nodes[0], nodes[-1]) == pytest.approx(
            index.lower_bound(nodes[-1], nodes[0])
        )

    def test_unknown_destination_rejected(self, index):
        with pytest.raises(UnknownNodeError):
            index.heuristic_for(-1)


class TestAltPath:
    # Oracle parity vs. Dijkstra is covered for every engine by
    # tests/search/test_engine_conformance.py.

    def test_settles_fewer_nodes_than_dijkstra(self, net, index):
        rng = random.Random(7)
        nodes = list(net.nodes())
        alt_total = dijkstra_total = 0
        for _ in range(15):
            s, t = rng.sample(nodes, 2)
            sa, sd = SearchStats(), SearchStats()
            alt_path(net, s, t, index, stats=sa)
            dijkstra_path(net, s, t, stats=sd)
            alt_total += sa.settled_nodes
            dijkstra_total += sd.settled_nodes
        assert alt_total < dijkstra_total / 2

    def test_works_on_travel_time_networks(self):
        """ALT bounds come from true network distances, so they stay
        admissible where the Euclidean heuristic would not."""
        suburb = tiger_like_network(blocks=3, block_size=4, arterial_speedup=3.0, seed=8)
        index = LandmarkIndex(suburb, num_landmarks=4)
        rng = random.Random(8)
        nodes = list(suburb.nodes())
        for _ in range(10):
            s, t = rng.sample(nodes, 2)
            ours = alt_path(suburb, s, t, index)
            truth = dijkstra_path(suburb, s, t)
            assert ours.distance == pytest.approx(truth.distance)


class TestALTPairwiseProcessor:
    def test_matches_naive_pairwise(self, net):
        from repro.search.alt import ALTPairwiseProcessor
        from repro.search.multi import NaivePairwiseProcessor

        rng = random.Random(12)
        nodes = list(net.nodes())
        sources = rng.sample(nodes, 3)
        destinations = rng.sample(nodes, 3)
        ref = NaivePairwiseProcessor().process(net, sources, destinations)
        got = ALTPairwiseProcessor().process(net, sources, destinations)
        assert set(got.paths) == set(ref.paths)
        for pair, ref_path in ref.paths.items():
            assert got.paths[pair].distance == pytest.approx(ref_path.distance)
        assert got.searches == len(sources) * len(destinations)

    def test_index_cached_per_network(self, net):
        from repro.search.alt import ALTPairwiseProcessor

        proc = ALTPairwiseProcessor()
        assert proc.index_for(net) is proc.index_for(net)

    def test_registered_in_processor_registry(self):
        from repro.search import get_engine
        from repro.search.alt import ALTPairwiseProcessor

        assert isinstance(
            get_engine("alt").make_processor(), ALTPairwiseProcessor
        )
