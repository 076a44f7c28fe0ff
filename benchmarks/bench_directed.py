"""Ablation bench: one-way-street (directed) search stack.

Times the point-to-point engines and the side-selecting processor on the
alternating one-way grid, confirming that directed support costs no
asymptotic penalty over the undirected stack.
"""

from __future__ import annotations

import random

import pytest

from repro.network.generators import one_way_grid_network
from repro.search.alt import LandmarkIndex, alt_path
from repro.search.dijkstra import dijkstra_path
from repro.search.multi import SharedTreeProcessor, SideSelectingProcessor

_NET = one_way_grid_network(40, 40, perturbation=0.05, seed=99)
_NODES = list(_NET.nodes())
_PAIRS = [tuple(random.Random(seed).sample(_NODES, 2)) for seed in range(6)]
_INDEX = LandmarkIndex(_NET, num_landmarks=4)


def _total(engine) -> float:
    return sum(engine(s, t).distance for s, t in _PAIRS)


@pytest.fixture(scope="module")
def reference_total():
    return _total(lambda s, t: dijkstra_path(_NET, s, t))


def test_directed_dijkstra(benchmark, reference_total):
    total = benchmark(_total, lambda s, t: dijkstra_path(_NET, s, t))
    assert total == pytest.approx(reference_total)


def test_directed_alt(benchmark, reference_total):
    total = benchmark(_total, lambda s, t: alt_path(_NET, s, t, _INDEX))
    assert total == pytest.approx(reference_total)


def test_directed_side_selecting_processor(benchmark):
    sources = _NODES[10:16]
    destinations = _NODES[800:802]
    out = benchmark(
        SideSelectingProcessor().process, _NET, sources, destinations
    )
    reference = SharedTreeProcessor().process(_NET, sources, destinations)
    for pair, path in out.paths.items():
        assert path.distance == pytest.approx(reference.paths[pair].distance)
