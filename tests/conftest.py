"""Shared fixtures for the whole test suite."""

from __future__ import annotations

import pathlib
import random
import sys

# Allow a bare `pytest` from a plain checkout: put the src layout on the
# import path (mirrored in benchmarks/conftest.py).  The checkout is
# prepended, so the working tree shadows any pip-installed copy — tests
# always exercise the code being edited.
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro.network.generators import grid_network, tiger_like_network
from repro.network.graph import RoadNetwork


@pytest.fixture(scope="session")
def small_grid() -> RoadNetwork:
    """10x10 perturbed grid — the workhorse network for unit tests."""
    return grid_network(10, 10, perturbation=0.1, seed=42)


@pytest.fixture(scope="session")
def medium_grid() -> RoadNetwork:
    """25x25 perturbed grid for cost-sensitive assertions."""
    return grid_network(25, 25, perturbation=0.1, seed=42)


@pytest.fixture(scope="session")
def tiger_net() -> RoadNetwork:
    """Hierarchical TIGER-like network (travel-time weights)."""
    return tiger_like_network(blocks=3, block_size=4, seed=7)


@pytest.fixture()
def rng() -> random.Random:
    """Fresh seeded RNG per test."""
    return random.Random(1234)


@pytest.fixture(scope="session")
def tiny_triangle() -> RoadNetwork:
    """Three nodes, explicit weights — for hand-checkable assertions.

    Layout: a--b weight 1, b--c weight 1, a--c weight 3 (detour via b wins).
    """
    net = RoadNetwork()
    net.add_node("a", 0.0, 0.0)
    net.add_node("b", 1.0, 0.0)
    net.add_node("c", 2.0, 0.0)
    net.add_edge("a", "b", 1.0)
    net.add_edge("b", "c", 1.0)
    net.add_edge("a", "c", 3.0)
    return net
