"""Property tests: parallel customization is byte-identical to serial.

Random networks (directed or not, possibly disconnected), random
partition capacities, both kernels and both worker counts: an overlay
built or recustomized on a process pool must :func:`dumps_overlay` to
exactly the serial bytes.  This is the invariant that lets
:meth:`repro.service.serving.ServingStack.reweight` turn parallelism on
as a pure throughput knob — no result drift, ever.

The pools are module-shared (fork start method, warmed once) so the
suite's wall time is spent customizing, not forking.  Every example
starts with a full build (``changed_edges=None``), which re-spills the
CSR blob and resets the pool's delta map — examples cannot contaminate
each other through the one shared spill.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import RoadNetwork
from repro.search.overlay import build_overlay, dumps_overlay
from repro.search.parallel import ParallelCustomizer

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable on this platform",
)

_POOLS: dict[int, ParallelCustomizer] = {}


@pytest.fixture(scope="module", autouse=True)
def _pools():
    yield
    for pool in _POOLS.values():
        pool.close()
    _POOLS.clear()


def _pool(workers: int) -> ParallelCustomizer:
    if workers not in _POOLS:
        _POOLS[workers] = ParallelCustomizer(workers, start_method="fork")
    return _POOLS[workers]


@st.composite
def networks(draw, min_nodes=4, max_nodes=28):
    """Random weighted network with integer node ids."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    directed = draw(st.booleans())
    density = draw(st.floats(min_value=0.5, max_value=3.0))
    rng = random.Random(seed)
    net = RoadNetwork(directed=directed)
    for node in range(n):
        net.add_node(node, rng.uniform(0, 10), rng.uniform(0, 10))
    for _ in range(int(density * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not net.has_edge(u, v):
            net.add_edge(u, v, rng.uniform(0.1, 5.0))
    return net


@given(
    net=networks(),
    capacity=st.integers(min_value=2, max_value=10),
    workers=st.sampled_from([2, 3]),
    reweight_seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_parallel_byte_identical_to_serial(
    net, capacity, workers, reweight_seed
):
    """Build and recustomize: pool output == serial output, bytewise."""
    pool = _pool(workers)
    serial = build_overlay(net, cell_capacity=capacity)
    par = build_overlay(net, cell_capacity=capacity, customizer=pool)
    assert dumps_overlay(par) == dumps_overlay(serial)

    # Re-weight a random slice of edges and recustomize both ways.
    rng = random.Random(reweight_seed)
    changed = []
    for u, v, w in list(net.edges()):
        if rng.random() < 0.3:
            net.add_edge(u, v, w * rng.uniform(0.5, 2.0))
            changed.append((u, v))
    serial2 = serial.recustomized(changed_edges=changed)
    par2 = par.recustomized(changed_edges=changed, customizer=pool)
    fresh = build_overlay(net, cell_capacity=capacity)
    assert dumps_overlay(par2) == dumps_overlay(serial2)
    assert dumps_overlay(par2) == dumps_overlay(fresh)
