"""Deterministic work counters, pinned exactly.

Settled nodes, partition shape, union-pass size and response bytes do
not depend on the machine, so each is held with ``==`` at the value the
code produces: a change to one of them is a change of behaviour, and
the commit that makes it updates the number here.  How fast the work runs is measured
end to end by the request ledger (``benchmarks/ledger``), not here.

The map is a 40x40 perturbed grid with seeded point pairs and one seeded
``4 x 4`` batch; the metro counters use a ~5k-node metro map.
"""

from __future__ import annotations

import random

import pytest

from repro.core.query import ObfuscatedPathQuery
from repro.network.csr import csr_snapshot
from repro.network.generators import grid_network, metro_network
from repro.network.partition import partition_snapshot
from repro.obs.trace import Tracer
from repro.search.ch import contract_network
from repro.search.kernels import (
    CSRHierarchy,
    CSRSharedTreeProcessor,
    csr_ch_many_to_many,
    csr_dijkstra_path,
)
from repro.search.result import SearchStats
from repro.service.cache import ResultCache
from repro.service.serving import ServingConfig, ServingStack
from repro.service.wire import encode_paths, table_paths


@pytest.fixture(scope="module")
def net():
    return grid_network(40, 40, perturbation=0.1, seed=7)


@pytest.fixture(scope="module")
def pairs(net):
    rng = random.Random(1)
    nodes = list(net.nodes())
    return [tuple(rng.sample(nodes, 2)) for _ in range(12)]


@pytest.fixture(scope="module")
def batch(net):
    """``(sources, destinations)`` of one seeded ``4 x 4`` query."""
    rng = random.Random(5)
    nodes = list(net.nodes())
    return rng.sample(nodes, 4), rng.sample(nodes, 4)


def test_point_queries_settle(net, pairs):
    stats = SearchStats()
    csr = csr_snapshot(net)
    for s, t in pairs:
        csr_dijkstra_path(net, s, t, csr=csr, stats=stats)
    assert stats.settled_nodes == 9274


def test_shared_trees_settle(net, batch):
    processor = CSRSharedTreeProcessor()
    processor.batch_min_settled = float("inf")  # the heap loop's count
    assert processor.process(net, *batch).stats.settled_nodes == 5230


def test_ch_buckets_settle(net, batch):
    hierarchy = CSRHierarchy(contract_network(net))
    stats = SearchStats()
    csr_ch_many_to_many(hierarchy, *batch, stats=stats)
    assert stats.settled_nodes == 760


def test_overlay_layout(net):
    """The cell layout of the map (the paged-storage pages)."""
    partition = partition_snapshot(net)
    assert partition.num_cells == 32
    assert partition.num_cut_edges == 400
    assert partition.num_boundary_nodes == 716


def _fragment_bytes(net, sources, destinations):
    table = CSRSharedTreeProcessor().process(net, sources, destinations)
    return len(encode_paths(table_paths(sources, destinations, table)))


def test_response_bytes(net, batch, pairs):
    """Bytes of the ``"paths"`` fragment: shared-path entries whose
    listed nodes are id differences (schema 2, full ids, sent 1894 and
    1923; schema 1, one object per path, sent 3178 and 2409)."""
    assert _fragment_bytes(net, *batch) == 1333
    assert sum(_fragment_bytes(net, (s,), (t,)) for s, t in pairs) == 1578


def _session_batches(net, sessions=8, per_session=6, set_size=3):
    """Sessions whose set queries draw from 20 shared origins and 10
    shared hotspots, so their endpoint unions overlap heavily."""
    rng = random.Random(9)
    nodes = list(net.nodes())
    origins = rng.sample(nodes, 20)
    hotspots = rng.sample([n for n in nodes if n not in set(origins)], 10)
    return [
        [
            ObfuscatedPathQuery(
                tuple(rng.sample(origins, set_size)),
                tuple(rng.sample(hotspots, set_size)),
            )
            for _ in range(per_session)
        ]
        for _ in range(sessions)
    ]


def _tables(responses):
    return [
        {pair: (p.nodes, p.distance) for pair, p in r.candidates.paths.items()}
        for r in responses
    ]


def test_one_union_pass_evaluates_the_distinct_pairs(net):
    sessions = _session_batches(net)

    def serve(batches):
        tracer = Tracer()
        with ServingStack.from_config(
            net,
            ServingConfig(engine="dijkstra-csr"),
            result_cache=ResultCache(capacity=0),
            tracer=tracer,
        ) as stack:
            tables = [t for b in batches for t in _tables(stack.answer_batch(b))]
            return tables, stack.server.counters, tracer

    queries = sum(sessions, [])
    solo, solo_counters, _ = serve([[q] for q in queries])
    # the batch is the window: every session's queries in one call
    union, counters, tracer = serve([queries])
    (root,) = tracer.roots
    (span,) = [s for s in root.walk() if s.name == "engine.union"]
    assert span.attrs["union_pairs"] == 180
    assert union == solo
    assert counters.stats.settled_nodes <= solo_counters.stats.settled_nodes


def test_metro_shape():
    metro = metro_network(5000, seed=7)
    edges = sum(1 for _ in metro.edges())
    assert round(2.0 * edges / len(metro), 3) == 2.975
    assert partition_snapshot(metro).num_cells == 64
