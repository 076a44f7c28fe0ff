"""Property-based tests: one batch equals one batch per query exactly.

A batch's distinct misses are one union pass, so for ANY stream of
obfuscated queries and ANY partition of that stream into
``answer_batch`` calls (a batch is the window), the sliced responses
must equal serving every query in its own batch — same pair tables in
the same wire order, same paths, same distances, same ``from_cache``
flags — on every served engine, and the result-cache hit/miss counters
must stay consistent (the totals are partition-invariant: an in-window
duplicate counts as a shared hit exactly where one-by-one serving
counts a cache hit, and cross-window repeats are plain cache hits in
both worlds).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import ObfuscatedPathQuery
from repro.network.csr import csr_snapshot
from repro.network.generators import grid_network
from repro.search import kernels
from repro.search.kernels import CSRSharedTreeProcessor
from repro.search.vectorized import estimated_settled, numpy_available, vec_view
from repro.service.cache import PreprocessingCache
from repro.service.serving import ServingConfig, ServingStack

NET = grid_network(10, 10, perturbation=0.1, seed=4001)
NODES = list(NET.nodes())
# Small endpoint pools force cross-query overlap and exact duplicates,
# the traffic shape coalescing exists for.
SOURCE_POOL = NODES[:8]
DEST_POOL = NODES[40:48]
#: the oracle and the served engines
ENGINES = ("dijkstra", "dijkstra-csr", "ch-csr")
#: one preprocessing build per engine, shared by every example
_PREPROCESSING = {name: PreprocessingCache() for name in ENGINES}


def _stack(engine="dijkstra"):
    return ServingStack.from_config(
        NET,
        ServingConfig(engine=engine),
        preprocessing_cache=_PREPROCESSING[engine],
    )


@st.composite
def query_streams(draw, max_queries=10):
    """A stream of overlapping obfuscated queries plus a partition of it."""
    seeds = draw(
        st.lists(
            st.integers(min_value=0, max_value=40),
            min_size=1,
            max_size=max_queries,
        )
    )
    queries = []
    for seed in seeds:
        rng = random.Random(seed)  # repeated seeds -> identical queries
        queries.append(
            ObfuscatedPathQuery(
                sources=tuple(rng.sample(SOURCE_POOL, rng.randint(1, 3))),
                destinations=tuple(rng.sample(DEST_POOL, rng.randint(1, 3))),
            )
        )
    # Partition: window boundaries drawn as per-query "start new window"
    # flags (the first query always starts one).
    breaks = draw(
        st.lists(st.booleans(), min_size=len(queries), max_size=len(queries))
    )
    windows: list[list[ObfuscatedPathQuery]] = []
    for query, new_window in zip(queries, breaks):
        if new_window or not windows:
            windows.append([])
        windows[-1].append(query)
    return queries, windows


def _table(response):
    return [
        (pair, path.nodes, path.distance)
        for pair, path in response.candidates.paths.items()
    ]


@given(stream=query_streams(), engine=st.sampled_from(ENGINES))
@settings(max_examples=60, deadline=None)
def test_any_partition_matches_serial_batches(stream, engine):
    queries, windows = stream
    with _stack(engine) as serial, _stack(engine) as batched:
        for window in windows:
            serial_responses = [serial.answer_batch([q])[0] for q in window]
            batched_responses = batched.answer_batch(window)
            for a, b in zip(serial_responses, batched_responses):
                assert _table(a) == _table(b)
                assert a.from_cache == b.from_cache
        assert serial.results.hits == batched.results.hits
        assert serial.results.misses == batched.results.misses
        assert (
            serial.server.counters.queries_served
            == batched.server.counters.queries_served
        )


@given(stream=query_streams())
@settings(max_examples=30, deadline=None)
def test_partition_invariant_cache_totals(stream):
    """hits+misses totals match fully-serial one-query-at-a-time serving."""
    queries, windows = stream
    with _stack() as one_by_one, _stack() as batched:
        reference = [one_by_one.answer_batch([q])[0] for q in queries]
        answered = []
        for window in windows:
            answered.extend(batched.answer_batch(window))
        for a, b in zip(reference, answered):
            assert _table(a) == _table(b)
        # A duplicate costs no work either way: it is a result cache hit
        # when served alone, a shared in-window hit when batched — the
        # counters agree in total.
        assert one_by_one.results.hits == batched.results.hits
        assert one_by_one.results.misses == batched.results.misses


@given(stream=query_streams())
@settings(max_examples=30, deadline=None)
def test_coalesced_work_never_exceeds_serial(stream):
    """Union passes settle at most what one batch per query settles."""
    queries, windows = stream
    with _stack() as serial, _stack() as batched:
        for window in windows:
            for query in window:
                serial.answer_batch([query])
            batched.answer_batch(window)
        assert (
            batched.server.counters.stats.settled_nodes
            <= serial.server.counters.stats.settled_nodes
        )


def _estimate(vec, set_queries):
    """``dijkstra-csr``'s kernel estimate for one pass over ``set_queries``
    (one row per distinct source, as the union pass builds them)."""
    needed: dict = {}
    for sources, destinations in set_queries:
        for s in sources:
            needed.setdefault(s, {}).update(dict.fromkeys(destinations))
    return estimated_settled(
        vec, list(needed), [list(row) for row in needed.values()]
    )


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_union_sweep_matches_solo_scalar_loops(monkeypatch):
    """The union pass may pick the other kernel: with the threshold set
    between the solo and the union estimates, ``answer_each``'s union
    runs the numpy sweep while each solo query runs the scalar loop, and
    the tables still agree byte for byte."""
    queries = [
        ObfuscatedPathQuery((NODES[0], NODES[11]), (NODES[88], NODES[79])),
        ObfuscatedPathQuery((NODES[9], NODES[18]), (NODES[90], NODES[71])),
    ]
    pairs = [(q.sources, q.destinations) for q in queries]
    vec = vec_view(csr_snapshot(NET))
    assert vec.strict
    solo = max(_estimate(vec, [pair]) for pair in pairs)
    union = _estimate(vec, pairs)
    assert solo < union
    monkeypatch.setattr(
        CSRSharedTreeProcessor, "batch_min_settled", (solo + union) / 2
    )
    sweeps = []
    real = kernels.vec_batch_paths

    def counting(*args, **kwargs):
        sweeps.append(len(args[1]))
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "vec_batch_paths", counting)
    with _stack("dijkstra-csr") as serial:
        expected = [_table(serial.answer_batch([q])[0]) for q in queries]
    assert sweeps == []
    with _stack("dijkstra-csr") as batched:
        outcomes = batched.answer_each(queries)
    assert sweeps == [4]  # one sweep over the four distinct sources
    assert all(o.coalesced for o in outcomes)
    assert [_table(o) for o in outcomes] == expected
