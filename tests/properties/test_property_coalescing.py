"""Property-based tests: coalesced batches equal serial serving exactly.

For ANY stream of obfuscated queries and ANY partition of that stream
into ``answer_batch`` calls (a batch is the window), the sliced
responses of a coalescing stack must equal the serial
``ServingStack.answer_batch`` responses exactly — same pair tables in
the same wire order, same paths, same distances, same ``from_cache``
flags — and the result-cache hit/miss counters must stay consistent
(the totals are partition-invariant: an in-window duplicate counts as a
shared hit exactly where serial batching counts it, and cross-window
repeats are plain cache hits in both worlds).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import ObfuscatedPathQuery
from repro.network.generators import grid_network
from repro.service.serving import ServingConfig, ServingStack

NET = grid_network(10, 10, perturbation=0.1, seed=4001)
NODES = list(NET.nodes())
# Small endpoint pools force cross-query overlap and exact duplicates,
# the traffic shape coalescing exists for.
SOURCE_POOL = NODES[:8]
DEST_POOL = NODES[40:48]


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


@given(stream=query_streams())
@settings(max_examples=40, deadline=None)
def test_any_partition_matches_serial_batches(stream):
    queries, windows = stream
    serial = ServingStack.from_config(NET, ServingConfig(engine="dijkstra"))
    coalesced = ServingStack.from_config(
        NET,
        ServingConfig(engine="dijkstra", coalesce=True),
    )
    try:
        for window in windows:
            serial_responses = serial.answer_batch(window)
            coalesced_responses = coalesced.answer_batch(window)
            for a, b in zip(serial_responses, coalesced_responses):
                assert _table(a) == _table(b)
                assert a.from_cache == b.from_cache
        assert serial.results.hits == coalesced.results.hits
        assert serial.results.misses == coalesced.results.misses
        assert (
            serial.server.counters.queries_served
            == coalesced.server.counters.queries_served
        )
    finally:
        serial.close()
        coalesced.close()


@given(stream=query_streams())
@settings(max_examples=30, deadline=None)
def test_partition_invariant_cache_totals(stream):
    """hits+misses totals match fully-serial one-query-at-a-time serving."""
    queries, windows = stream
    one_by_one = ServingStack.from_config(
        NET,
        ServingConfig(engine="dijkstra"),
    )
    coalesced = ServingStack.from_config(
        NET,
        ServingConfig(engine="dijkstra", coalesce=True),
    )
    try:
        reference = [one_by_one.answer_batch([q])[0] for q in queries]
        answered = []
        for window in windows:
            answered.extend(coalesced.answer_batch(window))
        for a, b in zip(reference, answered):
            assert _table(a) == _table(b)
        # A duplicate costs no work under either regime: it is a result
        # cache hit when served alone, a shared in-window hit when
        # coalesced — the counters agree in total.
        assert one_by_one.results.hits == coalesced.results.hits
        assert one_by_one.results.misses == coalesced.results.misses
    finally:
        one_by_one.close()
        coalesced.close()


@given(stream=query_streams())
@settings(max_examples=30, deadline=None)
def test_coalesced_work_never_exceeds_serial(stream):
    """Union passes settle at most what per-query dispatch settles."""
    queries, windows = stream
    serial = ServingStack.from_config(NET, ServingConfig(engine="dijkstra"))
    coalesced = ServingStack.from_config(
        NET,
        ServingConfig(engine="dijkstra", coalesce=True),
    )
    try:
        for window in windows:
            serial.answer_batch(window)
            coalesced.answer_batch(window)
        assert (
            coalesced.server.counters.stats.settled_nodes
            <= serial.server.counters.stats.settled_nodes
        )
    finally:
        serial.close()
        coalesced.close()
