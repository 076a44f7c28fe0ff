"""Property-based tests over the full OPAQUE pipeline and its extensions.

A single fixed network with hypothesis-driven workloads: whatever the
requests, the pipeline must return exact paths, honor protection
settings, keep the server ignorant of user identities, and keep the
extension layers (planner, wire schema, clustering) consistent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import cluster_requests
from repro.core.planner import plan_protection
from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.core.system import OpaqueSystem
from repro.network.generators import grid_network
from repro.search.dijkstra import dijkstra_path
from repro.search.multi import NaivePairwiseProcessor, SharedTreeProcessor
from repro.service.wire import RouteRequest

NET = grid_network(12, 12, perturbation=0.1, seed=2001)
NODES = list(NET.nodes())


@st.composite
def request_batches(draw, max_size=6):
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(NODES) - 1), st.integers(0, len(NODES) - 1)
            ).filter(lambda p: p[0] != p[1]),
            min_size=1,
            max_size=max_size,
        )
    )
    batch = []
    for i, (s, t) in enumerate(pairs):
        f_s = draw(st.integers(1, 4))
        f_t = draw(st.integers(1, 4))
        batch.append(
            ClientRequest(
                f"user-{i}",
                PathQuery(NODES[s], NODES[t]),
                ProtectionSetting(f_s, f_t),
            )
        )
    return batch


@given(request_batches(), st.sampled_from(["independent", "shared"]))
@settings(max_examples=30, deadline=None)
def test_pipeline_always_returns_exact_paths(batch, mode):
    system = OpaqueSystem(NET, mode=mode, seed=5)
    results = system.submit(batch)
    assert set(results) == {r.user for r in batch}
    for request in batch:
        truth = dijkstra_path(NET, request.query.source, request.query.destination)
        assert abs(results[request.user].distance - truth.distance) < 1e-9


@given(request_batches())
@settings(max_examples=30, deadline=None)
def test_every_record_honors_every_members_setting(batch):
    system = OpaqueSystem(NET, mode="shared", seed=5)
    system.submit(batch)
    for record in system.last_report.records:
        for request in record.requests:
            assert record.query.satisfies(request.setting)
            assert record.query.covers(request.query)


@given(request_batches())
@settings(max_examples=30, deadline=None)
def test_server_view_carries_no_request_objects(batch):
    system = OpaqueSystem(NET, mode="independent", seed=5)
    system.submit(batch)
    # The server sees only node ids; its observed set sizes bound what any
    # log analysis could recover.
    for observed, record in zip(
        system.server.observed_queries, system.last_report.records
    ):
        assert observed == record.query
        assert len(observed.sources) >= 1
        assert len(observed.destinations) >= 1


@given(request_batches(), st.floats(min_value=0.5, max_value=8.0))
@settings(max_examples=30, deadline=None)
def test_clustering_partition_and_diameter(batch, bound):
    clusters = cluster_requests(batch, NET, bound, bound)
    users = sorted(r.user for c in clusters for r in c.requests)
    assert users == sorted(r.user for r in batch)
    for cluster in clusters:
        assert cluster.source_diameter(NET) <= bound + 1e-9
        assert cluster.destination_diameter(NET) <= bound + 1e-9


@given(
    st.integers(0, len(NODES) - 1),
    st.integers(0, len(NODES) - 1),
    st.integers(2, 20),
)
@settings(max_examples=30, deadline=None)
def test_planner_plans_meet_target_and_sort(source, target, product):
    if source == target:
        return
    query = PathQuery(NODES[source], NODES[target])
    plans = plan_protection(NET, query, max_breach=1.0 / product, max_side=product)
    costs = [p.predicted_cost for p in plans]
    assert costs == sorted(costs)
    for plan in plans:
        assert plan.breach <= 1.0 / product + 1e-12


@given(request_batches(max_size=3))
@settings(max_examples=30, deadline=None)
def test_wire_round_trip_preserves_pipeline_semantics(batch):
    system = OpaqueSystem(NET, mode="independent", seed=5)
    results = system.submit(batch)
    for record in system.last_report.records:
        wire = RouteRequest.from_query(record.query).to_json()
        assert RouteRequest.from_json(wire).to_query() == record.query
    assert set(results) == {r.user for r in batch}


@given(
    st.lists(st.integers(0, len(NODES) - 1), min_size=2, max_size=5, unique=True),
    st.lists(st.integers(0, len(NODES) - 1), min_size=2, max_size=5, unique=True),
)
@settings(max_examples=30, deadline=None)
def test_processors_agree_on_arbitrary_sets(source_idx, dest_idx):
    sources = [NODES[i] for i in source_idx]
    destinations = [NODES[i] for i in dest_idx]
    naive = NaivePairwiseProcessor().process(NET, sources, destinations)
    shared = SharedTreeProcessor().process(NET, sources, destinations)
    assert set(naive.paths) == set(shared.paths)
    for pair in naive.paths:
        assert abs(naive.paths[pair].distance - shared.paths[pair].distance) < 1e-9
    assert shared.stats.settled_nodes <= naive.stats.settled_nodes


# ---------------------------------------------------------------------------
# Live traffic pipeline: epoch handoff under arbitrary interleavings
# ---------------------------------------------------------------------------

import pytest  # noqa: E402

from repro.core.query import ObfuscatedPathQuery  # noqa: E402
from repro.search.overlay import build_overlay, dumps_overlay  # noqa: E402
from repro.service.pipeline import TrafficPipeline  # noqa: E402
from repro.service.serving import ServingConfig, ServingStack  # noqa: E402
from repro.workloads.replay import TrafficEvent  # noqa: E402

PIPE_NET = grid_network(8, 8, perturbation=0.1, seed=77)
PIPE_NODES = list(PIPE_NET.nodes())
PIPE_EDGES = list(PIPE_NET.edges())


class _ManualClock:
    """Settable clock so staleness stamps are deterministic."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@st.composite
def pipeline_scripts(draw, max_size=24):
    """Interleavings of traffic events, queries, installs and clock steps."""
    item = st.one_of(
        st.tuples(
            st.just("event"),
            st.integers(0, len(PIPE_EDGES) - 1),
            st.floats(min_value=0.5, max_value=3.0),
        ),
        st.tuples(
            st.just("query"),
            st.integers(0, len(PIPE_NODES) - 1),
            st.integers(0, len(PIPE_NODES) - 1),
        ),
        st.just(("pump",)),
        st.tuples(st.just("tick"), st.floats(min_value=0.001, max_value=2.0)),
    )
    return draw(st.lists(item, min_size=1, max_size=max_size))


def _apply_prefix(reference, published, applied_so_far, target):
    for event in published[applied_so_far:target]:
        reference.add_edge(event.u, event.v, event.weight)
    return target


@given(pipeline_scripts())
@settings(max_examples=15, deadline=None)
def test_every_response_is_exact_for_an_applied_stream_prefix(script):
    clock = _ManualClock()
    with ServingStack.from_config(
        PIPE_NET.copy(),
        ServingConfig(engine="overlay-csr", max_workers=1),
    ) as stack:
        stack.warm()
        pipeline = TrafficPipeline(stack, debounce_ms=0.0, clock=clock)
        published: list[TrafficEvent] = []
        reference = PIPE_NET.copy()
        applied = 0
        for item in script:
            if item[0] == "event":
                _, idx, factor = item
                u, v, w = PIPE_EDGES[idx]
                event = TrafficEvent(u, v, round(w * factor, 6))
                pipeline.publish(event)
                published.append(event)
            elif item[0] == "pump":
                pipeline.pump()
            elif item[0] == "tick":
                clock.now += item[1]
            else:
                _, si, ti = item
                s, t = PIPE_NODES[si], PIPE_NODES[ti]
                if s == t:
                    continue
                # The serving state is exactly the stream prefix the
                # batcher has drained — never a torn mix of a batch.
                prefix = pipeline.batcher.offset
                applied = _apply_prefix(reference, published, applied, prefix)
                response = stack.answer(ObfuscatedPathQuery((s,), (t,)))
                truth = dijkstra_path(reference, s, t)
                got = response.candidates.paths[(s, t)]
                assert got.distance == pytest.approx(truth.distance, abs=1e-9)
        # Quiesce: everything published must land, and the installed
        # overlay must be byte-identical to a scratch build on the
        # final weights (shared-cell reuse can never leak stale state).
        pipeline.pump()
        assert pipeline.snapshot().pending == 0
        applied = _apply_prefix(reference, published, applied, len(published))
        assert dumps_overlay(
            stack.preprocessing.peek(stack._fingerprint(), "overlay-csr")
        ) == dumps_overlay(build_overlay(reference))


@given(
    st.lists(
        st.tuples(
            st.integers(0, len(PIPE_EDGES) - 1),
            st.floats(min_value=0.5, max_value=3.0),
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(1, 8),
)
@settings(max_examples=15, deadline=None)
def test_batch_partitioning_never_changes_the_final_state(updates, max_batch):
    """Any batch partitioning (max_batch sweep) converges to the same
    overlay as applying the events one by one — last-writer-wins within
    a contiguous batch is state-equivalent to sequential application."""
    events = [
        TrafficEvent(*PIPE_EDGES[idx][:2], round(PIPE_EDGES[idx][2] * f, 6))
        for idx, f in updates
    ]
    with ServingStack.from_config(
        PIPE_NET.copy(),
        ServingConfig(engine="overlay-csr", max_workers=1),
    ) as stack:
        stack.warm()
        pipeline = TrafficPipeline(stack, debounce_ms=0.0, max_batch=max_batch)
        for event in events:
            pipeline.publish(event)
        pipeline.pump()
        installed = stack.preprocessing.peek(stack._fingerprint(), "overlay-csr")
        sequential = PIPE_NET.copy()
        for event in events:
            sequential.add_edge(event.u, event.v, event.weight)
        assert dumps_overlay(installed) == dumps_overlay(
            build_overlay(sequential)
        )
        for u, v, w in sequential.edges():
            assert stack.network.edge_weight(u, v) == pytest.approx(w)
