"""The gateway's constant-work repeat path, judged against the slow one.

In-process mode answers a result-cache hit on the event loop from the
bytes encoded when the table was first sent
(:meth:`~repro.service.serving.ServingStack.answer_cached`); shard
workers ship encoded bodies through the pipe.  Neither may be
observable: bodies, counters and invalidation must be exactly what
:meth:`~repro.service.serving.ServingStack.answer_batch` plus the dict
encoder give, and a long-running server must not grow with the number
of requests it has served.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import tracemalloc

import pytest

from repro.core.query import ObfuscatedPathQuery
from repro.core.server import OBSERVED_WINDOW
from repro.network.generators import grid_network
from repro.obs.metrics import MetricsRegistry
from repro.search.dijkstra import dijkstra_path
from repro.service.gateway import (
    API_PREFIX,
    Gateway,
    GatewayConfig,
    GatewayServer,
    _HTTPRequest,
)
from repro.service.serving import ServingConfig, ServingStack
from repro.service.wire import RouteRequest, RouteResponse, canonical_json

ENGINE = "dijkstra-csr"

COUNTERS = (
    "repro_result_cache_hits_total",
    "repro_result_cache_misses_total",
    "repro_server_queries_served_total",
    "repro_server_paths_returned_total",
)


@pytest.fixture(scope="module")
def network():
    return grid_network(9, 9, perturbation=0.1, seed=13)


@pytest.fixture(scope="module")
def stream(network):
    """Five distinct queries, posted 24 times in a repeating pattern."""
    nodes = sorted(network.nodes())
    distinct = [
        ObfuscatedPathQuery(
            (nodes[i], nodes[40 + i]), (nodes[-1 - i], nodes[30 - i])
        )
        for i in range(5)
    ]
    order = [0, 1, 0, 0, 2, 1, 3, 0, 2, 2, 4, 1] * 2
    return [distinct[k] for k in order]


class _Client:
    """One keep-alive connection to a :class:`GatewayServer`."""

    def __init__(self, server) -> None:
        self._conn = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )

    def post(self, path: str, body: str) -> tuple[int, bytes]:
        self._conn.request("POST", f"{API_PREFIX}/{path}", body=body)
        response = self._conn.getresponse()
        return response.status, response.read()

    def route(self, query: ObfuscatedPathQuery) -> bytes:
        status, body = self.post(
            "route", RouteRequest.from_query(query).to_json()
        )
        assert status == 200
        return body

    def close(self) -> None:
        self._conn.close()


def _through_gateway(network, stream, serving, config=None):
    """Bodies of ``stream`` posted one by one, and the counters after."""
    metrics = MetricsRegistry()
    with GatewayServer(
        network.copy(), serving, config, metrics=metrics
    ) as server:
        client = _Client(server)
        try:
            bodies = [client.route(query) for query in stream]
        finally:
            client.close()
    return bodies, metrics


def _through_stack(network, stream):
    """The reference: ``answer_batch`` plus the dict encoder."""
    metrics = MetricsRegistry()
    with ServingStack.from_config(
        network.copy(), ServingConfig(engine=ENGINE), metrics=metrics
    ) as stack:
        bodies = [
            canonical_json(
                RouteResponse.from_server(stack.answer_batch([q])[0]).to_dict()
            ).encode()
            for q in stream
        ]
    return bodies, metrics


def _values(metrics: MetricsRegistry, names=COUNTERS) -> dict:
    return {name: metrics.counter(name).value for name in names}


class TestInlineConsultIsUnobservable:
    def test_same_bodies_and_same_counters_as_answer_batch(
        self, network, stream
    ):
        want_bodies, want = _through_stack(network, stream)
        got_bodies, got = _through_gateway(
            network, stream, ServingConfig(engine=ENGINE)
        )
        assert got_bodies == want_bodies
        # hits answered on the loop and misses answered on the lane
        # each move every counter once — a miss is not counted twice
        assert _values(got) == _values(want)
        assert got.counter("repro_result_cache_misses_total").value == 5
        assert got.counter("repro_result_cache_hits_total").value == (
            len(stream) - 5
        )
        assert got.counter("repro_gateway_requests_total").value == len(stream)
        assert got.histogram("repro_serve_batch_seconds").count == (
            want.histogram("repro_serve_batch_seconds").count
        )

    def test_hits_never_reach_the_lane(self, network, stream, monkeypatch):
        import repro.service.gateway as gateway_module

        evaluated = []
        real = gateway_module._evaluate_pairs

        def recording(stack, pairs):
            evaluated.extend(pairs)
            return real(stack, pairs)

        monkeypatch.setattr(gateway_module, "_evaluate_pairs", recording)
        _through_gateway(network, stream, ServingConfig(engine=ENGINE))
        assert len(evaluated) == 5
        assert len(set(evaluated)) == 5

    def test_batch_body_joins_the_same_bytes(self, network, stream):
        queries = stream[:6]  # holds repeats: duplicates share the work
        with GatewayServer(
            network.copy(), ServingConfig(engine=ENGINE)
        ) as server:
            client = _Client(server)
            try:
                warm = client.route(queries[0])
                status, body = client.post("batch", json.dumps({
                    "queries": [
                        {"sources": list(q.sources),
                         "destinations": list(q.destinations)}
                        for q in queries
                    ]
                }))
            finally:
                client.close()
        assert status == 200
        doc = json.loads(body)
        assert body == canonical_json(doc).encode()
        assert doc["schema"] == 1 and len(doc["results"]) == len(queries)
        with ServingStack.from_config(
            network.copy(), ServingConfig(engine=ENGINE)
        ) as stack:
            want = [
                RouteResponse.from_server(r).payload_dict()["paths"]
                for r in stack.answer_batch(queries)
            ]
        assert [entry["paths"] for entry in doc["results"]] == want
        # the warmed query came from the cache, inline
        assert doc["results"][0]["from_cache"] is True
        assert json.loads(warm)["paths"] == doc["results"][0]["paths"]

    def test_batch_body_carries_error_entries_between_tables(self, network):
        island = 999_000
        with_island = network.copy()
        with_island.add_node(island, -50.0, -50.0)
        good = {"sources": [0, 9], "destinations": [80]}
        bad = {"sources": [0], "destinations": [island]}
        with GatewayServer(
            with_island, ServingConfig(engine=ENGINE)
        ) as server:
            client = _Client(server)
            try:
                status, body = client.post(
                    "batch", json.dumps({"queries": [good, bad, good]})
                )
                single = client.route(ObfuscatedPathQuery((0, 9), (80,)))
            finally:
                client.close()
        assert status == 200
        doc = json.loads(body)
        assert body == canonical_json(doc).encode()
        assert doc["results"][1] == {"error": "no_path"}
        assert str(island) not in body.decode()
        table = json.loads(single)["paths"]
        assert doc["results"][0]["paths"] == table
        assert doc["results"][2]["paths"] == table
        assert "schema" not in doc["results"][0]

    def test_coalesce_window_leaves_bodies_unchanged(self, network, stream):
        plain, _ = _through_gateway(
            network, stream, ServingConfig(engine=ENGINE)
        )
        coalescing = ServingConfig(engine=ENGINE, coalesce=True)
        bodies, metrics = _through_gateway(network, stream, coalescing)
        assert bodies == plain
        # only the five misses ever reached a batch: a hit answered on
        # the loop is not a coalesce-counter query
        assert metrics.counter("repro_coalesce_queries_total").value == 5
        assert _values(metrics)["repro_result_cache_hits_total"] == (
            len(stream) - 5
        )


def _oracle_matches(body: bytes, query, network) -> None:
    """Every entry of ``body`` is a shortest path on ``network``."""
    wire = RouteResponse.from_json(body)
    assert [(s, t) for s, t, _, _ in wire.paths] == query.pairs()
    for s, t, nodes, cost in wire.paths:
        best = dijkstra_path(network, s, t)
        assert cost == pytest.approx(best.distance, abs=1e-9)
        assert (nodes[0], nodes[-1]) == (s, t)
        assert sum(
            network.edge_weight(u, v) for u, v in zip(nodes, nodes[1:])
        ) == pytest.approx(cost, abs=1e-9)


class TestNoBodyOutlivesItsTable:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_reweight_turns_a_hot_query_into_a_miss(self, network, workers):
        query = ObfuscatedPathQuery((0, 44), (80, 36))
        s, t = query.sources[0], query.destinations[0]
        path = dijkstra_path(network, s, t).nodes
        u, v = path[len(path) // 2], path[len(path) // 2 + 1]
        after = network.copy()
        after.add_edge(u, v, network.edge_weight(u, v) * 25.0)
        with GatewayServer(
            network.copy(), ServingConfig(engine=ENGINE),
            GatewayConfig(workers=workers),
        ) as server:
            client = _Client(server)
            try:
                cold = client.route(query)
                hot = client.route(query)
                status, _ = client.post("reweight", json.dumps(
                    {"changes": [[u, v, after.edge_weight(u, v)]]}
                ))
                assert status == 200
                fresh = client.route(query)
                again = client.route(query)
            finally:
                client.close()
        assert [json.loads(b)["from_cache"] for b in (cold, hot, fresh, again)] == [
            False, True, False, True,
        ]
        _oracle_matches(hot, query, network)
        _oracle_matches(fresh, query, after)
        assert json.loads(fresh)["paths"] != json.loads(hot)["paths"]
        assert json.loads(again)["paths"] == json.loads(fresh)["paths"]


class TestServerMemoryIsConstantPerRequest:
    def test_cache_hits_leave_no_per_request_residue(self, network):
        """20 000 repeats of one query: the adversary log stays a window
        and the heap is flat once the window has filled."""
        query = ObfuscatedPathQuery((0, 44), (80, 36))
        body = RouteRequest.from_query(query).to_json().encode()

        async def drive() -> tuple[int, int, int]:
            gateway = Gateway(network.copy(), ServingConfig(engine=ENGINE))
            await gateway.start()
            try:
                async def post() -> None:
                    response = await gateway._handler(_HTTPRequest(
                        "POST", f"{API_PREFIX}/route", {}, body
                    ))
                    assert response.status == 200

                # traced from the first request, so the window's own
                # entries are in both readings and cancel out
                tracemalloc.start()
                try:
                    for _ in range(5_000):
                        await post()
                    at_5k = tracemalloc.get_traced_memory()[0]
                    for _ in range(15_000):
                        await post()
                    at_20k = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
                server = gateway.stack.server
                assert server.counters.queries_served == 20_000
                assert gateway.stack.results.hits == 19_999
                return len(server.observed_queries), at_5k, at_20k
            finally:
                await gateway.stop()

        observed, at_5k, at_20k = asyncio.run(drive())
        assert observed <= OBSERVED_WINDOW
        # an unbounded log would hold ~15 000 more queries (>= 1 MiB)
        assert at_20k - at_5k < 64 * 1024


class TestAccessLogWorksOnlyWhenHeard:
    def test_no_line_is_built_unless_the_logger_listens(
        self, network, stream, monkeypatch
    ):
        import logging

        import repro.service.gateway as gateway_module

        built = []
        real = gateway_module.redacted_fields
        monkeypatch.setattr(
            gateway_module, "redacted_fields",
            lambda **fields: built.append(fields) or real(**fields),
        )
        logger = logging.getLogger(gateway_module.ACCESS_LOGGER)
        before = logger.level
        try:
            logger.setLevel(logging.WARNING)
            _through_gateway(network, stream[:4], ServingConfig(engine=ENGINE))
            assert built == []
            # whenever a line *is* written, it goes through the redaction
            logger.setLevel(logging.INFO)
            _through_gateway(network, stream[:4], ServingConfig(engine=ENGINE))
        finally:
            logger.setLevel(before)
        assert len(built) == 4
        assert all(set(f) == {
            "request_id", "method", "route", "status", "duration_ms"
        } for f in built)
