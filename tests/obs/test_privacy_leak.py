"""Leak test: no serialized telemetry surface may carry node ids.

Builds a road network whose node ids are distinctive 7-digit numbers
(never produced by counting settled nodes on a 16-node graph), runs an
obfuscated workload through a fully instrumented serving stack — shared
metrics registry, tracer with a zero slow-query threshold — and then
scans every serialized output (metrics
JSON, Prometheus text, trace JSONL, slow-query log lines) for every
node id: the true endpoints, the decoys, everything.  This is the
enforcement end of the redaction invariant documented in
``repro/obs/__init__.py``: telemetry carries set sizes, counts and cell
ids — never what obfuscation hides.
"""

from __future__ import annotations

import logging
import random
import re

import pytest

from repro.core.query import ObfuscatedPathQuery
from repro.network.graph import RoadNetwork
from repro.obs import JSONLogFormatter, MetricsRegistry, Tracer
from repro.obs.trace import SLOW_QUERY_LOGGER
from repro.service.serving import ServingConfig, ServingStack

#: node ids no aggregate count on this graph can coincidentally equal
_IDS = [9100001 + i for i in range(16)]


def _leaked_ids(surface: str, ids=_IDS) -> list[int]:
    """The ids that appear in ``surface`` as whole numeric tokens.

    Surfaces export wall-clock floats (span starts, durations), and
    seven marker digits inside one of those (``0.0019100012``,
    ``41729100003.5``) are a timing, not an id: a match may not
    continue a number (no digit or decimal point before it) nor be
    continued by one (no digit after it).  An id rendered as a float
    (``9100012.0``) still counts.
    """
    return [
        node for node in ids
        if re.search(rf"(?<![0-9.]){node}(?![0-9])", surface)
    ]


@pytest.fixture()
def marked_network() -> RoadNetwork:
    """4x4 grid whose node ids are distinctive 7-digit markers."""
    net = RoadNetwork()
    for i, node in enumerate(_IDS):
        net.add_node(node, float(i % 4), float(i // 4))
    for i in range(16):
        if i % 4 != 3:
            net.add_edge(_IDS[i], _IDS[i + 1], 1.0)
        if i < 12:
            net.add_edge(_IDS[i], _IDS[i + 4], 1.0)
    return net


def _instrumented_run(network: RoadNetwork) -> list[str]:
    """Run an obfuscated workload; return every serialized telemetry text."""
    rng = random.Random(11)
    queries = [
        ObfuscatedPathQuery(
            tuple(rng.sample(_IDS, 3)), tuple(rng.sample(_IDS, 3))
        )
        for _ in range(4)
    ]

    class CapturingHandler(logging.Handler):
        def __init__(self):
            super().__init__()
            self.lines: list[str] = []
            self.setFormatter(JSONLogFormatter())

        def emit(self, record):
            self.lines.append(self.format(record))

    handler = CapturingHandler()
    logger = logging.getLogger(SLOW_QUERY_LOGGER)
    logger.addHandler(handler)
    tracer = Tracer(slow_threshold_s=0.0)  # every root is "slow"
    metrics = MetricsRegistry()
    try:
        # both kernel spans: one batch per query (engine.process), then
        # one batch of all (engine.union)
        for batches in ([[q] for q in queries], [queries]):
            with ServingStack.from_config(
                network,
                ServingConfig(engine="dijkstra"),
                metrics=metrics,
                tracer=tracer,
            ) as stack:
                for _ in range(2):  # warm pass: cache-hit spans
                    for batch in batches:
                        stack.answer_batch(batch)
    finally:
        logger.removeHandler(handler)
    return [
        metrics.to_json(),
        metrics.to_prometheus(),
        tracer.export_jsonl(),
        "\n".join(handler.lines),
    ]


class TestTelemetryNeverLeaksEndpoints:
    def test_no_serialized_surface_contains_node_ids(self, marked_network):
        surfaces = _instrumented_run(marked_network)
        assert any(surfaces), "instrumented run produced no telemetry"
        for surface in surfaces:
            leaked = _leaked_ids(surface)
            assert not leaked, (
                f"telemetry output leaked node ids {leaked}: {surface[:400]}..."
            )

    def test_the_scan_catches_a_planted_id(self):
        """Negative control for :func:`_leaked_ids`: a real id in a span
        attribute is found on every surface shape it could take, and
        only digits that continue a longer number are let through."""
        tracer = Tracer()
        with tracer.span("probe", cell=_IDS[3]):
            pass
        assert _leaked_ids(tracer.export_jsonl()) == [_IDS[3]]
        for leak in (
            f'{{"node": {_IDS[5]}}}', f"[{_IDS[5]}, 4]", f"id={_IDS[5]}",
            f'"{_IDS[5]}"', f"{_IDS[5]}.0", f"-{_IDS[5]}", str(_IDS[5]),
        ):
            assert _leaked_ids(leak) == [_IDS[5]], leak
        for timing in (
            f"0.00{_IDS[5]}", f"1.2{_IDS[5]}e-05", f"4172{_IDS[5]}.25",
            f"{_IDS[5]}7",
        ):
            assert _leaked_ids(timing) == [], timing

    def test_surfaces_still_carry_aggregates(self, marked_network):
        metrics_json, _, traces, slow_log = _instrumented_run(marked_network)
        assert "repro_server_queries_served_total" in metrics_json
        assert "num_sources" in traces
        assert "settled_nodes" in traces
        assert "serve.answer_batch" in slow_log
        assert "engine.process" in traces and "engine.union" in traces

    def test_reweight_spans_carry_only_counts(self, marked_network):
        """Traffic changes name edges by node id; their ``serve.reweight``
        spans and the ``repro_serve_reweight_seconds`` histogram must only
        ever export counts (edges, epochs) — never the ids."""
        tracer = Tracer()
        with ServingStack.from_config(
            marked_network,
            ServingConfig(engine="dijkstra-csr"),
            tracer=tracer,
        ) as stack:
            stack.warm()
            for u, v, w in list(marked_network.edges())[:6]:
                stack.reweight([(u, v, w * 2.0)])
            surfaces = [
                stack.metrics.to_json(),
                stack.metrics.to_prometheus(),
                tracer.export_jsonl(),
            ]
        installs = [r for r in tracer.roots if r.name == "serve.reweight"]
        assert len(installs) == 6, "reweights produced no install spans"
        assert "repro_serve_reweight_seconds" in surfaces[0]
        for surface in surfaces:
            leaked = _leaked_ids(surface)
            assert not leaked, (
                f"reweight telemetry leaked node ids {leaked}: {surface[:400]}..."
            )


class TestGatewayNeverLeaksEndpoints:
    """HTTP boundary end of the invariant: access logs, the metrics
    endpoint and error bodies must never carry node ids — only the 200
    route payload itself (the client's own answer) may."""

    def _run_gateway_surfaces(self, network):
        import http.client
        import json

        from repro.service.gateway import (
            ACCESS_LOGGER,
            API_PREFIX,
            GatewayServer,
        )

        island = 9100099  # reachable by no edge; same 7-digit marker family
        network.add_node(island, 99.0, 99.0)

        class CapturingHandler(logging.Handler):
            def __init__(self):
                super().__init__()
                self.lines: list[str] = []

            def emit(self, record):
                self.lines.append(record.getMessage())

        handler = CapturingHandler()
        access = logging.getLogger(ACCESS_LOGGER)
        access.addHandler(handler)
        previous_level = access.level
        access.setLevel(logging.INFO)
        error_bodies: list[str] = []
        try:
            with GatewayServer(
                network, ServingConfig(engine="dijkstra")
            ) as server:
                conn = http.client.HTTPConnection(
                    server.host, server.port, timeout=30
                )

                def call(method, path, doc=None):
                    body = None if doc is None else json.dumps(doc)
                    conn.request(method, path, body=body)
                    response = conn.getresponse()
                    return response.status, response.read().decode()

                status, _ = call(
                    "POST",
                    f"{API_PREFIX}/route",
                    {"sources": _IDS[:2], "destinations": _IDS[-2:]},
                )
                assert status == 200
                for method, path, doc in [
                    # duplicate endpoints: core QueryError names the id
                    ("POST", f"{API_PREFIX}/route",
                     {"sources": [_IDS[0], _IDS[0]],
                      "destinations": [_IDS[1]]}),
                    # unreachable endpoint: NoPathError names both ids
                    ("POST", f"{API_PREFIX}/route",
                     {"sources": [_IDS[0]], "destinations": [island]}),
                    # unknown field whose *value* is an endpoint list
                    ("POST", f"{API_PREFIX}/route",
                     {"sources": [_IDS[0]], "destinations": [_IDS[1]],
                      "waypoints": _IDS[2:4]}),
                    ("GET", f"{API_PREFIX}/nope", None),
                ]:
                    status, body = call(method, path, doc)
                    assert status >= 400
                    error_bodies.append(body)
                status, metrics_body = call("GET", f"{API_PREFIX}/metrics")
                assert status == 200
                conn.close()
        finally:
            access.removeHandler(handler)
            access.setLevel(previous_level)
        assert handler.lines, "gateway produced no access-log lines"
        return handler.lines, error_bodies, metrics_body, island

    def test_access_log_errors_and_metrics_are_clean(self, marked_network):
        lines, errors, metrics_body, island = self._run_gateway_surfaces(
            marked_network
        )
        surfaces = ["\n".join(lines), "\n".join(errors), metrics_body]
        for surface in surfaces:
            leaked = _leaked_ids(surface, [*_IDS, island])
            assert not leaked, (
                f"gateway surface leaked node ids {leaked}: {surface[:400]}..."
            )

    def test_access_log_lines_are_structured_and_useful(self, marked_network):
        import json

        lines, _errors, _metrics, _island = self._run_gateway_surfaces(
            marked_network
        )
        docs = [json.loads(line) for line in lines]
        assert {doc["route"] for doc in docs} >= {"route", "metrics"}
        for doc in docs:
            assert set(doc) == {
                "request_id", "method", "route", "status", "duration_ms",
            }
