"""Gateway soak: concurrent HTTP load, churn, and byte-identity.

The load generator drives a live :class:`GatewayServer` with several
concurrent keep-alive connections while this suite checks the gate's
core claim end to end: every payload that crosses the wire is
*byte-identical* to what an in-process
:meth:`~repro.service.serving.ServingStack.answer_batch` call produces
for the same query — cold, under concurrent re-weights (after the
epoch settles).
"""

from __future__ import annotations

import http.client
import json
import random
import threading

from repro.core.query import ObfuscatedPathQuery
from repro.network.generators import grid_network
from repro.service.gateway import API_PREFIX, GatewayServer
from repro.service.serving import ServingConfig, ServingStack
from repro.service.wire import RouteRequest, RouteResponse
from repro.workloads.loadgen import run_load

ENGINE = "dijkstra-csr"


def _workload(network, n, seed):
    """``n`` obfuscated queries with 2x2 endpoint sets."""
    rng = random.Random(seed)
    nodes = list(network.nodes())
    return [
        ObfuscatedPathQuery(
            tuple(rng.sample(nodes, 2)), tuple(rng.sample(nodes, 2))
        )
        for _ in range(n)
    ]


def _expected_payloads(network, queries, changes=()):
    """In-process answers (optionally after epoch re-weights)."""
    with ServingStack.from_config(
        network.copy(), ServingConfig(engine=ENGINE)
    ) as stack:
        stack.warm()
        for batch in changes:
            stack.reweight(batch, epoch=True)
        return [
            RouteResponse.from_server(r).payload_json()
            for r in stack.answer_batch(queries)
        ]


def _payloads(report):
    """Byte-identity surfaces of every captured response body."""
    return [
        RouteResponse.from_json(payload).payload_json()
        for payload in report.payloads
    ]


def _post(server, path, doc):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request("POST", path, body=json.dumps(doc))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_soak_byte_identical_to_in_process():
    network = grid_network(10, 10, perturbation=0.1, seed=21)
    queries = _workload(network, 16, seed=2)
    requests = [RouteRequest.from_query(q) for q in queries]
    expected = _expected_payloads(network, queries)
    with GatewayServer(
        network.copy(), ServingConfig(engine=ENGINE)
    ) as server:
        report = run_load(
            server.host,
            server.port,
            requests,
            clients=4,
            repeats=3,
            capture_payloads=True,
        )
    assert report.requests == len(queries) * 3
    assert report.errors == 0
    assert report.status_counts == {200: report.requests}
    # Completion order interleaves across clients; compare multisets.
    assert sorted(_payloads(report)) == sorted(expected * 3)


def test_soak_under_churn_settles_byte_identical():
    network = grid_network(10, 10, perturbation=0.1, seed=33)
    queries = _workload(network, 12, seed=4)
    requests = [RouteRequest.from_query(q) for q in queries]
    rng = random.Random(9)
    edges = list(network.edges())
    change_batches = [
        [
            (u, v, w * rng.uniform(1.5, 3.0))
            for u, v, w in rng.sample(edges, 3)
        ]
        for _ in range(4)
    ]
    with GatewayServer(
        network.copy(), ServingConfig(engine=ENGINE)
    ) as server:
        failures: list[str] = []

        def churn() -> None:
            for batch in change_batches:
                status, _ = _post(
                    server,
                    f"{API_PREFIX}/reweight",
                    {"changes": [list(change) for change in batch]},
                )
                if status != 200:
                    failures.append(f"reweight -> {status}")

        feeder = threading.Thread(target=churn)
        feeder.start()
        # Load and churn race on purpose: answers during the race may
        # come from either epoch, but every request must still succeed.
        under_churn = run_load(
            server.host, server.port, requests, clients=4, repeats=2
        )
        feeder.join()
        assert not failures
        assert under_churn.errors == 0

        # Quiesced: every install is in. Now the gateway must agree
        # byte-for-byte with an in-process stack that replayed the same
        # change history.
        settled = run_load(
            server.host,
            server.port,
            requests,
            clients=2,
            capture_payloads=True,
        )
    expected = _expected_payloads(network, queries, changes=change_batches)
    assert settled.errors == 0
    assert sorted(_payloads(settled)) == sorted(expected)

