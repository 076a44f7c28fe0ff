"""HTTP gateway tests: endpoints, middleware, errors, byte-identity.

Drives a real :class:`~repro.service.gateway.GatewayServer` over TCP
with stdlib ``http.client`` — no mocked transport — and checks the
properties the gateway gate relies on: versioned routing (including the
obfuscated numeric aliases), admission control with ``Retry-After``,
machine-readable error mapping, and canonical response bodies that are
byte-identical to in-process
:meth:`~repro.service.serving.ServingStack.answer_batch` answers.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.query import ObfuscatedPathQuery
from repro.network.generators import grid_network
from repro.network.io import read_network, write_network
from repro.service.gateway import (
    API_PREFIX,
    RETRY_AFTER_S,
    ROUTE_ALIASES,
    GatewayConfig,
    GatewayServer,
    _MAX_BODY_BYTES,
    _evaluate_pairs,
    redacted_fields,
)
from repro.service.serving import ServingConfig, ServingStack
from repro.service.wire import RouteRequest, RouteResponse

ENGINE = "dijkstra"


def _request(server, method, path, body=None, headers=None):
    """One HTTP request against ``server``; returns (status, headers, body)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def _raw_exchange(server, data: bytes) -> bytes:
    """Send ``data`` over a raw socket; every byte until the server closes."""
    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(data)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def _assert_400_then_close(reply: bytes) -> None:
    """``reply`` is exactly one 400 ``invalid_request`` with ``Connection: close``."""
    status_line, _, rest = reply.partition(b"\r\n")
    headers, _, body = rest.partition(b"\r\n\r\n")
    assert status_line == b"HTTP/1.1 400 Bad Request"
    assert b"Connection: close" in headers.split(b"\r\n")
    assert json.loads(body)["error"] == "invalid_request"


@pytest.fixture(scope="module")
def network():
    return grid_network(8, 8, perturbation=0.1, seed=7)


@pytest.fixture(scope="module")
def server(network):
    with GatewayServer(
        network, ServingConfig(engine=ENGINE), GatewayConfig()
    ) as gateway_server:
        yield gateway_server


@pytest.fixture(scope="module")
def query(network):
    nodes = sorted(network.nodes())
    return ObfuscatedPathQuery(tuple(nodes[:3]), tuple(nodes[-3:]))


class TestLifecycle:
    def test_binds_a_real_port(self, server):
        assert server.port > 0
        assert server.host == "127.0.0.1"

    def test_health(self, server):
        status, _, body = _request(server, "GET", f"{API_PREFIX}/health")
        doc = json.loads(body)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["engine"] == ENGINE
        assert "workers" not in doc

    def test_metrics_shape(self, server):
        status, _, body = _request(server, "GET", f"{API_PREFIX}/metrics")
        doc = json.loads(body)
        assert status == 200
        assert doc["kind"] == "gateway_metrics"
        assert doc["config"]["kind"] == "serving_config"
        assert "epoch" in doc["serving"]
        assert "repro_gateway_requests_total" in doc["gateway"]["metrics"]


class TestRouting:
    def test_route_answers_and_is_byte_identical(
        self, server, network, query
    ):
        status, headers, body = _request(
            server,
            "POST",
            f"{API_PREFIX}/route",
            body=RouteRequest.from_query(query).to_json(),
        )
        assert status == 200
        assert headers.get("X-Request-Id")
        over_http = RouteResponse.from_json(body)
        with ServingStack.from_config(
            network, ServingConfig(engine=ENGINE)
        ) as stack:
            in_process = RouteResponse.from_server(
                stack.answer_batch([query])[0]
            )
        assert over_http.payload_json() == in_process.payload_json()

    def test_batch_answers_every_query(self, server, query):
        entry = {
            "sources": list(query.sources),
            "destinations": list(query.destinations),
        }
        status, _, body = _request(
            server,
            "POST",
            f"{API_PREFIX}/batch",
            body=json.dumps({"queries": [entry, entry]}),
        )
        doc = json.loads(body)
        assert status == 200
        assert len(doc["results"]) == 2
        for result in doc["results"]:
            assert len(result["paths"]) == len(query.sources) * len(
                query.destinations
            )

    def test_numeric_alias_routes_like_named_endpoint(self, server, query):
        wire = RouteRequest.from_query(query).to_json()
        _, _, named = _request(
            server, "POST", f"{API_PREFIX}/route", body=wire
        )
        status, _, aliased = _request(
            server, "POST", f"{API_PREFIX}/1.1", body=wire
        )
        assert status == 200
        named_payload = RouteResponse.from_json(named).payload_json()
        alias_payload = RouteResponse.from_json(aliased).payload_json()
        assert alias_payload == named_payload

    def test_alias_table_covers_every_endpoint(self, server):
        assert set(ROUTE_ALIASES.values()) == {
            "route", "batch", "health", "metrics", "reweight",
        }
        status, _, body = _request(server, "GET", f"{API_PREFIX}/1.3")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_reweight_bumps_epoch(self, network):
        nodes = sorted(network.nodes())
        neighbor, weight = next(iter(network.neighbors(nodes[0]).items()))
        with GatewayServer(
            network.copy(), ServingConfig(engine=ENGINE)
        ) as fresh:
            changes = [[nodes[0], neighbor, weight * 4.0]]
            status, _, body = _request(
                fresh,
                "POST",
                f"{API_PREFIX}/reweight",
                body=json.dumps({"changes": changes}),
            )
            doc = json.loads(body)
            assert status == 200
            assert doc["edges"] == 1
            assert doc["epoch"] == 1
            _, _, health = _request(fresh, "GET", f"{API_PREFIX}/health")
            assert json.loads(health)["epoch"] == 1
            # the install latency shows in the live metrics
            _, _, metrics = _request(fresh, "GET", f"{API_PREFIX}/metrics")
            gateway = json.loads(metrics)["gateway"]["metrics"]
            assert gateway["repro_serve_reweight_seconds"]["count"] == 1


    def test_the_gateway_serves_the_stack_network(self):
        """One owner: after a reweight the gateway's network is the
        stack's new epoch, not the map it was built with."""
        built = grid_network(6, 6, seed=3)
        u, v, weight = next(built.edges())
        with GatewayServer(built, ServingConfig(engine=ENGINE)) as fresh:
            gateway = fresh.gateway
            assert gateway.network is gateway.stack.network
            status, _, _ = _request(
                fresh, "POST", f"{API_PREFIX}/reweight",
                body=json.dumps({"changes": [[u, v, weight * 4.0]]}),
            )
            assert status == 200
            assert gateway.network is gateway.stack.network
            assert gateway.network is not built
            assert gateway.network.neighbors(u)[v] == weight * 4.0
            assert gateway._network is None


class TestShardLane:
    def test_every_batch_of_a_shard_runs_on_one_thread(
        self, network, query, monkeypatch
    ):
        """One lane per flusher: a thread that ran a search keeps kernel
        scratch and an allocator arena, so batches must not wander over
        the default executor's threads (where reweights and metrics
        reads run, and keep threads busy, in between)."""
        import threading

        import repro.service.gateway as gateway_module

        ran_on = []
        real = gateway_module._evaluate_pairs

        def recording(stack, pairs):
            ran_on.append(threading.current_thread())
            return real(stack, pairs)

        monkeypatch.setattr(gateway_module, "_evaluate_pairs", recording)
        nodes = sorted(network.nodes())
        neighbor, weight = next(iter(network.neighbors(nodes[0]).items()))
        body = RouteRequest.from_query(query).to_json()
        with GatewayServer(
            network.copy(), ServingConfig(engine=ENGINE)
        ) as fresh:
            for k in range(6):
                status, _, _ = _request(
                    fresh, "POST", f"{API_PREFIX}/route", body=body
                )
                assert status == 200
                _request(fresh, "GET", f"{API_PREFIX}/metrics")
                # every reweight changes the map (k + 1, never + 0), so
                # every post is a result-cache miss and reaches the lane
                _request(
                    fresh, "POST", f"{API_PREFIX}/reweight",
                    body=json.dumps(
                        {"changes": [[nodes[0], neighbor, weight + k + 1]]}
                    ),
                )
        assert len(ran_on) == 6
        (lane,) = set(ran_on)
        assert lane.name == "repro-lane_0"
        lane.join(timeout=10.0)  # stop() shut the lane down
        assert not lane.is_alive()


class TestErrors:
    def test_invalid_json_is_400(self, server):
        status, _, body = _request(
            server, "POST", f"{API_PREFIX}/route", body="{nope"
        )
        assert status == 400
        assert json.loads(body)["error"] == "invalid_json"

    @pytest.mark.parametrize(
        "length", ["abc", "-5", "1e3", str(_MAX_BODY_BYTES + 1)]
    )
    def test_unframeable_content_length_is_400_then_close(
        self, server, length
    ):
        head = (
            f"POST {API_PREFIX}/route HTTP/1.1\r\n"
            f"Host: x\r\nContent-Length: {length}\r\n\r\n"
        )
        _assert_400_then_close(_raw_exchange(server, head.encode("ascii")))

    def test_unparseable_request_line_is_400_then_close(self, server):
        _assert_400_then_close(_raw_exchange(server, b"GARBAGE\r\n\r\n"))

    def test_transfer_encoding_is_400_then_close(self, server):
        # The chunk holds a whole request: were the chunked body left on
        # the stream, it would be parsed as the connection's next head.
        smuggled = f"GET {API_PREFIX}/health HTTP/1.1\r\nHost: x\r\n\r\n"
        data = (
            f"POST {API_PREFIX}/route HTTP/1.1\r\nHost: x\r\n"
            "Transfer-Encoding: chunked\r\n\r\n"
            f"{len(smuggled):x}\r\n{smuggled}\r\n0\r\n\r\n"
            # and a well-framed request pipelined behind it
            + smuggled
        )
        reply = _raw_exchange(server, data.encode("ascii"))
        assert reply.count(b"HTTP/1.1 ") == 1
        _assert_400_then_close(reply)

    def test_malformed_reweight_body_is_invalid_json(self, server):
        status, _, body = _request(
            server, "POST", f"{API_PREFIX}/reweight", body="{not json"
        )
        assert status == 400
        assert json.loads(body)["error"] == "invalid_json"

    def test_reweight_of_a_missing_edge_is_invalid_request(self, server):
        status, _, body = _request(
            server,
            "POST",
            f"{API_PREFIX}/reweight",
            body=json.dumps({"changes": [[0, 999_999, 1.0]]}),
        )
        assert status == 400
        assert json.loads(body)["error"] == "invalid_request"

    def test_unknown_route_is_404(self, server):
        status, _, body = _request(server, "GET", f"{API_PREFIX}/nope")
        assert status == 404
        assert json.loads(body)["error"] == "unknown_route"

    def test_unversioned_path_is_404(self, server):
        status, _, body = _request(server, "GET", "/health")
        assert status == 404
        assert json.loads(body)["error"] == "unknown_route"

    def test_wrong_method_is_405(self, server):
        status, _, body = _request(server, "GET", f"{API_PREFIX}/route")
        assert status == 405
        assert json.loads(body)["error"] == "bad_method"

    def test_invalid_query_is_400_and_leaks_no_node_ids(self, server):
        status, _, body = _request(
            server,
            "POST",
            f"{API_PREFIX}/route",
            body=json.dumps(
                {"sources": [123454321, 123454321],
                 "destinations": [123454321]}
            ),
        )
        assert status == 400
        doc = json.loads(body)
        assert doc["error"] == "invalid_request"
        assert "123454321" not in body.decode()

    def test_no_path_is_422(self):
        network = grid_network(4, 4, seed=1)
        island = 999_000
        network.add_node(island, -50.0, -50.0)
        nodes = sorted(network.nodes())
        with GatewayServer(network, ServingConfig(engine=ENGINE)) as srv:
            status, _, body = _request(
                srv,
                "POST",
                f"{API_PREFIX}/route",
                body=json.dumps(
                    {"sources": [nodes[0]], "destinations": [island]}
                ),
            )
        assert status == 422
        doc = json.loads(body)
        assert doc["error"] == "no_path"
        assert str(island) not in body.decode()

    def test_admission_control_refuses_with_429(self, server):
        gateway = server.gateway
        assert gateway._inflight == 0
        gateway._inflight = gateway.config.max_inflight
        try:
            status, headers, body = _request(
                server, "GET", f"{API_PREFIX}/health"
            )
        finally:
            gateway._inflight = 0
        doc = json.loads(body)
        assert status == 429
        assert doc["error"] == "overloaded"
        # Precise float hint in the body, RFC 9110 integer delta-seconds
        # (rounded up, never 0) on the wire header.
        assert doc["retry_after_s"] == RETRY_AFTER_S
        assert headers.get("Retry-After") == "1"
        assert headers["Retry-After"].isdigit()

    def test_retry_after_header_rounds_up(self):
        from repro.service.gateway import _error_response

        assert _error_response(
            "overloaded", retry_after_s=0.05
        ).headers["Retry-After"] == "1"
        assert _error_response(
            "overloaded", retry_after_s=2.2
        ).headers["Retry-After"] == "3"
        assert _error_response(
            "overloaded", retry_after_s=4.0
        ).headers["Retry-After"] == "4"
        assert "Retry-After" not in _error_response("internal").headers

    def test_loadgen_parses_both_retry_hints(self):
        from repro.workloads.loadgen import parse_retry_after

        body = json.dumps(
            {"error": "overloaded", "retry_after_s": 0.05}
        ).encode()
        # Body float wins over the coarser header.
        assert parse_retry_after("1", body) == 0.05
        # Header alone (any RFC-compliant server) still parses.
        assert parse_retry_after("3", b"not json") == 3.0
        assert parse_retry_after("junk", b"{}") is None
        assert parse_retry_after(None, b"") is None

    @pytest.mark.parametrize("hint", ["true", "-1", "NaN", "Infinity"])
    def test_loadgen_refused_body_hint_falls_back_to_header(self, hint):
        from repro.workloads.loadgen import parse_retry_after

        # The same rule as ErrorResponse decoding: a finite number >= 0
        # that is not a bool.
        body = b'{"error":"overloaded","retry_after_s":' + hint.encode() + b"}"
        assert parse_retry_after("2", body) == 2.0
        assert parse_retry_after(None, body) is None
        assert parse_retry_after("inf", body) is None


class TestRequestId:
    def test_valid_supplied_id_is_echoed(self, server):
        _, headers, _ = _request(
            server,
            "GET",
            f"{API_PREFIX}/health",
            headers={"X-Request-Id": "abc-123_XYZ"},
        )
        assert headers["X-Request-Id"] == "abc-123_XYZ"

    def test_invalid_supplied_id_is_replaced(self, server):
        _, headers, _ = _request(
            server,
            "GET",
            f"{API_PREFIX}/health",
            headers={"X-Request-Id": "bad id with spaces!"},
        )
        issued = headers["X-Request-Id"]
        assert issued != "bad id with spaces!"
        assert issued  # a fresh id was minted

    def test_fresh_id_when_absent(self, server):
        _, first, _ = _request(server, "GET", f"{API_PREFIX}/health")
        _, second, _ = _request(server, "GET", f"{API_PREFIX}/health")
        assert first["X-Request-Id"] != second["X-Request-Id"]


class TestRedactedFields:
    def test_rejects_forbidden_keys(self):
        with pytest.raises(ValueError):
            redacted_fields(sources=(1, 2))
        with pytest.raises(ValueError):
            redacted_fields(path=[1, 2, 3])

    def test_passes_safe_keys_through(self):
        fields = redacted_fields(status=200, duration_ms=1.5)
        assert fields == {"status": 200, "duration_ms": 1.5}


class TestGatewayConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_inflight": 0},
            {"max_batch": 0},
            {"window_ms": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GatewayConfig(**kwargs)

    def test_frozen(self):
        config = GatewayConfig()
        with pytest.raises(AttributeError):
            config.max_batch = 3


def _children(pid: int) -> list[int]:
    """Live processes whose parent is ``pid`` (read from ``/proc``)."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:  # ended while we looked
            continue
        # the command name may hold spaces: fields resume after its ")"
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry.name))
    return children


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)
class TestServeCommandIsOneProcess:
    def test_workers_flag_starts_no_process_and_changes_no_body(
        self, tmp_path
    ):
        """``repro serve`` started exactly as the request ledger starts
        ``shard_local``: ``--workers`` is accepted and ignored, every
        request is answered in the gateway's own process, and the
        metrics document still carries the empty ``shards`` list the
        ledger reads."""
        map_file = tmp_path / "city.txt"
        write_network(grid_network(8, 8, perturbation=0.1, seed=11), map_file)
        spill = tmp_path / "spill"
        spill.mkdir()
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            ),
            PYTHONUNBUFFERED="1",
        )
        with open(tmp_path / "stderr.log", "wb") as stderr:
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    str(map_file), "--port", "0", "--engine",
                    "dijkstra-csr", "--workers", "2",
                    "--spill-dir", str(spill),
                ],
                # unbuffered, so select() sees each line still unread
                env=env, stdout=subprocess.PIPE, stderr=stderr, bufsize=0,
            )
        try:
            lines = []
            for _ in range(2):
                ready, _, _ = select.select([process.stdout], [], [], 60.0)
                assert ready, "repro serve printed nothing"
                lines.append(process.stdout.readline().decode())
            match = re.search(r"http://([^:]+):(\d+)/", lines[0])
            assert match is not None, lines
            assert lines[1].strip() == "engine=dijkstra-csr"
            server = SimpleNamespace(
                host=match.group(1), port=int(match.group(2))
            )
            assert _children(process.pid) == []

            query = ObfuscatedPathQuery((0, 9, 30), (63, 50))
            status, _, body = _request(
                server, "POST", f"{API_PREFIX}/route",
                body=RouteRequest.from_query(query).to_json(),
            )
            assert status == 200
            with ServingStack.from_config(
                read_network(map_file), ServingConfig(engine="dijkstra-csr")
            ) as stack:
                (want,) = _evaluate_pairs(
                    stack, [(query.sources, query.destinations)]
                )
            assert body == want

            status, _, body = _request(server, "GET", f"{API_PREFIX}/metrics")
            assert status == 200
            assert json.loads(body)["shards"] == []
            _, _, health = _request(server, "GET", f"{API_PREFIX}/health")
            assert "workers" not in json.loads(health)
            assert _children(process.pid) == []
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            process.stdout.close()
        note = (tmp_path / "stderr.log").read_text()
        assert note.count("--workers is ignored") == 1
