"""Asyncio HTTP gateway over one in-process serving stack.

The network front door of the serving layer: a zero-dependency
HTTP/1.1 server (stdlib :mod:`asyncio` only — no web framework in the
image, none required) that admits requests through the versioned wire
schema (:mod:`repro.service.wire`) and answers every one of them from
one warmed :class:`~repro.service.serving.ServingStack` in its own
process, as the paper's server answers each obfuscated query with one
shared search.

Request path::

    client ──HTTP──▶ middleware chain ──▶ router ──▶ result cache? ──hit──▶ bytes
                      │ request-id                     │ miss        (on the loop)
                      │ route aliases                  ▼
                      │ redacted access log       one queue
                      │ admission control          │ micro-batch window
                      ▼ (429 + Retry-After)        ▼
                                             one lane thread
                                              │ the stack's answer_each:
                                              ▼ one union pass per batch

A repeated ``Q(S, T)`` is the common request (sticky decoys make a
commuter's repeat the identical query), so the gateway asks the result
cache first, on the event loop
(:meth:`~repro.service.serving.ServingStack.answer_cached`): a hit is
answered with the bytes encoded when its table was first sent — no
queue, no thread hop, no encoder.  Searches never run on the loop: a
miss waits in the queue for the micro-batch admission window, and the
lane thread answers each window's queries as one batch, whose distinct
misses the stack evaluates in one union pass.  Every body is
:func:`~repro.service.wire.route_body` around the table's one
:func:`~repro.service.wire.encode_paths` fragment.

Privacy: the HTTP boundary upholds the obs-layer redaction invariant.
Access-log fields are validated against
:data:`~repro.obs.trace.FORBIDDEN_ATTR_KEYS` at write time (the
:class:`~repro.obs.trace.Span` pattern), and error bodies carry only
generic :data:`~repro.service.wire.ERROR_CODES` messages — core
exception text, which interpolates raw node ids, never crosses the
wire.  Route aliases follow the obfuscated-route-code idiom: clients
may address endpoints by numeric codes (``/v1/1.1``) that the alias
middleware rewrites to handler names, keeping endpoint names out of
intermediary logs.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import re
import threading
import uuid
from collections.abc import Awaitable, Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.core.query import ObfuscatedPathQuery
from repro.exceptions import EdgeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import FORBIDDEN_ATTR_KEYS
from repro.service.serving import ServingConfig, ServingStack
from repro.service.wire import (
    WIRE_SCHEMA_VERSION,
    BatchRequest,
    ErrorResponse,
    RouteRequest,
    WireError,
    batch_body,
    canonical_json,
    route_body,
)

__all__ = [
    "API_PREFIX",
    "ROUTE_ALIASES",
    "ACCESS_LOGGER",
    "RETRY_AFTER_S",
    "GatewayConfig",
    "Gateway",
    "GatewayServer",
    "redacted_fields",
]

#: version prefix every endpoint lives under
API_PREFIX = "/v1"

#: obfuscated numeric route codes -> endpoint names (the
#: RouteObfuscationMiddleware idiom: clients can address endpoints by
#: opaque codes so intermediary logs never see endpoint names)
ROUTE_ALIASES = {
    "1.1": "route",
    "1.2": "batch",
    "1.3": "health",
    "1.4": "metrics",
    "1.5": "reweight",
}

#: logger name of the gateway's JSON access log
ACCESS_LOGGER = "repro.gateway.access"

#: the ``Retry-After`` hint (seconds) sent with 429 responses
RETRY_AFTER_S = 0.05

#: HTTP status for each wire error code
_STATUS_FOR_CODE = {
    "invalid_json": 400,
    "invalid_request": 400,
    "unknown_route": 404,
    "bad_method": 405,
    "no_path": 422,
    "overloaded": 429,
    "internal": 500,
}

#: request bodies larger than this are refused outright
_MAX_BODY_BYTES = 1 << 20

_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9_-]{1,64}$")


def redacted_fields(**fields: object) -> dict:
    """Validate access-log fields against the redaction invariant.

    The write-time enforcement point for the HTTP boundary, mirroring
    :meth:`repro.obs.trace.Span.set`: any field key in
    :data:`~repro.obs.trace.FORBIDDEN_ATTR_KEYS` (sources,
    destinations, paths, ...) is refused with :class:`ValueError`, so a
    log statement that would carry endpoint payloads fails loudly in
    tests instead of leaking quietly in production.
    """
    for key in fields:
        if key in FORBIDDEN_ATTR_KEYS:
            raise ValueError(
                f"access-log field {key!r} would carry endpoint payloads; "
                "log sizes, counts or cell ids instead"
            )
    return fields


@dataclass(frozen=True, slots=True)
class GatewayConfig:
    """Frozen knobs of the HTTP gateway.

    Attributes
    ----------
    host, port:
        Bind address; port 0 picks a free port (read it back from
        :attr:`Gateway.port` after start).
    max_inflight:
        Admission-control ceiling: requests admitted concurrently
        beyond this are refused with 429 + ``Retry-After``
        (:data:`RETRY_AFTER_S`).
    window_ms:
        Micro-batch admission window: the first queued query
        waits up to this long for window-mates before its batch is
        dispatched.  0 still batches opportunistically (whatever is
        queued at dispatch time goes in one batch).
    max_batch:
        Queries per dispatched micro-batch (>= 1).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 64
    window_ms: float = 0.0
    max_batch: int = 8

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.window_ms < 0:
            raise ValueError("window_ms must be >= 0")


@dataclass(slots=True)
class _HTTPRequest:
    """One parsed HTTP request (internal to the gateway)."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes
    request_id: str = ""
    route: str = ""


@dataclass(slots=True)
class _HTTPResponse:
    """One HTTP response about to be written (internal to the gateway)."""

    status: int
    body: bytes
    headers: dict[str, str] = field(default_factory=dict)


def _json_response(doc: dict) -> _HTTPResponse:
    return _HTTPResponse(200, canonical_json(doc).encode("ascii"))


def _error_response(
    code: str, retry_after_s: float | None = None
) -> _HTTPResponse:
    wire = ErrorResponse(code, retry_after_s=retry_after_s)
    response = _HTTPResponse(
        _STATUS_FOR_CODE[code], wire.to_json().encode("ascii")
    )
    if retry_after_s is not None:
        # RFC 9110 §10.2.3: Retry-After is integer delta-seconds; the
        # precise float hint stays in the JSON body (retry_after_s) for
        # clients that understand it.
        response.headers["Retry-After"] = str(
            max(1, math.ceil(retry_after_s))
        )
    return response


def _evaluate_pairs(
    stack: ServingStack, pairs: list[tuple]
) -> list[bytes | str]:
    """Answer decoded endpoint pairs; one encoded result per pair.

    The gateway's one evaluation routine for result-cache misses.  The
    pairs are one :meth:`~repro.service.serving.ServingStack.answer_each`
    batch, so a failing query cannot poison its batch-mates: each pair
    independently yields its ``/v1/route`` body (``bytes``) or an error
    code (``str``); anything unexpected propagates to the caller's
    boundary, which answers the whole batch ``internal``.  A table's
    fragment is encoded the first time it is sent and kept in its
    result-cache entry, so a later hit writes the same bytes as they
    are.
    """
    from repro.exceptions import NoPathError, ReproError

    out: list[bytes | str | None] = [None] * len(pairs)
    queries: dict[int, ObfuscatedPathQuery] = {}
    for i, (s, t) in enumerate(pairs):
        try:
            queries[i] = ObfuscatedPathQuery(tuple(s), tuple(t))
        except ReproError:
            out[i] = "invalid_request"
    outcomes = stack.answer_each(list(queries.values()))
    # the epoch as of now: if it moved since the answers, their entries
    # are unreachable anyway and the fragments are not kept
    fingerprint = stack._epoch_view()[1]
    for i, outcome in zip(queries, outcomes):
        if isinstance(outcome, NoPathError):
            out[i] = "no_path"
        elif isinstance(outcome, ReproError):
            out[i] = "invalid_request"
        else:
            query = outcome.query
            fragment = stack.results.fragment(
                fingerprint, query.sources, query.destinations,
                stack.engine_name, outcome.candidates,
            )
            out[i] = route_body(
                fragment, outcome.from_cache, outcome.coalesced
            )
    return out


class Gateway:
    """The asyncio HTTP gateway (see the module docstring for the path).

    Parameters
    ----------
    network:
        Road network to serve.  :meth:`start` builds the stack over it
        and lets go of it: from then on :attr:`network` is the stack's
        current epoch.
    serving:
        :class:`~repro.service.serving.ServingConfig` of the stack.
    config:
        :class:`GatewayConfig` (bind address, admission, micro-batch).
    metrics:
        Optional shared registry for the gateway's own instruments.
    """

    def __init__(
        self,
        network,
        serving: ServingConfig | None = None,
        config: GatewayConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config if config is not None else GatewayConfig()
        self.serving = serving if serving is not None else ServingConfig()
        self._network = network  # the map start() builds the stack over
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_gateway_requests_total",
            desc="HTTP requests admitted by the gateway",
        )
        self._m_rejected = self.metrics.counter(
            "repro_gateway_rejected_total",
            desc="HTTP requests refused by admission control (429)",
        )
        self._m_errors = self.metrics.counter(
            "repro_gateway_errors_total",
            desc="HTTP responses with an error body",
        )
        self._m_request_seconds = self.metrics.histogram(
            "repro_gateway_request_seconds",
            desc="request wall latency through the middleware chain",
        )
        self._log = logging.getLogger(ACCESS_LOGGER)
        self.stack: ServingStack | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queue: asyncio.Queue | None = None
        self._flusher: asyncio.Task | None = None
        self._lane: ThreadPoolExecutor | None = None
        self._inflight = 0
        self._handlers = {
            ("POST", "route"): self._handle_route,
            ("POST", "batch"): self._handle_batch,
            ("GET", "health"): self._handle_health,
            ("GET", "metrics"): self._handle_metrics,
            ("POST", "reweight"): self._handle_reweight,
        }
        self._routes = frozenset(route for _, route in self._handlers)
        self._handler = self._build_chain(self._route_request)

    # -- lifecycle -----------------------------------------------------

    @property
    def network(self):
        """The served road network: the stack's current epoch once the
        gateway has started (every reweight replaces it), the
        constructor's map before."""
        if self.stack is not None:
            return self.stack.network
        return self._network

    async def start(self) -> tuple[str, int]:
        """Warm the stack, start the batch lane, bind the port."""
        network, self._network = self._network, None
        self.stack = ServingStack.from_config(
            network, self.serving, metrics=self.metrics
        )
        self.stack.warm()
        self._queue = asyncio.Queue()
        # every batch runs on this one thread: a thread that ran a
        # search keeps its kernel scratch and allocator arena
        self._lane = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-lane"
        )
        self._flusher = asyncio.create_task(self._flush())
        self._server = await asyncio.start_server(
            self._serve_connection, self.config.host, self.config.port
        )
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        return self.address[1]

    async def stop(self) -> None:
        """Stop accepting, stop the flusher and its lane, close the stack."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._flusher is not None:
            self._flusher.cancel()
            await asyncio.gather(self._flusher, return_exceptions=True)
            self._flusher = None
        self._queue = None
        if self._lane is not None:
            # a batch still running finishes on its thread, which then exits
            self._lane.shutdown(wait=False)
            self._lane = None
        if self.stack is not None:
            self.stack.close()
            self.stack = None

    # -- middleware chain ----------------------------------------------

    def _build_chain(
        self,
        handler: Callable[[_HTTPRequest], Awaitable[_HTTPResponse]],
    ) -> Callable[[_HTTPRequest], Awaitable[_HTTPResponse]]:
        """Compose the middleware chain, outermost first."""
        handler = self._admission_middleware(handler)
        handler = self._access_log_middleware(handler)
        handler = self._route_alias_middleware(handler)
        handler = self._request_id_middleware(handler)
        return handler

    def _request_id_middleware(self, handler):
        """Assign (or validate and echo) ``X-Request-Id``."""
        async def wrapped(request: _HTTPRequest) -> _HTTPResponse:
            supplied = request.headers.get("x-request-id", "")
            if not _REQUEST_ID_RE.match(supplied):
                supplied = uuid.uuid4().hex[:16]
            request.request_id = supplied
            response = await handler(request)
            response.headers["X-Request-Id"] = supplied
            return response

        return wrapped

    def _route_alias_middleware(self, handler):
        """Rewrite obfuscated numeric route codes to endpoint names.

        The RouteObfuscationMiddleware idiom: ``/v1/1.1`` becomes
        ``/v1/route`` before routing, so clients can keep endpoint
        names out of intermediary access logs entirely.
        """
        async def wrapped(request: _HTTPRequest) -> _HTTPResponse:
            path = request.path.split("?", 1)[0].rstrip("/")
            if path.startswith(API_PREFIX + "/"):
                tail = path[len(API_PREFIX) + 1:]
                request.route = ROUTE_ALIASES.get(tail, tail)
            else:
                request.route = ""
            return await handler(request)

        return wrapped

    def _access_log_middleware(self, handler):
        """One redaction-validated JSON access-log line per request."""
        async def wrapped(request: _HTTPRequest) -> _HTTPResponse:
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            response = await handler(request)
            elapsed = loop.time() - t0
            self._m_request_seconds.observe(elapsed)
            if response.status >= 400:
                self._m_errors.inc()
            if self._log.isEnabledFor(logging.INFO):
                # redacted_fields refuses endpoint-bearing keys at write
                # time — the HTTP edge of the obs redaction invariant.
                self._log.info(canonical_json(redacted_fields(
                    request_id=request.request_id,
                    method=request.method,
                    route=request.route,
                    status=response.status,
                    duration_ms=round(elapsed * 1000.0, 3),
                )))
            return response

        return wrapped

    def _admission_middleware(self, handler):
        """Refuse work beyond ``max_inflight`` with 429 + Retry-After."""
        async def wrapped(request: _HTTPRequest) -> _HTTPResponse:
            if self._inflight >= self.config.max_inflight:
                self._m_rejected.inc()
                return _error_response(
                    "overloaded", retry_after_s=RETRY_AFTER_S
                )
            self._inflight += 1
            self._m_requests.inc()
            try:
                return await handler(request)
            finally:
                self._inflight -= 1

        return wrapped

    # -- routing and handlers ------------------------------------------

    async def _route_request(self, request: _HTTPRequest) -> _HTTPResponse:
        """Dispatch a middleware-processed request to its handler."""
        if request.route not in self._routes:
            return _error_response("unknown_route")
        handler = self._handlers.get((request.method, request.route))
        if handler is None:
            return _error_response("bad_method")
        try:
            return await handler(request)
        except WireError as exc:
            return _error_response(exc.code)
        except Exception:
            return _error_response("internal")

    async def _handle_route(self, request: _HTTPRequest) -> _HTTPResponse:
        # to_query validates before anything is queued
        result = await self._submit(
            RouteRequest.from_json(request.body).to_query()
        )
        if isinstance(result, str):
            return _error_response(result)
        return _HTTPResponse(200, result)

    async def _handle_batch(self, request: _HTTPRequest) -> _HTTPResponse:
        # to_queries validates the whole batch before anything is queued
        queries = BatchRequest.from_json(request.body).to_queries()
        results = await asyncio.gather(*map(self._submit, queries))
        return _HTTPResponse(200, batch_body(results))

    async def _handle_health(self, request: _HTTPRequest) -> _HTTPResponse:
        body = {
            "schema": WIRE_SCHEMA_VERSION,
            "status": "ok",
            "engine": self.serving.engine,
            "epoch": self.stack.epoch,
        }
        return _json_response(body)

    async def _handle_metrics(self, request: _HTTPRequest) -> _HTTPResponse:
        body = {
            "schema": 1,
            "kind": "gateway_metrics",
            "gateway": json.loads(self.metrics.to_json()),
            "serving": {
                "epoch": self.stack.epoch,
                "cache": self.stack.snapshot().to_dict(),
            },
            "config": self.serving.to_dict(),
            # always empty; kept because the request ledger reads it
            "shards": [],
        }
        return _json_response(body)

    async def _handle_reweight(self, request: _HTTPRequest) -> _HTTPResponse:
        """Install one reweight epoch in the stack.

        A body that is not JSON answers ``invalid_json`` and a change
        the stack refuses (a missing edge, a bad weight) answers
        ``invalid_request``.  Concurrent reweights are serialized by
        the stack's own writer lock.
        """
        try:
            doc = json.loads(request.body) if request.body else None
        except ValueError:
            return _error_response("invalid_json")
        if not isinstance(doc, dict) or not isinstance(
            doc.get("changes"), list
        ):
            return _error_response("invalid_request")
        try:
            changes = [
                (int(u), int(v), float(w)) for u, v, w in doc["changes"]
            ]
        except (TypeError, ValueError):
            return _error_response("invalid_request")
        loop = asyncio.get_running_loop()
        try:
            outcome = await loop.run_in_executor(
                None, self.stack.reweight, changes
            )
        except EdgeError:
            return _error_response("invalid_request")
        body = {
            "schema": WIRE_SCHEMA_VERSION,
            "edges": outcome.edges,
            "epoch": outcome.epoch,
        }
        return _json_response(body)

    # -- micro-batch dispatch ------------------------------------------

    async def _submit(self, query: ObfuscatedPathQuery) -> bytes | str:
        """Answer one query: its ``/v1/route`` body, or an error code.

        The result cache is asked first, here on the loop; a miss is
        queued for the next micro-batch.
        """
        cached = self.stack.answer_cached(query)
        if cached is not None:
            response, fragment = cached
            return route_body(
                fragment, response.from_cache, response.coalesced
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put((future, (query.sources, query.destinations)))
        return await future

    async def _flush(self) -> None:
        """Micro-batch loop: gather a window, answer it on the lane."""
        loop = asyncio.get_running_loop()
        queue = self._queue
        window = self.config.window_ms / 1000.0
        while True:
            first = await queue.get()
            batch = [first]
            deadline = loop.time() + window
            while len(batch) < self.config.max_batch:
                remaining = deadline - loop.time()
                if queue.empty() and remaining <= 0:
                    break
                try:
                    if remaining > 0:
                        item = await asyncio.wait_for(
                            queue.get(), timeout=remaining
                        )
                    else:
                        item = queue.get_nowait()
                except (asyncio.TimeoutError, asyncio.QueueEmpty):
                    break
                batch.append(item)
            pairs = [pair for _, pair in batch]
            try:
                results = await loop.run_in_executor(
                    self._lane, _evaluate_pairs, self.stack, pairs
                )
            except Exception:
                results = ["internal"] * len(batch)
            for (future, _), result in zip(batch, results):
                if not future.done():
                    future.set_result(result)

    # -- HTTP plumbing -------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        """Serve HTTP/1.1 requests on one connection (keep-alive)."""
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                if isinstance(request, _HTTPResponse):
                    # unframeable: the rest of the stream is unreadable
                    await self._write_response(writer, request, False)
                    break
                response = await self._handler(request)
                keep_alive = (
                    request.headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionResetError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader
    ) -> _HTTPRequest | _HTTPResponse | None:
        """Parse one HTTP/1.1 request; ``None`` on clean EOF.

        A request line that is not ``METHOD PATH VERSION``, any
        ``Transfer-Encoding`` (chunked bodies are not read) and a
        ``Content-Length`` that is not a decimal count up to
        ``_MAX_BODY_BYTES`` each yield the 400 ``invalid_request``
        response to send before closing, since the request cannot be
        framed.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _ = lines[0].split(" ", 2)
        except ValueError:
            return _error_response("invalid_request")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        raw = headers.get("content-length", "0") or "0"
        if (
            "transfer-encoding" in headers
            or not (raw.isascii() and raw.isdigit())
            or int(raw) > _MAX_BODY_BYTES
        ):
            return _error_response("invalid_request")
        length = int(raw)
        body = await reader.readexactly(length) if length else b""
        return _HTTPRequest(
            method=method.upper(), path=path, headers=headers, body=body
        )

    async def _write_response(
        self, writer, response: _HTTPResponse, keep_alive: bool
    ) -> None:
        """Serialize one response (the body is already canonical JSON)."""
        payload = response.body
        headers = {
            "Content-Type": "application/json",
            "Content-Length": str(len(payload)),
            "Connection": "keep-alive" if keep_alive else "close",
            **response.headers,
        }
        head = f"HTTP/1.1 {response.status} {_REASONS.get(response.status, 'OK')}\r\n"
        head += "".join(f"{k}: {v}\r\n" for k, v in headers.items())
        writer.write(head.encode("latin-1") + b"\r\n" + payload)
        await writer.drain()


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class GatewayServer:
    """Thread-hosted gateway facade for tests, benchmarks and the CLI.

    Runs a :class:`Gateway` on a private event loop in a daemon thread;
    :meth:`start` blocks until the port is bound, :meth:`close` tears
    everything down.  Usable as a context manager::

        with GatewayServer(network, serving, config) as server:
            requests.post(f"http://{server.host}:{server.port}/v1/route", ...)
    """

    def __init__(
        self,
        network,
        serving: ServingConfig | None = None,
        config: GatewayConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.gateway = Gateway(
            network, serving=serving, config=config, metrics=metrics
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.host = ""
        self.port = 0

    def start(self) -> "GatewayServer":
        """Start the loop thread; block until the port is bound."""
        ready = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                self.host, self.port = loop.run_until_complete(
                    self.gateway.start()
                )
            except BaseException as exc:  # surface startup errors
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.gateway.stop())
                loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        ready.wait()
        if failure:
            raise failure[0]
        return self

    def close(self) -> None:
        """Stop the gateway and join the loop thread (idempotent)."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "GatewayServer":
        """Start on entering a ``with`` block."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Tear down on leaving a ``with`` block."""
        self.close()


def run_gateway(
    network,
    serving: ServingConfig | None = None,
    config: GatewayConfig | None = None,
) -> None:
    """Blocking entry point for ``repro serve``: serve until interrupted."""
    async def main() -> None:
        gateway = Gateway(network, serving=serving, config=config)
        host, port = await gateway.start()
        print(f"gateway listening on http://{host}:{port}{API_PREFIX}/")
        print(f"engine={gateway.serving.engine}")
        try:
            await asyncio.Event().wait()
        except asyncio.CancelledError:
            pass
        finally:
            await gateway.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("gateway stopped")
