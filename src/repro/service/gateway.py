"""Asyncio HTTP gateway with shard-aware multi-process dispatch.

The network front door of the serving layer: a zero-dependency
HTTP/1.1 server (stdlib :mod:`asyncio` only — no web framework in the
image, none required) that admits requests through the versioned wire
schema (:mod:`repro.service.wire`) and answers them from
:class:`~repro.service.serving.ServingStack` instances running in
*separate processes*, so the GIL stops being the throughput ceiling.

Request path::

    client ──HTTP──▶ middleware chain ──▶ router ──▶ result cache? ──hit──▶ bytes
                      │ request-id                     │ miss        (on the loop,
                      │ route aliases                  ▼           in-process mode)
                      │ redacted access log      shard queues
                      │ admission control          │ micro-batch window
                      ▼ (429 + Retry-After)        ▼
                                            one lane thread per shard
                                             │ in-process: the stack
                                             ▼ workers: ShardWorkerPool
                                            (N processes, each a warmed
                                             ServingStack; bodies come
                                             back through the pipe as
                                             encoded bytes)

A repeated ``Q(S, T)`` is the common request (sticky decoys make a
commuter's repeat the identical query), so the in-process gateway asks
the result cache first, on the event loop
(:meth:`~repro.service.serving.ServingStack.answer_cached`): a hit is
answered with the bytes encoded when its table was first sent — no
queue, no thread hop, no encoder.  Searches never run on the loop.
Every body is :func:`~repro.service.wire.route_body` around the table's
one :func:`~repro.service.wire.encode_paths` fragment.

Sharding: each query is routed by a stable hash of its first source
modulo the worker count.  Per-shard asyncio queues apply a micro-batch
admission window, so one pipe round-trip carries several queries and
the worker answers them as one batch — whose distinct misses the stack
evaluates in one union pass.

Worker handoff: the parent warms its stack once, force-spills the
preprocessing artifact (:meth:`~repro.service.cache.PreprocessingCache.spill_now`)
and starts ``spawn`` workers pointed at the same spill directory — each
worker's ``warm()`` is an mmap-backed blob load
(:mod:`repro.service.blob`), not a rebuild, so cold workers come up in
milliseconds and report their measured ``warm_ms``.

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
import itertools
import json
import logging
import math
import multiprocessing
import re
import tempfile
import threading
import time
import uuid
from collections.abc import Awaitable, Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

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
    "ShardWorkerPool",
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
    workers:
        Shard worker processes.  0 serves in-process (no extra
        processes) — the mode single-core hosts and tests use; N >= 1
        starts N ``spawn`` processes, each holding a warmed
        :class:`~repro.service.serving.ServingStack`.
    max_inflight:
        Admission-control ceiling: requests admitted concurrently
        beyond this are refused with 429 + ``Retry-After``
        (:data:`RETRY_AFTER_S`).
    window_ms:
        Micro-batch admission window per shard: the first queued query
        waits up to this long for window-mates before its batch is
        dispatched.  0 still batches opportunistically (whatever is
        queued at dispatch time goes in one batch).
    max_batch:
        Queries per dispatched micro-batch (>= 1).
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 0
    max_inflight: int = 64
    window_ms: float = 0.0
    max_batch: int = 8

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
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

    The single evaluation routine used by both the in-process mode and
    every shard worker, so all modes encode answers identically (the
    byte-identity property the gateway gate checks).  The pairs are one
    :meth:`~repro.service.serving.ServingStack.answer_each` batch, so a
    failing query cannot poison its batch-mates: each pair
    independently yields its ``/v1/route`` body (``bytes``) or an error
    code (``str``); anything unexpected propagates to the caller's
    boundary, which answers the whole batch ``internal``.  A table's
    fragment is encoded the first time it is sent and kept in its
    result-cache entry, so a worker ships finished bytes through the
    pipe and the gateway writes them as they are.
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


def _shard_report(stack: ServingStack) -> dict:
    """A stack's epoch and cache counts for ``/v1/metrics``."""
    return {"epoch": stack.epoch, "cache": stack.snapshot().to_dict()}


def _worker_main(conn, network, config: ServingConfig) -> None:
    """Entry point of one shard worker process.

    Builds a stack from the pickled ``(network, config)`` pair, warms
    it (an mmap blob load when the parent pre-spilled the artifact into
    the shared spill dir — see :mod:`repro.service.blob`) and serves
    pipe requests until ``stop``.  Every ``metrics`` reply carries the
    stack's registry (``metrics``, so the shards' ``repro_server_*``
    counters reach ``/v1/metrics``) and the measured warm-up wall time
    (``warm_ms``, so cold workers can be seen to start in
    milliseconds).  A request frame is ``(seq, message)`` and its reply
    ``(seq, status, payload)``: the worker echoes the caller's sequence
    number so :class:`ShardWorkerPool` can tell its reply from a late
    one.
    """
    stack = ServingStack.from_config(network, config)
    try:
        t0 = time.perf_counter()
        stack.warm()
        warm_ms = (time.perf_counter() - t0) * 1000.0
        while True:
            seq, message = conn.recv()
            op = message[0]
            if op == "stop":
                conn.send((seq, "ok", None))
                break
            try:
                if op == "ping":
                    payload = "pong"
                elif op == "batch":
                    payload = _evaluate_pairs(stack, message[1])
                elif op == "reweight":
                    outcome = stack.reweight(
                        [tuple(c) for c in message[1]]
                    )
                    payload = {
                        "edges": outcome.edges,
                        "epoch": outcome.epoch,
                    }
                elif op == "metrics":
                    payload = _shard_report(stack)
                    payload["warm_ms"] = round(warm_ms, 3)
                    payload["metrics"] = stack.metrics.collect()
                else:
                    raise ValueError(f"unknown op {op!r}")
                conn.send((seq, "ok", payload))
            except Exception:
                conn.send((seq, "err", "internal"))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - teardown
        pass
    finally:
        stack.close()
        conn.close()


def _round_trip(conn, seq: int, message: tuple, timeout: float):
    """Send ``message`` tagged ``seq``; its worker's ``(status, payload)``.

    A reply tagged with another sequence number answers an earlier call
    that gave up on its deadline: it is read and dropped, within this
    call's own deadline.  Raises :class:`RuntimeError` when no matching
    reply arrives in ``timeout`` seconds.
    """
    deadline = time.monotonic() + timeout
    conn.send((seq, message))
    while conn.poll(max(0.0, deadline - time.monotonic())):
        reply_seq, status, payload = conn.recv()
        if reply_seq == seq:
            return status, payload
    raise RuntimeError("worker timed out")


class ShardWorkerPool:
    """N shard worker processes, each a warmed serving stack.

    The parent warms its own stack first and force-spills the
    preprocessing artifact so workers (``spawn`` context — no inherited
    locks or threads) reload it from the shared spill directory instead
    of rebuilding.  Calls are pipe round-trips serialized per worker by
    a lock; the gateway runs them on executor threads so the event loop
    never blocks on a pipe.  Every frame carries a per-connection
    sequence number that the worker echoes, so the late reply of a call
    that timed out is dropped instead of answering the next caller.
    """

    def __init__(self, network, config: ServingConfig, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers: list[tuple] = []
        ctx = multiprocessing.get_context("spawn")
        for _ in range(workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, network, config),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(
                (process, parent_conn, threading.Lock(), itertools.count())
            )

    def __len__(self) -> int:
        """Number of shard workers."""
        return len(self._workers)

    def call(self, shard: int, message: tuple, timeout: float = 60.0):
        """One pipe round-trip to the worker owning ``shard`` (blocking).

        Returns the worker's payload, or raises :class:`RuntimeError`
        (mapped to an ``internal`` error upstream) when the worker is
        gone or over deadline.
        """
        _, conn, lock, seqs = self._workers[shard % len(self._workers)]
        with lock:
            try:
                status, payload = _round_trip(
                    conn, next(seqs), message, timeout
                )
            except (EOFError, OSError) as exc:
                raise RuntimeError("worker unavailable") from exc
        if status != "ok":
            raise RuntimeError("worker error")
        return payload

    def broadcast(self, message: tuple) -> list:
        """Send ``message`` to every worker; collect the payloads."""
        return [
            self.call(shard, message) for shard in range(len(self._workers))
        ]

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every worker answers a ping (warmed and serving)."""
        for shard in range(len(self._workers)):
            self.call(shard, ("ping",), timeout=timeout)

    def close(self) -> None:
        """Stop every worker process (idempotent)."""
        for process, conn, lock, seqs in self._workers:
            with lock:
                try:
                    _round_trip(conn, next(seqs), ("stop",), 5.0)
                except (EOFError, OSError, RuntimeError):
                    pass
                finally:
                    conn.close()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5.0)
        self._workers = []


class Gateway:
    """The asyncio HTTP gateway (see the module docstring for the path).

    Parameters
    ----------
    network:
        Road network to serve.  :meth:`start` builds the stack over it
        and lets go of it: from then on :attr:`network` is the stack's
        current epoch.
    serving:
        :class:`~repro.service.serving.ServingConfig` for the parent
        stack and (shipped over ``spawn``) every shard worker.  When
        ``workers > 0`` and no spill dir is configured, a temporary one
        is created so the artifact handoff works out of the box.
    config:
        :class:`GatewayConfig` (bind address, workers, admission).
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
        serving = serving if serving is not None else ServingConfig()
        if self.config.workers > 0 and serving.spill_dir is None:
            self._tmp_spill = tempfile.TemporaryDirectory(
                prefix="repro-gateway-"
            )
            serving = replace(serving, spill_dir=self._tmp_spill.name)
        else:
            self._tmp_spill = None
        self.serving = serving
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
        self.pool: ShardWorkerPool | None = None
        self._server: asyncio.AbstractServer | None = None
        self._queues: dict[int, asyncio.Queue] = {}
        self._flushers: list[asyncio.Task] = []
        self._lanes: list[ThreadPoolExecutor] = []
        self._inflight = 0
        self._reweight_lock = asyncio.Lock()
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
        """Warm the serving side, start workers, bind the port."""
        network, self._network = self._network, None
        self.stack = ServingStack.from_config(
            network, self.serving, metrics=self.metrics
        )
        self.stack.warm()
        if self.config.workers > 0:
            fingerprint = self.stack._fingerprint()
            self.stack.preprocessing.spill_now(
                fingerprint, self.serving.engine
            )
            loop = asyncio.get_running_loop()
            self.pool = await loop.run_in_executor(
                None,
                lambda: ShardWorkerPool(
                    network, self.serving, self.config.workers
                ),
            )
            await loop.run_in_executor(None, self.pool.wait_ready)
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
        """Stop accepting, drain flushers, stop workers, close the stack."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._flushers:
            task.cancel()
        if self._flushers:
            await asyncio.gather(*self._flushers, return_exceptions=True)
        self._flushers = []
        self._queues = {}
        for lane in self._lanes:
            # a batch still running finishes on its thread, which then exits
            lane.shutdown(wait=False)
        self._lanes = []
        if self.pool is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.pool.close)
            self.pool = None
        if self.stack is not None:
            self.stack.close()
            self.stack = None
        if self._tmp_spill is not None:
            self._tmp_spill.cleanup()
            self._tmp_spill = None

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
            "workers": len(self.pool) if self.pool is not None else 0,
            "epoch": self.stack.epoch,
        }
        return _json_response(body)

    async def _handle_metrics(self, request: _HTTPRequest) -> _HTTPResponse:
        loop = asyncio.get_running_loop()
        shards = []
        if self.pool is not None:
            shards = await loop.run_in_executor(
                None, self.pool.broadcast, ("metrics",)
            )
        body = {
            "schema": 1,
            "kind": "gateway_metrics",
            "gateway": json.loads(self.metrics.to_json()),
            "serving": _shard_report(self.stack),
            "config": self.serving.to_dict(),
            "shards": shards,
        }
        return _json_response(body)

    async def _handle_reweight(self, request: _HTTPRequest) -> _HTTPResponse:
        """Install a reweight epoch here, then in every shard.

        A body that is not JSON answers ``invalid_json`` and a change
        the stack refuses (a missing edge, a bad weight) answers
        ``invalid_request``; a failing broadcast is the server's fault
        and reaches :meth:`_route_request` as ``internal``.
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
        # One reweight at a time from the install through the broadcast,
        # so every process applies the epochs in the same order.
        async with self._reweight_lock:
            try:
                outcome = await loop.run_in_executor(
                    None,
                    lambda: self.stack.reweight(changes),
                )
            except EdgeError:
                return _error_response("invalid_request")
            if self.pool is not None:
                await loop.run_in_executor(
                    None, self.pool.broadcast, ("reweight", changes)
                )
        body = {
            "schema": WIRE_SCHEMA_VERSION,
            "edges": outcome.edges,
            "epoch": outcome.epoch,
        }
        return _json_response(body)

    # -- shard dispatch ------------------------------------------------

    def _shard_of(self, query: ObfuscatedPathQuery) -> int:
        """Shard index for a query: a stable hash of its first source."""
        if self.pool is None:
            return 0
        return hash(query.sources[0]) % len(self.pool)

    async def _submit(self, query: ObfuscatedPathQuery) -> bytes | str:
        """Answer one query: its ``/v1/route`` body, or an error code.

        In-process mode asks the result cache first, here on the loop;
        with workers the tables live in the shards, so every query
        crosses the pipe.  Anything but a hit is queued on its shard.
        """
        if self.pool is None:
            cached = self.stack.answer_cached(query)
            if cached is not None:
                response, fragment = cached
                return route_body(
                    fragment, response.from_cache, response.coalesced
                )
        shard = self._shard_of(query)
        queue = self._queues.get(shard)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[shard] = queue
            lane = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix=f"repro-shard-{shard}"
            )
            self._lanes.append(lane)
            self._flushers.append(
                asyncio.create_task(self._flush_shard(shard, queue, lane))
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await queue.put((future, (query.sources, query.destinations)))
        return await future

    async def _flush_shard(
        self, shard: int, queue: asyncio.Queue, lane: ThreadPoolExecutor
    ) -> None:
        """Micro-batch admission loop for one shard's queue.

        A shard's batches never overlap, so all run on ``lane``, its own
        one-thread executor: the default executor hands them to whichever
        thread is idle, and every thread that ever ran a search keeps its
        own kernel scratch and allocator arena.
        """
        loop = asyncio.get_running_loop()
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
                if self.pool is not None:
                    results = await loop.run_in_executor(
                        lane, self.pool.call, shard, ("batch", pairs)
                    )
                else:
                    results = await loop.run_in_executor(
                        lane, _evaluate_pairs, self.stack, pairs
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
        workers = config.workers if config is not None else 0
        print(f"engine={gateway.serving.engine} workers={workers}")
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
