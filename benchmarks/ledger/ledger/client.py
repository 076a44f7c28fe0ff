"""The trusted proxy: obfuscate, POST, decode, filter — in a closed loop.

One asyncio process holds the keep-alive connections.  Each connection
sends its next request only after the previous reply has been filtered,
because that is what an obfuscating proxy does: it cannot hand a user
their path before the server has answered.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from repro.core.filter import CandidateResultPathFilter
from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import ClientRequest, ObfuscatedPathQuery
from repro.core.server import ServerResponse
from repro.exceptions import ReproError
from repro.search.multi import MSMDResult
from repro.search.result import PathResult
from repro.service.wire import RouteRequest, RouteResponse

from ledger.spans import ROOT, Recorder
from ledger.workloads import Stream

#: untimed requests sent on each connection before measuring, so
#: connection set-up and the server's lazy imports are not in the numbers
WARMUP_PER_CONNECTION = 8
#: a traced run alternates traced and untraced blocks of this many
#: requests, so both see the same server state
TRACE_BLOCK = 8


class Connection:
    """One keep-alive HTTP/1.1 connection (stdlib asyncio streams)."""

    def __init__(self, host: str, port: int) -> None:
        self._host, self._port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )

    async def call(self, method: str, path: str, body: bytes = b""):
        """One round trip; returns ``(status, body bytes)``."""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            await self._writer.wait_closed()
            self._writer = None


@dataclass(slots=True)
class Outcome:
    """Everything the checks need about one protected request."""

    index: int
    request: ClientRequest
    query: ObfuscatedPathQuery
    sent: bytes
    status: int
    body: bytes
    path: PathResult | None
    latency: float
    done_at: float
    #: why the request failed inside the timed region, if it did
    error: str = ""
    traced: bool = False
    #: id of the HTTP span (traced requests), for attaching the replay
    http_span: int | None = None
    #: reweights the server may have applied when it answered:
    #: completed before the send .. started before the reply
    epochs: tuple[int, int] = (0, 0)


@dataclass(slots=True)
class Reweight:
    """One POST /v1/reweight, issued before request ``before_index``."""

    before_index: int
    change: tuple[int, int, float]
    status: int
    latency: float
    body: bytes


@dataclass
class DriveResult:
    outcomes: list[Outcome] = field(default_factory=list)
    reweights: list[Reweight] = field(default_factory=list)
    started_at: float = 0.0


def to_server_response(
    query: ObfuscatedPathQuery, wire: RouteResponse
) -> ServerResponse:
    """The candidate table the filter expects, rebuilt from the wire."""
    paths = {
        (s, t): PathResult(s, t, nodes, cost) for s, t, nodes, cost in wire.paths
    }
    return ServerResponse(query, MSMDResult(paths=paths))


class Proxy:
    """Obfuscator + filter around the connections to one server."""

    def __init__(self, network, stream: Stream, seed: int,
                 recorder: Recorder | None = None) -> None:
        self._stream = stream
        self._obfuscator = PathQueryObfuscator(network, seed=seed)
        self._filter = CandidateResultPathFilter(self._obfuscator)
        self._recorder = recorder
        self._reweights_started = 0
        self._reweights_done = 0
        self._reweight_lock = asyncio.Lock()

    async def request(self, conn: Connection, index: int,
                      request: ClientRequest, traced: bool) -> Outcome:
        """One protected request, timed from obfuscation to the user's path."""
        sticky = self._stream.sticky_key(request)
        clock = time.perf_counter
        status, body, path, error = 0, b"", None, ""
        t0 = clock()
        record = self._obfuscator.obfuscate_independent(request, sticky)
        t1 = clock()
        sent = RouteRequest.from_query(record.query).to_json().encode()
        t2 = clock()
        epoch_lo = self._reweights_done
        try:
            status, body = await conn.call("POST", "/v1/route", sent)
            t3 = t4 = t5 = clock()
            epoch_hi = self._reweights_started
            if status == 200:
                wire = RouteResponse.from_json(body)
                t4 = clock()
                response = to_server_response(record.query, wire)
                t5 = clock()
                path = self._filter.extract(record, response).paths_by_user[
                    request.user
                ]
            else:
                error = f"http {status}"
        except (ReproError, ValueError, KeyError) as exc:
            # a malformed table, a ProtocolError from the filter: the
            # user got no path.  Only the class name is kept — exception
            # text carries node ids.
            error = type(exc).__name__
            t3 = t4 = t5 = clock()
            epoch_hi = self._reweights_started
        t6 = clock()
        self._obfuscator.discard(record.record_id)
        t7 = clock()
        http_span = None
        if traced and not error:
            rec, rid = self._recorder, index
            # the root is clocked on its own, not summed from its parts:
            # whatever the six spans below do not cover is residual
            root = rec.add(ROOT, t0, t7, None, rid)
            rec.add("core.obfuscator.obfuscate", t0, t1, root, rid,
                    pairs=record.query.num_pairs)
            rec.add("service.wire.encode_request", t1, t2, root, rid,
                    bytes=len(sent))
            http_span = rec.add(
                "service.gateway.http", t2, t3, root, rid, status=status
            )
            rec.add("service.wire.decode_response", t3, t4, root, rid,
                    bytes=len(body))
            rec.add("ledger.adapt", t4, t5, root, rid)
            rec.add("core.filter.extract", t5, t6, root, rid)
        # the latency a traced request reports includes its recording,
        # so traced vs untraced p50 is the tracing overhead
        done = clock()
        return Outcome(
            index, request, record.query, sent, status, body, path,
            done - t0, done, error, traced, http_span, (epoch_lo, epoch_hi),
        )

    async def reweight(self, conn: Connection, before_index: int,
                       change: tuple[int, int, float]) -> Reweight:
        """One traffic update; updates never overlap each other."""
        async with self._reweight_lock:
            body = json.dumps({"changes": [list(change)]}).encode()
            self._reweights_started += 1
            t0 = time.perf_counter()
            status, payload = await conn.call("POST", "/v1/reweight", body)
            latency = time.perf_counter() - t0
            self._reweights_done += 1
        return Reweight(before_index, change, status, latency, payload)


async def drive(
    host: str, port: int, network, stream: Stream, seed: int,
    warmup: Stream, connections: int, seconds: float | None,
    count: int | None, recorder: Recorder | None = None, replayer=None,
) -> DriveResult:
    """Closed loop over ``connections`` until ``seconds`` or ``count``.

    A few untimed requests from the ``warmup`` stream go first.
    Requests are claimed in index order; a request in flight when the
    deadline passes completes and counts.  With a ``recorder`` the
    requests are traced in alternating blocks (see ``TRACE_BLOCK``), and
    the ``replayer`` (a ``layers.Replayer``) is handed each reply and
    each acknowledged reweight, outside the request's timed region.  A
    traced run of a read-only workload ends, after its last reply, with
    one reweight, so the ``reweight.*`` rows are measured on every
    server configuration and never defaulted.
    """
    proxy = Proxy(network, stream, seed, recorder)
    every = stream.workload.reweight_every
    result = DriveResult()
    next_index = 0
    deadline = float("inf")

    async def worker(conn: Connection) -> None:
        nonlocal next_index
        while time.perf_counter() < deadline and (
            count is None or next_index < count
        ):
            index = next_index
            next_index += 1
            if every and index and index % every == 0:
                change = stream.reweight(index // every - 1)
                reweight = await proxy.reweight(conn, index, change)
                result.reweights.append(reweight)
                if replayer is not None:
                    replayer.reweight(reweight)
            traced = recorder is not None and (index // TRACE_BLOCK) % 2 == 0
            outcome = await proxy.request(
                conn, index, stream.request(index), traced
            )
            result.outcomes.append(outcome)
            if replayer is not None:
                replayer.request(outcome)

    conns = [Connection(host, port) for _ in range(connections)]
    try:
        for conn in conns:
            await conn.open()
        warm_proxy = Proxy(network, warmup, seed + 1)
        for k in range(WARMUP_PER_CONNECTION * connections):
            await warm_proxy.request(
                conns[k % connections], k, warmup.request(k), False
            )
        result.started_at = time.perf_counter()
        if seconds is not None:
            deadline = result.started_at + seconds
        tasks = [asyncio.create_task(worker(conn)) for conn in conns]
        await asyncio.gather(*tasks)
        if replayer is not None and not every:
            reweight = await proxy.reweight(
                conns[0], next_index, stream.reweight(0)
            )
            result.reweights.append(reweight)
            replayer.reweight(reweight)
    finally:
        for conn in conns:
            await conn.close()
    result.outcomes.sort(key=lambda o: o.index)
    return result


async def fetch_metrics(host: str, port: int) -> dict:
    """``GET /v1/metrics`` (the server's own counters)."""
    conn = Connection(host, port)
    await conn.open()
    try:
        status, body = await conn.call("GET", "/v1/metrics")
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"/v1/metrics answered {status}")
    return json.loads(body)
