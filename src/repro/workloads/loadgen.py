"""Async HTTP load generator for the network gateway.

A zero-dependency client for :mod:`repro.service.gateway`: N concurrent
clients, each holding one keep-alive HTTP/1.1 connection, replay a
fixed stream of wire-schema route requests and record per-request
latency, status and (optionally) the raw response payloads — the
byte-identity evidence the gateway soak tests compare against
in-process answers.

The request stream is split round-robin across clients, so the gateway
sees genuinely concurrent traffic with a deterministic overall request
multiset regardless of client count.

Use programmatically (:func:`run_load`) from tests, or from the
command line via ``repro loadgen``.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.service.stats import percentile
from repro.service.wire import RouteRequest, valid_retry_after

__all__ = ["LoadReport", "parse_retry_after", "run_load", "run_load_async"]

# 429 backoff policy: how many times one request is retried before the
# final 429 is recorded as an error, and the longest single sleep the
# server hint is clamped to (keeps a misconfigured hint from stalling a
# bench run).
_MAX_RETRIES_429 = 2
_MAX_BACKOFF_S = 1.0


def parse_retry_after(header: str | None, payload: bytes) -> float | None:
    """Backoff hint (seconds) from a 429 response, or ``None``.

    The gateway sends the hint twice: a precise float ``retry_after_s``
    field in the JSON error body, and an RFC 9110 integer delta-seconds
    ``Retry-After`` header (which must round up, so it overstates).  The
    body's hint is read from any JSON object, stamped or not, and wins
    when it passes :func:`~repro.service.wire.valid_retry_after`; the
    header, held to the same rule, is the fallback for any RFC-compliant
    server.
    """
    try:
        hint = json.loads(payload.decode("utf-8")).get("retry_after_s")
    except (ValueError, AttributeError):
        hint = None
    if valid_retry_after(hint):
        return float(hint)
    if header is not None:
        try:
            value = float(header.strip())
        except ValueError:
            return None
        if valid_retry_after(value):
            return value
    return None


@dataclass(slots=True)
class LoadReport:
    """Outcome of one load-generation run.

    Attributes
    ----------
    requests:
        HTTP requests completed (any status).
    errors:
        Responses with a non-200 status.
    total_seconds:
        Wall-clock duration of the whole run.
    latencies:
        Per-request wall latency in seconds, completion order.
    status_counts:
        ``{status code: count}`` over every response.
    payloads:
        Raw response bodies (capture order), only when the run was
        started with ``capture_payloads=True``; empty otherwise.
    """

    requests: int = 0
    errors: int = 0
    total_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    status_counts: Counter = field(default_factory=Counter)
    payloads: list[bytes] = field(default_factory=list)

    @property
    def rps(self) -> float:
        """Completed requests per second (0 when the run was empty)."""
        if self.total_seconds <= 0:
            return 0.0
        return self.requests / self.total_seconds

    def latency_percentile(self, q: float) -> float:
        """The ``q``-quantile of per-request latency (0 when empty)."""
        return percentile(sorted(self.latencies), q)

    @property
    def p50_latency(self) -> float:
        """Median per-request latency in seconds."""
        return self.latency_percentile(0.50)

    @property
    def p99_latency(self) -> float:
        """99th-percentile per-request latency in seconds."""
        return self.latency_percentile(0.99)

    def to_dict(self) -> dict:
        """Stable-key report shape (see ``docs/API.md``)."""
        return {
            "schema": 1,
            "kind": "load_report",
            "requests": self.requests,
            "errors": self.errors,
            "total_seconds": self.total_seconds,
            "rps": self.rps,
            "p50_latency_s": self.p50_latency,
            "p99_latency_s": self.p99_latency,
            "status_counts": {
                str(status): count
                for status, count in sorted(self.status_counts.items())
            },
        }


async def _http_post(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    host: str,
    path: str,
    body: bytes,
) -> tuple[int, bytes, str | None]:
    """One keep-alive POST round-trip.

    Returns ``(status, body, retry_after)`` where ``retry_after`` is the
    raw ``Retry-After`` header value when the server sent one.
    """
    head = (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    header_block = await reader.readuntil(b"\r\n\r\n")
    lines = header_block.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    retry_after: str | None = None
    for line in lines[1:]:
        lowered = line.lower()
        if lowered.startswith("content-length:"):
            length = int(line.split(":", 1)[1].strip())
        elif lowered.startswith("retry-after:"):
            retry_after = line.split(":", 1)[1].strip()
    payload = await reader.readexactly(length) if length else b""
    return status, payload, retry_after


async def _client(
    host: str,
    port: int,
    path: str,
    bodies: list[bytes],
    report: LoadReport,
    capture_payloads: bool,
) -> None:
    """One load client: a single connection replaying its body slice.

    Honors 429 admission refusals: the request is retried up to
    ``_MAX_RETRIES_429`` times after sleeping for the server's
    ``Retry-After`` hint (float JSON body or integer header, via
    :func:`parse_retry_after`).  Every attempt is recorded in the
    report; only a 429 that exhausts its retries counts as an error.
    """
    if not bodies:
        return
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for body in bodies:
            attempts_left = _MAX_RETRIES_429
            while True:
                t0 = time.perf_counter()
                status, payload, retry_after = await _http_post(
                    reader, writer, host, path, body
                )
                elapsed = time.perf_counter() - t0
                report.latencies.append(elapsed)
                report.requests += 1
                report.status_counts[status] += 1
                if status == 429 and attempts_left > 0:
                    attempts_left -= 1
                    hint = parse_retry_after(retry_after, payload)
                    delay = 0.05 if hint is None else hint
                    await asyncio.sleep(min(delay, _MAX_BACKOFF_S))
                    continue
                if status != 200:
                    report.errors += 1
                if capture_payloads:
                    report.payloads.append(payload)
                break
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def run_load_async(
    host: str,
    port: int,
    requests: Sequence[RouteRequest],
    clients: int = 4,
    repeats: int = 1,
    path: str = "/v1/route",
    capture_payloads: bool = False,
) -> LoadReport:
    """Drive the gateway with ``clients`` concurrent connections.

    The request stream (``requests`` repeated ``repeats`` times) is
    split round-robin across clients.  With ``capture_payloads=True``
    every raw response body is kept on the report for byte-identity
    comparison (memory scales with the stream — leave off for pure
    throughput runs).
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    stream = [request.to_json().encode("utf-8") for request in requests]
    stream = stream * repeats
    slices: list[list[bytes]] = [stream[i::clients] for i in range(clients)]
    report = LoadReport()
    t0 = time.perf_counter()
    await asyncio.gather(*[
        _client(host, port, path, bodies, report, capture_payloads)
        for bodies in slices
    ])
    report.total_seconds = time.perf_counter() - t0
    return report


def run_load(
    host: str,
    port: int,
    requests: Sequence[RouteRequest],
    clients: int = 4,
    repeats: int = 1,
    path: str = "/v1/route",
    capture_payloads: bool = False,
) -> LoadReport:
    """Blocking wrapper around :func:`run_load_async`."""
    return asyncio.run(run_load_async(
        host, port, requests,
        clients=clients,
        repeats=repeats,
        path=path,
        capture_payloads=capture_payloads,
    ))
