"""Versioned JSON wire schema shared by gateway, load generator and CLI.

Every HTTP body the gateway accepts or emits is one of the typed
dataclasses below, serialized canonically (sorted keys, no whitespace)
so two encodings of the same answer are *byte-identical* — the property
the gateway's conformance gate checks against in-process
:meth:`~repro.service.serving.ServingStack.answer_batch` answers.

Schema rules:

* every document carries ``"schema": WIRE_SCHEMA_VERSION``;
* requests name endpoints (``sources``/``destinations``) — that is the
  client talking to the server, exactly what the OPAQUE protocol
  obfuscates before it leaves the client;
* error bodies carry a machine-readable ``code`` from
  :data:`ERROR_CODES` and a *generic* human message — exception text is
  never echoed, because :class:`~repro.exceptions.NoPathError` and
  friends interpolate raw node ids into their messages and the HTTP
  boundary must uphold the obs-layer redaction invariant
  (:data:`~repro.obs.trace.FORBIDDEN_ATTR_KEYS`).

Decoding is strict: unknown fields, wrong types and malformed endpoint
lists raise :class:`WireError` with the matching error code, which the
gateway maps straight onto a 4xx response.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.query import ObfuscatedPathQuery
from repro.core.server import ServerResponse

__all__ = [
    "WIRE_SCHEMA_VERSION",
    "ERROR_CODES",
    "WireError",
    "RouteRequest",
    "BatchRequest",
    "RouteResponse",
    "BatchResponse",
    "ErrorResponse",
    "canonical_json",
    "table_paths",
    "encode_paths",
    "route_body",
    "batch_body",
]

#: version stamp carried by every wire document
WIRE_SCHEMA_VERSION = 1

#: machine-readable error codes an :class:`ErrorResponse` may carry,
#: mapped to the generic message the HTTP boundary is allowed to show.
ERROR_CODES = {
    "invalid_json": "request body is not valid JSON",
    "invalid_request": "request fields failed validation",
    "unknown_route": "no such endpoint",
    "bad_method": "method not allowed on this endpoint",
    "no_path": "no path exists for at least one requested pair",
    "overloaded": "server is over capacity, retry later",
    "internal": "internal server error",
}


def canonical_json(doc: Any) -> str:
    """Serialize ``doc`` canonically: sorted keys, no whitespace.

    The single encoder used for every wire body, so equal documents are
    equal byte strings.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def table_paths(
    sources, destinations, table
) -> tuple[tuple[int, int, tuple[int, ...], float], ...]:
    """A result table as ``(source, destination, nodes, cost)`` entries
    in the ``S x T`` wire order of the query that asked for it."""
    paths = []
    for source in sources:
        for destination in destinations:
            result = table.path_for(source, destination)
            paths.append(
                (source, destination, tuple(result.nodes),
                 float(result.distance))
            )
    return tuple(paths)


def _path_docs(paths) -> list[dict]:
    return [
        {
            "source": source,
            "destination": destination,
            "nodes": list(nodes),
            "cost": cost,
        }
        for source, destination, nodes, cost in paths
    ]


def encode_paths(paths) -> bytes:
    """The canonical ``"paths":[...]`` fragment of a response body.

    The one response encoder: every ``/v1/route`` and ``/v1/batch``
    body is this fragment spliced between constant keys
    (:func:`route_body`, :func:`batch_body`), so a table is walked and
    encoded once however often it is sent — the result cache keeps the
    fragment next to the table it encodes.
    """
    return ('"paths":' + canonical_json(_path_docs(paths))).encode("ascii")


#: what precedes the fragment in a body, by (from_cache, coalesced)
_BODY_HEADS = {
    (from_cache, coalesced): (
        '{"coalesced":%s,"from_cache":%s,'
        % (canonical_json(coalesced), canonical_json(from_cache))
    ).encode("ascii")
    for from_cache in (False, True)
    for coalesced in (False, True)
}
_SCHEMA_TAIL = b',"schema":%d}' % WIRE_SCHEMA_VERSION


def route_body(
    fragment: bytes, from_cache: bool = False, coalesced: bool = False
) -> bytes:
    """A ``/v1/route`` body around an :func:`encode_paths` fragment.

    Byte-identical to ``canonical_json(RouteResponse.to_dict())`` of the
    same table and flags (keys sort ``coalesced``, ``from_cache``,
    ``paths``, ``schema``).
    """
    return _BODY_HEADS[from_cache, coalesced] + fragment + _SCHEMA_TAIL


def batch_body(entries) -> bytes:
    """A ``/v1/batch`` body from its entries, in submission order.

    Each entry is a :func:`route_body` (``bytes``) or, for a query that
    failed, its error code (``str``), which becomes ``{"error": code}``;
    batch results carry no per-entry schema stamp.
    """
    results = [
        canonical_json({"error": entry}).encode("ascii")
        if isinstance(entry, str)
        else entry[: -len(_SCHEMA_TAIL)] + b"}"
        for entry in entries
    ]
    return b'{"results":[' + b",".join(results) + b"]" + _SCHEMA_TAIL


class WireError(ValueError):
    """A wire document failed schema validation.

    Attributes
    ----------
    code:
        Machine-readable error code from :data:`ERROR_CODES` (always
        ``invalid_request`` or ``invalid_json``).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _require_schema(doc: dict) -> None:
    version = doc.get("schema", WIRE_SCHEMA_VERSION)
    if version != WIRE_SCHEMA_VERSION:
        raise WireError(
            "invalid_request",
            f"unsupported wire schema version {version!r}",
        )


def _node_tuple(value: Any, name: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise WireError(
            "invalid_request", f"{name} must be a non-empty array"
        )
    out = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            raise WireError(
                "invalid_request", f"{name} entries must be integers"
            )
        out.append(item)
    return tuple(out)


def _parse_doc(text: str | bytes) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError("invalid_json", "body is not valid JSON") from exc
    if not isinstance(doc, dict):
        raise WireError("invalid_request", "body must be a JSON object")
    return doc


@dataclass(frozen=True, slots=True)
class RouteRequest:
    """``POST /v1/route`` body: one obfuscated query ``Q(S, T)``.

    Endpoint order is preserved — it is the query's wire order, which
    decides the order of the response's path table.
    """

    sources: tuple[int, ...]
    destinations: tuple[int, ...]

    def to_query(self) -> ObfuscatedPathQuery:
        """The core query object (validates the Definition 1 invariants).

        Raises
        ------
        WireError
            With code ``invalid_request`` when S/T break the query
            invariants (empty or duplicate entries); the core
            exception's node-id-bearing message is *not* propagated.
        """
        from repro.exceptions import QueryError

        try:
            return ObfuscatedPathQuery(self.sources, self.destinations)
        except QueryError as exc:
            raise WireError(
                "invalid_request", "sources/destinations failed validation"
            ) from exc

    @classmethod
    def from_query(cls, query: ObfuscatedPathQuery) -> "RouteRequest":
        """Wire form of an existing obfuscated query."""
        return cls(tuple(query.sources), tuple(query.destinations))

    def to_dict(self) -> dict:
        """JSON-ready dict with the schema version stamp."""
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "sources": list(self.sources),
            "destinations": list(self.destinations),
        }

    def to_json(self) -> str:
        """Canonical JSON encoding."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "RouteRequest":
        """Strictly decode a parsed JSON object.

        Raises
        ------
        WireError
            On unknown fields, missing fields or malformed endpoints.
        """
        _require_schema(doc)
        unknown = set(doc) - {"schema", "sources", "destinations"}
        if unknown:
            raise WireError(
                "invalid_request",
                f"unknown fields: {sorted(unknown)}",
            )
        return cls(
            _node_tuple(doc.get("sources"), "sources"),
            _node_tuple(doc.get("destinations"), "destinations"),
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "RouteRequest":
        """Decode a JSON body (raises :class:`WireError` when invalid)."""
        return cls.from_dict(_parse_doc(text))


@dataclass(frozen=True, slots=True)
class BatchRequest:
    """``POST /v1/batch`` body: several obfuscated queries, in order."""

    queries: tuple[RouteRequest, ...]

    def to_queries(self) -> list[ObfuscatedPathQuery]:
        """Core query objects in submission order."""
        return [request.to_query() for request in self.queries]

    def to_dict(self) -> dict:
        """JSON-ready dict with the schema version stamp."""
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "queries": [
                {
                    "sources": list(request.sources),
                    "destinations": list(request.destinations),
                }
                for request in self.queries
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON encoding."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "BatchRequest":
        """Strictly decode a parsed JSON object."""
        _require_schema(doc)
        unknown = set(doc) - {"schema", "queries"}
        if unknown:
            raise WireError(
                "invalid_request", f"unknown fields: {sorted(unknown)}"
            )
        entries = doc.get("queries")
        if not isinstance(entries, list) or not entries:
            raise WireError(
                "invalid_request", "queries must be a non-empty array"
            )
        requests = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise WireError(
                    "invalid_request", "each query must be an object"
                )
            requests.append(RouteRequest.from_dict({
                "schema": WIRE_SCHEMA_VERSION, **entry,
            }))
        return cls(tuple(requests))

    @classmethod
    def from_json(cls, text: str | bytes) -> "BatchRequest":
        """Decode a JSON body (raises :class:`WireError` when invalid)."""
        return cls.from_dict(_parse_doc(text))


@dataclass(frozen=True, slots=True)
class RouteResponse:
    """One answered query: the ``|S| x |T|`` path table, in wire order.

    ``paths`` entries are ``(source, destination, nodes, cost)`` tuples
    ordered by the query's ``S x T`` wire order, so the canonical
    encoding of the same answer is byte-identical no matter which
    process produced it.  ``from_cache``/``coalesced`` mirror the
    :class:`~repro.core.server.ServerResponse` flags; they are serving
    metadata, *not* part of the byte-identity contract
    (:meth:`payload_dict` excludes them).
    """

    paths: tuple[tuple[int, int, tuple[int, ...], float], ...]
    from_cache: bool = False
    coalesced: bool = False

    @classmethod
    def from_server(cls, response: ServerResponse) -> "RouteResponse":
        """Wire form of a server answer, pairs in the query's wire order."""
        query = response.query
        return cls(
            table_paths(query.sources, query.destinations, response.candidates),
            from_cache=response.from_cache,
            coalesced=response.coalesced,
        )

    def payload_dict(self) -> dict:
        """The path/cost payload alone — the byte-identity surface."""
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "paths": _path_docs(self.paths),
        }

    def payload_json(self) -> str:
        """Canonical encoding of :meth:`payload_dict`."""
        return canonical_json(self.payload_dict())

    def to_dict(self) -> dict:
        """Full JSON-ready dict: payload plus serving metadata."""
        doc = self.payload_dict()
        doc["from_cache"] = self.from_cache
        doc["coalesced"] = self.coalesced
        return doc

    def _body(self) -> bytes:
        return route_body(
            encode_paths(self.paths), self.from_cache, self.coalesced
        )

    def to_json(self) -> str:
        """Canonical JSON encoding (what the gateway sends, byte for byte)."""
        return self._body().decode("ascii")

    @classmethod
    def from_dict(cls, doc: dict) -> "RouteResponse":
        """Decode a parsed JSON object (used by the load generator)."""
        _require_schema(doc)
        entries = doc.get("paths")
        if not isinstance(entries, list):
            raise WireError("invalid_request", "paths must be an array")
        paths = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise WireError(
                    "invalid_request", "each path must be an object"
                )
            try:
                paths.append((
                    int(entry["source"]),
                    int(entry["destination"]),
                    tuple(map(int, entry["nodes"])),
                    float(entry["cost"]),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise WireError(
                    "invalid_request", "malformed path entry"
                ) from exc
        return cls(
            tuple(paths),
            from_cache=bool(doc.get("from_cache", False)),
            coalesced=bool(doc.get("coalesced", False)),
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "RouteResponse":
        """Decode a JSON body (raises :class:`WireError` when invalid)."""
        return cls.from_dict(_parse_doc(text))


@dataclass(frozen=True, slots=True)
class BatchResponse:
    """``POST /v1/batch`` answer: one :class:`RouteResponse` per query."""

    results: tuple[RouteResponse, ...]

    @classmethod
    def from_server(
        cls, responses: list[ServerResponse]
    ) -> "BatchResponse":
        """Wire form of a list of server answers, in submission order."""
        return cls(tuple(RouteResponse.from_server(r) for r in responses))

    def to_dict(self) -> dict:
        """JSON-ready dict with the schema version stamp."""
        return {
            "schema": WIRE_SCHEMA_VERSION,
            "results": [
                {k: v for k, v in result.to_dict().items() if k != "schema"}
                for result in self.results
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON encoding (what the gateway sends, byte for byte)."""
        return batch_body(
            result._body() for result in self.results
        ).decode("ascii")

    @classmethod
    def from_dict(cls, doc: dict) -> "BatchResponse":
        """Decode a parsed JSON object (used by the load generator)."""
        _require_schema(doc)
        entries = doc.get("results")
        if not isinstance(entries, list):
            raise WireError("invalid_request", "results must be an array")
        return cls(tuple(
            RouteResponse.from_dict({"schema": WIRE_SCHEMA_VERSION, **entry})
            for entry in entries
        ))

    @classmethod
    def from_json(cls, text: str | bytes) -> "BatchResponse":
        """Decode a JSON body (raises :class:`WireError` when invalid)."""
        return cls.from_dict(_parse_doc(text))


@dataclass(frozen=True, slots=True)
class ErrorResponse:
    """Error body: machine-readable ``code`` plus a *generic* message.

    The message is always looked up from :data:`ERROR_CODES` — free-form
    exception text never crosses the HTTP boundary, because core error
    messages interpolate raw node ids.
    """

    code: str
    retry_after_s: float | None = None
    message: str = field(init=False, default="")

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ValueError(f"unknown error code {self.code!r}")
        object.__setattr__(self, "message", ERROR_CODES[self.code])

    def to_dict(self) -> dict:
        """JSON-ready dict with the schema version stamp."""
        doc = {
            "schema": WIRE_SCHEMA_VERSION,
            "error": self.code,
            "message": self.message,
        }
        if self.retry_after_s is not None:
            doc["retry_after_s"] = self.retry_after_s
        return doc

    def to_json(self) -> str:
        """Canonical JSON encoding."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, doc: dict) -> "ErrorResponse":
        """Decode a parsed JSON object (used by the load generator)."""
        _require_schema(doc)
        code = doc.get("error")
        if code not in ERROR_CODES:
            raise WireError("invalid_request", "unknown error code")
        retry = doc.get("retry_after_s")
        return cls(code, retry_after_s=retry)

    @classmethod
    def from_json(cls, text: str | bytes) -> "ErrorResponse":
        """Decode a JSON body (raises :class:`WireError` when invalid)."""
        return cls.from_dict(_parse_doc(text))
