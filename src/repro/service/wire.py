"""Versioned JSON wire schema shared by gateway, load generator and CLI.

Every HTTP body the gateway accepts or emits is one of the typed
dataclasses below, serialized canonically (sorted keys, no whitespace)
so two encodings of the same answer are *byte-identical* — the property
the gateway's conformance gate checks against in-process
:meth:`~repro.service.serving.ServingStack.answer_batch` answers.

Schema rules:

* every document carries ``"schema": WIRE_SCHEMA_VERSION``; a response
  without the stamp is refused, while a request without one is read as
  the current version (the request format has not changed across
  schemas);
* requests name endpoints (``sources``/``destinations``) — that is the
  client talking to the server, exactly what the OPAQUE protocol
  obfuscates before it leaves the client;
* a response's path table travels as *shared paths* (schema 3): each
  entry repeats the prefix and the suffix it shares with an earlier
  entry of the same table by reference and lists only the nodes in
  between, each as its difference from the node before it
  (:func:`encode_paths`);
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
import sys
from dataclasses import dataclass, field
from itertools import accumulate
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
    "valid_retry_after",
]

#: version stamp carried by every wire document
WIRE_SCHEMA_VERSION = 3

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


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(doc: Any) -> str:
    """Serialize ``doc`` canonically: sorted keys, no whitespace.

    The single encoder used for every wire body, so equal documents are
    equal byte strings.
    """
    return _CANONICAL.encode(doc)


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


def _longest_prefix(
    nodes: tuple, earlier: list, limit: int, flip: int = 0
) -> tuple[int, int]:
    """``(entry, length)`` of the longest prefix of ``nodes``, at most
    ``limit`` long, that one of the ``earlier`` ``(entry, nodes)`` pairs
    starts with; ``(0, 0)`` when none does (ties: the latest entry).
    With ``flip=-1`` it is the longest common *suffix*: position ``k``
    is read at index ``k ^ -1``, which is ``-1 - k``.

    Paths from one source are branches of one shortest-path tree: two
    of them agree position by position up to their fork and never meet
    again, so ``nodes[k] == other[k]`` flips once (paths into one
    destination merge, so read backwards they do the same).  That is
    bisected, and an entry is bisected only where it beats the best so
    far.  The winner is confirmed by slice comparison; a table that is
    not tree-shaped (equal-cost ties broken differently per pair) is
    walked instead.
    """
    best = length = 0
    match = ()
    for j, other in reversed(earlier):
        hi = len(other)
        if hi > limit:
            hi = limit
        if length < hi and nodes[length ^ flip] == other[length ^ flip]:
            lo = length + 1
            while lo < hi:
                mid = (lo + hi) >> 1
                if nodes[mid ^ flip] == other[mid ^ flip]:
                    lo = mid + 1
                else:
                    hi = mid
            best, length, match = j, lo, other
    if length and (
        nodes[-length:] != match[-length:] if flip
        else nodes[:length] != match[:length]
    ):
        best = length = 0
        step = flip | 1  # -1 walks both paths from their ends
        for j, other in reversed(earlier):
            k = 0
            for x, y in zip(nodes[::step], other[::step]):
                if x != y or k == limit:
                    break
                k += 1
            if k > length:
                best, length = j, k
    return best, length


def _path_entries(paths) -> list[list]:
    """A table's schema-3 entries, in the table's order.

    Entry ``i`` is ``[cost, pb, pk, sb, sk, *deltas]``: the path is the
    first ``pk`` nodes of entry ``i - pb``, then the listed nodes, then
    the last ``sk`` nodes of entry ``i - sb`` (``pb``/``sb`` are 0
    exactly when their length is).  Each listed node is sent as its
    difference from the node before it in the path (the first one from
    the last prefix node, or from 0 without a prefix): neighbours on a
    road map carry nearby ids, so the differences are short numbers.
    Each reference is the longest one an earlier entry of the *same*
    table offers (the nearest on a tie), with the prefix chosen first
    and the suffix cut to the rest; so the entries of a table depend on
    that table alone (differences never reach outside their entry's
    path), and the slice of a union pass encodes exactly as the solo
    answer does.
    """
    entries = []
    rows: dict[int, list] = {}  # first node -> (entry, nodes) starting there
    cols: dict[int, list] = {}  # last node -> (entry, nodes) ending there
    for i, (_, _, nodes, cost) in enumerate(paths):
        n = len(nodes)
        row = rows.get(nodes[0])
        if row is None:
            row = rows[nodes[0]] = []
            pb = pk = 0
        else:
            j, pk = _longest_prefix(nodes, row, n)
            pb = i - j if pk else 0
        col = cols.get(nodes[-1])
        if col is None:
            col = cols[nodes[-1]] = []
            sb = sk = 0
        else:
            j, sk = _longest_prefix(nodes, col, n - pk, -1)
            if sk and pk + sk == n and nodes[pk - 1] == nodes[pk]:
                # prefix and suffix would meet on a repeated node, which
                # a decoder refuses as an overlap: list that node instead
                sk -= 1
            sb = i - j if sk else 0
        row.append((i, nodes))
        col.append((i, nodes))
        entry = [cost, pb, pk, sb, sk]
        last = nodes[pk - 1] if pk else 0
        for node in nodes[pk:n - sk]:
            entry.append(node - last)
            last = node
        entries.append(entry)
    return entries


def encode_paths(paths) -> bytes:
    """The canonical ``"paths":[...]`` fragment of a response body.

    The one response encoder: every ``/v1/route`` and ``/v1/batch``
    body is this fragment spliced between constant keys
    (:func:`route_body`, :func:`batch_body`), so a table is walked and
    encoded once however often it is sent — the result cache keeps the
    fragment next to the table it encodes.  Entries are shared paths
    (:func:`_path_entries`); :func:`_decode_paths` inverts them.
    """
    return ('"paths":' + _CANONICAL.encode(_path_entries(paths))).encode(
        "ascii"
    )


_INT = frozenset((int,))
_NUMBER = frozenset((int, float))
_MAX_COST = sys.float_info.max


def valid_retry_after(value: Any) -> bool:
    """Whether ``value`` is a usable retry hint in seconds.

    A finite number ``>= 0`` that is not a ``bool``: the one rule for
    :class:`ErrorResponse` decoding and the load generator's backoff.
    """
    return type(value) in _NUMBER and 0 <= value <= _MAX_COST


def _bad_entry(i: int, why: str) -> WireError:
    return WireError("invalid_request", f"path entry {i}: {why}")


def _decode_paths(entries: Any) -> tuple:
    """Strictly invert :func:`_path_entries`.

    Node deltas and reference fields must be ``int`` (never ``bool``),
    a cost a finite non-negative number, a reference an earlier entry
    with at least the nodes it repeats, and a prefix and a suffix that
    meet must not overlap (share their meeting node); a path has at
    least one node.  Anything else raises :class:`WireError`.
    """
    if type(entries) is not list:
        raise WireError("invalid_request", "paths must be an array")
    paths = []
    decoded: list[tuple] = []
    for i, entry in enumerate(entries):
        if type(entry) is not list or len(entry) < 5:
            raise _bad_entry(i, "not an array of at least five numbers")
        cost, pb, pk, sb, sk, *middle = entry
        if not (
            type(pb) is type(pk) is type(sb) is type(sk) is int
            and _INT.issuperset(map(type, middle))
        ):
            raise _bad_entry(i, "node ids and references must be integers")
        if type(cost) not in _NUMBER or not 0 <= cost <= _MAX_COST:
            raise _bad_entry(i, "cost must be a finite number >= 0")
        head = tail = ()
        if pb or pk:
            if not (0 < pb <= i and 0 < pk <= len(decoded[i - pb])):
                raise _bad_entry(i, "prefix outside an earlier entry")
            head = decoded[i - pb][:pk]
        if middle and head:
            middle[0] += head[-1]
        if sb or sk:
            if not (0 < sb <= i and 0 < sk <= len(decoded[i - sb])):
                raise _bad_entry(i, "suffix outside an earlier entry")
            tail = decoded[i - sb][-sk:]
            if head and not middle and head[-1] == tail[0]:
                raise _bad_entry(i, "prefix and suffix overlap")
        nodes = (*head, *accumulate(middle), *tail)
        if not nodes:
            raise _bad_entry(i, "a path has at least one node")
        decoded.append(nodes)
        paths.append((nodes[0], nodes[-1], nodes, float(cost)))
    return tuple(paths)


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


def _require_schema(doc: dict, stamped: bool = False) -> None:
    """Refuse a document of another schema version.

    A missing stamp reads as the current version unless ``stamped``
    (responses must carry it).
    """
    if stamped and "schema" not in doc:
        raise WireError("invalid_request", "missing wire schema stamp")
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


def _is_error_code(value: Any) -> bool:
    return type(value) is str and value in ERROR_CODES


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
    process produced it.  On the wire they are shared-path entries
    (:func:`encode_paths`), whose endpoints are each path's first and
    last node.  ``from_cache``/``coalesced`` mirror the
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
            "paths": _path_entries(self.paths),
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
        """Strictly decode a parsed JSON object (used by the ledger)."""
        _require_schema(doc, stamped=True)
        from_cache = doc.get("from_cache", False)
        coalesced = doc.get("coalesced", False)
        if type(from_cache) is not bool or type(coalesced) is not bool:
            raise WireError(
                "invalid_request", "from_cache/coalesced must be booleans"
            )
        return cls(_decode_paths(doc.get("paths")), from_cache, coalesced)

    @classmethod
    def from_json(cls, text: str | bytes) -> "RouteResponse":
        """Decode a JSON body (raises :class:`WireError` when invalid)."""
        return cls.from_dict(_parse_doc(text))


@dataclass(frozen=True, slots=True)
class BatchResponse:
    """``POST /v1/batch`` answer: one entry per query, in submission order.

    An entry is the query's :class:`RouteResponse`, or an
    :class:`ErrorResponse` when that query failed on its own (on the
    wire, the slot ``{"error": code}``: a batch slot carries only its
    code, never a message or a retry hint).
    """

    results: tuple[RouteResponse | ErrorResponse, ...]

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
                {"error": result.code}
                if isinstance(result, ErrorResponse)
                else {
                    k: v for k, v in result.to_dict().items() if k != "schema"
                }
                for result in self.results
            ],
        }

    def to_json(self) -> str:
        """Canonical JSON encoding (what the gateway sends, byte for byte)."""
        return batch_body(
            result.code if isinstance(result, ErrorResponse) else result._body()
            for result in self.results
        ).decode("ascii")

    @classmethod
    def from_dict(cls, doc: dict) -> "BatchResponse":
        """Decode a parsed JSON object (used by the load generator)."""
        _require_schema(doc, stamped=True)
        entries = doc.get("results")
        if not isinstance(entries, list):
            raise WireError("invalid_request", "results must be an array")
        results: list[RouteResponse | ErrorResponse] = []
        for entry in entries:
            if type(entry) is not dict:
                raise WireError(
                    "invalid_request", "each result must be an object"
                )
            if "error" not in entry:
                results.append(RouteResponse.from_dict(
                    {"schema": WIRE_SCHEMA_VERSION, **entry}
                ))
            elif len(entry) == 1 and _is_error_code(entry["error"]):
                results.append(ErrorResponse(entry["error"]))
            else:
                raise WireError(
                    "invalid_request",
                    'an error slot is exactly {"error": <known code>}',
                )
        return cls(tuple(results))

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
        """Decode a parsed JSON object (used by the load generator).

        The retry hint is absent, ``null`` or a finite number ``>= 0``
        (never a ``bool``, :func:`valid_retry_after`); anything else
        raises :class:`WireError`.
        """
        _require_schema(doc, stamped=True)
        code = doc.get("error")
        if not _is_error_code(code):
            raise WireError("invalid_request", "unknown error code")
        retry = doc.get("retry_after_s")
        if retry is not None and not valid_retry_after(retry):
            raise WireError(
                "invalid_request", "retry_after_s must be a finite number >= 0"
            )
        return cls(code, retry_after_s=retry)

    @classmethod
    def from_json(cls, text: str | bytes) -> "ErrorResponse":
        """Decode a JSON body (raises :class:`WireError` when invalid)."""
        return cls.from_dict(_parse_doc(text))
