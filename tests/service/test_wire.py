"""Wire schema tests: round trips, strict decoding, error codes.

The wire layer is the gateway's contract with clients; these tests pin
the canonical encoding (sorted keys, no whitespace), the shared-path
table layout (every engine's table decodes to itself), the strict
decode rules (unknown fields, malformed endpoints, coerced numbers and
bad references are rejected with machine-readable codes), and the
redaction property that error bodies never carry free-form exception
text.
"""

from __future__ import annotations

import functools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import ObfuscatedPathQuery
from repro.core.server import ServerResponse
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.search import list_engines
from repro.search.multi import MSMDResult
from repro.search.result import PathResult
from repro.service.serving import ServingConfig, ServingStack
from repro.service.wire import (
    ERROR_CODES,
    WIRE_SCHEMA_VERSION,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    RouteRequest,
    RouteResponse,
    WireError,
    batch_body,
    canonical_json,
    encode_paths,
    route_body,
    table_paths,
)


@pytest.fixture(scope="module")
def answered():
    """One answered obfuscated query on a small grid."""
    network = grid_network(6, 6, seed=3)
    nodes = sorted(network.nodes())
    query = ObfuscatedPathQuery(tuple(nodes[:3]), tuple(nodes[-3:]))
    with ServingStack.from_config(
        network, ServingConfig(engine="dijkstra")
    ) as stack:
        response = stack.answer_batch([query])[0]
    return query, response


class TestCanonicalJson:
    def test_sorted_keys_no_whitespace(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_equal_documents_are_equal_bytes(self):
        left = {"x": 1, "y": {"b": 2, "a": 3}}
        right = {"y": {"a": 3, "b": 2}, "x": 1}
        assert canonical_json(left) == canonical_json(right)


class TestRouteRequest:
    def test_json_round_trip(self):
        request = RouteRequest((1, 2, 3), (9, 8))
        again = RouteRequest.from_json(request.to_json())
        assert again == request

    def test_query_round_trip(self):
        query = ObfuscatedPathQuery((4, 5), (6, 7))
        request = RouteRequest.from_query(query)
        assert request.to_query() == query

    def test_wire_order_preserved(self):
        request = RouteRequest.from_json(
            RouteRequest((3, 1, 2), (7, 5)).to_json()
        )
        assert request.sources == (3, 1, 2)
        assert request.destinations == (7, 5)

    def test_schema_stamp_present(self):
        assert RouteRequest((1,), (2,)).to_dict()["schema"] == (
            WIRE_SCHEMA_VERSION
        )

    def test_unsupported_schema_rejected(self):
        doc = RouteRequest((1,), (2,)).to_dict()
        doc["schema"] = 99
        with pytest.raises(WireError) as err:
            RouteRequest.from_dict(doc)
        assert err.value.code == "invalid_request"

    def test_unknown_field_rejected(self):
        doc = RouteRequest((1,), (2,)).to_dict()
        doc["extra"] = True
        with pytest.raises(WireError) as err:
            RouteRequest.from_dict(doc)
        assert err.value.code == "invalid_request"

    @pytest.mark.parametrize(
        "sources", [[], [1.5], ["a"], [True], None, "1,2"]
    )
    def test_malformed_sources_rejected(self, sources):
        with pytest.raises(WireError) as err:
            RouteRequest.from_dict(
                {"sources": sources, "destinations": [2]}
            )
        assert err.value.code == "invalid_request"

    def test_invalid_json_code(self):
        with pytest.raises(WireError) as err:
            RouteRequest.from_json(b"{not json")
        assert err.value.code == "invalid_json"

    def test_non_object_body_rejected(self):
        with pytest.raises(WireError) as err:
            RouteRequest.from_json("[1,2,3]")
        assert err.value.code == "invalid_request"

    def test_an_unstamped_request_decodes(self):
        # README's curl example sends no stamp; the request format has
        # not changed across schemas.
        request = RouteRequest.from_json('{"destinations":[2],"sources":[1]}')
        assert request == RouteRequest((1,), (2,))

    def test_duplicate_endpoints_do_not_leak_node_ids(self):
        # The core QueryError message interpolates node ids; the wire
        # error the client sees must not.
        request = RouteRequest((5, 5), (7,))
        with pytest.raises(WireError) as err:
            request.to_query()
        assert err.value.code == "invalid_request"
        assert "5" not in str(err.value)


class TestBatchRequest:
    def test_json_round_trip(self):
        batch = BatchRequest(
            (RouteRequest((1, 2), (3,)), RouteRequest((4,), (5, 6)))
        )
        assert BatchRequest.from_json(batch.to_json()) == batch

    def test_empty_batch_rejected(self):
        with pytest.raises(WireError) as err:
            BatchRequest.from_dict({"queries": []})
        assert err.value.code == "invalid_request"

    def test_non_object_entry_rejected(self):
        with pytest.raises(WireError) as err:
            BatchRequest.from_dict({"queries": [[1, 2]]})
        assert err.value.code == "invalid_request"

    def test_to_queries_order(self):
        batch = BatchRequest(
            (RouteRequest((1,), (2,)), RouteRequest((3,), (4,)))
        )
        queries = batch.to_queries()
        assert [q.sources for q in queries] == [(1,), (3,)]


class TestRouteResponse:
    def test_from_server_covers_wire_order(self, answered):
        query, server_response = answered
        response = RouteResponse.from_server(server_response)
        expected = [
            (s, t) for s in query.sources for t in query.destinations
        ]
        assert [(p[0], p[1]) for p in response.paths] == expected

    def test_json_round_trip(self, answered):
        _, server_response = answered
        response = RouteResponse.from_server(server_response)
        assert RouteResponse.from_json(response.to_json()) == response

    def test_payload_excludes_serving_metadata(self, answered):
        _, server_response = answered
        response = RouteResponse.from_server(server_response)
        payload = response.payload_dict()
        assert "from_cache" not in payload
        assert "coalesced" not in payload

    def test_payload_identical_across_cache_flags(self, answered):
        # The byte-identity surface must not depend on how the answer
        # was produced — only on the paths themselves.
        _, server_response = answered
        cold = RouteResponse.from_server(server_response)
        warm = RouteResponse(
            cold.paths, from_cache=True, coalesced=True
        )
        assert warm.payload_json() == cold.payload_json()
        assert warm.to_json() != cold.to_json()

    def test_malformed_path_entry_rejected(self):
        with pytest.raises(WireError) as err:
            RouteResponse.from_dict({"paths": [{"source": 1}]})
        assert err.value.code == "invalid_request"

    @pytest.mark.parametrize("bad", ["x", None, [3], {"id": 3}])
    def test_malformed_node_rejected_after_round_trip(self, answered, bad):
        _, server_response = answered
        doc = json.loads(RouteResponse.from_server(server_response).to_json())
        doc["paths"][0][-1] = bad  # entry 0's last listed node
        with pytest.raises(WireError) as err:
            RouteResponse.from_json(json.dumps(doc))
        assert err.value.code == "invalid_request"

    def test_node_list_must_be_iterable(self, answered):
        _, server_response = answered
        doc = json.loads(RouteResponse.from_server(server_response).to_json())
        doc["paths"][0] = 7
        with pytest.raises(WireError):
            RouteResponse.from_dict(doc)


class TestBatchResponse:
    def test_json_round_trip(self, answered):
        _, server_response = answered
        batch = BatchResponse.from_server([server_response] * 2)
        assert BatchResponse.from_json(batch.to_json()) == batch

    def test_a_failed_slot_decodes_as_a_typed_error(self):
        body = batch_body([
            route_body(encode_paths([(1, 2, (1, 2), 1.0)])), "no_path",
        ])
        decoded = BatchResponse.from_json(body)
        assert decoded.results == (
            RouteResponse(((1, 2, (1, 2), 1.0),)), ErrorResponse("no_path"),
        )
        assert decoded.to_json().encode() == body
        assert canonical_json(decoded.to_dict()).encode() == body

    @pytest.mark.parametrize(
        "slot",
        [
            {"error": "made_up_code"},
            {"error": 3},
            {"error": ["no_path"]},
            {"error": "no_path", "message": ERROR_CODES["no_path"]},
            {"error": "no_path", "paths": []},
        ],
    )
    def test_a_malformed_error_slot_is_refused(self, slot):
        doc = {"schema": WIRE_SCHEMA_VERSION, "results": [slot]}
        with pytest.raises(WireError):
            BatchResponse.from_dict(doc)


class TestErrorResponse:
    @pytest.mark.parametrize("code", sorted(ERROR_CODES))
    def test_round_trip_every_code(self, code):
        error = ErrorResponse(code)
        again = ErrorResponse.from_json(error.to_json())
        assert again.code == code
        assert again.message == ERROR_CODES[code]

    @pytest.mark.parametrize("code", [3, ["no_path"], None])
    def test_a_code_that_is_no_string_is_refused(self, code):
        with pytest.raises(WireError):
            ErrorResponse.from_dict({"schema": WIRE_SCHEMA_VERSION, "error": code})

    def test_unknown_code_rejected_at_build(self):
        with pytest.raises(ValueError):
            ErrorResponse("made_up_code")

    def test_message_is_generic_lookup(self):
        # The message field cannot be set by callers at all — it is
        # derived, so exception text can never reach the body.
        error = ErrorResponse("no_path")
        assert error.message == ERROR_CODES["no_path"]
        with pytest.raises(TypeError):
            ErrorResponse("no_path", message="node 91001 unreachable")

    def test_retry_after_round_trip(self):
        error = ErrorResponse("overloaded", retry_after_s=0.25)
        doc = json.loads(error.to_json())
        assert doc["retry_after_s"] == 0.25
        assert ErrorResponse.from_dict(doc).retry_after_s == 0.25

    def test_retry_after_omitted_when_absent(self):
        assert "retry_after_s" not in ErrorResponse("internal").to_dict()

    @pytest.mark.parametrize(
        "hint", ['"soon"', "true", "-1", "NaN", "Infinity"]
    )
    def test_a_retry_hint_that_is_no_finite_number_is_refused(self, hint):
        body = (
            f'{{"schema":{WIRE_SCHEMA_VERSION},"error":"overloaded",'
            f'"retry_after_s":{hint}}}'
        )
        with pytest.raises(WireError) as err:
            ErrorResponse.from_json(body)
        assert err.value.code == "invalid_request"

    @pytest.mark.parametrize(
        "hint, want", [("null", None), ("0", 0), ("0.05", 0.05), ("3", 3)]
    )
    def test_a_null_or_finite_retry_hint_decodes(self, hint, want):
        body = (
            f'{{"schema":{WIRE_SCHEMA_VERSION},"error":"overloaded",'
            f'"retry_after_s":{hint}}}'
        )
        assert ErrorResponse.from_json(body).retry_after_s == want


FLAGS = [(False, False), (False, True), (True, False), (True, True)]


def _dict_body(response: ServerResponse) -> bytes:
    """The body as the dict envelope produced it before fragments."""
    return canonical_json(
        RouteResponse.from_server(response).to_dict()
    ).encode()


def _spliced_body(response: ServerResponse) -> bytes:
    query = response.query
    fragment = encode_paths(
        table_paths(query.sources, query.destinations, response.candidates)
    )
    return route_body(fragment, response.from_cache, response.coalesced)


#: costs whose text form is the risk: shortest-repr round trips,
#: integers held as floats, exponents, the extremes
_costs = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.integers(0, 10**6).map(float),
    st.sampled_from([0.1 + 0.2, 1e-7, 1e16, 1e22, 5e-324, 1.7976931348623157e308]),
)


@st.composite
def _responses(draw):
    """A synthetic answered query: any S x T, any costs, any path sizes."""
    sources = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=4, unique=True))
    destinations = draw(
        st.lists(st.integers(0, 10**9), min_size=1, max_size=4, unique=True)
    )
    paths = {}
    for s in sources:
        for t in destinations:
            middle = draw(
                st.lists(st.integers(0, 10**9), max_size=draw(st.sampled_from([0, 3, 400])))
            )
            paths[(s, t)] = PathResult(s, t, (s, *middle, t), draw(_costs))
    from_cache, coalesced = draw(st.sampled_from(FLAGS))
    return ServerResponse(
        ObfuscatedPathQuery(tuple(sources), tuple(destinations)),
        MSMDResult(paths=paths),
        from_cache=from_cache,
        coalesced=coalesced,
    )


_BIG = 2**31

#: node ids where a difference is the risk: 0, ids on both sides of
#: 2**31, ids past 2**63, and small ids that turn differences negative
_ids = st.one_of(
    st.just(0),
    st.integers(0, 60),
    st.integers(_BIG - 30, _BIG + 30),
    st.integers(0, 2**70),
)


@st.composite
def _shared_tables(draw):
    """A table shaped like a search answer: the paths from one source
    run along a drawn trunk and the paths into one destination along a
    drawn tail, so prefixes, suffixes and listed nodes all occur; a
    pair with ``s == t`` is the one-node path."""
    sources = draw(st.lists(_ids, min_size=1, max_size=4, unique=True))
    destinations = draw(st.lists(_ids, min_size=1, max_size=4, unique=True))
    trunks = {s: draw(st.lists(_ids, max_size=5)) for s in sources}
    tails = {t: draw(st.lists(_ids, max_size=5)) for t in destinations}
    paths = []
    for s in sources:
        for t in destinations:
            if s == t:
                paths.append((s, t, (s,), 0.0))
                continue
            trunk = trunks[s][:draw(st.integers(0, len(trunks[s])))]
            tail = tails[t][draw(st.integers(0, len(tails[t]))):]
            middle = draw(st.lists(_ids, max_size=2))
            paths.append((s, t, (s, *trunk, *middle, *tail, t), draw(_costs)))
    return tuple(paths)


class TestSplicedBodies:
    """One encoder: a body spliced around a table's fragment is the
    canonical encoding of the response dict, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(response=_responses())
    def test_route_body_equals_the_dict_encoding(self, response):
        body = _spliced_body(response)
        assert body == _dict_body(response)
        assert RouteResponse.from_server(response).to_json().encode() == body
        assert RouteResponse.from_json(body) == RouteResponse.from_server(response)

    @pytest.mark.parametrize("engine", list_engines())
    def test_route_body_for_every_engine_and_flag(self, engine):
        network = grid_network(7, 7, perturbation=0.1, seed=3)
        nodes = sorted(network.nodes())
        query = ObfuscatedPathQuery(
            (nodes[0], nodes[20], nodes[5]), (nodes[-1], nodes[30])
        )
        with ServingStack.from_config(
            network, ServingConfig(engine=engine)
        ) as stack:
            table = stack.answer(query).candidates
        for from_cache, coalesced in FLAGS:
            response = ServerResponse(query, table, from_cache, coalesced)
            assert _spliced_body(response) == _dict_body(response)

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(
            st.one_of(_responses(), st.sampled_from(["no_path", "invalid_request", "internal"])),
            min_size=1, max_size=5,
        )
    )
    def test_batch_body_equals_the_dict_encoding(self, entries):
        """Error entries included: ``{"error": code}`` between tables."""
        expected = canonical_json({
            "schema": WIRE_SCHEMA_VERSION,
            "results": [
                {"error": e} if isinstance(e, str) else {
                    k: v
                    for k, v in RouteResponse.from_server(e).to_dict().items()
                    if k != "schema"
                }
                for e in entries
            ],
        }).encode()
        got = batch_body(
            e if isinstance(e, str) else _spliced_body(e) for e in entries
        )
        assert got == expected

    def test_batch_response_to_json_uses_the_same_encoder(self, answered):
        _, response = answered
        batch = BatchResponse.from_server([response, response])
        assert batch.to_json() == canonical_json(batch.to_dict())


class TestEveryGatewayBodyDecodes:
    """Every body the gateway can emit decodes with its wire class: a
    batch of tables and failed slots with :class:`BatchResponse`, an
    error body with :class:`ErrorResponse` (route bodies:
    :class:`TestSplicedBodies`)."""

    @settings(max_examples=100, deadline=None)
    @given(
        entries=st.lists(
            st.one_of(_responses(), st.sampled_from(sorted(ERROR_CODES))),
            min_size=1, max_size=6,
        )
    )
    def test_any_mix_of_tables_and_error_slots(self, entries):
        body = batch_body(
            e if isinstance(e, str) else _spliced_body(e) for e in entries
        )
        decoded = BatchResponse.from_json(body)
        assert decoded.results == tuple(
            ErrorResponse(e) if isinstance(e, str)
            else RouteResponse.from_server(e)
            for e in entries
        )
        assert decoded.to_json().encode() == body

    @pytest.mark.parametrize("code", sorted(ERROR_CODES))
    def test_every_error_body(self, code):
        from repro.service.gateway import RETRY_AFTER_S, _error_response

        for hint in (None, RETRY_AFTER_S):
            body = _error_response(code, retry_after_s=hint).body
            decoded = ErrorResponse.from_json(body)
            assert (decoded.code, decoded.retry_after_s) == (code, hint)

    def test_what_the_gateway_evaluates(self):
        """``_evaluate_pairs`` output, failures included, as one batch."""
        from repro.network.graph import RoadNetwork
        from repro.service.gateway import _evaluate_pairs

        network = RoadNetwork()
        for node, xy in enumerate([(0, 0), (1, 0), (5, 5), (6, 5)]):
            network.add_node(node, *xy)
        network.add_edge(0, 1, 1.0)
        network.add_edge(2, 3, 1.0)
        pairs = [
            ((0,), (1,)),  # answered
            ((0,), (3,)),  # other island: no_path
            ((), (1,)),  # malformed: invalid_request
            ((99,), (1,)),  # unknown node: invalid_request
            ((0, 1), (1, 0)),  # answered
        ]
        with ServingStack.from_config(network) as stack:
            entries = _evaluate_pairs(stack, pairs)
        decoded = BatchResponse.from_json(batch_body(entries)).results
        assert [type(r).__name__ for r in decoded] == [
            "RouteResponse", "ErrorResponse", "ErrorResponse",
            "ErrorResponse", "RouteResponse",
        ]
        assert [r.code for r in decoded[1:4]] == [
            "no_path", "invalid_request", "invalid_request",
        ]
        assert decoded[0].paths == ((0, 1, (0, 1), 1.0),)


#: the worked example of docs/API.md: S = (17, 4), T = (55, 2)
EXAMPLE_PATHS = (
    (17, 55, (17, 18, 19, 55), 3.0),
    (17, 2, (17, 18, 2), 2.0),
    (4, 55, (4, 19, 55), 2.5),
    (4, 2, (4, 19, 18, 2), 3.5),
)
EXAMPLE_ENTRIES = [
    [3.0, 0, 0, 0, 0, 17, 1, 1, 36],  # 17, 18, 19, 55 as differences
    [2.0, 1, 2, 0, 0, -16],  # 17, 18 from entry 0, then 2 (18 - 16)
    [2.5, 0, 0, 2, 2, 4],  # 4, then 19, 55 from entry 0
    [3.5, 1, 2, 2, 2],  # 4, 19 from entry 2 meet 18, 2 from entry 1
]


def _example_doc(swaps: dict) -> dict:
    """The worked example's body with ``{entry index: entry}`` swapped in."""
    entries = [swaps.get(i, list(e)) for i, e in enumerate(EXAMPLE_ENTRIES)]
    return {"schema": WIRE_SCHEMA_VERSION, "paths": entries}


def _round_trip(paths) -> tuple:
    return RouteResponse.from_json(route_body(encode_paths(paths))).paths


class TestSharedPathEntries:
    def test_worked_example(self):
        fragment = encode_paths(EXAMPLE_PATHS)
        assert json.loads(b"{" + fragment + b"}")["paths"] == EXAMPLE_ENTRIES
        assert _round_trip(EXAMPLE_PATHS) == EXAMPLE_PATHS

    def test_a_repeated_node_where_prefix_meets_suffix_is_listed(self):
        """Not a shortest path, but a table the encoder may be handed:
        ``(9, 9)`` would otherwise be prefix ``9`` meeting suffix ``9``,
        which the decoder refuses as an overlap."""
        paths = ((9, 7, (9, 7), 1.0), (8, 9, (8, 9), 1.0), (9, 9, (9, 9), 0.0))
        entries = json.loads(b"{" + encode_paths(paths) + b"}")["paths"]
        assert entries[2] == [0.0, 2, 1, 0, 0, 0]
        assert _round_trip(paths) == paths


#: tables whose entries pin one schema-3 case each (a prefix meeting a
#: suffix on a repeated node is the test above): the listed nodes are
#: differences, the first from the last prefix node (or from 0)
DELTA_CASES = {
    "negative deltas": (
        ((5, 2, (5, 9, 3, 2), 3.0),),
        [[3.0, 0, 0, 0, 0, 5, 4, -6, -1]],
    ),
    "node id 0": (
        ((0, 4, (0, 1, 4), 2.0), (4, 0, (4, 1, 0), 2.0)),
        [[2.0, 0, 0, 0, 0, 0, 1, 3], [2.0, 0, 0, 0, 0, 4, -3, -1]],
    ),
    "ids >= 2**31": (
        (
            (_BIG, 2**33, (_BIG, _BIG + 1, 2**33), 2.0),
            (_BIG, _BIG - 5, (_BIG, _BIG + 1, _BIG - 5), 2.0),
        ),
        [[2.0, 0, 0, 0, 0, _BIG, 1, 2**33 - _BIG - 1],
         [2.0, 1, 2, 0, 0, -6]],
    ),
    "single-node paths": (
        ((7, 9, (7, 8, 9), 2.0), (7, 7, (7,), 0.0), (3, 3, (3,), 0.0)),
        [[2.0, 0, 0, 0, 0, 7, 1, 1], [0.0, 1, 1, 0, 0],
         [0.0, 0, 0, 0, 0, 3]],
    ),
    "whole-path prefix": (
        ((1, 3, (1, 2, 3), 2.0), (1, 2, (1, 2), 1.0)),
        [[2.0, 0, 0, 0, 0, 1, 1, 1], [1.0, 1, 2, 0, 0]],
    ),
}


class TestDeltaEntries:
    """Schema 3: each listed node is its difference from the node before
    it in the same path, so an entry decodes from its table alone."""

    @pytest.mark.parametrize("case", sorted(DELTA_CASES))
    def test_entries_and_round_trip(self, case):
        paths, entries = DELTA_CASES[case]
        assert json.loads(b"{" + encode_paths(paths) + b"}")["paths"] == (
            entries
        )
        assert _round_trip(paths) == paths

    @pytest.mark.parametrize(
        "cls, body",
        [
            (
                RouteResponse,
                '{"paths":[[2.0,0,0,0,0,17,18,55]],'
                '"from_cache":false,"coalesced":false}',
            ),
            (BatchResponse, '{"results":[{"error":"no_path"}]}'),
            (ErrorResponse, '{"error":"overloaded","retry_after_s":0.05}'),
        ],
    )
    def test_an_unstamped_response_is_refused(self, cls, body):
        # An unstamped schema-2 body would otherwise decode as schema 3:
        # the RouteResponse one as the path (17, 35, 90).
        with pytest.raises(WireError) as err:
            cls.from_json(body)
        assert err.value.code == "invalid_request"

    def test_a_schema_2_body_is_refused(self):
        with pytest.raises(WireError) as err:
            RouteResponse.from_json(
                '{"paths":[[1.0,0,0,0,0,1,2]],"schema":2}'
            )
        assert err.value.code == "invalid_request"


@st.composite
def _reference_tables(draw):
    """Shared-path entries ``[pb, pk, sb, sk, deltas]`` that mostly obey
    the rules: each reference is absent or repeats nodes an earlier
    entry has, and one table in four then gets one reference field set
    to any small integer.  Listed nodes are signed differences, so a
    decoder that reads them as ids fails."""
    entries, lengths = [], []
    for i in range(draw(st.integers(0, 6))):
        refs = []
        for _ in ("prefix", "suffix"):
            if i and draw(st.booleans()):
                back = draw(st.integers(1, i))
                refs += [back, draw(st.integers(1, lengths[i - back]))]
            else:
                refs += [0, 0]
        middle = draw(st.lists(
            st.integers(-40, 40), min_size=not any(refs), max_size=4
        ))
        entries.append([*refs, middle])
        lengths.append(max(refs[1] + len(middle) + refs[3], 1))
    if entries and draw(st.integers(0, 3)) == 0:
        entry = draw(st.sampled_from(entries))
        entry[draw(st.integers(0, 3))] = draw(st.integers(-1, 7))
    return entries


class TestStrictResponseDecoding:
    """Numbers are taken as they are sent, never coerced."""

    def test_a_coerced_v1_entry_is_refused(self):
        # the schema-1 decoder read this as (17, 55, (17, 18, 1, 55), 2.0)
        doc = {"schema": WIRE_SCHEMA_VERSION, "paths": [{
            "source": "17", "destination": 55.9,
            "nodes": [17, 18.7, True, "55"], "cost": "2.0",
        }]}
        with pytest.raises(WireError) as err:
            RouteResponse.from_dict(doc)
        assert err.value.code == "invalid_request"

    @pytest.mark.parametrize("flag", ["from_cache", "coalesced"])
    @pytest.mark.parametrize("value", ["yes", 1, None])
    def test_serving_flags_must_be_booleans(self, flag, value):
        doc = {"schema": WIRE_SCHEMA_VERSION, "paths": [], flag: value}
        with pytest.raises(WireError):
            RouteResponse.from_dict(doc)

    @pytest.mark.parametrize("node", [18.7, True, False, "55", None, [18]])
    def test_node_ids_must_be_ints(self, node):
        doc = _example_doc({0: [3.0, 0, 0, 0, 0, 17, node, 19, 55]})
        with pytest.raises(WireError):
            RouteResponse.from_dict(doc)

    @pytest.mark.parametrize(
        "cost", ["2.0", True, None, -1.0, -0.5, math.nan, math.inf, 10**400]
    )
    def test_costs_must_be_finite_and_non_negative(self, cost):
        doc = _example_doc({1: [cost, 1, 2, 0, 0, 2]})
        with pytest.raises(WireError):
            RouteResponse.from_dict(doc)

    def test_an_integer_cost_is_a_float(self):
        doc = _example_doc({1: [2, 1, 2, 0, 0, -16]})
        assert RouteResponse.from_dict(doc).paths == EXAMPLE_PATHS

    @pytest.mark.parametrize("field", [1, 2, 3, 4])
    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_references_must_be_ints(self, field, value):
        entry = list(EXAMPLE_ENTRIES[3])
        entry[field] = value
        with pytest.raises(WireError):
            RouteResponse.from_dict(_example_doc({3: entry}))

    @pytest.mark.parametrize(
        "index, entry",
        [
            (0, [3.0, 0, 1, 0, 0, 17, 18]),  # a prefix of no entry
            (0, [3.0, 1, 1, 0, 0, 17, 18]),  # entry -1
            (1, [2.0, 2, 2, 0, 0, 2]),  # before the table
            (1, [2.0, 0, 2, 0, 0, 2]),  # a length without an entry
            (1, [2.0, 1, 0, 0, 0, 17, 18, 2]),  # an entry without a length
            (1, [2.0, 1, 5, 0, 0, 2]),  # longer than entry 0
            (1, [2.0, -1, 2, 0, 0, 2]),  # a later entry
            (1, [2.0, 1, -2, 0, 0, 2]),
            (2, [2.5, 0, 0, 3, 2, 4]),  # before the table
            (2, [2.5, 0, 0, 2, 9, 4]),  # longer than entry 0
            (2, [2.5, 0, 0, 0, 2, 4]),
            (2, [2.5, 0, 0, 1, 0, 4, 19, 55]),
            (2, [2.5, 0, 0, -2, 2, 4]),
            (3, [3.5, 1, 2, 3, 2]),  # 4, 19 then 19, 55: overlap
            (3, [3.5, 0, 0, 0, 0]),  # no node at all
            (3, [3.5, 1, 2, 2]),  # too short
            (3, (3.5, 1, 2, 2, 2)),  # not a JSON array
        ],
    )
    def test_bad_references_are_refused(self, index, entry):
        with pytest.raises(WireError) as err:
            RouteResponse.from_dict(_example_doc({index: entry}))
        assert err.value.code == "invalid_request"

    @pytest.mark.parametrize("paths", [None, {}, "[]", [[]], [7]])
    def test_paths_must_be_an_array_of_arrays(self, paths):
        with pytest.raises(WireError):
            RouteResponse.from_dict(
                {"schema": WIRE_SCHEMA_VERSION, "paths": paths}
            )

    def test_a_batch_result_must_be_an_object(self):
        with pytest.raises(WireError):
            BatchResponse.from_dict(
                {"schema": WIRE_SCHEMA_VERSION, "results": [[1]]}
            )

    @settings(max_examples=300, deadline=None)
    @given(entries=_reference_tables())
    def test_fuzzed_references_decode_exactly_when_the_rules_allow(
        self, entries
    ):
        doc = {
            "schema": WIRE_SCHEMA_VERSION,
            "paths": [[1.0, pb, pk, sb, sk, *middle]
                      for pb, pk, sb, sk, middle in entries],
        }
        want = _plain_decode(entries)
        if want is None:
            with pytest.raises(WireError):
                RouteResponse.from_json(json.dumps(doc))
        else:
            got = RouteResponse.from_json(json.dumps(doc)).paths
            assert [nodes for _, _, nodes, _ in got] == want


def _plain_decode(entries):
    """The decode rules restated without shortcuts: the node tuples, or
    ``None`` when an entry breaks a rule."""
    out = []
    for i, (pb, pk, sb, sk, middle) in enumerate(entries):
        head, tail = (), ()
        for back, length, is_prefix in ((pb, pk, True), (sb, sk, False)):
            if back == 0 and length == 0:
                continue
            if not (1 <= back <= i and 1 <= length <= len(out[i - back])):
                return None
            ref = out[i - back]
            if is_prefix:
                head = ref[:length]
            else:
                tail = ref[len(ref) - length:]
        if head and tail and not middle and head[-1] == tail[0]:
            return None
        listed, previous = [], head[-1] if head else 0
        for delta in middle:
            previous += delta
            listed.append(previous)
        nodes = (*head, *listed, *tail)
        if not nodes:
            return None
        out.append(nodes)
    return out


def _permuted_grid(seed: int):
    """A perturbed grid whose ids are shuffled by a seeded permutation:
    neighbours no longer carry nearby ids, the worst case for id
    differences."""
    grid = grid_network(7, 7, perturbation=0.2, seed=seed)
    nodes = sorted(grid.nodes())
    shuffled = random.Random(seed).sample(nodes, len(nodes))
    relabel = dict(zip(nodes, shuffled))
    network = RoadNetwork()
    for node in nodes:
        position = grid.position(node)
        network.add_node(relabel[node], position.x, position.y)
    for u, v, weight in grid.edges():
        network.add_edge(relabel[u], relabel[v], weight)
    return network


#: an unperturbed grid (equal-cost ties everywhere, so CH tables need
#: not be tree-shaped), perturbed ones and a permuted one
_MAPS = {
    "ties": lambda: grid_network(7, 7),
    "permuted": functools.partial(_permuted_grid, 5),
    **{
        f"perturbed-{seed}": functools.partial(
            grid_network, 7, 7, perturbation=0.2, seed=seed
        )
        for seed in range(3)
    },
}
#: ``overlay-csr`` is the name the churn workload is served under (an
#: alias of the ``dijkstra-csr`` row)
_ENGINES = ["dijkstra-csr", "ch-csr", "overlay-csr"]


@functools.lru_cache(maxsize=None)
def _map(name):
    return _MAPS[name]()


@functools.lru_cache(maxsize=None)
def _stack(name, engine):
    return ServingStack.from_config(_map(name), ServingConfig(engine=engine))


def _layout_cases(paths) -> set[str]:
    """Which layout cases a table's entries exercise."""
    cases = set()
    entries = json.loads(b"{" + encode_paths(paths) + b"}")["paths"]
    for (_, _, nodes, _), (_, _, pk, _, sk, *middle) in zip(paths, entries):
        if len(nodes) == 1:
            cases.add("single node")
        if pk == len(nodes) > 1:
            cases.add("whole-path prefix")
        if pk and sk and not middle:
            cases.add("prefix meets suffix")
    if all(e[1:5] == [0, 0, 0, 0] for e in entries):
        cases.add("no sharing")
    return cases


class TestRoundTrip:
    """``decode(encode(table)) == table`` for every engine's tables."""

    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(sorted(_MAPS)),
        engine=st.sampled_from(_ENGINES),
        data=st.data(),
    )
    def test_engine_tables_round_trip(self, name, engine, data):
        nodes = sorted(_map(name).nodes())
        sources = data.draw(st.lists(
            st.sampled_from(nodes), min_size=1, max_size=4, unique=True
        ))
        destinations = data.draw(st.lists(
            st.sampled_from(nodes), min_size=1, max_size=4, unique=True
        ))
        query = ObfuscatedPathQuery(tuple(sources), tuple(destinations))
        table = _stack(name, engine).answer(query).candidates
        paths = table_paths(query.sources, query.destinations, table)
        assert _round_trip(paths) == paths

    @settings(max_examples=100, deadline=None)
    @given(response=_responses())
    def test_synthetic_tables_round_trip(self, response):
        """Random node ids: no sharing beyond the endpoints."""
        paths = RouteResponse.from_server(response).paths
        assert _round_trip(paths) == paths

    def test_every_layout_case_occurs(self):
        seen = set()
        for name in sorted(_MAPS):
            nodes = sorted(_map(name).nodes())
            rng = random.Random(name)
            for engine in _ENGINES:
                for size in (1, 2, 3, 4):
                    s = tuple(rng.sample(nodes, size))
                    # T shares a node with S: some s == t paths
                    t = (s[0], *rng.sample(nodes, size))
                    t = tuple(dict.fromkeys(t))
                    query = ObfuscatedPathQuery(s, t)
                    table = _stack(name, engine).answer(query).candidates
                    paths = table_paths(s, t, table)
                    assert _round_trip(paths) == paths
                    seen |= _layout_cases(paths)
                single = ObfuscatedPathQuery((nodes[3],), (nodes[-3],))
                paths = table_paths(
                    single.sources, single.destinations,
                    _stack(name, engine).answer(single).candidates,
                )
                seen |= _layout_cases(paths)
        assert seen == {
            "single node", "whole-path prefix", "prefix meets suffix",
            "no sharing",
        }

    @settings(max_examples=60, deadline=None)
    @given(paths=_shared_tables())
    def test_shared_tables_round_trip(self, paths):
        """Tree-shaped tables over ids where differences are the risk."""
        assert _round_trip(paths) == paths

    @pytest.mark.parametrize("engine", _ENGINES)
    def test_a_permuted_grid_round_trips(self, engine):
        """Ids with no locality: differences are as large as the ids and
        often negative, and every table still decodes to itself."""
        nodes = sorted(_map("permuted").nodes())
        rng = random.Random(engine)
        negative = 0
        for _ in range(20):
            query = ObfuscatedPathQuery(
                tuple(rng.sample(nodes, 3)), tuple(rng.sample(nodes, 3))
            )
            table = _stack("permuted", engine).answer(query).candidates
            paths = table_paths(query.sources, query.destinations, table)
            assert _round_trip(paths) == paths
            entries = json.loads(b"{" + encode_paths(paths) + b"}")["paths"]
            negative += sum(d < 0 for entry in entries for d in entry[5:])
        assert negative > 0

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(["permuted", "perturbed-1"]),
        seed=st.integers(0, 2**32),
    )
    def test_a_drawn_union_pass_slice_encodes_as_the_solo_answer(
        self, name, seed
    ):
        nodes = sorted(_map(name).nodes())
        rng = random.Random(seed)
        queries = [
            ObfuscatedPathQuery(
                tuple(rng.sample(nodes, rng.randint(1, 4))),
                tuple(rng.sample(nodes, rng.randint(1, 4))),
            )
            for _ in range(rng.randint(2, 4))
        ]
        config = ServingConfig(engine="dijkstra-csr")
        with ServingStack.from_config(_map(name), config) as together:
            union = together.answer_batch(queries)
        solo = _stack(name, "dijkstra-csr")
        for a, q in zip(union, queries):
            b = solo.answer(q)
            assert _spliced_body(
                ServerResponse(a.query, a.candidates)
            ) == _spliced_body(ServerResponse(b.query, b.candidates))

    @pytest.mark.parametrize("name", ["ties", "perturbed-0", "permuted"])
    @pytest.mark.parametrize("engine", _ENGINES)
    def test_a_union_pass_slice_encodes_as_the_solo_answer(
        self, name, engine
    ):
        nodes = sorted(_map(name).nodes())
        rng = random.Random(f"{name}:{engine}")
        queries = [
            ObfuscatedPathQuery(
                tuple(rng.sample(nodes, 3)), tuple(rng.sample(nodes, 3))
            )
            for _ in range(4)
        ]
        config = ServingConfig(engine=engine)
        with ServingStack.from_config(_map(name), config) as together:
            union = together.answer_batch(queries)
        assert all(response.coalesced for response in union)
        with ServingStack.from_config(_map(name), config) as solo:
            alone = [solo.answer_batch([q])[0] for q in queries]
        assert not any(response.coalesced for response in alone)
        for a, b in zip(union, alone):
            assert _spliced_body(
                ServerResponse(a.query, a.candidates)
            ) == _spliced_body(ServerResponse(b.query, b.candidates))
