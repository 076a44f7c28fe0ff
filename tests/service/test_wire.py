"""Wire schema tests: round trips, strict decoding, error codes.

The wire layer is the gateway's contract with clients; these tests pin
the canonical encoding (sorted keys, no whitespace), the strict decode
rules (unknown fields and malformed endpoints are rejected with
machine-readable codes), and the redaction property that error bodies
never carry free-form exception text.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import ObfuscatedPathQuery
from repro.core.server import ServerResponse
from repro.network.generators import grid_network
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
        doc["paths"][0]["nodes"][-1] = bad
        with pytest.raises(WireError) as err:
            RouteResponse.from_json(json.dumps(doc))
        assert err.value.code == "invalid_request"

    def test_node_list_must_be_iterable(self, answered):
        _, server_response = answered
        doc = json.loads(RouteResponse.from_server(server_response).to_json())
        doc["paths"][0]["nodes"] = 7
        with pytest.raises(WireError):
            RouteResponse.from_dict(doc)


class TestBatchResponse:
    def test_json_round_trip(self, answered):
        _, server_response = answered
        batch = BatchResponse.from_server([server_response] * 2)
        assert BatchResponse.from_json(batch.to_json()) == batch


class TestErrorResponse:
    @pytest.mark.parametrize("code", sorted(ERROR_CODES))
    def test_round_trip_every_code(self, code):
        error = ErrorResponse(code)
        again = ErrorResponse.from_json(error.to_json())
        assert again.code == code
        assert again.message == ERROR_CODES[code]

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
