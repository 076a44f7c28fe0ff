"""Unit tests for repro.core.obfuscator."""

from __future__ import annotations

import pytest

from repro.core.endpoints import UniformEndpointStrategy
from repro.core.obfuscator import PathQueryObfuscator
from repro.core.privacy import breach_probability
from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.exceptions import ObfuscationError
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork


@pytest.fixture(scope="module")
def net():
    return grid_network(15, 15, perturbation=0.1, seed=91)


@pytest.fixture()
def obfuscator(net):
    return PathQueryObfuscator(net, seed=5)


#: chi-square critical values at p = 0.001 by degrees of freedom
_CHI2_P001 = {1: 10.828, 2: 13.816, 3: 16.266}


def request(user, s, t, f_s=3, f_t=3):
    return ClientRequest(user, PathQuery(s, t), ProtectionSetting(f_s, f_t))


def _true_position_counts(net, mode, f, draws):
    """How often the true source (node 0) and destination (node 200)
    sit at each wire position over ``draws`` obfuscations."""
    obfuscator = PathQueryObfuscator(net, seed=12 + f)
    counts = {"s": [0] * f, "t": [0] * f}
    for i in range(draws):
        mine = request(f"u{i}", 0, 200, f, f)
        if mode == "independent":
            query = obfuscator.obfuscate_independent(mine).query
        else:
            other = request(f"v{i}", 1, 201, f, f)
            query = obfuscator.obfuscate_shared([mine, other]).query
        assert len(query.sources) == len(query.destinations) == f
        counts["s"][query.sources.index(0)] += 1
        counts["t"][query.destinations.index(200)] += 1
    return counts


def _chi_square(observed):
    expected = sum(observed) / len(observed)
    return sum((o - expected) ** 2 / expected for o in observed)


class TestIndependentObfuscation:
    def test_sizes_match_protection_setting(self, obfuscator):
        record = obfuscator.obfuscate_independent(request("alice", 0, 200, 4, 5))
        assert len(record.query.sources) == 4
        assert len(record.query.destinations) == 5
        assert record.kind == "independent"

    def test_true_endpoints_covered(self, obfuscator):
        req = request("alice", 0, 200)
        record = obfuscator.obfuscate_independent(req)
        assert record.query.covers(req.query)

    def test_fakes_disjoint_from_true_endpoints(self, obfuscator):
        req = request("alice", 0, 200, 4, 4)
        record = obfuscator.obfuscate_independent(req)
        assert 0 not in record.fake_sources
        assert 200 not in record.fake_destinations
        assert not record.fake_sources & record.fake_destinations

    def test_no_protection_means_no_fakes(self, obfuscator):
        record = obfuscator.obfuscate_independent(request("alice", 0, 200, 1, 1))
        assert record.query.sources == (0,)
        assert record.query.destinations == (200,)
        assert breach_probability(record.query) == 1.0

    def test_breach_matches_setting(self, obfuscator):
        record = obfuscator.obfuscate_independent(request("alice", 0, 200, 2, 3))
        assert breach_probability(record.query) == pytest.approx(1 / 6)

    def test_record_registered_as_pending(self, obfuscator):
        record = obfuscator.obfuscate_independent(request("alice", 0, 200))
        assert obfuscator.pending[record.record_id] is record

    def test_record_ids_unique(self, obfuscator):
        a = obfuscator.obfuscate_independent(request("alice", 0, 200))
        b = obfuscator.obfuscate_independent(request("bob", 1, 201))
        assert a.record_id != b.record_id

    def test_true_position_is_shuffled(self, net):
        """The true endpoints' wire positions are uniform over the ``f``
        slots (order would leak the secret): a chi-square test at
        p = 0.001 for f = 2, 3, 4 in both modes, over fixed seeds, so it
        is deterministic."""
        for f in (2, 3, 4):
            for mode in ("independent", "shared"):
                counts = _true_position_counts(net, mode, f, draws=2000)
                for side, observed in counts.items():
                    assert _chi_square(observed) < _CHI2_P001[f - 1], (
                        mode, f, side, observed,
                    )

    def test_tiny_network_raises_when_out_of_fakes(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        net.add_edge(1, 2)
        obfuscator = PathQueryObfuscator(net)
        with pytest.raises(ObfuscationError):
            obfuscator.obfuscate_independent(request("a", 1, 2, 5, 5))

    def test_single_node_network_rejected(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        with pytest.raises(ObfuscationError):
            PathQueryObfuscator(net)


class TestSharedObfuscation:
    def test_all_true_endpoints_covered(self, obfuscator):
        requests = [request("a", 0, 200), request("b", 1, 201), request("c", 2, 202)]
        record = obfuscator.obfuscate_shared(requests)
        for req in requests:
            assert record.query.covers(req.query)
        assert record.kind == "shared"

    def test_sizes_meet_max_protection(self, obfuscator):
        requests = [request("a", 0, 200, 2, 2), request("b", 1, 201, 5, 4)]
        record = obfuscator.obfuscate_shared(requests)
        assert len(record.query.sources) >= 5
        assert len(record.query.destinations) >= 4

    def test_no_fakes_when_enough_real_endpoints(self, obfuscator):
        requests = [request(f"u{i}", i, 200 + i, 3, 3) for i in range(5)]
        record = obfuscator.obfuscate_shared(requests)
        assert not record.fake_sources
        assert not record.fake_destinations
        assert len(record.query.sources) == 5

    def test_duplicate_endpoints_deduplicated(self, obfuscator):
        requests = [request("a", 0, 200, 1, 1), request("b", 0, 201, 1, 1)]
        record = obfuscator.obfuscate_shared(requests)
        assert record.query.sources.count(0) == 1

    def test_true_accessors(self, obfuscator):
        requests = [request("a", 0, 200), request("b", 1, 201)]
        record = obfuscator.obfuscate_shared(requests)
        assert record.true_sources == {0, 1}
        assert record.true_destinations == {200, 201}

    def test_empty_batch_rejected(self, obfuscator):
        with pytest.raises(ObfuscationError):
            obfuscator.obfuscate_shared([])


class TestBatchPipeline:
    def test_independent_mode_one_record_per_request(self, obfuscator):
        requests = [request(f"u{i}", i, 200 + i) for i in range(4)]
        records = obfuscator.obfuscate_batch(requests, mode="independent")
        assert len(records) == 4
        assert all(r.kind == "independent" for r in records)

    def test_shared_mode_single_cluster_by_default(self, obfuscator):
        requests = [request(f"u{i}", i, 200 + i) for i in range(4)]
        records = obfuscator.obfuscate_batch(requests, mode="shared")
        assert len(records) == 1
        assert records[0].kind == "shared"

    def test_shared_mode_with_diameter_bound_splits(self, net):
        obfuscator = PathQueryObfuscator(net, seed=5)
        # Two far-apart groups of sources.
        requests = [request("a", 0, 200), request("b", 1, 201),
                    request("c", 224, 30), request("d", 223, 31)]
        records = obfuscator.obfuscate_batch(
            requests, mode="shared", max_source_diameter=3.0,
            max_destination_diameter=float("inf"),
        )
        assert len(records) == 2

    def test_unknown_mode_rejected(self, obfuscator):
        with pytest.raises(ValueError):
            obfuscator.obfuscate_batch([], mode="telepathic")


class TestDiscard:
    def test_discard_removes_pending(self, obfuscator):
        record = obfuscator.obfuscate_independent(request("alice", 0, 200))
        obfuscator.discard(record.record_id)
        assert record.record_id not in obfuscator.pending

    def test_discard_is_idempotent(self, obfuscator):
        obfuscator.discard(999_999)  # no error


class TestDeterminism:
    def test_same_seed_same_obfuscation(self, net):
        a = PathQueryObfuscator(net, strategy=UniformEndpointStrategy(), seed=42)
        b = PathQueryObfuscator(net, strategy=UniformEndpointStrategy(), seed=42)
        req = request("alice", 0, 200, 4, 4)
        ra = a.obfuscate_independent(req)
        rb = b.obfuscate_independent(req)
        assert ra.query == rb.query

    def test_different_seed_different_fakes(self, net):
        a = PathQueryObfuscator(net, strategy=UniformEndpointStrategy(), seed=1)
        b = PathQueryObfuscator(net, strategy=UniformEndpointStrategy(), seed=2)
        req = request("alice", 0, 200, 5, 5)
        assert (
            a.obfuscate_independent(req).query != b.obfuscate_independent(req).query
        )


class TestStickyMemo:
    """A sticky repeat is served from the memo and cannot be told from
    a fresh derivation; the memo itself holds nothing secret."""

    FIELDS = ("query", "fake_sources", "fake_destinations", "kind")

    def test_repeat_equals_first_call_with_fresh_record(self, obfuscator):
        first_request = request("alice", 0, 200, 4, 3)
        first = obfuscator.obfuscate_independent(first_request, "alice")
        again_request = request("alice", 0, 200, 4, 3)
        again = obfuscator.obfuscate_independent(again_request, "alice")
        for name in self.FIELDS:
            assert getattr(again, name) == getattr(first, name)
        assert again.record_id != first.record_id
        assert again.requests == (again_request,)
        assert again.requests[0] is again_request
        assert obfuscator.pending[again.record_id] is again
        assert len(obfuscator._sticky_memo) == 1

    def test_memoized_record_equals_a_rederived_one(self, net):
        """Field for field: the fakes recomputed as S - {s}, T - {t}
        are the fakes the derivation drew."""
        warm = PathQueryObfuscator(net, seed=5)
        req = request("alice", 17, 203, 5, 4)
        warm.obfuscate_independent(req, "alice")
        memoized = warm.obfuscate_independent(req, "alice")
        derived = PathQueryObfuscator(net, seed=5).obfuscate_independent(
            req, "alice"
        )
        for name in self.FIELDS + ("requests",):
            assert getattr(memoized, name) == getattr(derived, name)
        assert memoized.fake_sources == set(derived.query.sources) - {17}
        assert memoized.fake_destinations == (
            set(derived.query.destinations) - {203}
        )

    def test_setting_trip_and_key_are_separate_entries(self, obfuscator):
        base = obfuscator.obfuscate_independent(request("a", 0, 200), "a")
        variants = [
            obfuscator.obfuscate_independent(request("a", 0, 200, 4, 3), "a"),
            obfuscator.obfuscate_independent(request("a", 0, 200, 3, 4), "a"),
            obfuscator.obfuscate_independent(request("a", 1, 200), "a"),
            obfuscator.obfuscate_independent(request("a", 0, 201), "a"),
            obfuscator.obfuscate_independent(request("a", 0, 200), "b"),
        ]
        assert len(obfuscator._sticky_memo) == 1 + len(variants)
        assert all(v.query != base.query for v in variants)

    def test_non_sticky_requests_are_not_memoized(self, obfuscator):
        obfuscator.obfuscate_independent(request("alice", 0, 200))
        assert not obfuscator._sticky_memo

    def test_lru_evicts_at_its_bound_and_rederives_identically(
        self, net, monkeypatch
    ):
        import repro.core.obfuscator as module

        monkeypatch.setattr(module, "STICKY_MEMO_SIZE", 3)
        obfuscator = PathQueryObfuscator(net, seed=5)
        trips = [request(f"u{k}", k, 200 + k) for k in range(5)]
        first = [
            obfuscator.obfuscate_independent(r, r.user).query for r in trips
        ]
        assert len(obfuscator._sticky_memo) == 3
        # u0 was evicted: asking again derives — and derives the same Q
        scans = []
        real = obfuscator._derive_independent
        monkeypatch.setattr(
            obfuscator, "_derive_independent",
            lambda *a: scans.append(a) or real(*a),
        )
        assert obfuscator.obfuscate_independent(trips[0], "u0").query == first[0]
        assert len(scans) == 1
        assert len(obfuscator._sticky_memo) == 3
        # u4 is recent: served without deriving
        assert obfuscator.obfuscate_independent(trips[4], "u4").query == first[4]
        assert len(scans) == 1
        # a hit refreshes recency: u3 is now the oldest and goes next
        obfuscator.obfuscate_independent(request("new", 7, 100), "new")
        obfuscator.obfuscate_independent(trips[4], "u4")
        assert len(scans) == 2
        obfuscator.obfuscate_independent(trips[3], "u3")
        assert len(scans) == 3

    def test_memo_holds_digests_and_server_visible_queries_only(self, net):
        from repro.core.query import ObfuscatedPathQuery

        obfuscator = PathQueryObfuscator(net, seed=5)
        key = "commuter-key-73"
        req = request("alice", 123, 211, 4, 4)
        record = obfuscator.obfuscate_independent(req, key)
        ((digest, value),) = obfuscator._sticky_memo.items()
        # key: an opaque fixed-size digest — not the sticky key, not the
        # pair, and not computable without the obfuscator's seed
        assert type(digest) is bytes and len(digest) == 16
        assert key.encode() not in digest
        other = PathQueryObfuscator(net, seed=6)
        other.obfuscate_independent(req, key)
        assert digest not in other._sticky_memo
        # value: exactly the Q(S, T) that went to the server — a frozen
        # pair of endpoint tuples with no request, user, fake-set or
        # true-pair field to tell s from the decoys
        assert type(value) is ObfuscatedPathQuery
        assert value is record.query
        assert set(ObfuscatedPathQuery.__slots__) == {"sources", "destinations"}
        assert len(value.sources) == 4 and len(value.destinations) == 4
