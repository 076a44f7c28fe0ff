"""Unit tests for the linkage attack and the sticky-decoy defense."""

from __future__ import annotations

import pytest

from repro.core.attacks import LinkageAttack
from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import (
    ClientRequest,
    ObfuscatedPathQuery,
    PathQuery,
    ProtectionSetting,
)
from repro.exceptions import QueryError
from repro.network.generators import grid_network


@pytest.fixture(scope="module")
def net():
    return grid_network(20, 20, perturbation=0.1, seed=1101)


@pytest.fixture()
def commuter(net):
    return ClientRequest("alice", PathQuery(21, 378), ProtectionSetting(4, 4))


class TestLinkageAttackAnalytic:
    def test_single_observation_is_definition_2(self):
        q = ObfuscatedPathQuery((1, 2, 3), (4, 5, 6))
        outcome = LinkageAttack().intersect([q])
        assert outcome.breach_probability == pytest.approx(1 / 9)
        assert not outcome.exposed

    def test_disjoint_fakes_collapse_to_truth(self):
        first = ObfuscatedPathQuery((1, 10, 11), (4, 20, 21))
        second = ObfuscatedPathQuery((1, 12, 13), (4, 22, 23))
        outcome = LinkageAttack().intersect([first, second])
        assert outcome.candidate_sources == {1}
        assert outcome.candidate_destinations == {4}
        assert outcome.exposed
        assert outcome.breach_probability == 1.0

    def test_identical_observations_are_fixpoint(self):
        q = ObfuscatedPathQuery((1, 2), (3, 4))
        outcome = LinkageAttack().intersect([q, q, q])
        assert outcome.breach_probability == pytest.approx(1 / 4)
        assert outcome.observations == 3

    def test_empty_observations_rejected(self):
        with pytest.raises(QueryError):
            LinkageAttack().intersect([])

    def test_unlinkable_observations_rejected(self):
        first = ObfuscatedPathQuery((1,), (2,))
        second = ObfuscatedPathQuery((3,), (4,))
        with pytest.raises(QueryError):
            LinkageAttack().intersect([first, second])


class TestFreshFakesLeak:
    def test_repeats_shrink_anonymity(self, net, commuter):
        obfuscator = PathQueryObfuscator(net, seed=3)
        observations = [
            obfuscator.obfuscate_independent(commuter).query for _ in range(6)
        ]
        outcome = LinkageAttack().intersect(observations)
        assert commuter.query.source in outcome.candidate_sources
        assert commuter.query.destination in outcome.candidate_destinations
        assert outcome.breach_probability > 1 / 16  # strictly worse than Def. 2

    def test_enough_repeats_expose_fully(self, net, commuter):
        obfuscator = PathQueryObfuscator(net, seed=3)
        observations = [
            obfuscator.obfuscate_independent(commuter).query for _ in range(12)
        ]
        outcome = LinkageAttack().intersect(observations)
        assert outcome.exposed


class TestStickyDecoys:
    def test_sticky_queries_are_identical(self, net, commuter):
        obfuscator = PathQueryObfuscator(net, seed=3)
        first = obfuscator.obfuscate_independent(commuter, sticky_key="alice")
        second = obfuscator.obfuscate_independent(commuter, sticky_key="alice")
        assert first.query == second.query
        assert first.fake_sources == second.fake_sources

    def test_sticky_holds_definition_2_bound(self, net, commuter):
        obfuscator = PathQueryObfuscator(net, seed=3)
        observations = [
            obfuscator.obfuscate_independent(commuter, sticky_key="alice").query
            for _ in range(20)
        ]
        outcome = LinkageAttack().intersect(observations)
        assert outcome.breach_probability == pytest.approx(1 / 16)
        assert not outcome.exposed

    def test_different_sticky_keys_differ(self, net, commuter):
        obfuscator = PathQueryObfuscator(net, seed=3)
        a = obfuscator.obfuscate_independent(commuter, sticky_key="alice")
        b = obfuscator.obfuscate_independent(commuter, sticky_key="mallory")
        assert a.query != b.query

    def test_different_queries_same_key_differ(self, net):
        obfuscator = PathQueryObfuscator(net, seed=3)
        a = obfuscator.obfuscate_independent(
            ClientRequest("alice", PathQuery(21, 378), ProtectionSetting(3, 3)),
            sticky_key="alice",
        )
        b = obfuscator.obfuscate_independent(
            ClientRequest("alice", PathQuery(22, 377), ProtectionSetting(3, 3)),
            sticky_key="alice",
        )
        assert a.query != b.query

    def test_sticky_stable_across_obfuscator_instances(self, net, commuter):
        """Sticky derivation depends only on (seed, key, query, setting),
        so a restarted obfuscator re-issues identical decoys."""
        first = PathQueryObfuscator(net, seed=3).obfuscate_independent(
            commuter, sticky_key="alice"
        )
        second = PathQueryObfuscator(net, seed=3).obfuscate_independent(
            commuter, sticky_key="alice"
        )
        assert first.query == second.query

    def test_sticky_still_covers_truth(self, net, commuter):
        obfuscator = PathQueryObfuscator(net, seed=3)
        record = obfuscator.obfuscate_independent(commuter, sticky_key="alice")
        assert record.query.covers(commuter.query)


class TestE12Experiment:
    def test_shapes(self):
        from repro.experiments import e12_linkage

        config = e12_linkage.Config(
            grid_width=15, grid_height=15, num_users=5,
            repeat_counts=[1, 5],
        )
        result = e12_linkage.run(config)
        first, last = result.rows[0], result.rows[-1]
        assert last["fresh_breach"] > first["fresh_breach"]
        assert last["sticky_breach"] == pytest.approx(first["sticky_breach"])
        assert last["fresh_exposed"] == 1.0
        assert last["sticky_exposed"] == 0.0
