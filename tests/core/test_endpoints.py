"""Unit tests for repro.core.endpoints (fake endpoint strategies)."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.endpoints import (
    CompactEndpointStrategy,
    FakeEndpointStrategy,
    PopularityWeightedStrategy,
    RingEndpointStrategy,
    SelectionContext,
    UniformEndpointStrategy,
    get_strategy,
)
from repro.exceptions import ObfuscationError
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.network.spatial import GridSpatialIndex


@pytest.fixture(scope="module")
def env():
    net = grid_network(20, 20, perturbation=0.1, seed=71)
    return net, GridSpatialIndex(net)


def make_context(net, index, anchors, counterparts, exclude=frozenset(), seed=0):
    return SelectionContext(
        network=net,
        index=index,
        rng=random.Random(seed),
        anchors=anchors,
        counterparts=counterparts,
        exclude=frozenset(exclude),
    )


ALL_STRATEGIES = ["uniform", "ring", "compact"]


class TestCommonBehaviour:
    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_returns_requested_count_of_distinct_nodes(self, env, name):
        net, index = env
        nodes = list(net.nodes())
        strategy = get_strategy(name)
        ctx = make_context(net, index, [nodes[0]], [nodes[-1]])
        fakes = strategy.select(ctx, 5)
        assert len(fakes) == 5
        assert len(set(fakes)) == 5
        assert all(f in net for f in fakes)

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_respects_exclusions(self, env, name):
        net, index = env
        nodes = list(net.nodes())
        exclude = set(nodes[:50])
        strategy = get_strategy(name)
        ctx = make_context(net, index, [nodes[0]], [nodes[-1]], exclude=exclude)
        fakes = strategy.select(ctx, 5)
        assert not set(fakes) & exclude

    @pytest.mark.parametrize("name", ALL_STRATEGIES)
    def test_deterministic_given_rng(self, env, name):
        net, index = env
        nodes = list(net.nodes())
        strategy = get_strategy(name)
        a = strategy.select(make_context(net, index, [nodes[0]], [nodes[-1]], seed=3), 4)
        b = strategy.select(make_context(net, index, [nodes[0]], [nodes[-1]], seed=3), 4)
        assert a == b

    def test_zero_count_unsupported_path_not_taken(self, env):
        """Strategies are only invoked with count >= 1 by the obfuscator;
        count 0 still behaves sanely (empty draw)."""
        net, index = env
        nodes = list(net.nodes())
        ctx = make_context(net, index, [nodes[0]], [nodes[-1]])
        assert UniformEndpointStrategy().select(ctx, 0) == []

    @given(
        candidates=st.lists(st.integers(min_value=0, max_value=30), max_size=60),
        exclude=st.frozensets(st.integers(min_value=0, max_value=30)),
        count=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=300, deadline=None)
    def test_draw_unique_matches_the_comprehension_form(
        self, candidates, exclude, count, seed
    ):
        """Same decoys, same order, same error as filtering then deduping
        the candidate list with two comprehensions (the seeded ``rng``
        must see the identical population)."""

        def reference(candidates, count, rng, exclude):
            pool = [n for n in candidates if n not in exclude]
            seen = set()
            unique = [n for n in pool if not (n in seen or seen.add(n))]
            if len(unique) < count:
                raise ObfuscationError("short")
            return rng.sample(unique, count)

        def outcome(draw):
            rng = random.Random(seed)
            try:
                return draw(candidates, count, rng, exclude), rng.random()
            except ObfuscationError:
                return ObfuscationError

        assert outcome(FakeEndpointStrategy._draw_unique) == outcome(reference)

    def test_insufficient_candidates_raise(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        net.add_edge(1, 2)
        index = GridSpatialIndex(net)
        ctx = make_context(net, index, [1], [2], exclude={1, 2})
        with pytest.raises(ObfuscationError):
            UniformEndpointStrategy().select(ctx, 1)


def _dedup_draw(candidates, count, rng, exclude):
    """The deduplicating draw every strategy used before, verbatim."""
    unique = dict.fromkeys(candidates)
    for node in exclude:
        unique.pop(node, None)
    if len(unique) < count:
        raise ObfuscationError(
            f"need {count} fake endpoints but only {len(unique)} candidates"
        )
    return rng.sample(list(unique), count)


def _draw_outcome(draw, seed, candidates, count, exclude, **flags):
    """Decoys (or the error) and the generator's state after the draw."""
    rng = random.Random(seed)
    try:
        picked = draw(candidates, count, rng, exclude, **flags)
    except ObfuscationError:
        picked = ObfuscationError
    return picked, rng.getstate()


class TestDistinctDraw:
    """``_draw_unique(..., distinct=True)`` filters the candidates without
    deduplicating them: on candidates with no repeats it must pick what
    deduplicating first picks and leave the generator in the same
    state, at population sizes on both sides of ``random.sample``'s
    set-size switch (21)."""

    @given(
        population=st.lists(
            st.integers(min_value=0, max_value=400), unique=True, max_size=60
        ),
        outside=st.frozensets(st.integers(min_value=401, max_value=450)),
        data=st.data(),
        count=st.integers(min_value=0, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=400, deadline=None)
    def test_same_decoys_and_rng_state_as_deduplicating(
        self, population, outside, data, count, seed
    ):
        inside = data.draw(
            st.frozensets(st.sampled_from(population)) if population
            else st.just(frozenset())
        )
        exclude = inside | outside
        assert _draw_outcome(
            FakeEndpointStrategy._draw_unique, seed, population, count,
            exclude, distinct=True,
        ) == _draw_outcome(_dedup_draw, seed, population, count, exclude)

    @settings(max_examples=200, deadline=None)
    @given(
        corners=st.tuples(*[st.floats(-2.0, 22.0)] * 4),
        picks=st.lists(st.integers(min_value=0, max_value=399), max_size=8),
        count=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_box_candidates_draw_like_deduplicating(
        self, env, corners, picks, count, seed
    ):
        """Candidates straight from a box query, as compact draws them."""
        net, index = env
        nodes = list(net.nodes())
        min_x, min_y = min(corners[0], corners[2]), min(corners[1], corners[3])
        max_x, max_y = max(corners[0], corners[2]), max(corners[1], corners[3])
        candidates = index.nodes_in_box(min_x, min_y, max_x, max_y)
        exclude = frozenset(nodes[i] for i in picks) | {-7}
        assert _draw_outcome(
            FakeEndpointStrategy._draw_unique, seed, candidates, count,
            exclude, distinct=True,
        ) == _draw_outcome(_dedup_draw, seed, candidates, count, exclude)

    def test_short_population_raises(self):
        with pytest.raises(ObfuscationError, match="only 2 candidates"):
            FakeEndpointStrategy._draw_unique(
                [1, 2, 3, 4], 3, random.Random(0), frozenset({2, 4, 9}),
                distinct=True,
            )

    @pytest.mark.parametrize(
        "name, anchors",
        [("uniform", 1), ("ring", 1), ("ring", 2), ("compact", 1), ("compact", 2)],
    )
    def test_strategies_draw_what_they_drew_before(self, env, name, anchors):
        """Every strategy's picks equal the deduplicating draw over the
        same candidates, including a ring around two anchors, whose
        annuli overlap and are deduplicated."""
        net, index = env
        nodes = list(net.nodes())
        strategy = get_strategy(name)
        for k in range(30):
            sources = [nodes[(7 * k + 19 * i) % 400] for i in range(anchors)]
            t = nodes[(131 * k + 50) % 400]
            exclude = {*sources, t, nodes[(13 * k) % 400]}
            got = strategy.select(
                make_context(net, index, sources, [t], exclude, seed=k), 3
            )
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    FakeEndpointStrategy, "_draw_unique",
                    staticmethod(
                        lambda c, n, rng, ex, distinct=False: _dedup_draw(
                            c, n, rng, ex
                        )
                    ),
                )
                want = strategy.select(
                    make_context(net, index, sources, [t], exclude, seed=k), 3
                )
            assert got == want


#: sha256 over the first 200 cold_far-shaped queries' ``repr((S, T))``
#: (100x100 perturbed grid, uniform trips, f = 4, compact decoys,
#: obfuscator seed 11), recorded before the draw stopped deduplicating
COLD_FAR_QUERIES_SHA256 = "cff725dd14674df9fab1bcfb71f3d22a65259a30bc0b0cddb68bcca6f49756f6"


def test_cold_far_shaped_queries_keep_their_decoys():
    from repro.core.obfuscator import PathQueryObfuscator
    from repro.core.query import ClientRequest, ProtectionSetting
    from repro.workloads.queries import uniform_queries

    net = grid_network(100, 100, perturbation=0.1, seed=7)
    obfuscator = PathQueryObfuscator(net, seed=11)
    digest = hashlib.sha256()
    for k, trip in enumerate(uniform_queries(net, 200, seed=11)):
        request = ClientRequest(f"u{k}", trip, ProtectionSetting(4, 4))
        query = obfuscator.obfuscate_independent(request).query
        digest.update(repr((query.sources, query.destinations)).encode())
    assert digest.hexdigest() == COLD_FAR_QUERIES_SHA256


class TestCompactStrategy:
    def test_fakes_stay_near_query_box(self, env):
        net, index = env
        nodes = list(net.nodes())
        s, t = nodes[0], nodes[45]  # a short query in one corner
        ctx = make_context(net, index, [s], [t])
        fakes = CompactEndpointStrategy(margin=0.25).select(ctx, 6)
        ps, pt = net.position(s), net.position(t)
        span = max(abs(ps.x - pt.x), abs(ps.y - pt.y)) + 1.0
        for fake in fakes:
            pf = net.position(fake)
            assert abs(pf.x - ps.x) <= 2 * span
            assert abs(pf.y - ps.y) <= 2 * span

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            CompactEndpointStrategy(margin=-0.1)

    def test_falls_back_when_box_too_small(self, env):
        """A degenerate box with huge count falls back to the whole map."""
        net, index = env
        nodes = list(net.nodes())
        ctx = make_context(net, index, [nodes[0]], [nodes[1]])
        fakes = CompactEndpointStrategy(margin=0.0).select(ctx, 50)
        assert len(fakes) == 50


class TestRingStrategy:
    def test_invalid_factors_rejected(self):
        with pytest.raises(ValueError):
            RingEndpointStrategy(inner_factor=2.0, outer_factor=1.0)
        with pytest.raises(ValueError):
            RingEndpointStrategy(inner_factor=-0.5)

    def test_fakes_not_at_anchor(self, env):
        net, index = env
        nodes = list(net.nodes())
        s, t = nodes[0], nodes[-1]
        ctx = make_context(
            net, index, [s], [t], exclude={s, t}
        )
        fakes = RingEndpointStrategy(inner_factor=0.3, outer_factor=0.8).select(ctx, 5)
        assert s not in fakes


class TestPopularityStrategy:
    def test_draws_follow_weights(self, env):
        net, index = env
        nodes = list(net.nodes())
        hot = set(nodes[:10])
        popularity = {n: (1000.0 if n in hot else 0.001) for n in nodes}
        strategy = PopularityWeightedStrategy(popularity)
        ctx = make_context(net, index, [nodes[50]], [nodes[60]], seed=5)
        fakes = strategy.select(ctx, 8)
        assert len(set(fakes) & hot) >= 6  # overwhelmingly from the hot set

    def test_zero_weight_nodes_never_drawn(self, env):
        net, index = env
        nodes = list(net.nodes())
        popularity = {n: 0.0 for n in nodes}
        popularity[nodes[3]] = 1.0
        popularity[nodes[4]] = 1.0
        strategy = PopularityWeightedStrategy(popularity)
        ctx = make_context(net, index, [nodes[0]], [nodes[1]])
        assert set(strategy.select(ctx, 2)) == {nodes[3], nodes[4]}

    def test_insufficient_weighted_candidates_raise(self, env):
        net, index = env
        nodes = list(net.nodes())
        strategy = PopularityWeightedStrategy({nodes[0]: 1.0})
        ctx = make_context(net, index, [nodes[5]], [nodes[6]])
        with pytest.raises(ObfuscationError):
            strategy.select(ctx, 2)

    def test_empty_popularity_rejected(self):
        with pytest.raises(ValueError):
            PopularityWeightedStrategy({})

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            PopularityWeightedStrategy({1: -1.0})


class TestRegistry:
    def test_get_strategy_by_name(self):
        assert get_strategy("uniform").name == "uniform"
        assert get_strategy("compact", margin=0.5).name == "compact"
        assert get_strategy("popularity", popularity={1: 1.0}).name == "popularity"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="compact"):
            get_strategy("teleport")
