"""Fake endpoint selection strategies for the obfuscator.

"Determining fake sources and destinations ... needs knowledge of the
underlying networks" (Section IV) — this module is that knowledge.  Each
strategy picks decoy nodes for one side (sources or destinations) of an
obfuscated query.  Strategies trade off two pressures the paper
identifies:

* **cost** — Lemma 1 charges ``max_t ||s,t||^2`` per source, so fakes far
  from the true endpoints inflate server work;
* **plausibility** — fakes that are implausible endpoints (empty fields,
  dead-end alleys) are discounted by a prior-aware adversary, weakening
  the protection below ``1/(|S| x |T|)``.

:class:`CompactEndpointStrategy` optimizes the first,
:class:`PopularityWeightedStrategy` the second,
:class:`RingEndpointStrategy` balances both, and
:class:`UniformEndpointStrategy` is the naive baseline.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.exceptions import ObfuscationError
from repro.network.graph import NodeId, RoadNetwork
from repro.network.spatial import GridSpatialIndex

__all__ = [
    "SelectionContext",
    "FakeEndpointStrategy",
    "UniformEndpointStrategy",
    "RingEndpointStrategy",
    "CompactEndpointStrategy",
    "PopularityWeightedStrategy",
    "get_strategy",
]


@dataclass(slots=True)
class SelectionContext:
    """Everything a strategy may consult when picking fakes.

    Attributes
    ----------
    network, index:
        The obfuscator's simple road map and its spatial index.
    rng:
        Seeded generator owned by the obfuscator (strategies never seed
        their own).
    anchors:
        The true endpoints on the side being obfuscated (e.g. real sources
        when picking fake sources).
    counterparts:
        The true endpoints of the *other* side; compact selection uses them
        to bound the query's geometry.
    exclude:
        Nodes that must not be chosen (already-used endpoints).
    scanned:
        Index scans already done for this request, keyed by what was
        scanned.  The obfuscator hands one dict to both sides of a
        query: their true endpoints are the same set, so a strategy
        whose candidate region depends only on that set scans it once.
    """

    network: RoadNetwork
    index: GridSpatialIndex
    rng: random.Random
    anchors: Sequence[NodeId]
    counterparts: Sequence[NodeId]
    exclude: frozenset[NodeId]
    scanned: dict = field(default_factory=dict)


class FakeEndpointStrategy:
    """Interface: produce ``count`` distinct decoy nodes for one side."""

    #: short identifier used by configs and :func:`get_strategy`
    name: str = "abstract"

    def select(self, context: SelectionContext, count: int) -> list[NodeId]:
        """Return ``count`` distinct nodes outside ``context.exclude``.

        Raises
        ------
        ObfuscationError
            If the network cannot supply enough distinct decoys.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _draw_unique(
        candidates: Sequence[NodeId],
        count: int,
        rng: random.Random,
        exclude: frozenset[NodeId],
        distinct: bool = False,
    ) -> list[NodeId]:
        """``count`` distinct nodes sampled from ``candidates - exclude``.

        The population is the distinct candidates outside ``exclude`` in
        first-seen order, so the same seed draws the same decoys and
        leaves ``rng`` in the same state.  A caller whose candidates hold
        no repeats (the whole map, an index box, one anchor's ring)
        passes ``distinct`` and skips deduplicating thousands of them.
        """
        if distinct:
            pool = [node for node in candidates if node not in exclude]
        else:
            # Dedup in first-seen order so sampling stays unbiased over
            # distinct nodes.
            unique = dict.fromkeys(candidates)
            for node in exclude:
                unique.pop(node, None)
            pool = list(unique)
        if len(pool) < count:
            raise ObfuscationError(
                f"need {count} fake endpoints but only {len(pool)} candidates"
            )
        return rng.sample(pool, count)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UniformEndpointStrategy(FakeEndpointStrategy):
    """Decoys drawn uniformly from the whole network.

    Maximal geographic spread: strongest naive anonymity, worst Lemma 1
    cost inflation (fakes can be at the far corner of the map).
    """

    name = "uniform"

    def select(self, context: SelectionContext, count: int) -> list[NodeId]:
        all_nodes = list(context.network.nodes())
        return self._draw_unique(
            all_nodes, count, context.rng, context.exclude, distinct=True
        )


class RingEndpointStrategy(FakeEndpointStrategy):
    """Decoys at roughly the same distance scale as the true query.

    Each fake is drawn from an annulus centred on a true anchor, with
    radius between ``inner_factor`` and ``outer_factor`` times the true
    query's source-destination extent.  Mimicking the true geometry keeps
    the fakes plausible as origins/destinations of a similar trip while
    bounding how much they stretch ``max_t ||s,t||``.
    """

    name = "ring"

    def __init__(self, inner_factor: float = 0.25, outer_factor: float = 1.0) -> None:
        if not 0.0 <= inner_factor <= outer_factor:
            raise ValueError("need 0 <= inner_factor <= outer_factor")
        self._inner = inner_factor
        self._outer = outer_factor

    def select(self, context: SelectionContext, count: int) -> list[NodeId]:
        extent = _query_extent(context)
        candidates: list[NodeId] = []
        for anchor in context.anchors:
            p = context.network.position(anchor)
            candidates.extend(
                context.index.nodes_in_ring(
                    p.x, p.y, self._inner * extent, self._outer * extent
                )
            )
        # several anchors' rings may overlap; one ring holds no repeats
        try:
            return self._draw_unique(
                candidates, count, context.rng, context.exclude,
                distinct=len(context.anchors) == 1,
            )
        except ObfuscationError:
            # Small maps may not populate the annulus; widen to everything.
            all_nodes = list(context.network.nodes())
            return self._draw_unique(
                all_nodes, count, context.rng, context.exclude, distinct=True
            )


class CompactEndpointStrategy(FakeEndpointStrategy):
    """Decoys inside the bounding box of the true endpoints.

    Keeps every fake within the geometry the query already spans (plus a
    ``margin`` fraction), so ``max_t ||s,t||`` barely grows and the shared
    SSMD tree the server builds covers almost no extra area — the paper's
    "difference between ||s,t|| and max ||s,t'|| is not significant" regime.
    """

    name = "compact"

    def __init__(self, margin: float = 0.25) -> None:
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self._margin = margin

    def select(self, context: SelectionContext, count: int) -> list[NodeId]:
        points = [
            context.network.position(n)
            for n in list(context.anchors) + list(context.counterparts)
        ]
        min_x = min(p.x for p in points)
        max_x = max(p.x for p in points)
        min_y = min(p.y for p in points)
        max_y = max(p.y for p in points)
        pad_x = (max_x - min_x) * self._margin + 1e-9
        pad_y = (max_y - min_y) * self._margin + 1e-9
        # Degenerate boxes (co-located endpoints) get a pad from the extent.
        extent = _query_extent(context)
        pad_x = max(pad_x, 0.1 * extent)
        pad_y = max(pad_y, 0.1 * extent)
        box = (min_x - pad_x, min_y - pad_y, max_x + pad_x, max_y + pad_y)
        candidates = context.scanned.get(box)
        if candidates is None:
            candidates = context.scanned[box] = context.index.nodes_in_box(*box)
        try:
            return self._draw_unique(
                candidates, count, context.rng, context.exclude, distinct=True
            )
        except ObfuscationError:
            all_nodes = list(context.network.nodes())
            return self._draw_unique(
                all_nodes, count, context.rng, context.exclude, distinct=True
            )


class PopularityWeightedStrategy(FakeEndpointStrategy):
    """Decoys sampled proportionally to an endpoint-popularity prior.

    ``popularity`` maps nodes to non-negative weights (e.g. how often each
    address appears as a trip endpoint).  Sampling fakes from the same
    distribution the adversary believes real endpoints follow makes the
    posterior over candidates flat, restoring Definition 2's breach bound
    even against a prior-aware adversary (experiment E7).
    """

    name = "popularity"

    def __init__(self, popularity: Mapping[NodeId, float]) -> None:
        if not popularity:
            raise ValueError("popularity map must be non-empty")
        if any(w < 0 for w in popularity.values()):
            raise ValueError("popularity weights must be non-negative")
        self._popularity = dict(popularity)

    def select(self, context: SelectionContext, count: int) -> list[NodeId]:
        pool = [
            (n, w)
            for n, w in self._popularity.items()
            if w > 0 and n not in context.exclude and n in context.network
        ]
        if len(pool) < count:
            raise ObfuscationError(
                f"need {count} fake endpoints but only {len(pool)} weighted candidates"
            )
        chosen: list[NodeId] = []
        pool_nodes = [n for n, _w in pool]
        pool_weights = [w for _n, w in pool]
        for _ in range(count):
            pick = context.rng.choices(range(len(pool_nodes)), weights=pool_weights)[0]
            chosen.append(pool_nodes.pop(pick))
            pool_weights.pop(pick)
        return chosen


def _query_extent(context: SelectionContext) -> float:
    """Characteristic scale of the true query: max anchor-counterpart gap.

    Falls back to a tenth of the map diagonal when one side is empty or
    everything coincides.
    """
    best = 0.0
    for a in context.anchors:
        for b in context.counterparts:
            best = max(best, context.network.euclidean_distance(a, b))
    if best <= 0.0:
        min_x, min_y, max_x, max_y = context.network.bounding_box()
        best = 0.1 * max(max_x - min_x, max_y - min_y, 1e-9)
    return best


def get_strategy(name: str, **kwargs) -> FakeEndpointStrategy:
    """Instantiate a strategy by name (``popularity`` needs its mapping).

    Raises
    ------
    KeyError
        For unknown names; the message lists valid ones.
    """
    strategies: dict[str, type[FakeEndpointStrategy]] = {
        UniformEndpointStrategy.name: UniformEndpointStrategy,
        RingEndpointStrategy.name: RingEndpointStrategy,
        CompactEndpointStrategy.name: CompactEndpointStrategy,
        PopularityWeightedStrategy.name: PopularityWeightedStrategy,
    }
    try:
        cls = strategies[name]
    except KeyError:
        valid = ", ".join(sorted(strategies))
        raise KeyError(f"unknown strategy {name!r}; valid: {valid}") from None
    return cls(**kwargs)
