"""Unit tests for repro.search.overlay.

Oracle parity over random networks is covered for the overlay engine by
tests/search/test_engine_conformance.py; these tests pin down the
subsystem-specific behavior — customization sharing, the metric flag,
the text witness, and the targeted cases a conformance sweep may miss.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import GraphError, NoPathError, UnknownNodeError
from repro.network.generators import grid_network, tiger_like_network
from repro.network.graph import RoadNetwork
from repro.search import ENGINES, get_engine
from repro.search.dijkstra import dijkstra_path
from repro.search.overlay import (
    CSROverlayProcessor,
    build_overlay,
    dumps_overlay,
    overlay_snapshot,
)
from repro.search.result import SearchStats


@pytest.fixture(scope="module", params=["csr"])
def kernel(request):
    """The one cell kernel there is (per-cell CSR snapshots).

    Stays a one-value param so the ids of the tests below
    (``test_x[csr]``) compare across the removal of ``"dict"``.
    """
    return request.param


@pytest.fixture(scope="module")
def net():
    return grid_network(12, 12, perturbation=0.1, seed=9)


@pytest.fixture(scope="module")
def overlay(net, kernel):
    return build_overlay(net, cell_capacity=24)


class TestBuild:
    def test_registry(self):
        assert "overlay-csr" in ENGINES
        assert isinstance(
            get_engine("overlay-csr").make_processor(), CSROverlayProcessor
        )

    def test_metric_flag(self, net, kernel):
        # Grid weights are Euclidean lengths -> metric holds.
        assert build_overlay(net).metric
        # Travel-time weights undercut geometry -> metric must be off.
        tiger = tiger_like_network(blocks=2, block_size=3, seed=4)
        assert not build_overlay(tiger).metric

    def test_repr_and_counters(self, overlay):
        assert "OverlayGraph(" in repr(overlay)
        assert overlay.num_cells == overlay.partition.num_cells
        assert overlay.num_boundary_nodes == len(overlay.boundary_ids)
        assert (
            overlay.num_clique_arcs + overlay.num_cut_arcs
            == len(overlay.over_targets)
        )
        assert overlay.customized_cells == overlay.num_cells
        assert overlay.customize_stats.settled_nodes > 0

    def test_snapshot_memoized(self, kernel):
        net = grid_network(6, 6, seed=2)
        a = overlay_snapshot(net)
        assert overlay_snapshot(net) is a
        net.add_edge(0, 7, 1.0)
        assert overlay_snapshot(net) is not a

    def test_snapshot_does_not_pin_network(self, kernel):
        # The memo must hold snapshots weakly: an OverlayGraph strongly
        # references its network, so a strong global cache would leak
        # every network routed with an overlay engine.
        import gc
        import weakref

        net = grid_network(5, 5, seed=3)
        overlay_snapshot(net)
        ref = weakref.ref(net)
        del net
        gc.collect()
        assert ref() is None


class TestRoute:
    def test_trivial_and_errors(self, net, overlay):
        path = overlay.route(5, 5)
        assert path.nodes == (5,)
        with pytest.raises(UnknownNodeError):
            overlay.route(-1, 5)
        with pytest.raises(UnknownNodeError):
            overlay.route(5, "nope")

    def test_no_path_on_disconnected(self, kernel):
        net = RoadNetwork()
        for i in range(4):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        ov = build_overlay(net, cell_capacity=2)
        with pytest.raises(NoPathError):
            ov.route(0, 3)

    def test_same_cell_exit_and_reenter(self, kernel):
        # Two nodes in one cell whose shortest path leaves the cell: the
        # in-cell road is a detour (weight 10), the outside route is 3.
        net = RoadNetwork()
        net.add_node(0, 0.0, 0.0)
        net.add_node(1, 1.0, 0.0)
        net.add_node(2, 0.0, 1.0)
        net.add_node(3, 1.0, 1.0)
        net.add_edge(0, 1, 10.0)
        net.add_edge(0, 2, 1.0)
        net.add_edge(2, 3, 1.0)
        net.add_edge(3, 1, 1.0)
        ov = build_overlay(net, cell_capacity=2)
        if ov.partition.cell_of[0] == ov.partition.cell_of[1]:
            path = ov.route(0, 1)
            assert path.distance == pytest.approx(3.0)
            assert path.nodes == (0, 2, 3, 1)

    def test_stats_accumulate(self, net, overlay):
        stats = SearchStats()
        overlay.route(0, net.num_nodes - 1, stats=stats)
        assert stats.settled_nodes > 0
        assert stats.heap_pushes > 0

    def test_engine_route_builds_context(self, net, kernel):
        engine = get_engine("overlay-csr")
        ref = dijkstra_path(net, 3, 140).distance
        assert engine.route(net, 3, 140).distance == pytest.approx(ref)


class TestRecustomize:
    def test_untouched_cells_are_shared(self, net, kernel):
        ov = build_overlay(net, cell_capacity=24)
        mutated = net.copy()
        target = None
        for u, v, w in mutated.edges():
            if ov.touched_cells([(u, v)]):
                target = (u, v, w)
                break
        assert target is not None
        u, v, w = target
        ov = build_overlay(mutated, cell_capacity=24)
        mutated.add_edge(u, v, w * 2.0)
        touched = ov.touched_cells([(u, v)])
        refreshed = ov.recustomized(touched)
        assert refreshed.customized_cells == len(touched)
        for cell in range(ov.num_cells):
            if cell in touched:
                assert refreshed.cliques[cell] is not ov.cliques[cell]
            else:
                assert refreshed.cliques[cell] is ov.cliques[cell]

    def test_noop_cells_are_skipped(self, net, kernel):
        """Re-writing an edge with its *unchanged* weight leaves the
        intra-cell fingerprint intact: the cell is not recomputed and
        its clique tables are shared with the source overlay."""
        ov = build_overlay(net, cell_capacity=24)
        u, v, w = next(
            (u, v, w)
            for u, v, w in net.edges()
            if ov.touched_cells([(u, v)])
        )
        net.add_edge(u, v, w)  # same value: a no-op re-weight
        touched = ov.touched_cells([(u, v)])
        assert touched
        refreshed = ov.recustomized(touched, changed_edges=[(u, v)])
        assert refreshed.customized_cells == 0
        for cell in range(ov.num_cells):
            assert refreshed.cliques[cell] is ov.cliques[cell]
        # A real change to the same edge must still recompute.
        net.add_edge(u, v, w * 2.0)
        refreshed = ov.recustomized(touched, changed_edges=[(u, v)])
        assert refreshed.customized_cells == len(touched)

    def test_deserialized_overlay_recomputes_conservatively(
        self, net, kernel, tmp_path
    ):
        """Fingerprints do not survive serialization; a loaded overlay
        must recompute every touched cell rather than wrongly skip."""
        from repro.service.blob import read_overlay_blob, write_overlay_blob

        ov = build_overlay(net, cell_capacity=24)
        write_overlay_blob(ov, tmp_path / "o.ovlb")
        loaded = read_overlay_blob(tmp_path / "o.ovlb", net)
        u, v, w = next(
            (u, v, w)
            for u, v, w in net.edges()
            if ov.touched_cells([(u, v)])
        )
        net.add_edge(u, v, w)  # no-op, but the loaded overlay can't know
        touched = loaded.touched_cells([(u, v)])
        refreshed = loaded.recustomized(touched, changed_edges=[(u, v)])
        assert refreshed.customized_cells == len(touched)

    def test_cut_edge_touches_no_cell_but_refreshes_weight(self, kernel):
        net = grid_network(8, 8, perturbation=0.1, seed=3)
        ov = build_overlay(net, cell_capacity=16)
        cut = next(
            (u, v)
            for u, v, _w in net.edges()
            if ov.partition.cell_of[u] != ov.partition.cell_of[v]
        )
        u, v = cut
        net.add_edge(u, v, net.edge_weight(u, v) * 5.0)
        assert ov.touched_cells([(u, v)]) == set()
        refreshed = ov.recustomized(set())
        ref = dijkstra_path(net, 0, net.num_nodes - 1).distance
        assert refreshed.route(0, net.num_nodes - 1).distance == (
            pytest.approx(ref)
        )

    def test_incomplete_changed_edges_are_not_trusted(self, kernel):
        """``changed_edges`` shorter than the network's mutations since
        the overlay read it (an out-of-band change): no flat segment is
        reused, so the unlisted cut edge's new weight is served too."""
        net = grid_network(8, 8, perturbation=0.1, seed=3)
        ov = build_overlay(net, cell_capacity=16)
        cell_of = ov.partition.cell_of
        cuts = [
            (u, v) for u, v, _w in net.edges() if cell_of[u] != cell_of[v]
        ]
        listed = cuts[0]
        unlisted = next(
            (u, v) for u, v in cuts
            if {cell_of[u], cell_of[v]}.isdisjoint(
                {cell_of[listed[0]], cell_of[listed[1]]}
            )
        )
        for u, v in (listed, unlisted):
            net.add_edge(u, v, net.edge_weight(u, v) * 0.25)
        refreshed = ov.recustomized(set(), changed_edges=[listed])
        scratch = build_overlay(net, partition=ov.partition)
        assert refreshed.over_weights == scratch.over_weights
        assert refreshed.undercut == scratch.undercut
        assert set(refreshed.undercut) == {
            arc for u, v in (listed, unlisted) for arc in ((u, v), (v, u))
        }
        # the complete list is trusted: only its cells are re-flattened
        u, v = listed
        net.add_edge(u, v, net.edge_weight(u, v) * 8.0)
        again = refreshed.recustomized(set(), changed_edges=[listed])
        assert again.over_weights == build_overlay(
            net, partition=ov.partition
        ).over_weights
        assert set(again.undercut) == {unlisted, unlisted[::-1]}

    def test_rejects_unknown_cell(self, overlay):
        with pytest.raises(GraphError):
            overlay.recustomized([overlay.num_cells])


class TestPersistence:
    """``dumps_overlay``, the byte-identity witness; the persistent
    format is the blob (tests/service/test_blob.py)."""

    def test_rejects_non_integer_ids(self, kernel):
        net = RoadNetwork()
        net.add_node("a", 0.0, 0.0)
        net.add_node("b", 1.0, 0.0)
        net.add_edge("a", "b", 1.0)
        ov = build_overlay(net, cell_capacity=1)
        with pytest.raises(GraphError, match="integer"):
            dumps_overlay(ov)


class TestProcessor:
    def test_unreachable_pair_raises(self, kernel):
        net = RoadNetwork()
        for i in range(4):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(2, 3, 1.0)
        processor = CSROverlayProcessor()
        with pytest.raises(NoPathError):
            processor.process(net, [0], [1, 3])

    def test_wire_order_and_parity(self, net, kernel):
        processor = CSROverlayProcessor()
        rng = random.Random(4)
        nodes = list(net.nodes())
        sources = rng.sample(nodes, 3)
        destinations = rng.sample(nodes, 3)
        result = processor.process(net, sources, destinations)
        assert list(result.paths) == [
            (s, t) for s in sources for t in destinations
        ]
        for (s, t), path in result.paths.items():
            ref = dijkstra_path(net, s, t).distance
            assert path.distance == pytest.approx(ref, abs=1e-9)
        assert result.searches == len(sources) + len(destinations)
