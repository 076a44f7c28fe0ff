"""Unit tests for repro.search.parallel (process-parallel customization).

The contract under test is *byte-identity*: an overlay customized on a
worker pool must :func:`dumps_overlay` to exactly the bytes of the
serial build, for both the flat and the nested overlay, on builds and
on incremental recustomizations alike.  The pool must also survive
sequential re-weights without re-spilling the CSR blob, and graphs must
never cross the process boundary as pickles.

All pools here use the ``fork`` start method: the test process already
has the code imported, so forking is cheap, and CI runs hundreds of
these — forkserver/spawn warm-up would dominate the suite's wall time.
The start-method choice cannot affect the byte-identity contract
because workers run the same `_customize_cell` code either way.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.exceptions import GraphError
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.network.partition import partition_network
from repro.search.overlay import (
    build_nested_overlay,
    build_overlay,
    dumps_overlay,
)
from repro.search.parallel import ParallelCustomizer, default_start_method

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable on this platform",
)


@pytest.fixture(scope="module")
def pool():
    """One warmed 2-worker fork pool shared by the whole module."""
    customizer = ParallelCustomizer(2, start_method="fork")
    customizer.warm()
    yield customizer
    customizer.close()


@pytest.fixture()
def net():
    return grid_network(9, 9, perturbation=0.2, seed=21)


class TestByteIdentity:
    # one value since the dict cell kernel went; kept so the test id
    # (``[csr]``) compares across that removal
    @pytest.mark.parametrize("kernel", ["csr"])
    def test_flat_build_matches_serial(self, net, pool, kernel):
        serial = build_overlay(net, cell_capacity=10)
        par = build_overlay(net, cell_capacity=10, customizer=pool)
        assert dumps_overlay(par) == dumps_overlay(serial)

    def test_flat_build_owned_pool(self, net):
        """``parallel=N`` without a caller pool owns and closes one."""
        serial = build_overlay(net, cell_capacity=10)
        par = build_overlay(net, cell_capacity=10, parallel=2)
        assert dumps_overlay(par) == dumps_overlay(serial)

    def test_nested_build_matches_serial(self, net, pool):
        serial = build_nested_overlay(
            net, cell_capacity=6, super_capacity=4
        )
        par = build_nested_overlay(
            net, cell_capacity=6, super_capacity=4,
            customizer=pool,
        )
        assert dumps_overlay(par) == dumps_overlay(serial)

    def test_recustomized_matches_serial(self, net):
        # Dedicated pool: a customizer's delta map is tied to one
        # logical network, exactly as a ServingStack owns its pool.
        customizer = ParallelCustomizer(2, start_method="fork")
        try:
            base = build_overlay(net, cell_capacity=10)
            changed = []
            for u, v, w in list(net.edges())[::7]:
                net.add_edge(u, v, w * 1.7)
                changed.append((u, v))
            serial = base.recustomized(changed_edges=changed)
            par = base.recustomized(
                changed_edges=changed, customizer=customizer
            )
            fresh = build_overlay(net, cell_capacity=10)
            assert dumps_overlay(par) == dumps_overlay(serial)
            assert dumps_overlay(par) == dumps_overlay(fresh)
        finally:
            customizer.close()

    def test_nested_recustomized_matches_serial(self, net):
        customizer = ParallelCustomizer(2, start_method="fork")
        try:
            base = build_nested_overlay(
                net, cell_capacity=6, super_capacity=4
            )
            changed = []
            for u, v, w in list(net.edges())[::5]:
                net.add_edge(u, v, w * 0.6)
                changed.append((u, v))
            serial = base.recustomized(changed_edges=changed)
            par = base.recustomized(
                changed_edges=changed, customizer=customizer
            )
            assert dumps_overlay(par) == dumps_overlay(serial)
        finally:
            customizer.close()

    def test_directed_network(self, pool):
        net = RoadNetwork(directed=True)
        for i in range(16):
            net.add_node(i, i % 4, i // 4)
        for i in range(16):
            net.add_edge(i, (i + 1) % 16, 1.0 + i * 0.25)
            net.add_edge(i, (i + 5) % 16, 2.0 + i * 0.125)
        serial = build_overlay(net, cell_capacity=4)
        par = build_overlay(net, cell_capacity=4, customizer=pool)
        assert dumps_overlay(par) == dumps_overlay(serial)


class TestPoolSurvival:
    def test_sequential_reweights_single_spill(self, net):
        """The pool rides its delta map across re-weights: one spill."""
        customizer = ParallelCustomizer(2, start_method="fork")
        try:
            overlay = build_overlay(
                net, cell_capacity=10, customizer=customizer
            )
            assert customizer.spills == 1
            for round_no in range(3):
                changed = []
                for u, v, w in list(net.edges())[round_no::11]:
                    net.add_edge(u, v, w * (1.1 + round_no * 0.1))
                    changed.append((u, v))
                overlay = overlay.recustomized(
                    changed_edges=changed, customizer=customizer
                )
                fresh = build_overlay(net, cell_capacity=10)
                assert dumps_overlay(overlay) == dumps_overlay(fresh)
            assert customizer.spills == 1
        finally:
            customizer.close()

    def test_vanished_edge_marks_spill_stale(self, net):
        """``changed_edges`` naming an edge the target network does not
        have must fail absorption cleanly (stale spill, fresh re-spill
        on the next pooled run) — never a KeyError from inside
        ``customize``.  Shape checks cannot catch add+remove churn."""
        customizer = ParallelCustomizer(2, start_method="fork")
        try:
            overlay = build_overlay(
                net, cell_capacity=10, customizer=customizer
            )
            assert customizer.spills == 1
            # A contract-breaking caller names a non-edge: absorbed as
            # "cannot keep the spill", not an exception.
            customizer.note_changes(net, [(10**9, 10**9 + 1)])
            changed = []
            for u, v, w in list(net.edges())[::6]:
                net.add_edge(u, v, w * 1.3)
                changed.append((u, v))
            overlay = overlay.recustomized(
                changed_edges=changed, customizer=customizer
            )
            assert customizer.spills == 2
            fresh = build_overlay(net, cell_capacity=10)
            assert dumps_overlay(overlay) == dumps_overlay(fresh)
        finally:
            customizer.close()

    def test_serial_bypass_keeps_pool_coherent(self, net):
        """A one-cell refresh skips the pool; the next pooled run must
        still see that weight change (note_changes path)."""
        customizer = ParallelCustomizer(2, start_method="fork")
        try:
            overlay = build_overlay(
                net, cell_capacity=10, customizer=customizer
            )
            # Touch a single edge: recustomized() takes the serial
            # bypass (one touched cell) but must notify the pool.
            u, v, w = next(iter(net.edges()))
            net.add_edge(u, v, w * 3.0)
            overlay = overlay.recustomized(
                changed_edges=[(u, v)], customizer=customizer
            )
            # Now a broad change that runs on the pool; its workers
            # must observe BOTH weight changes.
            changed = []
            for eu, ev, ew in list(net.edges())[::6]:
                net.add_edge(eu, ev, ew * 1.4)
                changed.append((eu, ev))
            overlay = overlay.recustomized(
                changed_edges=changed, customizer=customizer
            )
            fresh = build_overlay(net, cell_capacity=10)
            assert dumps_overlay(overlay) == dumps_overlay(fresh)
        finally:
            customizer.close()


class TestWorkerAttachCache:
    def test_one_mapping_per_spec_kind(self, net, tmp_path):
        """Cell and super attachments cache independently: a nested
        overlay alternates the two every pooled refresh, and a super
        attach must not evict the (much larger) graph+layout mapping.
        The attach functions are plain module functions, so the worker
        cache behaviour is observable in-process."""
        from array import array

        from repro.search import parallel as par
        from repro.service.blob import write_blob

        customizer = ParallelCustomizer(1, start_method="fork")
        try:
            partition = partition_network(net, cell_capacity=10)
            customizer._spill_layout(partition)
            customizer._spill_graph(net)
            cells_spec = customizer._graph_spec
            super_path = str(tmp_path / "super.blob")
            write_blob(super_path, {"kind": "overlay-level1"}, [
                ("over_offsets", "q", array("q", [0])),
                ("over_targets", "q", array("q")),
                ("over_weights", "d", array("d")),
                ("over_kinds", "q", array("q")),
                ("mem_offsets", "q", array("q", [0])),
                ("mem_nodes", "q", array("q")),
                ("sb_offsets", "q", array("q", [0])),
                ("sb_nodes", "q", array("q")),
            ])
            saved = dict(par._ATTACHED)
            par._ATTACHED.clear()
            try:
                cells_state = par._attach_cells(cells_spec)
                par._attach_super(("super", super_path))
                # The super attach replaced nothing: the cells mapping
                # survives (identity, not a re-parse) ...
                assert par._attach_cells(cells_spec) is cells_state
                # ... and both kinds stay resident side by side.
                assert set(par._ATTACHED) == {"cells", "super"}
            finally:
                par._ATTACHED.clear()
                par._ATTACHED.update(saved)
        finally:
            customizer.close()


class TestNoPickling:
    def test_graph_never_pickled(self, net, monkeypatch):
        """Workers attach the network via the mmapped blob, never via
        pickle — poison __reduce__ and the build must still succeed."""

        def _poisoned(self):
            raise AssertionError("RoadNetwork crossed a process boundary")

        monkeypatch.setattr(RoadNetwork, "__reduce__", _poisoned)
        monkeypatch.setattr(RoadNetwork, "__reduce_ex__", _poisoned)
        customizer = ParallelCustomizer(2, start_method="fork")
        try:
            serial = None
            with monkeypatch.context() as unpoisoned:
                unpoisoned.undo()
                serial = build_overlay(net, cell_capacity=10)
            par = build_overlay(
                net, cell_capacity=10, customizer=customizer
            )
            assert dumps_overlay(par) == dumps_overlay(serial)
        finally:
            customizer.close()


class TestValidation:
    def test_non_integer_node_ids_rejected(self, pool):
        net = RoadNetwork()
        net.add_node("a", 0, 0)
        net.add_node("b", 1, 0)
        net.add_node("c", 0, 1)
        net.add_node("d", 1, 1)
        net.add_edge("a", "b", 1.0)
        net.add_edge("b", "c", 1.0)
        net.add_edge("c", "d", 1.0)
        with pytest.raises(GraphError, match="integer node ids"):
            build_overlay(net, cell_capacity=2, customizer=pool)

    def test_closed_pool_rejected(self, net):
        customizer = ParallelCustomizer(2, start_method="fork")
        customizer.close()
        with pytest.raises(RuntimeError, match="closed"):
            build_overlay(
                net, cell_capacity=10, customizer=customizer
            )

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            ParallelCustomizer(0)

    def test_default_start_method_is_sane(self):
        assert default_start_method() in multiprocessing.get_all_start_methods()

    def test_metrics_surface_counts_only(self, net):
        """repro_customize_* instruments carry counts/rates, never ids."""
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        customizer = ParallelCustomizer(
            2, start_method="fork", metrics=registry
        )
        try:
            build_overlay(
                net, cell_capacity=10, customizer=customizer
            )
        finally:
            customizer.close()
        snap = registry.collect()
        names = [m for m in snap if m.startswith("repro_customize_")]
        assert "repro_customize_workers" in names
        assert "repro_customize_cells_total" in names
        for name in names:
            assert isinstance(snap[name]["value"], (int, float))
