"""Tests for the serving stack's traffic-reweight path and shard hints.

Every re-weight is a copy-on-write epoch: the network handed to the
stack is never mutated, the new weights are read from ``stack.network``.
:meth:`ServingStack.reweight` is the one epoch writer: it serializes
concurrent writers and retires old epochs from both caches.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import (
    ClientRequest,
    ObfuscatedPathQuery,
    PathQuery,
    ProtectionSetting,
)
from repro.exceptions import EdgeError, GraphError
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.obs.trace import Tracer
from repro.search.dijkstra import dijkstra_path
from repro.search.overlay import OverlayGraph, build_overlay, dumps_overlay
from repro.service.cache import PreprocessingCache, network_fingerprint
from repro.service.serving import (
    KEEP_RETIRED_EPOCHS,
    ReweightOutcome,
    ServingConfig,
    ServingStack,
)


@pytest.fixture()
def net():
    return grid_network(12, 12, perturbation=0.1, seed=6)


def _query(net, source, destination, seed=0):
    obfuscator = PathQueryObfuscator(net, seed=seed)
    record = obfuscator.obfuscate_independent(
        ClientRequest("u", PathQuery(source, destination), ProtectionSetting(2, 2))
    )
    return record.query


def _assert_exact(net, response):
    for (s, t), path in response.candidates.paths.items():
        ref = dijkstra_path(net, s, t).distance
        assert path.distance == pytest.approx(ref, abs=1e-9)


class TestReweight:
    def test_incremental_recustomization(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            old_overlay = stack.warm()
            assert isinstance(old_overlay, OverlayGraph)
            query = _query(net, 3, 140)
            stack.answer(query)
            intra = next(
                (u, v, w)
                for u, v, w in net.edges()
                if old_overlay.touched_cells([(u, v)])
            )
            u, v, w = intra
            outcome = stack.reweight([(u, v, w * 4.0)])
            assert isinstance(outcome, ReweightOutcome)
            assert outcome.recustomized
            assert outcome.edges == 1
            assert outcome.touched_cells == tuple(
                sorted(old_overlay.touched_cells([(u, v)]))
            )
            # The installed artifact is the incrementally refreshed
            # overlay (shares untouched cells with the old one) ...
            new_overlay = stack.preprocessing.peek(
                stack._fingerprint(), "overlay-csr"
            )
            assert isinstance(new_overlay, OverlayGraph)
            shared = [
                cell
                for cell in range(old_overlay.num_cells)
                if cell not in outcome.touched_cells
            ]
            for cell in shared:
                assert new_overlay.cliques[cell] is old_overlay.cliques[cell]
            # ... serving hits it without a rebuild miss ...
            misses_before = stack.preprocessing.misses
            response = stack.answer(query)
            assert stack.preprocessing.misses == misses_before
            # ... and answers reflect the new weights exactly (the old
            # result table stopped matching via the fingerprint).
            assert not response.from_cache
            _assert_exact(stack.network, response)
            assert stack.network.edge_weight(u, v) == w * 4.0
            assert net.edge_weight(u, v) == w  # the caller's copy: untouched

    def test_matches_scratch_build(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            stack.warm()
            u, v, w = next(net.edges())
            stack.reweight([(u, v, w * 2.0)])
            installed = stack.preprocessing.peek(
                stack._fingerprint(), "overlay-csr"
            )
            assert dumps_overlay(installed) == dumps_overlay(
                build_overlay(stack.network)
            )

    def test_missing_edge_rejected(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            fingerprint = stack._fingerprint()
            with pytest.raises(EdgeError):
                stack.reweight([(0, 0, 1.0)])
            # Nothing was applied: no epoch, the fingerprint did not move.
            assert stack.epoch == 0 and stack.network is net
            assert stack._fingerprint() == fingerprint
            assert stack.preprocessing.misses == 0

    def test_in_place_mode_is_gone(self, net):
        """``epoch`` survives as a keyword whose only value is ``True``
        (the request ledger passes it); the removed mode is refused by
        name instead of silently becoming copy-on-write."""
        u, v, w = next(net.edges())
        with ServingStack.from_config(
            net, ServingConfig(engine="overlay-csr")
        ) as stack:
            with pytest.raises(ValueError, match="in-place"):
                stack.reweight([(u, v, w * 2.0)], epoch=False)
            assert stack.epoch == 0 and stack.network is net
            assert stack.reweight([(u, v, w * 2.0)], epoch=True).epoch == 1
        assert net.edge_weight(u, v) == w

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_invalid_weight_applies_nothing(self, net, bad):
        u, v, w = next(net.edges())
        version = net.version
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            with pytest.raises(EdgeError):
                stack.reweight([(u, v, w * 2.0), (u, v, bad)])
            # Atomic: the valid leading change was not applied either.
            assert stack.epoch == 0 and stack.network is net
        assert net.edge_weight(u, v) == w
        assert net.version == version

    def test_metric_flag_tracks_reweights(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            overlay = stack.warm()
            assert overlay.metric  # grid weights are Euclidean lengths
            u, v, w = next(
                (u, v, w)
                for u, v, w in net.edges()
                if overlay.touched_cells([(u, v)])
            )
            # Undercut the geometry: the A* bound becomes inadmissible,
            # so the incrementally installed overlay must drop the flag
            # (checked via only the changed edges, no full rescan) ...
            stack.reweight([(u, v, w * 0.25)])
            dropped = stack.preprocessing.peek(
                stack._fingerprint(), "overlay-csr"
            )
            assert not dropped.metric
            _assert_exact(stack.network, stack.answer(_query(net, 3, 140)))
            # ... and restoring the weight turns it back on.
            stack.reweight([(u, v, w)])
            restored = stack.preprocessing.peek(
                stack._fingerprint(), "overlay-csr"
            )
            assert restored.metric
            _assert_exact(stack.network, stack.answer(_query(net, 3, 140)))

    def test_non_overlay_engine_falls_back_to_rebuild(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="dijkstra-csr"),
        ) as stack:
            stack.warm()
            u, v, w = next(net.edges())
            outcome = stack.reweight([(u, v, w * 2.0)])
            assert not outcome.recustomized
            assert outcome.touched_cells == ()
            response = stack.answer(_query(net, 3, 140))
            _assert_exact(stack.network, response)

    def test_shared_cache_never_recustomizes_foreign_overlay(self):
        # Two stacks over content-identical network *objects* share one
        # PreprocessingCache.  A reweight on stack A must not
        # recustomize the cached overlay bound to stack B's network —
        # it would read B's un-mutated weights and serve stale routes.
        net_a = grid_network(10, 10, perturbation=0.1, seed=6)
        net_b = grid_network(10, 10, perturbation=0.1, seed=6)
        cache = PreprocessingCache()
        with ServingStack.from_config(
            net_b,
            ServingConfig(engine="overlay-csr"),
            preprocessing_cache=cache,
        ) as stack_b, ServingStack.from_config(
            net_a,
            ServingConfig(engine="overlay-csr"),
            preprocessing_cache=cache,
        ) as stack_a:
            foreign = stack_b.warm()
            assert stack_a.warm() is foreign  # same fingerprint, B's object
            u, v, w = next(
                (u, v, w)
                for u, v, w in net_a.edges()
                if foreign.touched_cells([(u, v)])
            )
            outcome = stack_a.reweight([(u, v, w * 10.0)])
            assert not outcome.recustomized
            _assert_exact(
                stack_a.network, stack_a.answer(_query(net_a, 3, 77))
            )

    def test_cold_cache_falls_back_to_rebuild(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            u, v, w = next(net.edges())
            outcome = stack.reweight([(u, v, w * 2.0)])
            assert not outcome.recustomized
            response = stack.answer(_query(net, 3, 140))
            _assert_exact(stack.network, response)

    def test_in_flight_batch_keeps_reading_its_own_epoch(self, net):
        """A batch that captured epoch N (network, fingerprint, overlay)
        must find all three untouched after N+1 and N+2 install: the
        structural copy shares nothing mutable, and the new overlay's
        reused flat segments are copies, not views."""
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            overlay_n = stack.warm()
            captured, fingerprint = stack._epoch_view()
            weights = {(u, v): w for u, v, w in captured.edges()}
            flat = (
                list(overlay_n.over_offsets), list(overlay_n.over_targets),
                list(overlay_n.over_weights), list(overlay_n.over_kinds),
            )
            want = overlay_n.many_to_many([3, 17], [140, 99])
            intra = [
                (u, v, w) for u, v, w in captured.edges()
                if overlay_n.touched_cells([(u, v)])
            ]
            cut = [
                (u, v, w) for u, v, w in captured.edges()
                if not overlay_n.touched_cells([(u, v)])
            ]
            for (u, v, w), factor in ((intra[0], 5.0), (cut[0], 0.1)):
                previous = stack._fingerprint()
                outcome = stack.reweight([(u, v, w * factor)], epoch=True)
                assert outcome.recustomized
                assert previous != outcome.fingerprint
            assert stack.epoch == 2 and stack.network is not captured
            # epoch N, exactly as captured
            assert {(u, v): w for u, v, w in captured.edges()} == weights
            assert captured.num_edges == net.num_edges
            assert network_fingerprint(captured) == fingerprint
            assert overlay_n.network is captured and overlay_n.metric
            assert flat == (
                overlay_n.over_offsets, overlay_n.over_targets,
                overlay_n.over_weights, overlay_n.over_kinds,
            )
            assert overlay_n.many_to_many([3, 17], [140, 99]) == want
            # epoch N+2 took both changes and knows the cut edge undercuts
            current = stack.warm()
            assert current.network is stack.network and not current.metric
            u, v, w = cut[0]
            assert set(current.undercut) == {(u, v), (v, u)}
            assert stack.network.edge_weight(u, v) == w * 0.1
            _assert_exact(stack.network, stack.answer(_query(net, 3, 140)))


class TestEpochReweight:
    def test_install_swaps_network_without_mutating_the_old(self, net):
        u, v, w = next(net.edges())
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            stack.warm()
            old_network = stack.network
            old_epoch = stack.epoch
            previous = stack._fingerprint()
            outcome = stack.reweight([(u, v, w * 2.0)], epoch=True)
            assert stack.epoch == old_epoch + 1
            assert outcome.epoch == stack.epoch
            assert outcome.fingerprint != previous
            # Copy-on-write: the old epoch's snapshot is untouched, the
            # serving pointer moved to a new object with the new weight.
            assert stack.network is not old_network
            assert old_network.edge_weight(u, v) == w
            assert stack.network.edge_weight(u, v) == w * 2.0
            _assert_exact(
                stack.network, stack.answer(_query(stack.network, 3, 77))
            )

    def test_recustomized_install_matches_scratch_build(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            overlay = stack.warm()
            u, v, w = next(
                (u, v, w)
                for u, v, w in net.edges()
                if overlay.touched_cells([(u, v)])
            )
            outcome = stack.reweight([(u, v, w * 3.0)], epoch=True)
            assert outcome.recustomized
            installed = stack.preprocessing.peek(
                outcome.fingerprint, "overlay-csr"
            )
            assert dumps_overlay(installed) == dumps_overlay(
                build_overlay(stack.network)
            )

    def test_empty_change_set_is_a_no_op(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            stack.warm()
            epoch = stack.epoch
            outcome = stack.reweight([], epoch=True)
            assert outcome.edges == 0
            assert stack.epoch == epoch

    def test_epoch_validation_is_atomic(self, net):
        u, v, w = next(net.edges())
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            stack.warm()
            epoch = stack.epoch
            with pytest.raises(EdgeError):
                stack.reweight([(u, v, w * 2.0), (0, 0, 1.0)], epoch=True)
            assert stack.epoch == epoch
            assert stack.network.edge_weight(u, v) == w

    def test_recustomized_on_rejects_mismatched_snapshot(self, net):
        overlay = build_overlay(net)
        other = grid_network(5, 5, seed=1)
        with pytest.raises(GraphError):
            overlay.recustomized_on(other, cells=[0])

    def test_install_latency_and_span_are_recorded(self, net):
        tracer = Tracer()
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
            tracer=tracer,
        ) as stack:
            stack.warm()
            changes = [(u, v, w * 2.0) for u, v, w in list(net.edges())[:3]]
            outcome = stack.reweight(changes)
            stack.reweight([])
        installs = stack.metrics.histogram("repro_serve_reweight_seconds")
        assert installs.count == 2 and installs.sum > 0.0
        spans = [r for r in tracer.roots if r.name == "serve.reweight"]
        assert [s.attrs["edges"] for s in spans] == [3, 0]
        assert spans[0].attrs["epoch"] == outcome.epoch == 1
        assert spans[0].attrs["touched_cells"] == len(outcome.touched_cells)
        assert spans[0].attrs["recustomized"] is outcome.recustomized


class TestConcurrentWriters:
    def test_concurrent_reweights_lose_no_update(self, net, monkeypatch):
        """Two writers each meet the other inside ``RoadNetwork.copy``
        when they can: a stack that lets both copy epoch N installs one
        update over the other.  With writers serialized the first one
        waits out the barrier alone and the second copies epoch N+1."""
        barrier = threading.Barrier(2, timeout=1.0)
        real_copy = RoadNetwork.copy

        def meeting_copy(network):
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                pass
            return real_copy(network)

        monkeypatch.setattr(RoadNetwork, "copy", meeting_copy)
        (a, b, wa), (c, d, wc) = list(net.edges())[:2]
        errors = []
        with ServingStack.from_config(
            net, ServingConfig(engine="dijkstra-csr")
        ) as stack:

            def write(u, v, w):
                try:
                    stack.reweight([(u, v, w)])
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [
                threading.Thread(target=write, args=(a, b, wa * 2.0)),
                threading.Thread(target=write, args=(c, d, wc * 3.0)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert errors == []
            assert stack.epoch == 2
            assert stack.network.edge_weight(a, b) == wa * 2.0
            assert stack.network.edge_weight(c, d) == wc * 3.0
            assert stack._fingerprint() == network_fingerprint(stack.network)


class TestEpochRetirement:
    def test_retirement_releases_old_epoch_cache_keys(self, net):
        edges = list(net.edges())
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            stack.warm()
            fingerprints = [stack._fingerprint()]
            for k, (u, v, w) in enumerate(edges[:4]):
                stack.answer(_query(stack.network, 3, 77))
                stack.reweight([(u, v, w * (2.0 + k))])
                fingerprints.append(stack._fingerprint())
            # Epochs beyond the retired window are released from both
            # caches; the window and the current epoch stay serveable.
            keep = KEEP_RETIRED_EPOCHS + 1
            for fp in fingerprints[:-keep]:
                assert stack.preprocessing.peek(fp, "overlay-csr") is None
                assert stack.results.invalidate_fingerprint(fp) == 0
            for fp in fingerprints[-keep:]:
                assert stack.preprocessing.peek(fp, "overlay-csr") is not None

    def test_restored_weight_keeps_the_live_artifact(self, net):
        """``w -> 2w -> 3w -> w`` brings the first fingerprint back as
        the current epoch: retiring it would drop the overlay the last
        install just put, and the next reweight could not recustomize."""
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            overlay = stack.warm()
            u, v, w = next(
                (u, v, w)
                for u, v, w in net.edges()
                if overlay.touched_cells([(u, v)])
            )
            first = stack._fingerprint()
            for factor in (2.0, 3.0, 1.0):
                assert stack.reweight([(u, v, w * factor)]).recustomized
            current = stack._fingerprint()
            assert current == first
            assert stack.preprocessing.peek(current, "overlay-csr") is not None
            misses = stack.preprocessing.misses
            _assert_exact(stack.network, stack.answer(_query(net, 3, 140)))
            assert stack.preprocessing.misses == misses
            assert stack.reweight([(u, v, w * 4.0)]).recustomized

    @pytest.mark.parametrize("engine", ["overlay-csr", "dijkstra-csr"])
    def test_ten_reweights_keep_a_bounded_cache(self, net, engine):
        edges = list(net.edges())
        with ServingStack.from_config(
            net, ServingConfig(engine=engine)
        ) as stack:
            for k, (u, v, w) in enumerate(edges[:10]):
                stack.answer(_query(stack.network, 3, 140))
                stack.reweight([(u, v, w * (1.5 + k))])
            assert len(stack.preprocessing) <= KEEP_RETIRED_EPOCHS + 1
            assert len(stack.results) <= KEEP_RETIRED_EPOCHS + 1


class TestOneOwnerOfTheNetwork:
    """The stack's network is its server's: no public attribute returns
    an earlier epoch's map, and the server answers from the current one."""

    @pytest.mark.parametrize("engine", ["dijkstra", "dijkstra-csr", "overlay-csr"])
    def test_server_answers_from_the_current_epoch(self, net, engine):
        u, v, w = next(iter(net.edges()))
        query = ObfuscatedPathQuery((u,), (v,))
        with ServingStack.from_config(net, ServingConfig(engine=engine)) as stack:
            stack.answer(query)
            stack.reweight([(u, v, w * 50)])
            assert stack.server.network is stack.network
            assert stack.network is not net
            direct = stack.server.answer(query).candidates.path_for(u, v)
            served = stack.answer(query).candidates.path_for(u, v)
            assert direct.distance == served.distance
            assert served.distance == dijkstra_path(stack.network, u, v).distance
            assert served.distance < w * 50  # the detour beats the jam

    def test_network_is_read_only(self, net):
        with ServingStack.from_config(net) as stack:
            with pytest.raises(AttributeError):
                stack.network = net.copy()


class TestBypassedReweight:
    """A re-weight that skips recustomization (its artifact was
    evicted) only moves the network; the next refresh must still
    customize from the current weights, byte-identical to a rebuild."""

    def test_evicted_artifact_then_recustomize_matches_rebuild(self, net):
        with ServingStack.from_config(
            net, ServingConfig(engine="overlay-csr")
        ) as stack:
            stack.warm()
            r1 = [(u, v, w * 1.5) for u, v, w in list(net.edges())[::5]]
            assert stack.reweight(r1).recustomized
            assert stack.preprocessing.invalidate_fingerprint(
                stack._fingerprint()
            )
            r2 = [
                (u, v, w * 3.0)
                for u, v, w in list(stack.network.edges())[1::7]
            ]
            assert not stack.reweight(r2).recustomized
            stack.warm()
            r3 = [
                (u, v, w * 0.8)
                for u, v, w in list(stack.network.edges())[2::6]
            ]
            assert stack.reweight(r3).recustomized
            installed = stack.preprocessing.peek(
                stack._fingerprint(), "overlay-csr"
            )
            assert dumps_overlay(installed) == dumps_overlay(
                build_overlay(stack.network)
            )


class TestDispatchHint:
    def test_batches_group_by_cell_byte_identically(self, net):
        queries = [
            _query(net, s, t, seed=i)
            for i, (s, t) in enumerate([(3, 140), (140, 3), (60, 80), (7, 100)])
        ]
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            stack.warm()
            batched = stack.answer_batch(queries)
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr"),
        ) as stack:
            stack.warm()
            solo = [stack.answer(q) for q in queries]
        for got, ref in zip(batched, solo):
            assert got.query is ref.query
            assert list(got.candidates.paths) == list(ref.candidates.paths)
            for pair, path in ref.candidates.paths.items():
                assert got.candidates.paths[pair].nodes == path.nodes
                assert got.candidates.paths[pair].distance == path.distance


class TestOverlaySpill:
    def test_evicted_overlay_reloads_from_disk(self, net, tmp_path):
        cache = PreprocessingCache(capacity=1, spill_dir=tmp_path)
        overlay = cache.get(net, "overlay-csr")
        assert isinstance(overlay, OverlayGraph)
        other = grid_network(5, 5, seed=1)
        cache.get(other, "dijkstra-csr")  # evicts (and spills) the overlay
        assert list(tmp_path.glob("*.ovlb")), "overlay spill file missing"
        reloaded = cache.get(net, "overlay-csr")
        assert cache.disk_loads == 1
        assert dumps_overlay(reloaded) == dumps_overlay(overlay)

    def test_spill_skips_non_integer_ids(self, tmp_path):
        from repro.network.graph import RoadNetwork

        net = RoadNetwork()
        net.add_node("a", 0.0, 0.0)
        net.add_node("b", 1.0, 0.0)
        net.add_edge("a", "b", 1.0)
        cache = PreprocessingCache(capacity=1, spill_dir=tmp_path)
        cache.get(net, "overlay-csr")
        other = grid_network(4, 4, seed=1)
        cache.get(other, "dijkstra")  # evicts; spill must not blow up
        assert not list(tmp_path.glob("*.ovlb"))
