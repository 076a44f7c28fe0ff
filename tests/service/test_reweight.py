"""Tests for the serving stack's traffic-reweight path.

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
from repro.exceptions import EdgeError
from repro.network.csr import CSRGraph
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.obs.trace import Tracer
from repro.search import get_engine
from repro.search.dijkstra import dijkstra_path
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


#: the engine that serves churn
ENGINE = "dijkstra-csr"


def _stack(net, **kwargs):
    return ServingStack.from_config(net, ServingConfig(engine=ENGINE), **kwargs)


def _cached(stack, fingerprint):
    """The stack's cached snapshot for ``fingerprint``, or ``None``."""
    return stack.preprocessing._entries.get((fingerprint, ENGINE))


def _assert_scratch_snapshot(snapshot, network):
    scratch = CSRGraph.from_network(network)
    for name in ("node_ids", "offsets", "targets", "weights", "xs", "ys"):
        assert getattr(snapshot, name) == getattr(scratch, name), name


class TestReweight:
    def test_matches_scratch_build(self, net):
        with _stack(net) as stack:
            stack.warm()
            u, v, w = next(net.edges())
            outcome = stack.reweight([(u, v, w * 2.0)])
            assert isinstance(outcome, ReweightOutcome)
            assert outcome.edges == 1 and outcome.touched_cells == ()
            _assert_scratch_snapshot(stack.warm(), stack.network)
            assert stack.network.edge_weight(u, v) == w * 2.0
            assert net.edge_weight(u, v) == w  # the caller's copy: untouched

    def test_missing_edge_rejected(self, net):
        with _stack(net) as stack:
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
        with _stack(net) as stack:
            with pytest.raises(ValueError, match="in-place"):
                stack.reweight([(u, v, w * 2.0)], epoch=False)
            assert stack.epoch == 0 and stack.network is net
            assert stack.reweight([(u, v, w * 2.0)], epoch=True).epoch == 1
        assert net.edge_weight(u, v) == w

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_invalid_weight_applies_nothing(self, net, bad):
        u, v, w = next(net.edges())
        version = net.version
        with _stack(net) as stack:
            with pytest.raises(EdgeError):
                stack.reweight([(u, v, w * 2.0), (u, v, bad)])
            # Atomic: the valid leading change was not applied either.
            assert stack.epoch == 0 and stack.network is net
        assert net.edge_weight(u, v) == w
        assert net.version == version

    def test_non_overlay_engine_falls_back_to_rebuild(self, net):
        """No engine refreshes its artifact in place: after a reweight
        the next read rebuilds the snapshot (one cache miss)."""
        with _stack(net) as stack:
            stack.warm()
            u, v, w = next(net.edges())
            stack.reweight([(u, v, w * 2.0)])
            misses = stack.preprocessing.misses
            response = stack.answer(_query(net, 3, 140))
            assert stack.preprocessing.misses == misses + 1
            assert not response.from_cache
            _assert_exact(stack.network, response)

    def test_shared_cache_never_recustomizes_foreign_overlay(self):
        # Two stacks over content-identical network *objects* share one
        # PreprocessingCache.  A reweight on stack A must not change
        # what B serves (the snapshot cached for B is never refreshed
        # from A's weights), and A must not answer from B's snapshot.
        net_a = grid_network(10, 10, perturbation=0.1, seed=6)
        net_b = grid_network(10, 10, perturbation=0.1, seed=6)
        cache = PreprocessingCache()
        with _stack(net_b, preprocessing_cache=cache) as stack_b, _stack(
            net_a, preprocessing_cache=cache
        ) as stack_a:
            shared = stack_b.warm()
            assert stack_a.warm() is shared  # same fingerprint, B's object
            u, v, w = next(net_a.edges())
            stack_a.reweight([(u, v, w * 10.0)])
            _assert_exact(
                stack_a.network, stack_a.answer(_query(net_a, 3, 77))
            )
            assert stack_b.warm() is shared
            _assert_exact(net_b, stack_b.answer(_query(net_b, 3, 77)))

    def test_cold_cache_falls_back_to_rebuild(self, net):
        with _stack(net) as stack:
            u, v, w = next(net.edges())
            stack.reweight([(u, v, w * 2.0)])
            response = stack.answer(_query(net, 3, 140))
            _assert_exact(stack.network, response)

    def test_in_flight_batch_keeps_reading_its_own_epoch(self, net):
        """A batch that captured epoch N (network, fingerprint, snapshot)
        must find all three untouched after N+1 and N+2 install: the
        structural copy shares nothing mutable with the epochs after."""
        with _stack(net) as stack:
            snapshot_n = stack.warm()
            captured, fingerprint = stack._epoch_view()
            weights = {(u, v): w for u, v, w in captured.edges()}
            flat = list(snapshot_n.weights)
            processor = get_engine(ENGINE).make_processor()
            processor.use_artifact(snapshot_n)
            want = processor.process(captured, [3, 17], [140, 99]).paths
            edges = list(captured.edges())
            for (u, v, w), factor in ((edges[0], 5.0), (edges[40], 0.1)):
                previous = stack._fingerprint()
                outcome = stack.reweight([(u, v, w * factor)], epoch=True)
                assert previous != outcome.fingerprint
                stack.answer(_query(stack.network, 3, 140))
            assert stack.epoch == 2 and stack.network is not captured
            # epoch N, exactly as captured
            assert {(u, v): w for u, v, w in captured.edges()} == weights
            assert captured.num_edges == net.num_edges
            assert network_fingerprint(captured) == fingerprint
            assert list(snapshot_n.weights) == flat
            got = processor.process(captured, [3, 17], [140, 99]).paths
            assert got == want
            # epoch N+2 took both changes
            current = stack.warm()
            assert current is not snapshot_n
            _assert_scratch_snapshot(current, stack.network)
            u, v, w = edges[40]
            assert stack.network.edge_weight(u, v) == w * 0.1
            _assert_exact(stack.network, stack.answer(_query(net, 3, 140)))


class TestEpochReweight:
    def test_install_swaps_network_without_mutating_the_old(self, net):
        u, v, w = next(net.edges())
        with _stack(net) as stack:
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

    def test_empty_change_set_is_a_no_op(self, net):
        with _stack(net) as stack:
            stack.warm()
            epoch = stack.epoch
            outcome = stack.reweight([], epoch=True)
            assert outcome.edges == 0
            assert stack.epoch == epoch

    def test_epoch_validation_is_atomic(self, net):
        u, v, w = next(net.edges())
        with _stack(net) as stack:
            stack.warm()
            epoch = stack.epoch
            with pytest.raises(EdgeError):
                stack.reweight([(u, v, w * 2.0), (0, 0, 1.0)], epoch=True)
            assert stack.epoch == epoch
            assert stack.network.edge_weight(u, v) == w

    def test_install_latency_and_span_are_recorded(self, net):
        tracer = Tracer()
        with _stack(net, tracer=tracer) as stack:
            stack.warm()
            changes = [(u, v, w * 2.0) for u, v, w in list(net.edges())[:3]]
            outcome = stack.reweight(changes)
            stack.reweight([])
        installs = stack.metrics.histogram("repro_serve_reweight_seconds")
        assert installs.count == 2 and installs.sum > 0.0
        spans = [r for r in tracer.roots if r.name == "serve.reweight"]
        assert [s.attrs["edges"] for s in spans] == [3, 0]
        assert spans[0].attrs["epoch"] == outcome.epoch == 1


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
        with _stack(net) as stack:

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
        with _stack(net) as stack:
            stack.warm()
            fingerprints = [stack._fingerprint()]
            for k, (u, v, w) in enumerate(edges[:4]):
                stack.answer(_query(stack.network, 3, 77))
                stack.reweight([(u, v, w * (2.0 + k))])
                fingerprints.append(stack._fingerprint())
            stack.warm()
            # Epochs beyond the retired window are released from both
            # caches; the window and the current epoch stay serveable.
            keep = KEEP_RETIRED_EPOCHS + 1
            for fp in fingerprints[:-keep]:
                assert _cached(stack, fp) is None
                assert stack.results.invalidate_fingerprint(fp) == 0
            for fp in fingerprints[-keep:]:
                assert _cached(stack, fp) is not None

    def test_restored_weight_keeps_the_live_artifact(self, net):
        """``w -> 2w -> 3w -> w`` brings the first fingerprint back as
        the current epoch: retiring it would drop the snapshot the next
        read can still use."""
        with _stack(net) as stack:
            stack.warm()
            u, v, w = next(net.edges())
            first = stack._fingerprint()
            for factor in (2.0, 3.0, 1.0):
                stack.reweight([(u, v, w * factor)])
            current = stack._fingerprint()
            assert current == first
            assert _cached(stack, current) is not None
            misses = stack.preprocessing.misses
            _assert_exact(stack.network, stack.answer(_query(net, 3, 140)))
            assert stack.preprocessing.misses == misses

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
    """A re-weight whose epoch's snapshot was evicted only moves the
    network; the next read must still build (customize) the snapshot
    from the current weights, identical to a rebuild."""

    def test_evicted_artifact_then_recustomize_matches_rebuild(self, net):
        with _stack(net) as stack:
            stack.warm()
            r1 = [(u, v, w * 1.5) for u, v, w in list(net.edges())[::5]]
            stack.reweight(r1)
            stack.warm()
            assert stack.preprocessing.invalidate_fingerprint(
                stack._fingerprint()
            )
            r2 = [
                (u, v, w * 3.0)
                for u, v, w in list(stack.network.edges())[1::7]
            ]
            stack.reweight(r2)
            stack.warm()
            r3 = [
                (u, v, w * 0.8)
                for u, v, w in list(stack.network.edges())[2::6]
            ]
            stack.reweight(r3)
            _assert_scratch_snapshot(stack.warm(), stack.network)
            _assert_exact(stack.network, stack.answer(_query(net, 3, 140)))


class TestDispatchHint:
    def test_batches_group_by_cell_byte_identically(self, net):
        queries = [
            _query(net, s, t, seed=i)
            for i, (s, t) in enumerate([(3, 140), (140, 3), (60, 80), (7, 100)])
        ]
        with _stack(net) as stack:
            stack.warm()
            batched = stack.answer_batch(queries)
        with _stack(net) as stack:
            stack.warm()
            solo = [stack.answer(q) for q in queries]
        for got, ref in zip(batched, solo):
            assert got.query is ref.query
            assert list(got.candidates.paths) == list(ref.candidates.paths)
            for pair, path in ref.candidates.paths.items():
                assert got.candidates.paths[pair].nodes == path.nodes
                assert got.candidates.paths[pair].distance == path.distance


class TestOverlaySpill:
    """The artifact cached under ``overlay-csr``, the name the churn
    workload is served under, spills as the CSR blob of its row."""

    def test_evicted_overlay_reloads_from_disk(self, net, tmp_path):
        cache = PreprocessingCache(capacity=1, spill_dir=tmp_path)
        snapshot = cache.get(net, "overlay-csr")
        other = grid_network(5, 5, seed=1)
        cache.get(other, "ch-csr")  # evicts (and spills) the snapshot
        assert list(tmp_path.glob("*.csrb")), "snapshot spill file missing"
        reloaded = cache.get(net, "overlay-csr")
        assert cache.disk_loads == 1
        _assert_scratch_snapshot(reloaded, net)
        assert snapshot.weights == reloaded.weights

    def test_spill_skips_non_integer_ids(self, tmp_path):
        net = RoadNetwork()
        net.add_node("a", 0.0, 0.0)
        net.add_node("b", 1.0, 0.0)
        net.add_edge("a", "b", 1.0)
        cache = PreprocessingCache(capacity=1, spill_dir=tmp_path)
        cache.get(net, "overlay-csr")
        other = grid_network(4, 4, seed=1)
        cache.get(other, "dijkstra")  # evicts; spill must not blow up
        assert not list(tmp_path.glob("*.csrb"))
