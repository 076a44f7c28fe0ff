"""Unit tests for the live traffic pipeline: stream, batcher, worker, facade."""

from __future__ import annotations

import pytest

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.exceptions import EdgeError, GraphError
from repro.network.generators import grid_network
from repro.search.dijkstra import dijkstra_path
from repro.search.overlay import build_overlay, dumps_overlay
from repro.service.pipeline import (
    DeltaBatcher,
    RecustomizeWorker,
    TrafficEventStream,
    TrafficPipeline,
    replay_with_traffic,
)
from repro.service.serving import ServingConfig, ServingStack
from repro.workloads.replay import TrafficEvent


class ManualClock:
    """Settable monotonic clock; advances only via :meth:`advance`."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def net():
    return grid_network(10, 10, perturbation=0.1, seed=6)


def _query(net, source, destination, seed=0):
    obfuscator = PathQueryObfuscator(net, seed=seed)
    record = obfuscator.obfuscate_independent(
        ClientRequest("u", PathQuery(source, destination), ProtectionSetting(2, 2))
    )
    return record.query


def _assert_exact(stack, response):
    for (s, t), path in response.candidates.paths.items():
        ref = dijkstra_path(stack.network, s, t).distance
        assert path.distance == pytest.approx(ref, abs=1e-9)


def _events(net, count, factor=1.5):
    out = []
    for (u, v, w), _ in zip(net.edges(), range(count)):
        out.append(TrafficEvent(u, v, w * factor))
    return out


class TestTrafficEventStream:
    def test_publish_offsets_and_order(self, net):
        stream = TrafficEventStream()
        events = _events(net, 3)
        assert [stream.publish(e) for e in events] == [0, 1, 2]
        assert len(stream) == 3
        assert stream.events() == events

    def test_publish_many_single_stamp(self, net):
        clock = ManualClock()
        stream = TrafficEventStream(clock=clock)
        clock.advance(2.0)
        assert stream.publish_many(_events(net, 4)) == 4
        stamps = {s.arrived for s in stream.read_from(0)}
        assert stamps == {2.0}

    def test_read_from_replays_any_suffix(self, net):
        stream = TrafficEventStream()
        events = _events(net, 5)
        stream.publish_many(events)
        assert [s.event for s in stream.read_from(2)] == events[2:]
        assert stream.read_from(5) == []


class TestDeltaBatcher:
    def test_debounce_window_holds_then_flushes_everything(self, net):
        clock = ManualClock()
        stream = TrafficEventStream(clock=clock)
        batcher = DeltaBatcher(stream, debounce_s=1.0, clock=clock)
        events = _events(net, 3)
        stream.publish_many(events)
        assert batcher.drain() is None  # window still open
        assert batcher.due_in() == pytest.approx(1.0)
        clock.advance(1.0)
        assert batcher.due_in() == 0.0
        batch = batcher.drain()
        assert batch is not None
        assert batch.first_offset == 0
        assert len(batch) == 3
        assert batcher.pending() == 0
        assert batcher.due_in() is None

    def test_last_writer_wins_within_a_batch(self, net):
        u, v, w = next(net.edges())
        stream = TrafficEventStream()
        batcher = DeltaBatcher(stream, debounce_s=0.0)
        stream.publish(TrafficEvent(u, v, w * 2.0))
        stream.publish(TrafficEvent(u, v, w * 3.0))
        batch = batcher.drain()
        assert batch.changes == ((u, v, w * 3.0),)
        assert len(batch) == 2  # both events still carry staleness stamps

    def test_max_batch_makes_the_window_due_immediately(self, net):
        clock = ManualClock()
        stream = TrafficEventStream(clock=clock)
        batcher = DeltaBatcher(stream, debounce_s=60.0, max_batch=2, clock=clock)
        stream.publish_many(_events(net, 2))
        assert batcher.due_in() == 0.0
        assert len(batcher.drain()) == 2

    def test_force_flushes_an_open_window(self, net):
        clock = ManualClock()
        stream = TrafficEventStream(clock=clock)
        batcher = DeltaBatcher(stream, debounce_s=60.0, clock=clock)
        stream.publish_many(_events(net, 2))
        assert batcher.drain() is None
        assert len(batcher.drain(force=True)) == 2

    def test_batches_partition_the_stream_contiguously(self, net):
        stream = TrafficEventStream()
        batcher = DeltaBatcher(stream, debounce_s=0.0)
        events = _events(net, 6)
        stream.publish_many(events[:2])
        first = batcher.drain()
        stream.publish_many(events[2:])
        second = batcher.drain()
        assert first.first_offset == 0 and len(first) == 2
        assert second.first_offset == 2 and len(second) == 4

    def test_cells_attribution(self, net):
        stream = TrafficEventStream()
        batcher = DeltaBatcher(stream, debounce_s=0.0)
        overlay = build_overlay(net)
        stream.publish_many(_events(net, 4))
        counts = batcher.drain().cells(overlay.partition.cell_of)
        assert sum(counts.values()) == 4

    def test_invalid_parameters_rejected(self, net):
        stream = TrafficEventStream()
        with pytest.raises(ValueError):
            DeltaBatcher(stream, debounce_s=-1.0)
        with pytest.raises(ValueError):
            DeltaBatcher(stream, max_batch=0)


class TestEpochReweight:
    def test_install_swaps_network_without_mutating_the_old(self, net):
        u, v, w = next(net.edges())
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
        ) as stack:
            stack.warm()
            old_network = stack.network
            old_epoch = stack.epoch
            outcome = stack.reweight([(u, v, w * 2.0)], epoch=True)
            assert stack.epoch == old_epoch + 1
            assert outcome.epoch == stack.epoch
            assert outcome.fingerprint != outcome.previous_fingerprint
            # Copy-on-write: the old epoch's snapshot is untouched, the
            # serving pointer moved to a new object with the new weight.
            assert stack.network is not old_network
            assert old_network.edge_weight(u, v) == w
            assert stack.network.edge_weight(u, v) == w * 2.0
            _assert_exact(stack, stack.answer(_query(stack.network, 3, 77)))

    def test_recustomized_install_matches_scratch_build(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
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
            ServingConfig(engine="overlay-csr", max_workers=1),
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
            ServingConfig(engine="overlay-csr", max_workers=1),
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


class TestRecustomizeWorker:
    def test_step_without_pending_events_is_none(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
        ) as stack:
            stack.warm()
            pipeline = TrafficPipeline(stack, debounce_ms=0.0)
            assert pipeline.worker.step() is None

    def test_staleness_measured_on_the_injected_clock(self, net):
        clock = ManualClock()
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
        ) as stack:
            stack.warm()
            pipeline = TrafficPipeline(stack, debounce_ms=0.0, clock=clock)
            pipeline.publish_many(_events(net, 2))
            clock.advance(0.25)
            assert pipeline.pump() == 1
            samples = pipeline.worker.staleness_samples()
            assert samples == [pytest.approx(0.25)] * 2
            snap = pipeline.snapshot()
            assert snap.staleness_p95_ms == pytest.approx(250.0)
            assert snap.staleness_max_ms == pytest.approx(250.0)

    def test_retirement_releases_old_epoch_cache_keys(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
        ) as stack:
            stack.warm()
            pipeline = TrafficPipeline(stack, debounce_ms=0.0, keep_epochs=1)
            fingerprints = [stack._fingerprint()]
            for factor in (2.0, 3.0, 4.0):
                pipeline.publish_many(_events(net, 1, factor=factor))
                pipeline.pump()
                fingerprints.append(stack._fingerprint())
            # Oldest epochs beyond the keep window are released; the
            # previous and current epochs' artifacts remain serveable.
            assert stack.preprocessing.peek(fingerprints[0], "overlay-csr") is None
            assert stack.preprocessing.peek(fingerprints[1], "overlay-csr") is None
            for fp in fingerprints[2:]:
                assert stack.preprocessing.peek(fp, "overlay-csr") is not None

    def test_background_error_is_parked_and_reraised(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
        ) as stack:
            stack.warm()
            pipeline = TrafficPipeline(stack, debounce_ms=0.0)
            pipeline.start()
            try:
                pipeline.publish(TrafficEvent(0, 0, 1.0))  # no such edge
                with pytest.raises(EdgeError):
                    pipeline.quiesce(timeout_s=10.0)
            finally:
                pipeline.worker.stop(drain=False)

    def test_keep_epochs_validation(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
        ) as stack:
            with pytest.raises(ValueError):
                RecustomizeWorker(
                    stack,
                    DeltaBatcher(TrafficEventStream()),
                    keep_epochs=0,
                )


class TestTrafficPipeline:
    def test_pump_installs_and_counts(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
        ) as stack:
            stack.warm()
            pipeline = TrafficPipeline(stack, debounce_ms=0.0)
            pipeline.publish_many(_events(net, 5))
            assert pipeline.pump() == 1
            snap = pipeline.snapshot()
            assert snap.events == 5
            assert snap.pending == 0
            assert snap.installs == 1
            assert snap.edges_applied == 5
            assert snap.epoch == stack.epoch >= 1
            assert "epoch" in repr(pipeline)

    def test_background_quiesce_reaches_scratch_built_state(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
        ) as stack:
            stack.warm()
            with TrafficPipeline(stack, debounce_ms=1.0) as pipeline:
                pipeline.publish_many(_events(net, 12, factor=0.9))
                pipeline.publish_many(_events(net, 12, factor=1.7))
                pipeline.quiesce()
                assert pipeline.snapshot().pending == 0
            installed = stack.preprocessing.peek(
                stack._fingerprint(), "overlay-csr"
            )
            assert dumps_overlay(installed) == dumps_overlay(
                build_overlay(stack.network)
            )

    def test_pipeline_metrics_registered_on_the_stack(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
        ) as stack:
            stack.warm()
            pipeline = TrafficPipeline(stack, debounce_ms=0.0)
            pipeline.publish_many(_events(net, 2))
            pipeline.pump()
            doc = stack.metrics.to_json()
            for name in (
                "repro_pipeline_events_total",
                "repro_pipeline_pending_events",
                "repro_pipeline_installs_total",
                "repro_pipeline_staleness_seconds",
            ):
                assert name in doc


class TestReplayWithTraffic:
    def test_mixed_stream_serves_and_installs_in_order(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
        ) as stack:
            stack.warm()
            pipeline = TrafficPipeline(stack, debounce_ms=0.0)
            u, v, w = next(net.edges())
            items = [
                _query(net, 3, 77),
                _query(net, 8, 55),
                TrafficEvent(u, v, w * 2.5),
                _query(net, 20, 90),
            ]
            report = replay_with_traffic(
                stack, items, pipeline, repeats=2, batch_size=2
            )
            assert report.queries == 6
            assert len(report.latencies) == 6
            assert stack.network.edge_weight(u, v) == w * 2.5
            assert pipeline.snapshot().pending == 0
            _assert_exact(stack, stack.answer(_query(stack.network, 3, 77)))

    def test_invalid_parameters_rejected(self, net):
        with ServingStack.from_config(
            net,
            ServingConfig(engine="overlay-csr", max_workers=1),
        ) as stack:
            pipeline = TrafficPipeline(stack)
            with pytest.raises(ValueError):
                replay_with_traffic(stack, [], pipeline, repeats=0)
            with pytest.raises(ValueError):
                replay_with_traffic(stack, [], pipeline, batch_size=0)
