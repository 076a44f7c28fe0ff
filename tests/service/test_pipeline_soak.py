"""Concurrency soak: 8 sessions serving while the pipeline churns cells.

The live-pipeline acceptance criteria in one place:

* thousands of traffic events install through the background
  :class:`~repro.service.pipeline.RecustomizeWorker` while concurrent
  sessions hammer ``answer_batch`` — no exceptions, no torn tables;
* telemetry is consistent: the ``pipeline.install`` trace spans agree
  with the ``repro_pipeline_*`` counters attribute for attribute;
* after quiescing, the installed overlay is byte-identical to a
  from-scratch build on the final weights;
* a churn rate far above 5% of cells per minute keeps ``answer_batch``
  throughput at >= 80% of the no-churn baseline (measured as the
  cleanest of several idle/churn round pairs, the same noise shield the
  CI bench gate uses).
"""

from __future__ import annotations

import math
import random
import threading
import time

import pytest

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.network.generators import grid_network
from repro.obs.trace import Tracer
from repro.search.dijkstra import dijkstra_path
from repro.search.overlay import build_overlay, dumps_overlay
from repro.service.cache import ResultCache
from repro.service.pipeline import TrafficPipeline
from repro.service.serving import ServingConfig, ServingStack
from repro.workloads.replay import TrafficEvent

NET = grid_network(14, 14, perturbation=0.1, seed=404)
NODES = list(NET.nodes())
EDGES = list(NET.edges())
NUM_SESSIONS = 8
EVENTS_TOTAL = 2400
BURST = 40


def _session_queries(seed, count=6):
    rng = random.Random(seed)
    obfuscator = PathQueryObfuscator(NET, seed=seed)
    queries = []
    for _ in range(count):
        s, t = rng.sample(NODES, 2)
        record = obfuscator.obfuscate_independent(
            ClientRequest("u", PathQuery(s, t), ProtectionSetting(2, 2))
        )
        queries.append(record.query)
    return queries


def _churn_events(seed, count):
    rng = random.Random(seed)
    return [
        TrafficEvent(u, v, round(w * (0.5 + rng.random()), 6))
        for u, v, w in (rng.choice(EDGES) for _ in range(count))
    ]


class TestPipelineSoak:
    def test_concurrent_sessions_survive_thousands_of_churn_events(self):
        tracer = Tracer(max_roots=100_000)
        stack = ServingStack.from_config(
            NET.copy(),
            ServingConfig(engine="overlay-csr", max_workers=4),
            tracer=tracer,
        )
        errors: list[BaseException] = []
        responses: list = []
        responses_lock = threading.Lock()
        stop = threading.Event()

        def session(seed):
            queries = _session_queries(seed)
            local = []
            try:
                while not stop.is_set():
                    local.extend(stack.answer_batch(queries))
            except BaseException as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)
            with responses_lock:
                responses.extend(local)

        with stack:
            stack.warm()
            events = _churn_events(99, EVENTS_TOTAL)
            with TrafficPipeline(stack, debounce_ms=1.0) as pipeline:
                threads = [
                    threading.Thread(target=session, args=(i,))
                    for i in range(NUM_SESSIONS)
                ]
                for t in threads:
                    t.start()
                for i in range(0, EVENTS_TOTAL, BURST):
                    pipeline.publish_many(events[i : i + BURST])
                    time.sleep(0.001)
                pipeline.quiesce(timeout_s=60.0)
                stop.set()
                for t in threads:
                    t.join()
                snap = pipeline.snapshot()

            assert errors == []
            assert snap.events == EVENTS_TOTAL
            assert snap.pending == 0
            assert snap.installs > 0
            assert stack.epoch == snap.installs

            # No torn tables: every response carries its full |S|x|T|
            # candidate table with finite distances for valid pairs.
            assert len(responses) >= NUM_SESSIONS * 6
            for response in responses:
                query = response.query
                expected = {
                    (s, t) for s in query.sources for t in query.destinations
                }
                assert set(response.candidates.paths) == expected
                for path in response.candidates.paths.values():
                    assert math.isfinite(path.distance)
                    assert path.distance >= 0.0

            # Trace-vs-counters: the pipeline.install spans must agree
            # with the repro_pipeline_* counters attribute by attribute.
            installs = [r for r in tracer.roots if r.name == "pipeline.install"]
            assert len(installs) == snap.installs
            assert sum(s.attrs["batch_events"] for s in installs) == EVENTS_TOTAL
            assert (
                sum(s.attrs["unique_edges"] for s in installs)
                == snap.edges_applied
            )
            assert (
                sum(s.attrs["touched_cells"] for s in installs)
                == snap.cells_recustomized
            )
            assert sorted(s.attrs["epoch"] for s in installs) == list(
                range(1, snap.installs + 1)
            )
            # Staleness was measured for every event.
            assert snap.staleness_max_ms >= snap.staleness_p95_ms > 0.0

            # Quiesced state: byte-identical to a scratch build, and
            # answers are exact against the final weights.
            installed = stack.preprocessing.peek(
                stack._fingerprint(), "overlay-csr"
            )
            assert dumps_overlay(installed) == dumps_overlay(
                build_overlay(stack.network)
            )
            final = stack.answer_batch(_session_queries(1234))
            for response in final:
                for (s, t), path in response.candidates.paths.items():
                    ref = dijkstra_path(stack.network, s, t).distance
                    assert path.distance == pytest.approx(ref, abs=1e-9)

    def test_churn_keeps_throughput_above_the_floor(self):
        duration_s = 0.3
        rounds = 3
        queries = _session_queries(7, count=12)

        def run(events):
            stack = ServingStack.from_config(
                NET.copy(),
                ServingConfig(engine="overlay-csr", max_workers=2),
                result_cache=ResultCache(capacity=0),
            )
            with stack:
                overlay = stack.warm()
                pipeline = TrafficPipeline(stack, debounce_ms=2.0)
                pipeline.start()
                served = cursor = 0
                interval = duration_s / max(1, len(events))
                start = time.perf_counter()
                try:
                    while True:
                        elapsed = time.perf_counter() - start
                        if elapsed >= duration_s:
                            break
                        while (
                            cursor < len(events)
                            and cursor * interval <= elapsed
                        ):
                            pipeline.publish(events[cursor])
                            cursor += 1
                        stack.answer_batch(queries)
                        served += len(queries)
                    elapsed = time.perf_counter() - start
                finally:
                    pipeline.stop()
                return served / elapsed, pipeline.snapshot(), overlay

        churn = _churn_events(5, 3)
        best_ratio = 0.0
        best_snap = best_overlay = None
        for _ in range(rounds):
            idle_qps, _, _ = run([])
            churn_qps, snap, overlay = run(churn)
            if churn_qps / idle_qps > best_ratio:
                best_ratio = churn_qps / idle_qps
                best_snap, best_overlay = snap, overlay
        # The churn rate dwarfs the 5%-of-cells-per-minute floor ...
        cells_per_min = best_snap.cells_recustomized / (duration_s / 60.0)
        assert best_snap.installs > 0
        assert cells_per_min >= 0.05 * best_overlay.num_cells
        # ... while throughput keeps the absolute 80% floor.
        assert best_ratio >= 0.8
