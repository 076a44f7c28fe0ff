"""Concurrency soak: 8 sessions serving while a feeder thread churns edges.

The epoch writer's acceptance criteria in one place:

* thousands of traffic events install through
  :meth:`~repro.service.serving.ServingStack.reweight`, called from a
  feeder thread one burst at a time, while concurrent sessions hammer
  ``answer_batch`` — no exceptions, no torn tables (each session checks
  every response as it arrives and keeps only a count, so memory stays
  bounded however many batches the sessions get through);
* telemetry is consistent: the ``serve.reweight`` trace spans agree
  with the feeder's outcomes and the ``repro_serve_reweight_seconds``
  histogram attribute for attribute;
* after the feeder finishes, the snapshot the stack serves equals a
  from-scratch build on the final weights, and retirement has kept the
  preprocessing cache bounded;
* a churn rate far above 5% of edges per minute keeps ``answer_batch``
  throughput at >= 80% of the no-churn baseline (measured as the
  cleanest of several idle/churn round pairs, so sustained machine
  noise spanning one run cannot masquerade as churn cost).
"""

from __future__ import annotations

import math
import random
import threading
import time

import pytest

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.network.csr import CSRGraph
from repro.network.generators import grid_network
from repro.obs.trace import Tracer
from repro.search.dijkstra import dijkstra_path
from repro.service.cache import ResultCache
from repro.service.serving import (
    KEEP_RETIRED_EPOCHS,
    ServingConfig,
    ServingStack,
)

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


def _churn_changes(seed, count):
    rng = random.Random(seed)
    return [
        (u, v, round(w * (0.5 + rng.random()), 6))
        for u, v, w in (rng.choice(EDGES) for _ in range(count))
    ]


def _assert_full_table(response):
    """The response carries its full |S|x|T| candidate table with finite,
    non-negative distances."""
    query = response.query
    expected = {(s, t) for s in query.sources for t in query.destinations}
    assert set(response.candidates.paths) == expected
    for path in response.candidates.paths.values():
        assert math.isfinite(path.distance)
        assert path.distance >= 0.0


class TestEpochSoak:
    def test_concurrent_sessions_survive_thousands_of_changes(self):
        tracer = Tracer(max_roots=100_000)
        stack = ServingStack.from_config(
            NET.copy(),
            ServingConfig(engine="dijkstra-csr"),
            tracer=tracer,
        )
        errors: list[BaseException] = []
        checked: list[int] = []  # one count per session
        outcomes: list = []
        stop = threading.Event()

        def session(seed):
            queries = _session_queries(seed)
            count = 0
            try:
                while not stop.is_set():
                    for response in stack.answer_batch(queries):
                        _assert_full_table(response)
                        count += 1
            except BaseException as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)
            checked.append(count)

        def feed(changes):
            try:
                for i in range(0, EVENTS_TOTAL, BURST):
                    outcomes.append(stack.reweight(changes[i : i + BURST]))
                    time.sleep(0.001)
            except BaseException as exc:  # noqa: BLE001 - the assertion target
                errors.append(exc)

        with stack:
            stack.warm()
            threads = [
                threading.Thread(target=session, args=(i,))
                for i in range(NUM_SESSIONS)
            ]
            for t in threads:
                t.start()
            feeder = threading.Thread(
                target=feed, args=(_churn_changes(99, EVENTS_TOTAL),)
            )
            feeder.start()
            feeder.join()
            stop.set()
            for t in threads:
                t.join()

            assert errors == []
            installs = EVENTS_TOTAL // BURST
            assert len(outcomes) == installs
            assert stack.epoch == installs

            # No torn tables: each session checked every response it got
            # (a failed check is in ``errors``) and kept only a count.
            assert sum(checked) >= NUM_SESSIONS * 6

            # Trace-vs-outcomes: the serve.reweight spans must agree
            # with what the feeder saw, attribute by attribute.
            spans = [r for r in tracer.roots if r.name == "serve.reweight"]
            assert len(spans) == installs
            assert sum(s.attrs["edges"] for s in spans) == EVENTS_TOTAL
            assert [s.attrs["epoch"] for s in spans] == list(
                range(1, installs + 1)
            )
            # Install latency was measured for every epoch.
            latency = stack.metrics.histogram("repro_serve_reweight_seconds")
            assert latency.count == installs and latency.sum > 0.0

            # Final state: equal to a scratch build, answers exact
            # against the final weights, old epochs released.
            assert stack.warm().weights == CSRGraph.from_network(
                stack.network
            ).weights
            assert len(stack.preprocessing) <= KEEP_RETIRED_EPOCHS + 1
            final = stack.answer_batch(_session_queries(1234))
            for response in final:
                for (s, t), path in response.candidates.paths.items():
                    ref = dijkstra_path(stack.network, s, t).distance
                    assert path.distance == pytest.approx(ref, abs=1e-9)

    def test_churn_keeps_throughput_above_the_floor(self):
        duration_s = 0.3
        rounds = 3
        queries = _session_queries(7, count=12)

        def run(changes):
            stack = ServingStack.from_config(
                NET.copy(),
                ServingConfig(engine="dijkstra-csr"),
                result_cache=ResultCache(capacity=0),
            )
            stop = threading.Event()

            def feed():
                interval = duration_s / max(1, len(changes))
                for change in changes:
                    if stop.wait(interval):
                        return
                    stack.reweight([change])

            with stack:
                stack.warm()
                feeder = threading.Thread(target=feed)
                served = 0
                start = time.perf_counter()
                feeder.start()
                try:
                    while time.perf_counter() - start < duration_s:
                        stack.answer_batch(queries)
                        served += len(queries)
                    elapsed = time.perf_counter() - start
                finally:
                    stop.set()
                    feeder.join()
                return served / elapsed, stack.epoch

        churn = _churn_changes(5, 3)
        best_ratio = 0.0
        best = None
        for _ in range(rounds):
            idle_qps, _ = run([])
            churn_qps, epochs = run(churn)
            if churn_qps / idle_qps > best_ratio:
                best_ratio = churn_qps / idle_qps
                best = epochs
        epochs = best
        # The churn rate dwarfs the 5%-of-edges-per-minute floor ...
        edges_per_min = epochs / (duration_s / 60.0)
        assert epochs > 0
        assert edges_per_min >= 0.05 * len(EDGES)
        # ... while throughput keeps the absolute 80% floor.
        assert best_ratio >= 0.8
