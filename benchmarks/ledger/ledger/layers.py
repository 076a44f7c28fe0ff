"""Per-layer measurements: the in-process replay and the layer probes.

The server is a separate process the harness may not instrument, so its
layers are measured from outside: the identical ``Q(S, T)`` stream is
replayed, in order and with reweights at the same positions, through
each layer's public function in this process.  The replayed spans are
attached under the HTTP span they explain, which makes the gateway's
self time "round trip minus everything the replay accounts for".
"""

from __future__ import annotations

import pickle
import statistics
import time

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import ClientRequest, ProtectionSetting
from repro.exceptions import ReproError
from repro.network.csr import csr_snapshot
from repro.network.generators import grid_network
from repro.network.io import read_network
from repro.search import ENGINES, get_engine
from repro.search.multi import PreprocessingProcessor
from repro.service.cache import network_fingerprint
from repro.service.serving import (
    ConcurrentDispatcher,
    ServingConfig,
    ServingStack,
)
from repro.service.wire import RouteRequest, RouteResponse
from repro.workloads.queries import uniform_queries

from ledger.client import Outcome, Reweight
from ledger.spans import Recorder
from ledger.workloads import Workload

#: exact work counters are taken over this fixed prefix of the stream,
#: so they repeat however many requests a time-boxed run completes
COUNT_PREFIX = 64
#: engines of the ``search.process_ms.<engine>`` table, its map's
#: largest side (CH contraction must stay cheap) and its query count
TABLE_ENGINES = ("dijkstra-csr", "ch-csr", "overlay-csr", "dijkstra-vec")
TABLE_SIDE = 40
TABLE_QUERIES = 200


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, t0, time.perf_counter()


def static_probes(workload: Workload, network_file) -> tuple[dict, object]:
    """Set-up-side layer costs; returns the metrics and a fresh network.

    Every probe reads its own copy of the map: CSR snapshots are
    memoized per network object, so a shared copy would make whichever
    probe ran second look free.  The returned copy is untouched, for
    the replay stack to warm from cold.
    """
    network, t0, t1 = _timed(read_network, network_file)
    _, t2, t3 = _timed(csr_snapshot, network)
    _, t4, t5 = _timed(
        get_engine(workload.engine).prepare, read_network(network_file)
    )
    return {
        "network.read_s": t1 - t0,
        "network.csr_snapshot_ms": (t3 - t2) * 1e3,
        "search.prepare_s": t5 - t4,
    }, read_network(network_file)


class Replayer:
    """Replays the run's stream in-process, one request behind the wire.

    ``drive`` hands over each reply as soon as it has been filtered (and
    each reweight as soon as it was acknowledged), so a request's
    replayed spans are measured next to its round trip in time and slow
    drift of the machine cancels out of "round trip minus replay".
    Every request is answered, traced or not, so the replay's result
    cache goes through the same states as the server's; only traced
    requests get spans and the extra probes.

    The stack's dispatcher is swapped for one whose processors clock
    their own ``process`` call, so ``search.process`` is the very search
    the replayed ``answer`` ran — a true child span, not a second run.
    """

    def __init__(self, workload: Workload, network, recorder: Recorder):
        self._workload = workload
        self._recorder = recorder
        self._searches: list[tuple[float, float]] = []
        config = ServingConfig(engine=workload.engine)
        self._stack = ServingStack.from_config(network, config)
        self._stack.dispatcher = ConcurrentDispatcher(
            self._clocked_processor, max_workers=config.max_workers
        )
        _, t0, t1 = _timed(self._stack.warm)
        self.warm_ms = (t1 - t0) * 1e3
        self._fingerprint = network_fingerprint(network)
        self._settled = self._relaxed = 0
        #: byte-identity misses on static maps, ``{index: miss}``
        self.misses: dict[int, str] = {}

    def _clocked_processor(self):
        processor = get_engine(self._workload.engine).make_processor()
        inner, searches = processor.process, self._searches

        def process(network, sources, destinations):
            t0 = time.perf_counter()
            try:
                return inner(network, sources, destinations)
            finally:
                searches.append((t0, time.perf_counter()))

        processor.process = process
        return processor

    def reweight(self, reweight: Reweight) -> None:
        stack = self._stack
        done, t0, t1 = _timed(
            lambda: stack.reweight([reweight.change], epoch=True)
        )
        self._recorder.add(
            "service.pipeline.reweight_inproc", t0, t1, None,
            reweight.before_index, replayed=True,
            touched_cells=len(done.touched_cells),
        )
        self._fingerprint = network_fingerprint(stack.network)

    def request(self, outcome: Outcome) -> None:
        if outcome.error:
            return
        stack, add, rid = self._stack, self._recorder.add, outcome.index
        query, d0, d1 = _timed(
            lambda: RouteRequest.from_json(outcome.sent).to_query()
        )
        self._searches.clear()
        try:
            response, a0, a1 = _timed(stack.answer, query)
        except ReproError:
            self.misses[rid] = "in-process answer failed"
            return
        encoded, e0, e1 = _timed(
            lambda: RouteResponse.from_server(response).to_json()
        )
        table = RouteResponse.from_server(response)
        fresh = not response.from_cache
        if fresh and rid < COUNT_PREFIX:
            self._settled += response.candidates.stats.settled_nodes
            self._relaxed += response.candidates.stats.relaxed_edges
        if not self._workload.reweight_every:
            got = RouteResponse.from_json(outcome.body).payload_json()
            if got != table.payload_json():
                self.misses[rid] = "payload differs from the in-process answer"
        if not outcome.traced:
            return
        parent = outcome.http_span
        add("service.wire.decode_request", d0, d1, parent, rid, replayed=True)
        answer = add("service.serving.answer", a0, a1, parent, rid,
                     replayed=True, from_cache=not fresh)
        add("service.wire.encode_response", e0, e1, parent, rid,
            replayed=True, bytes=len(encoded))
        for p0, p1 in self._searches:
            add("search.process", p0, p1, answer, rid, replayed=True)
        _, g0, g1 = _timed(
            stack.results.get, self._fingerprint, query.sources,
            query.destinations, self._workload.engine,
        )
        add("service.cache.result_get", g0, g1, None, rid, replayed=True)
        # the two messages ShardWorkerPool would ship for this request,
        # built from public API; only the pickling is timed
        envelopes = (
            ("batch", [(query.sources, query.destinations)]),
            ("ok", [{"ok": table.to_dict()}]),
        )
        _, k0, k1 = _timed(
            lambda: [pickle.loads(pickle.dumps(m)) for m in envelopes]
        )
        add("service.gateway.envelope_pickle", k0, k1, None, rid,
            replayed=True)

    def close(self) -> dict:
        """Stop the stack; the counters that are not spans."""
        epochs = self._stack.epoch
        self._stack.close()
        return {
            "serving.warm_ms": self.warm_ms,
            "search.settled_per_query": self._settled / COUNT_PREFIX,
            "search.relaxed_per_query": self._relaxed / COUNT_PREFIX,
            "reweight.epochs": epochs,
        }


def engine_table(workload: Workload, seed: int) -> dict:
    """``search.process_ms.<engine>`` / ``search.prepare_s.<engine>``.

    ``TABLE_QUERIES`` queries shaped like the workload's (uniform,
    its ``f``) on its grid family, capped at 40x40 so CH contraction is
    cheap enough to pay in every traced run.  Every engine of the table
    must be registered: ``dijkstra-vec`` needs numpy, and a box without
    it cannot measure that row, so the run stops rather than report 0.
    """
    missing = [engine for engine in TABLE_ENGINES if engine not in ENGINES]
    if missing:
        raise SystemExit(
            f"error: engine(s) {missing} are not registered (dijkstra-vec "
            "needs numpy); the engine table cannot be measured"
        )
    side = min(TABLE_SIDE, workload.side)
    network = grid_network(side, side, perturbation=0.1, seed=7)
    obfuscator = PathQueryObfuscator(network, seed=seed)
    setting = ProtectionSetting(workload.f, workload.f)
    queries = [
        obfuscator.obfuscate_independent(
            ClientRequest(f"u{k}", q, setting)
        ).query
        for k, q in enumerate(uniform_queries(network, TABLE_QUERIES, seed))
    ]
    out = {}
    for engine in TABLE_ENGINES:
        artifact, t0, t1 = _timed(get_engine(engine).prepare, network)
        processor = get_engine(engine).make_processor()
        if isinstance(processor, PreprocessingProcessor):
            processor.use_artifact(artifact)
        samples = []
        for query in queries:
            _, p0, p1 = _timed(
                processor.process, network,
                list(query.sources), list(query.destinations),
            )
            samples.append((p1 - p0) * 1e3)
        out[f"search.process_ms.{engine}"] = statistics.median(samples)
        out[f"search.prepare_s.{engine}"] = t1 - t0
    return out


def ch_tie_failures() -> int:
    """Point queries ``ch``/``ch-csr`` get wrong on a tie-heavy grid.

    100 seeded queries on the *unperturbed* 20x20 grid (unit weights, so
    shortest paths tie everywhere).  A failure is a ``NoPathError`` on a
    connected map or a distance other than dict Dijkstra's.  Reported,
    not fixed here, and not part of ``failed``.
    """
    network = grid_network(20, 20)
    queries = uniform_queries(network, 100, seed=0)
    oracle = get_engine("dijkstra")
    failures = 0
    for name in ("ch", "ch-csr"):
        engine = get_engine(name)
        context = engine.prepare(network)
        for query in queries:
            want = oracle.route(network, *query.as_pair()).distance
            try:
                got = engine.route(network, *query.as_pair(), context).distance
            except ReproError:
                failures += 1
                continue
            if abs(got - want) > 1e-9:
                failures += 1
    return failures


def server_counters(metrics: dict) -> dict:
    """Gateway and cache counters from ``GET /v1/metrics``.

    Cache counters are summed over the gateway's own stack and every
    shard worker's.
    """
    gateway = metrics["gateway"]["metrics"]
    caches = [metrics["serving"]["cache"]] + [
        shard["cache"] for shard in metrics["shards"]
    ]
    hits = sum(c["result_hits"] for c in caches)
    lookups = hits + sum(c["result_misses"] for c in caches)
    return {
        "gateway.requests_total":
            gateway["repro_gateway_requests_total"]["value"],
        "gateway.rejected_total":
            gateway["repro_gateway_rejected_total"]["value"],
        "gateway.errors_total":
            gateway["repro_gateway_errors_total"]["value"],
        "cache.result_hits": hits,
        "cache.result_misses": lookups - hits,
        "cache.result_hit_ratio": hits / lookups,
        "cache.preprocessing_misses":
            sum(c["preprocessing_misses"] for c in caches),
    }
