"""The OPAQUE system facade (Figure 5's full client-obfuscator-server loop).

:class:`OpaqueSystem` wires a :class:`PathQueryObfuscator`, a
:class:`DirectionsServer` and a :class:`CandidateResultPathFilter` together
and runs whole request batches through them, producing per-user result
paths plus a :class:`SessionReport` with every cost and privacy number the
experiments need.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.filter import CandidateResultPathFilter
from repro.core.obfuscator import ObfuscationRecord, PathQueryObfuscator
from repro.core.privacy import breach_probability
from repro.core.protocol import TrafficLog
from repro.core.query import ClientRequest
from repro.core.server import DirectionsServer
from repro.exceptions import QueryError
from repro.network.graph import RoadNetwork
from repro.search.multi import MultiSourceMultiDestProcessor
from repro.search.result import PathResult, SearchStats

__all__ = ["OpaqueSystem", "SessionReport"]


@dataclass(slots=True)
class SessionReport:
    """Everything measurable about one batch of requests.

    Attributes
    ----------
    records:
        Obfuscation records produced for the batch (ground truth for
        attack evaluation).
    server_stats:
        Aggregate search cost across all obfuscated queries.
    traffic:
        Byte accounting across the four protocol legs.
    breach_by_user:
        Definition 2 breach probability of each user's query.
    candidate_paths:
        Total candidate result paths the server computed.
    discarded_paths:
        Candidates that answered no real request (wasted work, the
        privacy overhead).
    candidate_results:
        The candidate paths themselves, in server-return order.  They
        carry no user attribution, so the obfuscator may retain them.
    cached_queries:
        Obfuscated queries of this batch answered from the serving
        layer's result cache (0 without a serving stack).
    coalesced_queries:
        Obfuscated queries of this batch answered by a shared union
        kernel pass merged with its batch-mates
        (:attr:`~repro.service.serving.ServingConfig.coalesce`; 0
        without a coalescing serving stack).  ``server_stats`` still totals the
        work exactly once: a shared pass's cost rides on its first
        sliced response.
    serving_caches:
        Cumulative :class:`~repro.service.cache.CacheSnapshot` of the
        serving stack's hit/miss/eviction counters, or ``None`` when the
        batch ran without a serving stack.
    """

    records: list[ObfuscationRecord] = field(default_factory=list)
    server_stats: SearchStats = field(default_factory=SearchStats)
    traffic: TrafficLog = field(default_factory=TrafficLog)
    breach_by_user: dict[str, float] = field(default_factory=dict)
    candidate_paths: int = 0
    discarded_paths: int = 0
    candidate_results: list[PathResult] = field(default_factory=list)
    cached_queries: int = 0
    coalesced_queries: int = 0
    serving_caches: object | None = None

    @property
    def mean_breach(self) -> float:
        """Average breach probability across users in the session."""
        if not self.breach_by_user:
            return 1.0
        return sum(self.breach_by_user.values()) / len(self.breach_by_user)


class OpaqueSystem:
    """End-to-end OPAQUE deployment over one road network.

    Parameters
    ----------
    network:
        Road map shared by obfuscator and server.  (The paper gives the
        obfuscator a *simpler* map; using one map is equivalent here
        because the obfuscator only reads node geometry.)
    mode:
        ``"independent"`` or ``"shared"`` — which obfuscated query variant
        :meth:`submit` builds.
    strategy:
        Fake endpoint strategy for the obfuscator (default compact).
    processor:
        Server-side MSMD strategy (default shared-tree).
    engine:
        Search-engine name from :data:`repro.search.ENGINES` (e.g.
        ``"ch"``), resolved to its MSMD processor.  Mutually exclusive
        with ``processor``.
    serving:
        A :class:`~repro.service.serving.ServingStack` over the same
        network.  When given, the stack's server handles every batch
        (result cache, shared preprocessing artifacts, concurrent
        dispatch) and :attr:`SessionReport.serving_caches` is filled in.
        Mutually exclusive with ``processor``/``engine``/``paged``.
    paged:
        Run the server over the paged storage simulator to collect I/O.
    max_source_diameter, max_destination_diameter, max_cluster_size:
        Clustering knobs for shared mode.
    verify_responses:
        When ``True`` the filter verifies every server response against
        the obfuscator's map (endpoints, walkability, distances) before
        any path reaches a client — tampering raises
        :class:`~repro.exceptions.ProtocolError`.
    seed:
        Obfuscator RNG seed.
    """

    def __init__(
        self,
        network: RoadNetwork,
        mode: str = "shared",
        strategy=None,
        processor: MultiSourceMultiDestProcessor | None = None,
        engine: str | None = None,
        serving=None,
        paged: bool = False,
        page_capacity: int = 64,
        buffer_capacity: int = 32,
        max_source_diameter: float = float("inf"),
        max_destination_diameter: float = float("inf"),
        max_cluster_size: int | None = None,
        verify_responses: bool = False,
        seed: int = 0,
    ) -> None:
        if mode not in ("independent", "shared"):
            raise QueryError(f"unknown mode {mode!r}")
        self._mode = mode
        self._cluster_knobs = {
            "max_source_diameter": max_source_diameter,
            "max_destination_diameter": max_destination_diameter,
            "max_cluster_size": max_cluster_size,
        }
        self.obfuscator = PathQueryObfuscator(network, strategy=strategy, seed=seed)
        #: serving stack answering batches, or None for the plain server
        self.serving = serving
        if serving is not None:
            if processor is not None or engine is not None or paged:
                raise ValueError(
                    "pass serving or processor/engine/paged, not both"
                )
            if serving.network is not network:
                raise ValueError(
                    "serving stack must be built over the system's network"
                )
            self.server = serving.server
        else:
            self.server = DirectionsServer(
                network,
                processor=processor,
                engine=engine,
                paged=paged,
                page_capacity=page_capacity,
                buffer_capacity=buffer_capacity,
            )
        verifier = None
        if verify_responses:
            from repro.core.verification import CandidatePathVerifier

            verifier = CandidatePathVerifier(network)
        self.filter = CandidateResultPathFilter(self.obfuscator, verifier=verifier)
        #: report of the most recent :meth:`submit` call
        self.last_report: SessionReport | None = None

    @property
    def mode(self) -> str:
        """The obfuscation variant this system builds."""
        return self._mode

    def submit(
        self, requests: Sequence[ClientRequest]
    ) -> dict[str, PathResult]:
        """Run a batch of client requests through the full pipeline.

        Returns
        -------
        dict
            ``{user: PathResult}`` — each user's true shortest path.

        Raises
        ------
        QueryError
            On an empty batch or duplicate user ids (users are the result
            routing key, so they must be unique within a batch).
        """
        if not requests:
            raise QueryError("empty request batch")
        users = [r.user for r in requests]
        if len(set(users)) != len(users):
            raise QueryError("duplicate user ids in batch")

        report = SessionReport()
        for request in requests:
            report.traffic.record("request", request)

        records = self.obfuscator.obfuscate_batch(
            requests, mode=self._mode, **self._cluster_knobs
        )
        report.records = records

        if self.serving is not None:
            responses = self.serving.answer_batch([r.query for r in records])
        else:
            responses = [self.server.answer(r.query) for r in records]

        results: dict[str, PathResult] = {}
        for record, response in zip(records, responses):
            report.traffic.record("query", record.query)
            if response.from_cache:
                report.cached_queries += 1
            else:
                report.server_stats.merge(response.candidates.stats)
            if getattr(response, "coalesced", False):
                report.coalesced_queries += 1
            report.candidate_paths += response.num_paths
            report.candidate_results.extend(response.candidates.paths.values())
            report.traffic.record(
                "candidates", list(response.candidates.paths.values())
            )
            filtered = self.filter.extract(record, response)
            report.discarded_paths += filtered.discarded_paths
            for user, path in filtered.paths_by_user.items():
                report.traffic.record("result", path)
                results[user] = path
            breach = breach_probability(record.query)
            for request in record.requests:
                report.breach_by_user[request.user] = breach

        if self.serving is not None:
            report.serving_caches = self.serving.snapshot()
        self.last_report = report
        return results
