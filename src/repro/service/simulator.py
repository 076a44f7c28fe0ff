"""Discrete-time simulation of the obfuscator as an online service.

Requests arrive at timestamps (e.g. Poisson arrivals); the obfuscator
accumulates them into batching windows of fixed length ``window``.  When a
window closes, everything in hand is pushed through an
:class:`~repro.core.system.OpaqueSystem` batch (shared or independent) and
each member's response latency is ``window_close - arrival`` plus a
service time proportional to the server work the batch needed.

This is the latency/privacy/cost trade-off behind Section IV's design:
longer windows gather more co-located real endpoints (stronger shared
anonymity, more sharing) but keep early arrivals waiting.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.core.query import ClientRequest
from repro.core.system import OpaqueSystem
from repro.exceptions import ExperimentError
from repro.search.result import PathResult

__all__ = [
    "TimedRequest",
    "ServiceReport",
    "BatchingObfuscationService",
    "poisson_arrivals",
]


@dataclass(frozen=True, slots=True)
class TimedRequest:
    """A client request stamped with its arrival time (seconds)."""

    arrival_time: float
    request: ClientRequest

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ExperimentError("arrival_time must be >= 0")


@dataclass(slots=True)
class ServiceReport:
    """Aggregate outcome of one simulated service run.

    Attributes
    ----------
    latencies_by_user:
        Response latency per user (window wait + service time).
    breach_by_user:
        Definition 2 breach per user, from the underlying batch reports.
    windows_processed:
        Number of non-empty batching windows.
    obfuscated_queries:
        Total ``Q(S, T)`` sent to the server.
    server_settled_nodes:
        Total server search work (cache hits contribute nothing).
    cached_queries:
        Obfuscated queries answered from the serving stack's result
        cache (0 when the system runs without one).
    coalesced_queries:
        Obfuscated queries answered by shared union kernel passes of
        >= 2 distinct misses (0 without a serving stack).
    serving_caches:
        The serving stack's cumulative
        :class:`~repro.service.cache.CacheSnapshot` after the run, or
        ``None`` when the system runs without one.
    """

    latencies_by_user: dict[str, float] = field(default_factory=dict)
    breach_by_user: dict[str, float] = field(default_factory=dict)
    windows_processed: int = 0
    obfuscated_queries: int = 0
    server_settled_nodes: int = 0
    cached_queries: int = 0
    coalesced_queries: int = 0
    serving_caches: object | None = None

    def latency_percentile(self, q: float) -> float:
        """The ``q``-quantile of response latency (0 when empty)."""
        from repro.service.stats import percentile

        return percentile(sorted(self.latencies_by_user.values()), q)

    @property
    def mean_latency(self) -> float:
        """Average response latency across users (0 when empty)."""
        if not self.latencies_by_user:
            return 0.0
        return sum(self.latencies_by_user.values()) / len(self.latencies_by_user)

    @property
    def p50_latency(self) -> float:
        """Median response latency (0 when empty)."""
        return self.latency_percentile(0.50)

    @property
    def p95_latency(self) -> float:
        """95th-percentile response latency (0 when empty)."""
        return self.latency_percentile(0.95)

    @property
    def p99_latency(self) -> float:
        """99th-percentile response latency (0 when empty)."""
        return self.latency_percentile(0.99)

    @property
    def mean_breach(self) -> float:
        """Average per-user breach probability (1 when empty)."""
        if not self.breach_by_user:
            return 1.0
        return sum(self.breach_by_user.values()) / len(self.breach_by_user)

    def to_dict(self) -> dict:
        """Stable-key report shape (see ``docs/API.md``).

        Aggregates only — the per-user latency/breach maps stay in
        memory (user names are session identifiers, not report
        material).
        """
        return {
            "schema": 1,
            "kind": "service_report",
            "users": len(self.latencies_by_user),
            "windows_processed": self.windows_processed,
            "obfuscated_queries": self.obfuscated_queries,
            "server_settled_nodes": self.server_settled_nodes,
            "cached_queries": self.cached_queries,
            "coalesced_queries": self.coalesced_queries,
            "mean_latency_s": self.mean_latency,
            "p50_latency_s": self.p50_latency,
            "p95_latency_s": self.p95_latency,
            "p99_latency_s": self.p99_latency,
            "mean_breach": self.mean_breach,
            "cache": (
                self.serving_caches.to_dict()
                if self.serving_caches is not None
                else None
            ),
        }


class BatchingObfuscationService:
    """Windowed batching in front of an :class:`OpaqueSystem`.

    Parameters
    ----------
    system:
        The deployment handling each window's batch (its ``mode`` decides
        independent vs. shared obfuscation).  Build it with a
        :class:`~repro.service.serving.ServingStack` (``serving=``) to
        serve windows through the preprocessing/result caches and one
        union pass per window; the report then carries cache counters.
    window:
        Batching window length in seconds (> 0).  Window boundaries sit at
        multiples of ``window``; a request arriving at time ``a`` is
        answered at the first boundary strictly after ``a``.
    service_time_per_settled_node:
        Seconds of processing latency charged per settled node of the
        window's server work, added to every member's latency (models the
        server actually computing).  0 disables it.
    """

    def __init__(
        self,
        system: OpaqueSystem,
        window: float = 1.0,
        service_time_per_settled_node: float = 0.0,
    ) -> None:
        if window <= 0:
            raise ExperimentError("window must be positive")
        if service_time_per_settled_node < 0:
            raise ExperimentError("service time rate must be >= 0")
        self.system = system
        self._window = window
        self._service_rate = service_time_per_settled_node

    @property
    def window(self) -> float:
        """Batching window length in seconds."""
        return self._window

    def run(
        self, arrivals: Sequence[TimedRequest]
    ) -> tuple[dict[str, PathResult], ServiceReport]:
        """Simulate the whole arrival stream.

        Returns
        -------
        (results, report)
            ``results`` maps each user to their path; ``report`` carries
            latency/privacy/cost aggregates.

        Raises
        ------
        ExperimentError
            On duplicate users (results are keyed by user) — the same
            constraint :meth:`OpaqueSystem.submit` enforces per batch,
            lifted here to the whole stream.
        """
        users = [t.request.user for t in arrivals]
        if len(set(users)) != len(users):
            raise ExperimentError("duplicate user ids in arrival stream")
        report = ServiceReport()
        results: dict[str, PathResult] = {}
        ordered = sorted(arrivals, key=lambda t: t.arrival_time)
        index = 0
        while index < len(ordered):
            # The window containing this arrival closes at the next
            # boundary strictly after it.
            first = ordered[index]
            close = math.floor(first.arrival_time / self._window + 1.0) * self._window
            batch: list[TimedRequest] = []
            while index < len(ordered) and ordered[index].arrival_time < close:
                batch.append(ordered[index])
                index += 1
            batch_results = self.system.submit([t.request for t in batch])
            system_report = self.system.last_report
            assert system_report is not None
            service_time = (
                system_report.server_stats.settled_nodes * self._service_rate
            )
            for timed in batch:
                user = timed.request.user
                results[user] = batch_results[user]
                report.latencies_by_user[user] = (
                    close - timed.arrival_time + service_time
                )
                report.breach_by_user[user] = system_report.breach_by_user[user]
            report.windows_processed += 1
            report.obfuscated_queries += len(system_report.records)
            report.server_settled_nodes += system_report.server_stats.settled_nodes
            report.cached_queries += system_report.cached_queries
            report.coalesced_queries += system_report.coalesced_queries
        report.serving_caches = (
            self.system.serving.snapshot()
            if getattr(self.system, "serving", None) is not None
            else None
        )
        return results, report


def poisson_arrivals(
    requests: Sequence[ClientRequest],
    rate: float,
    seed: int = 0,
) -> list[TimedRequest]:
    """Stamp ``requests`` with Poisson arrival times (``rate`` per second).

    Inter-arrival gaps are exponential with mean ``1/rate``; order is
    preserved.
    """
    if rate <= 0:
        raise ExperimentError("arrival rate must be positive")
    rng = random.Random(seed)
    now = 0.0
    arrivals: list[TimedRequest] = []
    for request in requests:
        now += rng.expovariate(rate)
        arrivals.append(TimedRequest(arrival_time=now, request=request))
    return arrivals
