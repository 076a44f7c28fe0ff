"""Adapter putting OPAQUE behind the :class:`PrivacyMechanism` interface.

Lets experiment E3 compare OPAQUE row-for-row with the baselines.  Each
``answer()`` call runs one request through a private
:class:`~repro.core.system.OpaqueSystem` (independent mode — a single
request cannot share).  For shared-mode measurements use
:class:`~repro.core.system.OpaqueSystem` directly with a batch.
"""

from __future__ import annotations

from repro.baselines.base import MechanismOutcome, PrivacyMechanism
from repro.core.privacy import breach_probability
from repro.core.query import ClientRequest
from repro.core.system import OpaqueSystem
from repro.network.graph import RoadNetwork

__all__ = ["OpaqueMechanism"]


class OpaqueMechanism(PrivacyMechanism):
    """OPAQUE (independent obfuscated path query) as a mechanism.

    Parameters
    ----------
    network:
        The road network.
    strategy:
        Fake endpoint strategy (default compact; see
        :mod:`repro.core.endpoints`).
    seed:
        Obfuscator seed.
    """

    name = "opaque"

    def __init__(
        self,
        network: RoadNetwork,
        strategy=None,
        seed: int = 0,
    ) -> None:
        super().__init__(network)
        self._system = OpaqueSystem(
            network,
            mode="independent",
            strategy=strategy,
            seed=seed,
        )

    @property
    def system(self) -> OpaqueSystem:
        """The wrapped OPAQUE deployment."""
        return self._system

    def answer(self, request: ClientRequest) -> MechanismOutcome:
        results = self._system.submit([request])
        report = self._system.last_report
        assert report is not None  # submit always sets it
        path = results[request.user]
        exact, displacement, distance_error = self._score(request, path)
        record = report.records[0]
        return MechanismOutcome(
            mechanism=self.name,
            user_path=path,
            exact=exact,
            endpoint_displacement=displacement,
            distance_error=distance_error,
            breach=breach_probability(record.query),
            server_stats=report.server_stats,
            candidate_paths=report.candidate_paths,
            traffic_bytes=report.traffic.server_side_bytes,
        )
