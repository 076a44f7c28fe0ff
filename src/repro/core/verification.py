"""Candidate result path verification against a malicious server.

The paper's server is semi-trusted ("honest but curious"): it answers
correctly but analyzes what it sees.  A deployed obfuscator should not
even rely on the honesty half blindly — it holds its own simple road map
(Section IV), which is enough to *verify* every candidate result path:

* endpoints must match the (s, t) pair the path claims to answer;
* every hop must be an existing road segment;
* the claimed distance must equal the edge-weight sum (within a relative
  tolerance, because the obfuscator's map lacks the server's real-time
  traffic weights).

:class:`CandidatePathVerifier` implements those checks and plugs into
:class:`~repro.core.filter.CandidateResultPathFilter`, turning silent
result corruption into a :class:`~repro.exceptions.ProtocolError`.
"""

from __future__ import annotations

from repro.core.server import ServerResponse
from repro.exceptions import ProtocolError
from repro.search.result import PathResult

__all__ = ["CandidatePathVerifier"]


class CandidatePathVerifier:
    """Checks server-returned candidate paths against a road map.

    Parameters
    ----------
    network:
        The obfuscator's map (read interface; a plain
        :class:`~repro.network.graph.RoadNetwork`).  It becomes the one
        entry of :attr:`networks`.
    relative_tolerance:
        Allowed relative gap between the claimed distance and the
        edge-weight sum on this map.  0 demands exact agreement (same map
        on both sides); a deployment whose server applies live traffic
        weights would set this to the plausible traffic factor.
    check_distances:
        Disable to verify topology only (endpoints + walkability), e.g.
        when the server's weights are congestion-based and incomparable.
    """

    def __init__(
        self,
        network,
        relative_tolerance: float = 1e-9,
        check_distances: bool = True,
    ) -> None:
        if relative_tolerance < 0:
            raise ValueError("relative_tolerance must be >= 0")
        #: the maps a candidate is checked against; it passes when it
        #: matches any one of them (a batch answered across a reweight
        #: holds the map before and the map after it)
        self.networks: tuple = (network,)
        self._tolerance = relative_tolerance
        self._check_distances = check_distances

    def verify_path(self, claimed_pair, path: PathResult) -> None:
        """Verify one candidate path; raise :class:`ProtocolError` if bad.

        The path must match one of :attr:`networks`; when it matches
        none, the error is the first map's.
        """
        s, t = claimed_pair
        if path.source != s or path.destination != t:
            raise ProtocolError(
                f"candidate for pair {claimed_pair!r} has endpoints "
                f"({path.source!r}, {path.destination!r})"
            )
        if path.nodes[0] != s or path.nodes[-1] != t:
            raise ProtocolError(
                f"candidate for pair {claimed_pair!r} starts/ends elsewhere"
            )
        errors = []
        for network in self.networks:
            try:
                return self._verify_on(network, claimed_pair, path)
            except ProtocolError as exc:
                errors.append(exc)
        raise errors[0]

    def _verify_on(self, network, claimed_pair, path: PathResult) -> None:
        """Walk ``path`` on ``network``: real roads, and (when checked)
        a claimed distance equal to their weight sum."""
        total = 0.0
        for u, v in path.edges():
            if u not in network or v not in network:
                raise ProtocolError(
                    f"candidate for {claimed_pair!r} visits unknown node"
                )
            neighbors = network.neighbors(u)
            if v not in neighbors:
                raise ProtocolError(
                    f"candidate for {claimed_pair!r} uses non-existent road "
                    f"({u!r}, {v!r})"
                )
            total += neighbors[v]
        if self._check_distances and path.num_edges > 0:
            scale = max(abs(total), abs(path.distance), 1e-12)
            if abs(total - path.distance) > self._tolerance * scale + 1e-12:
                raise ProtocolError(
                    f"candidate for {claimed_pair!r} claims distance "
                    f"{path.distance} but its edges sum to {total}"
                )

    def verify_response(self, response: ServerResponse) -> None:
        """Verify every candidate in a server response.

        Also checks coverage: the response must contain exactly one path
        per (s, t) pair of the obfuscated query.
        """
        expected = set(response.query.pairs())
        got = set(response.candidates.paths)
        if expected != got:
            missing = expected - got
            extra = got - expected
            raise ProtocolError(
                f"response pair coverage mismatch: missing={sorted(map(repr, missing))}, "
                f"unexpected={sorted(map(repr, extra))}"
            )
        for pair, path in response.candidates.paths.items():
            self.verify_path(pair, path)
