"""Failure injection: a tampering directions server against the verifier.

Subclasses :class:`DirectionsServer` with three classic result-integrity
attacks (inflated distances, spliced detours, rerouted endpoints) and
checks that an :class:`OpaqueSystem` with ``verify_responses=True`` turns
each into a :class:`ProtocolError` instead of a silently wrong route —
while a verifier-less deployment would have accepted the tampered paths.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.core.server import DirectionsServer, ServerResponse
from repro.core.system import OpaqueSystem
from repro.exceptions import ProtocolError
from repro.network.generators import grid_network
from repro.search.result import PathResult


class TamperingServer(DirectionsServer):
    """Honest evaluation, dishonest response: applies one tampering mode."""

    def __init__(self, network, tamper: str) -> None:
        super().__init__(network)
        self._tamper = tamper

    def answer(self, query) -> ServerResponse:
        response = super().answer(query)
        pair = next(iter(response.candidates.paths))
        victim = response.candidates.paths[pair]
        if self._tamper == "inflate-distance":
            forged = replace(victim, distance=victim.distance * 1.5)
        elif self._tamper == "splice-detour":
            # Insert an unreachable hop mid-path (a road that does not exist).
            nodes = (victim.nodes[0], victim.nodes[-1])
            forged = PathResult(
                victim.source, victim.destination, nodes, victim.distance
            )
            if victim.num_edges <= 1:
                return response  # nothing to splice
        elif self._tamper == "reroute-endpoints":
            other = [p for p in response.candidates.paths if p != pair][0]
            forged = response.candidates.paths[other]
        else:
            raise ValueError(f"unknown tamper mode {self._tamper}")
        response.candidates.paths[pair] = forged
        return response


@pytest.fixture()
def net():
    return grid_network(12, 12, perturbation=0.1, seed=1201)


@pytest.fixture()
def batch(net):
    return [
        ClientRequest("alice", PathQuery(0, 140), ProtectionSetting(3, 3)),
        ClientRequest("bob", PathQuery(5, 120), ProtectionSetting(2, 2)),
    ]


@pytest.mark.parametrize(
    "tamper", ["inflate-distance", "splice-detour", "reroute-endpoints"]
)
def test_verifier_blocks_every_tampering_mode(net, batch, tamper):
    system = OpaqueSystem(net, mode="independent", verify_responses=True, seed=4)
    system.server = TamperingServer(net, tamper)
    with pytest.raises(ProtocolError):
        system.submit(batch)


@pytest.mark.parametrize(
    "tamper", ["inflate-distance", "reroute-endpoints"]
)
def test_without_verifier_tampering_goes_unnoticed(net, batch, tamper):
    """The contrast case: a verifier-less deployment happily forwards at
    least some forged candidates (whenever the forged pair was a decoy)."""
    system = OpaqueSystem(net, mode="independent", seed=4)
    system.server = TamperingServer(net, tamper)
    # May or may not corrupt a user-visible path (the forged pair is often
    # a decoy), but it must never raise: the tampering is invisible.
    results = system.submit(batch)
    assert set(results) == {"alice", "bob"}


def test_honest_server_passes_verified_system(net, batch):
    system = OpaqueSystem(net, mode="shared", verify_responses=True, seed=4)
    results = system.submit(batch)
    assert set(results) == {"alice", "bob"}


def _verified_system():
    """A verifying system over a stack on the 8x8 map."""
    from repro.service.serving import ServingConfig, ServingStack

    net = grid_network(8, 8, perturbation=0.1, seed=3)
    stack = ServingStack.from_config(net, ServingConfig(engine="dijkstra"))
    system = OpaqueSystem(net, serving=stack, verify_responses=True, seed=4)
    return net, stack, system


def _scale(network, count=40, factor=20.0):
    return [(u, v, w * factor) for u, v, w in list(network.edges())[:count]]


def _requests():
    return [
        ClientRequest("alice", PathQuery(0, 63), ProtectionSetting(3, 3)),
        ClientRequest("bob", PathQuery(7, 56), ProtectionSetting(2, 2)),
    ]


def test_verified_answers_survive_a_reweight():
    net, stack, system = _verified_system()
    stack.reweight(_scale(net))
    assert stack.network is not net
    results = system.submit(_requests())
    assert set(results) == {"alice", "bob"}


def test_a_batch_straddling_a_reweight_passes_on_either_map():
    """The answers come from the epoch before the reweight and are
    checked after it: they match the map the batch started on."""
    net, stack, system = _verified_system()
    real = stack.answer_batch
    answered = []

    def answer_then_reweight(queries):
        responses = real(queries)
        stack.reweight(_scale(net))
        answered.extend(responses)
        return responses

    stack.answer_batch = answer_then_reweight
    assert set(system.submit(_requests())) == {"alice", "bob"}
    # the new epoch alone would have refused them
    from repro.core.verification import CandidatePathVerifier

    with pytest.raises(ProtocolError):
        for response in answered:
            CandidatePathVerifier(stack.network).verify_response(response)


def test_a_tampered_distance_is_refused_after_a_reweight():
    from repro.core.server import ServerResponse
    from repro.search.multi import MSMDResult

    net, stack, system = _verified_system()
    stack.reweight(_scale(net))
    real = stack.answer_batch

    def inflate(queries):
        responses = real(queries)
        first = responses[0]
        pair, victim = next(iter(first.candidates.paths.items()))
        paths = dict(first.candidates.paths)
        paths[pair] = replace(victim, distance=victim.distance * 1.5)
        responses[0] = ServerResponse(first.query, MSMDResult(paths=paths))
        return responses

    stack.answer_batch = inflate
    with pytest.raises(ProtocolError, match="claims distance"):
        system.submit(_requests())
