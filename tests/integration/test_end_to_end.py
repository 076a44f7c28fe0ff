"""Integration tests: full OPAQUE pipeline across modules.

These tests exercise the complete Figure 5/6 flow — workload generation,
clustering, obfuscation, server-side MSMD evaluation, filtering, and
attack evaluation — on every generator topology.
"""

from __future__ import annotations

import pytest

from repro.core.attacks import CollusionAttack, empirical_breach_rate
from repro.core.privacy import breach_probability
from repro.core.query import ProtectionSetting
from repro.core.system import OpaqueSystem
from repro.network.generators import (
    grid_network,
    random_geometric_network,
    ring_radial_network,
    tiger_like_network,
)
from repro.search import list_engines
from repro.search.dijkstra import dijkstra_path
from repro.workloads.queries import requests_from_queries, uniform_queries

TOPOLOGIES = {
    "grid": lambda: grid_network(15, 15, perturbation=0.1, seed=201),
    "geometric": lambda: random_geometric_network(250, radius=0.12, seed=202),
    "ring-radial": lambda: ring_radial_network(rings=6, spokes=10, seed=203),
    "tiger": lambda: tiger_like_network(blocks=3, block_size=4, seed=204),
}


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=list(TOPOLOGIES))
@pytest.mark.parametrize("mode", ["independent", "shared"])
def test_full_pipeline_on_every_topology(topology, mode):
    network = TOPOLOGIES[topology]()
    queries = uniform_queries(network, 5, seed=7)
    requests = requests_from_queries(queries, ProtectionSetting(3, 3))
    system = OpaqueSystem(network, mode=mode, seed=7)
    results = system.submit(requests)
    assert len(results) == len(requests)
    for request in requests:
        truth = dijkstra_path(network, request.query.source, request.query.destination)
        assert results[request.user].distance == pytest.approx(truth.distance)
    report = system.last_report
    assert report.server_stats.settled_nodes > 0
    for record in report.records:
        assert breach_probability(record.query) <= 1 / 9 + 1e-9


@pytest.mark.parametrize("engine", list_engines())
def test_processor_choice_never_changes_results(engine):
    network = grid_network(12, 12, perturbation=0.1, seed=211)
    queries = uniform_queries(network, 4, seed=11)
    requests = requests_from_queries(queries, ProtectionSetting(2, 3))
    system = OpaqueSystem(network, mode="independent", engine=engine, seed=11)
    results = system.submit(requests)
    for request in requests:
        truth = dijkstra_path(network, request.query.source, request.query.destination)
        assert results[request.user].distance == pytest.approx(truth.distance)


def test_ch_engine_end_to_end_batch():
    """`OpaqueSystem(engine="ch")` runs a whole batch through the
    obfuscator -> server -> filter loop and returns true shortest paths,
    while the server answers every candidate pair off the hierarchy
    (``ch`` names the ``ch-csr`` engine)."""
    network = grid_network(15, 15, perturbation=0.1, seed=241)
    queries = uniform_queries(network, 6, seed=19)
    requests = requests_from_queries(queries, ProtectionSetting(3, 3))
    system = OpaqueSystem(network, mode="shared", engine="ch", seed=19)
    assert system.server.processor.name == "ch-csr"
    results = system.submit(requests)
    assert len(results) == len(requests)
    for request in requests:
        truth = dijkstra_path(network, request.query.source, request.query.destination)
        assert results[request.user].distance == pytest.approx(truth.distance)
    report = system.last_report
    assert report.candidate_paths >= len(requests)
    assert report.server_stats.settled_nodes > 0
    # A second batch reuses the cached contraction (no re-preprocessing).
    second = requests_from_queries(
        uniform_queries(network, 3, seed=23), ProtectionSetting(2, 2), user_prefix="b"
    )
    results2 = system.submit(second)
    for request in second:
        truth = dijkstra_path(network, request.query.source, request.query.destination)
        assert results2[request.user].distance == pytest.approx(truth.distance)


def test_attack_pipeline_on_live_session():
    """Obfuscate -> serve -> attack: the Definition 2 bound holds end to
    end, and the collusion asymmetry between modes is visible."""
    network = grid_network(15, 15, perturbation=0.1, seed=221)
    queries = uniform_queries(network, 6, seed=13)
    requests = requests_from_queries(queries, ProtectionSetting(3, 3))

    indep = OpaqueSystem(network, mode="independent", seed=13)
    indep.submit(requests)
    rate = empirical_breach_rate(indep.last_report.records, trials_per_record=300)
    assert rate == pytest.approx(1 / 9, abs=0.04)

    shared = OpaqueSystem(network, mode="shared", seed=13)
    shared.submit(requests)
    shared_record = shared.last_report.records[0]
    victim = shared_record.requests[0]
    pool_attack = CollusionAttack(knows_fake_pool=True)
    indep_outcome = pool_attack.attack(
        indep.last_report.records[0], indep.last_report.records[0].requests[0]
    )
    shared_outcome = pool_attack.attack(shared_record, victim)
    assert indep_outcome.exposed
    assert not shared_outcome.exposed


def test_repeated_sessions_accumulate_server_counters():
    network = grid_network(10, 10, perturbation=0.1, seed=231)
    system = OpaqueSystem(network, mode="shared", seed=17)
    queries = uniform_queries(network, 3, seed=17)
    for round_id in range(3):
        requests = requests_from_queries(
            queries, ProtectionSetting(2, 2), user_prefix=f"r{round_id}"
        )
        system.submit(requests)
    assert system.server.counters.queries_served == 3
    assert len(system.server.observed_queries) == 3


def test_public_api_quickstart_matches_readme():
    """The README quickstart must keep working verbatim."""
    from repro import (
        ClientRequest,
        OpaqueSystem as System,
        PathQuery,
        ProtectionSetting as Setting,
    )
    from repro.network import grid_network as make_grid

    net = make_grid(20, 20, seed=1)
    system = System(net, mode="shared")
    request = ClientRequest("alice", PathQuery(0, 399), Setting(3, 3))
    paths = system.submit([request])
    assert paths["alice"].distance > 0
