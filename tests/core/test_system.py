"""Unit tests for repro.core.system (the OpaqueSystem facade)."""

from __future__ import annotations

import pytest

from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.core.system import OpaqueSystem
from repro.exceptions import QueryError
from repro.network.generators import grid_network
from repro.search import get_engine, list_engines
from repro.search.dijkstra import dijkstra_path


@pytest.fixture(scope="module")
def net():
    return grid_network(15, 15, perturbation=0.1, seed=131)


def request(user, s, t, f_s=3, f_t=3):
    return ClientRequest(user, PathQuery(s, t), ProtectionSetting(f_s, f_t))


@pytest.fixture(scope="module")
def batch(net):
    return [request("alice", 0, 210), request("bob", 1, 211), request("carol", 16, 195)]


class TestSubmit:
    @pytest.mark.parametrize("mode", ["independent", "shared"])
    def test_every_user_gets_exact_path(self, net, batch, mode):
        system = OpaqueSystem(net, mode=mode, seed=3)
        results = system.submit(batch)
        assert set(results) == {"alice", "bob", "carol"}
        for req in batch:
            truth = dijkstra_path(net, req.query.source, req.query.destination)
            assert results[req.user].distance == pytest.approx(truth.distance)
            assert results[req.user].source == req.query.source
            assert results[req.user].destination == req.query.destination

    def test_empty_batch_rejected(self, net):
        with pytest.raises(QueryError):
            OpaqueSystem(net).submit([])

    def test_duplicate_users_rejected(self, net):
        system = OpaqueSystem(net)
        with pytest.raises(QueryError):
            system.submit([request("alice", 0, 210), request("alice", 1, 211)])

    def test_unknown_mode_rejected(self, net):
        with pytest.raises(QueryError):
            OpaqueSystem(net, mode="stealth")

    def test_single_request_works_in_shared_mode(self, net):
        system = OpaqueSystem(net, mode="shared", seed=1)
        results = system.submit([request("solo", 0, 210)])
        assert "solo" in results


class TestSessionReport:
    def test_report_populated(self, net, batch):
        system = OpaqueSystem(net, mode="shared", seed=3)
        system.submit(batch)
        report = system.last_report
        assert report is not None
        assert len(report.records) >= 1
        assert report.server_stats.settled_nodes > 0
        assert report.candidate_paths >= len(batch)
        assert report.traffic.total_bytes > 0

    def test_breach_by_user_matches_records(self, net, batch):
        system = OpaqueSystem(net, mode="independent", seed=3)
        system.submit(batch)
        report = system.last_report
        assert set(report.breach_by_user) == {r.user for r in batch}
        for breach in report.breach_by_user.values():
            assert breach == pytest.approx(1 / 9)

    def test_shared_mode_lower_breach_with_enough_users(self, net):
        requests = [request(f"u{i}", i, 200 + i, 2, 2) for i in range(6)]
        indep = OpaqueSystem(net, mode="independent", seed=3)
        shared = OpaqueSystem(net, mode="shared", seed=3)
        indep.submit(requests)
        shared.submit([ClientRequest(r.user, r.query, r.setting) for r in requests])
        assert shared.last_report.mean_breach < indep.last_report.mean_breach

    def test_discarded_paths_counted(self, net, batch):
        system = OpaqueSystem(net, mode="independent", seed=3)
        system.submit(batch)
        report = system.last_report
        assert report.discarded_paths == report.candidate_paths - len(batch)

    def test_mean_breach_of_empty_report(self, net):
        from repro.core.system import SessionReport

        assert SessionReport().mean_breach == 1.0

    def test_pending_table_empty_after_submit(self, net, batch):
        system = OpaqueSystem(net, mode="shared", seed=3)
        system.submit(batch)
        assert system.obfuscator.pending == {}


class TestConfiguration:
    def test_custom_processor_respected(self, net, batch):
        """``engine=`` names the processor the system's server runs."""
        for engine in list_engines():
            system = OpaqueSystem(
                net, mode="independent", engine=engine, seed=3
            )
            system.submit(batch)
            expected = type(get_engine(engine).make_processor())
            assert type(system.server.processor) is expected, engine

    def test_cluster_knobs_split_batches(self, net):
        requests = [request("a", 0, 210), request("b", 224, 14)]
        system = OpaqueSystem(
            net,
            mode="shared",
            max_source_diameter=2.0,
            max_destination_diameter=2.0,
            seed=3,
        )
        system.submit(requests)
        assert len(system.last_report.records) == 2

    def test_verify_responses_flag_accepts_honest_server(self, net, batch):
        system = OpaqueSystem(net, mode="shared", verify_responses=True, seed=3)
        results = system.submit(batch)
        assert len(results) == len(batch)

    def test_server_sees_no_user_identifiers(self, net, batch):
        """The server's whole view is node ids; no user strings leak."""
        system = OpaqueSystem(net, mode="shared", seed=3)
        system.submit(batch)
        for observed in system.server.observed_queries:
            for node in observed.sources + observed.destinations:
                assert not isinstance(node, str)
