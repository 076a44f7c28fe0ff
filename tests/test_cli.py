"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.network.generators import grid_network
from repro.network.io import write_network
from repro.search import get_engine, list_engines


@pytest.fixture()
def map_file(tmp_path):
    path = tmp_path / "city.txt"
    write_network(grid_network(10, 10, perturbation=0.1, seed=9), path)
    return str(path)


class TestGenerate:
    @pytest.mark.parametrize(
        "topology,extra",
        [
            ("grid", ["--width", "6", "--height", "5"]),
            ("geometric", ["--nodes", "120", "--radius", "0.15"]),
            ("ring-radial", ["--rings", "3", "--spokes", "6"]),
            ("tiger", ["--blocks", "2", "--block-size", "4"]),
        ],
    )
    def test_generates_readable_map(self, tmp_path, capsys, topology, extra):
        out = str(tmp_path / "net.txt")
        code = main(["generate", topology, *extra, "-o", out])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["summarize", out]) == 0

    def test_output_required(self):
        with pytest.raises(SystemExit):
            main(["generate", "grid"])


class TestSummarize:
    def test_prints_stats(self, map_file, capsys):
        assert main(["summarize", map_file]) == 0
        out = capsys.readouterr().out
        assert "nodes:            100" in out
        assert "road-like:        yes" in out

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["summarize", "/does/not/exist.txt"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRoute:
    # Every registered engine, never a hard-coded subset: a new engine
    # must be routable from the CLI the moment it enters ENGINES.
    @pytest.mark.parametrize("engine", list_engines())
    def test_engines_agree(self, map_file, capsys, engine):
        assert main(["route", map_file, "0", "99", "--engine", engine]) == 0
        out = capsys.readouterr().out
        assert "distance:" in out
        assert "route: 0" in out

    def test_avoid_highways_flag(self, map_file, capsys):
        assert main(["route", map_file, "0", "99", "--avoid-highways"]) == 0
        assert "distance:" in capsys.readouterr().out

    def test_no_path_reports_error(self, tmp_path, capsys):
        from repro.network.graph import RoadNetwork

        net = RoadNetwork()
        net.add_node(0, 0, 0)
        net.add_node(1, 1, 0)
        path = tmp_path / "disconnected.txt"
        write_network(net, path)
        assert main(["route", str(path), "0", "1"]) == 1
        assert "no path" in capsys.readouterr().err


class TestEngineAliases:
    def test_alias_names_share_their_rows_and_parse(self):
        # The request ledger asks for ``overlay-csr`` and ``ch`` by name.
        assert get_engine("overlay-csr") is get_engine("dijkstra-csr")
        assert get_engine("ch") is get_engine("ch-csr")
        args = build_parser().parse_args(
            ["serve", "city.txt", "--engine", "overlay-csr"]
        )
        assert args.engine == "overlay-csr"


class TestProtect:
    def test_protected_query_output(self, map_file, capsys):
        assert main(
            ["protect", map_file, "0", "99", "--f-s", "3", "--f-t", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "breach probability: 0.1667" in out
        assert "server saw S" in out

    def test_protection_of_one_is_direct(self, map_file, capsys):
        assert main(
            ["protect", map_file, "0", "99", "--f-s", "1", "--f-t", "1"]
        ) == 0
        assert "breach probability: 1.0000" in capsys.readouterr().out

    def test_protect_with_ch_engine(self, map_file, capsys):
        assert main(
            ["protect", map_file, "0", "99", "--engine", "ch"]
        ) == 0
        out = capsys.readouterr().out
        assert "distance:" in out
        assert "server saw S" in out


class TestWorkload:
    def test_writes_readable_workload(self, map_file, tmp_path, capsys):
        out = str(tmp_path / "rush.txt")
        assert main(["workload", map_file, "-o", out, "--count", "10"]) == 0
        assert "wrote 10 hotspot queries" in capsys.readouterr().out
        from repro.workloads.replay import read_workload

        entries = read_workload(out)
        assert len(entries) == 10
        assert all(e.setting.f_s == 3 for e in entries)


class TestScenario:
    def test_writes_v2_traffic_file(self, map_file, tmp_path, capsys):
        out = tmp_path / "churn.txt"
        assert main(
            [
                "scenario", "uniform", map_file, "-o", str(out),
                "--duration-ms", "500", "--events", "10",
            ]
        ) == 0
        assert "wrote 10 uniform traffic events" in capsys.readouterr().out
        assert out.read_text().startswith("# repro workload v2\n")
        from repro.workloads.replay import TrafficEvent, read_workload_items

        items = read_workload_items(out)
        assert len(items) == 10
        assert all(isinstance(i, TrafficEvent) for i in items)
        assert [i.at_ms for i in items] == sorted(i.at_ms for i in items)

    def test_merge_workload_interleaves_queries(
        self, map_file, tmp_path, capsys
    ):
        queries = str(tmp_path / "queries.txt")
        assert main(
            ["workload", map_file, "-o", queries, "--count", "6"]
        ) == 0
        out = tmp_path / "rush.txt"
        assert main(
            [
                "scenario", "morning-rush", map_file, "-o", str(out),
                "--duration-ms", "1000", "--events", "12",
                "--merge-workload", queries,
            ]
        ) == 0
        assert "12 morning-rush traffic events and 6 queries" in (
            capsys.readouterr().out
        )
        from repro.workloads.replay import TrafficEvent, read_workload_items

        items = read_workload_items(out)
        flags = [isinstance(i, TrafficEvent) for i in items]
        assert flags.count(True) == 12
        assert flags.count(False) == 6
        # Queries are spread through the stream, not appended at one end.
        first_q, last_q = flags.index(False), len(flags) - 1 - flags[::-1].index(False)
        assert any(flags[:first_q]) and any(flags[last_q + 1 :])

    def test_unknown_scenario_rejected_by_parser(self, map_file, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["scenario", "gridlock", map_file, "-o", str(tmp_path / "x")]
            )

    def test_bad_duration_fails_cleanly(self, map_file, tmp_path, capsys):
        assert main(
            [
                "scenario", "uniform", map_file,
                "-o", str(tmp_path / "x.txt"), "--duration-ms", "0",
            ]
        ) == 1
        assert "error:" in capsys.readouterr().err


class TestServeReplay:
    @pytest.fixture()
    def workload_file(self, map_file, tmp_path):
        out = str(tmp_path / "rush.txt")
        assert main(
            ["workload", map_file, "-o", out, "--count", "8", "--kind", "uniform"]
        ) == 0
        return out

    def test_replay_reports_latency_and_hit_rates(
        self, map_file, workload_file, capsys
    ):
        assert main(
            [
                "serve-replay", map_file, workload_file,
                "--engine", "dijkstra", "--repeat", "3", "--batch", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "latency p50/p95/p99" in out
        assert "result cache:        16 hits, 8 misses" in out
        assert "hit rate 67%" in out

    def test_replay_with_preprocessing_engine(
        self, map_file, workload_file, capsys
    ):
        assert main(
            ["serve-replay", map_file, workload_file, "--engine", "ch"]
        ) == 0
        out = capsys.readouterr().out
        assert "preprocessing cache:" in out

    def test_replay_with_coalescing_reports_windows(
        self, map_file, workload_file, tmp_path, capsys
    ):
        import json

        trace_out = tmp_path / "traces.jsonl"
        assert main(
            [
                "serve-replay", map_file, workload_file,
                "--engine", "dijkstra", "--batch", "8",
                "--trace-out", str(trace_out),
            ]
        ) == 0
        assert "batch=8" in capsys.readouterr().out
        # the trace reports the windows: one root span per batch, its
        # distinct misses one engine.union
        roots = [
            json.loads(line)
            for line in trace_out.read_text(encoding="utf-8").splitlines()
        ]
        assert all(r["name"] == "serve.answer_batch" for r in roots)
        assert any(
            child["name"] == "engine.union"
            for r in roots for child in r["children"]
        )

    def test_replay_without_coalescing_omits_window_report(
        self, map_file, workload_file, tmp_path, capsys
    ):
        import json

        trace_out = tmp_path / "traces.jsonl"
        assert main(
            [
                "serve-replay", map_file, workload_file, "--batch", "1",
                "--trace-out", str(trace_out),
            ]
        ) == 0
        assert "coalescing:" not in capsys.readouterr().out
        # a batch of one never shares a pass
        kernels = {
            child["name"]
            for line in trace_out.read_text(encoding="utf-8").splitlines()
            for child in json.loads(line)["children"]
        } - {"serve.cache_consult"}
        assert kernels == {"engine.process"}

    def test_empty_workload_fails_cleanly(self, map_file, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# repro workload v1\n")
        assert main(["serve-replay", map_file, str(empty)]) == 1
        assert "error: empty workload" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--batch", "0"), ("--repeat", "0"), ("--result-capacity", "-1")],
    )
    def test_bad_flags_fail_cleanly(
        self, map_file, workload_file, capsys, flag, value
    ):
        assert main(["serve-replay", map_file, workload_file, flag, value]) == 1
        assert "error:" in capsys.readouterr().err

    def test_telemetry_outputs_written(
        self, map_file, workload_file, tmp_path, capsys
    ):
        import json

        metrics_out = tmp_path / "metrics.json"
        trace_out = tmp_path / "traces.jsonl"
        assert main(
            [
                "serve-replay", map_file, workload_file,
                "--engine", "dijkstra-csr", "--repeat", "2", "--batch", "4",
                "--metrics-out", str(metrics_out),
                "--trace-out", str(trace_out),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"wrote metrics to {metrics_out}" in out
        assert f"trace trees to {trace_out}" in out
        doc = json.loads(metrics_out.read_text(encoding="utf-8"))
        assert "repro_server_queries_served_total" in doc["metrics"]
        assert "repro_result_cache_hits_total" in doc["metrics"]
        roots = [
            json.loads(line)
            for line in trace_out.read_text(encoding="utf-8").splitlines()
        ]
        assert roots
        assert all(r["name"] == "serve.answer_batch" for r in roots)

        # One instrumentation path: the server counter and the kernel
        # spans both read the SearchStats the engine filled.
        def walk(span):
            yield span
            for child in span["children"]:
                yield from walk(child)

        span_settled = sum(
            span["attrs"]["settled_nodes"]
            for root in roots
            for span in walk(root)
            if span["name"] in ("engine.process", "engine.union")
        )
        settled = doc["metrics"]["repro_server_settled_nodes_total"]["value"]
        assert settled == span_settled > 0

    def test_mixed_workload_installs_traffic_epochs(
        self, map_file, workload_file, tmp_path, capsys
    ):
        mixed = str(tmp_path / "mixed.txt")
        assert main(
            [
                "scenario", "uniform", map_file, "-o", mixed,
                "--duration-ms", "200", "--events", "10",
                "--merge-workload", workload_file,
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            [
                "serve-replay", map_file, mixed,
                "--engine", "dijkstra-csr", "--repeat", "2", "--batch", "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "traffic epochs:" in out
        assert "20 events" in out  # 10 per repeat, re-applied each pass
        assert "install mean" in out

    def test_query_only_replay_omits_traffic_report(
        self, map_file, workload_file, capsys
    ):
        assert main(["serve-replay", map_file, workload_file]) == 0
        assert "traffic epochs:" not in capsys.readouterr().out

    def test_slow_query_log_emits_json(
        self, map_file, workload_file, capsys
    ):
        import json

        assert main(
            [
                "serve-replay", map_file, workload_file,
                "--engine", "dijkstra", "--slow-query-ms", "0",
            ]
        ) == 0
        lines = [
            line for line in capsys.readouterr().err.splitlines() if line
        ]
        assert lines, "threshold 0 must flag every root as slow"
        doc = json.loads(lines[0])
        assert "slow span" in doc["message"]
        assert doc["span"]["name"] == "serve.answer_batch"


class TestObsReport:
    @pytest.fixture()
    def telemetry_files(self, map_file, tmp_path):
        out = str(tmp_path / "rush.txt")
        assert main(
            ["workload", map_file, "-o", out, "--count", "6", "--kind", "uniform"]
        ) == 0
        metrics_out = tmp_path / "metrics.json"
        trace_out = tmp_path / "traces.jsonl"
        assert main(
            [
                "serve-replay", map_file, out,
                "--metrics-out", str(metrics_out),
                "--trace-out", str(trace_out),
            ]
        ) == 0
        return str(metrics_out), str(trace_out)

    def test_reports_instruments_and_span_percentiles(
        self, telemetry_files, capsys
    ):
        metrics_out, trace_out = telemetry_files
        capsys.readouterr()  # drop the serve-replay output
        assert main(
            ["obs-report", "--metrics", metrics_out, "--traces", trace_out]
        ) == 0
        out = capsys.readouterr().out
        assert "instruments from" in out
        assert "repro_server_queries_served_total" in out
        assert "serve.answer_batch" in out
        assert "p95=" in out
        assert "slowest" in out

    def test_requires_at_least_one_input(self, capsys):
        assert main(["obs-report"]) == 1
        assert "error:" in capsys.readouterr().err


class TestExperiment:
    def test_runs_selected_experiment(self, capsys):
        assert main(["experiment", "e1"]) == 0
        assert "[E1]" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "E42"]) == 1
        assert "error:" in capsys.readouterr().err


class TestParser:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "generate",
            "summarize",
            "route",
            "protect",
            "workload",
            "scenario",
            "serve-replay",
            "obs-report",
            "experiment",
        ):
            assert command in text

    def test_module_entrypoint_importable(self):
        import repro.__main__  # noqa: F401
