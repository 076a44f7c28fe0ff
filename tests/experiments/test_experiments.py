"""Tests for the experiment suite: each experiment runs (small config) and
its table exhibits the paper-expected shape."""

from __future__ import annotations

import pytest

from repro.experiments import (
    e1_breach,
    e2_processing_cost,
    e3_mechanism_comparison,
    e4_independent_vs_shared,
    e5_collusion,
    e6_scalability,
    e7_endpoint_strategies,
    e8_clustering,
    e9_cost_model,
    e13_partition_overlay,
    e14_pipeline,
)
from repro.experiments.harness import ExperimentResult, run_all
from repro.experiments.tables import format_table, format_value


class TestE1Breach:
    @pytest.fixture(scope="class")
    def result(self):
        config = e1_breach.Config(
            grid_width=15,
            grid_height=15,
            num_queries=8,
            settings=[(1, 1), (2, 3), (3, 3)],
            trials_per_record=150,
        )
        return e1_breach.run(config)

    def test_analytic_matches_definition_2(self, result):
        for row in result.rows:
            assert row["analytic_breach"] == pytest.approx(
                1 / (row["f_s"] * row["f_t"])
            )

    def test_empirical_tracks_analytic(self, result):
        for row in result.rows:
            assert row["empirical_breach"] == pytest.approx(
                row["analytic_breach"], abs=0.06
            )

    def test_breach_decreases_with_power(self, result):
        breaches = result.column("analytic_breach")
        assert breaches == sorted(breaches, reverse=True)


class TestE2ProcessingCost:
    @pytest.fixture(scope="class")
    def result(self):
        config = e2_processing_cost.Config(
            grid_width=20,
            grid_height=20,
            num_queries=4,
            f_t_values=[1, 2, 4],
            min_query_distance=5.0,
            max_query_distance=9.0,
        )
        return e2_processing_cost.run(config)

    def test_shared_never_worse_than_naive(self, result):
        for row in result.rows:
            assert row["shared_settled"] <= row["naive_settled"]

    def test_speedup_widens_with_f_t(self, result):
        speedups = result.column("speedup")
        assert speedups[-1] > speedups[0]

    def test_equal_at_single_destination(self, result):
        row = result.rows[0]
        assert row["f_t"] == 1
        assert row["speedup"] == pytest.approx(1.0)

    def test_ch_amortizes_across_the_batch(self, result):
        # CH pays one bounded sweep per endpoint, so its cost grows more
        # slowly in |T| than the naive per-pair searches do...
        first, last = result.rows[0], result.rows[-1]
        ch_growth = last["ch_settled"] / max(first["ch_settled"], 1)
        naive_growth = last["naive_settled"] / max(first["naive_settled"], 1)
        assert ch_growth < naive_growth
        # ...and beats naive outright at every |T|.
        for row in result.rows:
            assert row["ch_settled"] < row["naive_settled"]


class TestE3MechanismComparison:
    @pytest.fixture(scope="class")
    def result(self):
        config = e3_mechanism_comparison.Config(
            grid_width=15, grid_height=15, num_queries=6,
            min_query_distance=4.0, max_query_distance=9.0,
        )
        return e3_mechanism_comparison.run(config)

    def _row(self, result, mechanism):
        return next(r for r in result.rows if r["mechanism"] == mechanism)

    def test_direct_exact_but_breached(self, result):
        row = self._row(result, "direct")
        assert row["exact_rate"] == 1.0
        assert row["mean_breach"] == 1.0

    def test_landmark_private_but_irrelevant(self, result):
        row = self._row(result, "landmark")
        assert row["mean_breach"] == 0.0
        assert row["exact_rate"] < 1.0
        assert row["mean_displacement"] > 0

    def test_opaque_exact_private_and_cheaper_than_plain(self, result):
        opaque = self._row(result, "opaque")
        plain = self._row(result, "plain-obfuscation")
        assert opaque["exact_rate"] == 1.0
        assert opaque["mean_breach"] == pytest.approx(plain["mean_breach"])
        assert opaque["settled_nodes"] < plain["settled_nodes"]
        assert opaque["traffic_bytes"] < plain["traffic_bytes"]


class TestE4IndependentVsShared:
    @pytest.fixture(scope="class")
    def result(self):
        config = e4_independent_vs_shared.Config(
            grid_width=20, grid_height=20, k_values=[1, 4, 8]
        )
        return e4_independent_vs_shared.run(config)

    def test_shared_is_single_query(self, result):
        for row in result.rows:
            assert row["shared_queries"] == 1
            assert row["indep_queries"] == row["k"]

    def test_shared_cheaper_at_scale(self, result):
        last = result.rows[-1]
        assert last["shared_settled"] < last["indep_settled"]

    def test_shared_breach_drops_with_k(self, result):
        last = result.rows[-1]
        assert last["shared_breach"] < last["indep_breach"]


class TestE5Collusion:
    @pytest.fixture(scope="class")
    def result(self):
        config = e5_collusion.Config(
            grid_width=15, grid_height=15,
            num_participants=6, colluder_counts=[0, 2, 4], f_s=6, f_t=6,
        )
        return e5_collusion.run(config)

    def test_independent_collapses_under_pool_compromise(self, result):
        for row in result.rows:
            assert row["indep_breach_pool"] == 1.0

    def test_shared_degrades_gracefully(self, result):
        breaches = [row["shared_breach_pool"] for row in result.rows]
        assert breaches == sorted(breaches)  # worsens with m...
        assert all(b < 1.0 for b in breaches)  # ...but never collapses

    def test_shared_formula(self, result):
        k = 6
        for row in result.rows:
            expected = 1.0 / ((k - row["m"]) ** 2)
            assert row["shared_breach_pool"] == pytest.approx(expected)


class TestE6Scalability:
    @pytest.fixture(scope="class")
    def result(self):
        config = e6_scalability.Config(grid_sizes=[12, 20], num_queries=3)
        return e6_scalability.run(config)

    def test_ranking_preserved_at_every_size(self, result):
        for row in result.rows:
            assert row["shared_settled"] <= row["naive_settled"]
            assert row["side_settled"] <= row["shared_settled"]

    def test_cost_grows_with_size(self, result):
        assert result.rows[-1]["naive_settled"] > result.rows[0]["naive_settled"]

    def test_ch_speedup_widens_with_size(self, result):
        assert result.rows[-1]["ch_speedup"] > result.rows[0]["ch_speedup"]
        for row in result.rows:
            assert row["ch_settled"] < row["shared_settled"]


class TestE7EndpointStrategies:
    @pytest.fixture(scope="class")
    def result(self):
        config = e7_endpoint_strategies.Config(
            grid_width=15, grid_height=15, num_queries=6
        )
        return e7_endpoint_strategies.run(config)

    def _row(self, result, name):
        return next(r for r in result.rows if r["strategy"] == name)

    def test_compact_cheapest_uniform_not(self, result):
        compact = self._row(result, "compact")["cost_inflation"]
        uniform = self._row(result, "uniform")["cost_inflation"]
        assert compact < uniform

    def test_popularity_restores_breach_bound(self, result):
        pop = self._row(result, "popularity")
        uni = self._row(result, "uniform")
        assert abs(pop["breach_excess"]) < abs(uni["breach_excess"])


class TestE8Clustering:
    @pytest.fixture(scope="class")
    def result(self):
        config = e8_clustering.Config(
            grid_width=20, grid_height=20, num_requests=10,
            diameter_bounds=[3.0, float("inf")],
        )
        return e8_clustering.run(config)

    def test_tighter_bound_more_clusters(self, result):
        clusters = result.column("clusters")
        assert clusters[0] >= clusters[-1]
        assert clusters[-1] == 1

    def test_looser_bound_better_privacy(self, result):
        breaches = result.column("mean_breach")
        assert breaches[-1] <= breaches[0]


class TestE9CostModel:
    @pytest.fixture(scope="class")
    def result(self):
        config = e9_cost_model.Config(
            grid_width=30, grid_height=30, queries_per_band=6,
            distance_bands=[(2, 4), (6, 10), (12, 18)],
        )
        return e9_cost_model.run(config)

    def test_cost_grows_superlinearly(self, result):
        rows = result.rows
        # Between the first and last band the distance ratio is ~4x; a
        # quadratic law predicts ~16x cost. Require clearly superlinear.
        d_ratio = rows[-1]["mean_distance"] / rows[0]["mean_distance"]
        c_ratio = rows[-1]["mean_settled"] / rows[0]["mean_settled"]
        assert c_ratio > d_ratio * 1.5

    def test_fit_reported_with_high_r2(self, result):
        assert "R^2" in result.notes
        r2 = float(result.notes.split("R^2 = ")[1].split()[0])
        assert r2 > 0.7


class TestE13PartitionOverlay:
    @pytest.fixture(scope="class")
    def result(self):
        config = e13_partition_overlay.Config(
            grid_width=20, grid_height=20,
            cell_capacities=[16, 64, 200], num_queries=6,
        )
        return e13_partition_overlay.run(config)

    def test_cut_and_boundary_shrink_with_cell_size(self, result):
        cuts = result.column("cut_edges")
        boundary = result.column("boundary_nodes")
        assert cuts == sorted(cuts, reverse=True)
        assert boundary == sorted(boundary, reverse=True)
        cells = result.column("cells")
        assert cells == sorted(cells, reverse=True)

    def test_recustomize_is_fraction_of_customize(self, result):
        for row in result.rows:
            assert 0 < row["recustomize_settled"] < row["customize_settled"]
        # At many-cell granularity the refresh touches a small slice.
        first = result.rows[0]
        assert first["recustomize_settled"] * 4 <= first["customize_settled"]

    def test_two_phase_queries_beat_dijkstra_at_best_capacity(self, result):
        best = min(row["overlay_settled"] for row in result.rows)
        assert best < result.rows[0]["dijkstra_settled"]


class TestE14Pipeline:
    @pytest.fixture(scope="class")
    def result(self):
        config = e14_pipeline.Config(
            grid_width=12, grid_height=12,
            churn_per_min=[0, 3000], duration_s=0.15, num_queries=8,
        )
        return e14_pipeline.run(config)

    def test_no_churn_row_is_the_baseline(self, result):
        first = result.rows[0]
        assert first["churn_per_min"] == 0
        assert first["installs"] == 0
        assert first["cells_per_min"] == 0
        assert first["throughput_pct"] == 100.0

    def test_churn_rows_install_and_measure_staleness(self, result):
        # Timing-sensitive ratios (throughput_pct) are asserted only in
        # the soak test and the bench gate; here we pin the shape.
        for row in result.rows[1:]:
            assert row["events"] > 0
            assert row["installs"] > 0
            assert row["cells_per_min"] > 0
            assert row["staleness_max_ms"] >= row["staleness_p95_ms"] > 0
            assert row["queries_per_s"] > 0

    def test_registered_with_harness(self):
        (res,) = run_all(["E14"])
        assert res.experiment_id == "E14"


class TestHarness:
    def test_run_all_subset(self):
        results = run_all(["E1"])
        assert len(results) == 1
        assert results[0].experiment_id == "E1"

    def test_run_all_unknown_id(self):
        with pytest.raises(KeyError):
            run_all(["E42"])

    def test_result_rendering(self):
        result = ExperimentResult(
            experiment_id="EX",
            title="demo",
            columns=["a", "b"],
            rows=[{"a": 1, "b": 2.5}],
            expectation="shape",
            notes="note",
        )
        text = str(result)
        assert "[EX] demo" in text
        assert "expected shape: shape" in text
        assert "notes: note" in text

    def test_column_extraction(self):
        result = ExperimentResult("EX", "demo", ["a"], rows=[{"a": 1}, {}])
        assert result.column("a") == [1, None]


class TestTables:
    def test_format_value_floats(self):
        assert format_value(0.123456) == "0.1235"
        assert format_value(1e9) == "1.000e+09"
        assert format_value(float("inf")) == "inf"
        assert format_value(float("nan")) == "nan"
        assert format_value(0.0) == "0"
        assert format_value(True) == "yes"

    def test_format_table_alignment_and_missing(self):
        table = format_table(["x", "longcolumn"], [{"x": 1}, {"x": 2, "longcolumn": 3}])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "-" in lines[2]  # missing cell placeholder
        assert all(len(line) == len(lines[0]) for line in lines[1:])
