"""E13 — Partition overlay: cut, overlay size, and customization (extension).

The monolithic engines rebuild their whole preprocessing artifact when a
single weight changes.  This experiment characterizes the CRP-style
partition-overlay alternative (:mod:`repro.search.overlay`) across cell
capacities: how the cut and boundary shrink as cells grow, what the
overlay costs to customize from scratch, how little a *single-cell*
re-customization after a traffic re-weight costs in comparison, and
what the two-phase query pays versus plain Dijkstra — the trade-off
surface a deployment tunes when picking a cell size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.experiments.harness import ExperimentResult
from repro.network.generators import grid_network
from repro.network.partition import partition_network
from repro.search.dijkstra import dijkstra_path
from repro.search.overlay import build_overlay
from repro.search.result import SearchStats

__all__ = ["Config", "run"]


@dataclass(slots=True)
class Config:
    """E13 parameters."""

    grid_width: int = 30
    grid_height: int = 30
    cell_capacities: list[int] = field(default_factory=lambda: [32, 128, 512])
    num_queries: int = 12
    seed: int = 13


def run(config: Config | None = None) -> ExperimentResult:
    """Run E13 and return its table."""
    if config is None:
        config = Config()
    network = grid_network(
        config.grid_width, config.grid_height, perturbation=0.1,
        seed=config.seed,
    )
    rng = random.Random(config.seed)
    nodes = list(network.nodes())
    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(config.num_queries)]

    dijkstra_stats = SearchStats()
    for s, t in pairs:
        dijkstra_path(network, s, t, stats=dijkstra_stats)

    result = ExperimentResult(
        experiment_id="E13",
        title="Partition overlay: cut size, overlay size, customization cost",
        columns=[
            "capacity",
            "cells",
            "cut_edges",
            "boundary_nodes",
            "clique_arcs",
            "customize_settled",
            "recustomize_settled",
            "overlay_settled",
            "dijkstra_settled",
        ],
        expectation=(
            "bigger cells mean fewer cut edges and boundary nodes; a "
            "single-cell recustomization after a re-weight costs a small "
            "fraction of full customization; two-phase queries settle "
            "fewer nodes than plain Dijkstra"
        ),
    )
    for capacity in config.cell_capacities:
        partition = partition_network(network, cell_capacity=capacity)
        overlay = build_overlay(network, partition=partition)

        query_stats = SearchStats()
        for s, t in pairs:
            overlay.route(s, t, stats=query_stats)

        # Re-weight one intra-cell edge, recustomize only its cell, then
        # restore the weight so every row measures the same network.
        recustomize_settled = 0
        for u, v, w in list(network.edges()):
            touched = overlay.touched_cells([(u, v)])
            if touched:
                network.add_edge(u, v, w * 2.0)
                refreshed = overlay.recustomized(touched)
                recustomize_settled = refreshed.customize_stats.settled_nodes
                network.add_edge(u, v, w)
                break

        result.rows.append(
            {
                "capacity": capacity,
                "cells": partition.num_cells,
                "cut_edges": partition.num_cut_edges,
                "boundary_nodes": partition.num_boundary_nodes,
                "clique_arcs": overlay.num_clique_arcs,
                "customize_settled": overlay.customize_stats.settled_nodes,
                "recustomize_settled": recustomize_settled,
                "overlay_settled": query_stats.settled_nodes,
                "dijkstra_settled": dijkstra_stats.settled_nodes,
            }
        )
    result.notes = (
        f"{config.num_queries} uniform point queries on a "
        f"{config.grid_width}x{config.grid_height} grid; recustomize "
        "refreshes the single cell containing one re-weighted edge"
    )
    return result


if __name__ == "__main__":
    print(run())
