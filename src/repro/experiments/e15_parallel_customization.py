"""E15 — Parallel customization: throughput vs worker count.

PR 10's :class:`~repro.search.parallel.ParallelCustomizer` fans
per-cell clique construction out to a persistent process pool; this
experiment charts the customization rate (cells/sec) against the
worker count on one fixed network and partition.  Each parallel row is
checked byte-identical (:func:`~repro.search.overlay.dumps_overlay`)
to the serial build — parallelism must be a pure throughput knob — and
reports the one-off pool warm-up cost that
:meth:`repro.service.serving.ServingStack.warm` pays at deploy time.
The per-core CI gate (``customize_parallel_speedup_per_core`` in the
grid200 bench tier) watches the same ratio over time; at metro scale
the ``--metro`` tier reports the absolute cells/sec this experiment
trends in miniature.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.experiments.harness import ExperimentResult
from repro.network.generators import grid_network
from repro.network.partition import partition_network
from repro.search.overlay import build_overlay, dumps_overlay

__all__ = ["Config", "run"]


@dataclass(slots=True)
class Config:
    """E15 parameters."""

    grid_width: int = 36
    grid_height: int = 36
    cell_capacity: int = 24
    workers: list[int] = field(default_factory=lambda: [0, 2, 4])
    #: multiprocessing start method; ``None`` picks the platform
    #: default (forkserver where available).  Tests pass ``"fork"`` to
    #: keep pool warm-up off the suite's wall time.
    start_method: str | None = None
    seed: int = 15


def run(config: Config | None = None) -> ExperimentResult:
    """Run E15 and return its table."""
    if config is None:
        config = Config()
    network = grid_network(
        config.grid_width, config.grid_height, perturbation=0.15,
        seed=config.seed,
    )
    partition = partition_network(network, cell_capacity=config.cell_capacity)

    result = ExperimentResult(
        experiment_id="E15",
        title="Parallel customization: throughput vs worker count",
        columns=[
            "workers",
            "cells",
            "build_s",
            "cells_per_sec",
            "speedup",
            "pool_warm_ms",
            "byte_identical",
        ],
        expectation=(
            "cells/sec grows with the worker count (up to the core "
            "count), every parallel build serializes byte-identically "
            "to the serial one, and the pool warm-up stays a one-off "
            "deploy-time cost"
        ),
    )

    t0 = time.perf_counter()
    serial = build_overlay(network, partition=partition)
    serial_s = time.perf_counter() - t0
    serial_bytes = dumps_overlay(serial)
    cells = partition.num_cells
    result.rows.append(
        {
            "workers": 0,
            "cells": cells,
            "build_s": round(serial_s, 3),
            "cells_per_sec": round(cells / serial_s, 1) if serial_s else 0.0,
            "speedup": 1.0,
            "pool_warm_ms": 0.0,
            "byte_identical": True,
        }
    )

    from repro.search.parallel import ParallelCustomizer

    for workers in config.workers:
        if workers < 2:
            continue  # 0/1 are the serial row above
        customizer = ParallelCustomizer(
            workers, start_method=config.start_method
        )
        try:
            warm_s = customizer.warm()
            t0 = time.perf_counter()
            overlay = build_overlay(
                network, partition=partition, customizer=customizer
            )
            build_s = time.perf_counter() - t0
        finally:
            customizer.close()
        speedup = serial_s / build_s if build_s > 0 else 0.0
        result.rows.append(
            {
                "workers": workers,
                "cells": cells,
                "build_s": round(build_s, 3),
                "cells_per_sec": (
                    round(cells / build_s, 1) if build_s else 0.0
                ),
                "speedup": round(speedup, 2),
                "pool_warm_ms": round(warm_s * 1000.0, 1),
                "byte_identical": dumps_overlay(overlay) == serial_bytes,
            }
        )

    result.notes = (
        f"{config.grid_width}x{config.grid_height} grid, cell capacity "
        f"{config.cell_capacity} ({cells} cells); speedups are "
        "same-machine wall ratios and depend on core count — the "
        "byte_identical column is the machine-independent claim"
    )
    return result


if __name__ == "__main__":
    print(run())
