"""Experiment result container and suite runner."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.experiments.tables import format_table

__all__ = ["ExperimentResult", "run_all"]


@dataclass(slots=True)
class ExperimentResult:
    """Structured output of one experiment run.

    Attributes
    ----------
    experiment_id:
        Short id matching DESIGN.md's index (``"E1"`` ...).
    title:
        Human-readable title.
    columns:
        Column order for rendering.
    rows:
        One mapping per table row.
    expectation:
        The paper-derived shape this run is supposed to show.
    notes:
        Free-form remarks filled in by the experiment.
    """

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    expectation: str = ""
    notes: str = ""

    def to_table(self) -> str:
        """Render the rows as an aligned text table."""
        return format_table(self.columns, self.rows)

    def column(self, name: str) -> list:
        """Extract one column as a list (missing cells become ``None``)."""
        return [row.get(name) for row in self.rows]

    def __str__(self) -> str:
        header = f"[{self.experiment_id}] {self.title}"
        parts = [header, "=" * len(header), self.to_table()]
        if self.expectation:
            parts.append(f"expected shape: {self.expectation}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)


def run_all(
    experiment_ids: Sequence[str] | None = None,
) -> list[ExperimentResult]:
    """Run the full suite (or a subset by id) with default configs.

    Imports lazily so ``repro.experiments`` stays cheap to import.

    Parameters
    ----------
    experiment_ids:
        Subset of ids to run (``None`` = the whole suite, in order).
    """
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
        e10_batching_window,
        e11_protection_sizing,
        e12_linkage,
    )

    modules = {
        "E1": e1_breach,
        "E2": e2_processing_cost,
        "E3": e3_mechanism_comparison,
        "E4": e4_independent_vs_shared,
        "E5": e5_collusion,
        "E6": e6_scalability,
        "E7": e7_endpoint_strategies,
        "E8": e8_clustering,
        "E9": e9_cost_model,
        "E10": e10_batching_window,
        "E11": e11_protection_sizing,
        "E12": e12_linkage,
    }
    if experiment_ids is None:
        selected = list(modules)
    else:
        unknown = [e for e in experiment_ids if e not in modules]
        if unknown:
            raise KeyError(f"unknown experiment ids: {unknown}")
        selected = list(experiment_ids)
    return [modules[eid].run() for eid in selected]
