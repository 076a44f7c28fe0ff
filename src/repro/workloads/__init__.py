"""Query workload generators for the experiments.

Seeded generators producing the path-query mixes the paper's scenarios
imply: uniform trips, distance-bounded trips, and the motivating
"residents visiting a few sensitive destinations" hotspot workload, plus
an endpoint-popularity map for prior-aware adversaries.  The replay
module adds the on-disk workload formats (protected queries, and v2's
interleaved traffic events); :mod:`repro.workloads.scenarios` generates
the timed traffic-event waves (rush hours, incidents, uniform churn)
a v2 replay installs as network epochs.
"""

from repro.workloads.queries import (
    distance_bounded_queries,
    hotspot_queries,
    popularity_map,
    popularity_weighted_queries,
    requests_from_queries,
    uniform_queries,
)
from repro.workloads.replay import (
    TrafficEvent,
    WorkloadEntry,
    read_workload,
    read_workload_items,
    synthesize_workload,
    write_workload,
    write_workload_items,
)
from repro.workloads.scenarios import (
    SCENARIOS,
    evening_rush,
    incident_spike,
    morning_rush,
    scenario_events,
    uniform_churn,
)

__all__ = [
    "uniform_queries",
    "distance_bounded_queries",
    "hotspot_queries",
    "popularity_map",
    "popularity_weighted_queries",
    "requests_from_queries",
    "WorkloadEntry",
    "TrafficEvent",
    "read_workload",
    "read_workload_items",
    "write_workload",
    "write_workload_items",
    "synthesize_workload",
    "SCENARIOS",
    "morning_rush",
    "evening_rush",
    "incident_spike",
    "uniform_churn",
    "scenario_events",
]
