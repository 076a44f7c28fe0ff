"""Seeded traffic-event scenario generators for v2 workload replays.

Where :mod:`repro.workloads.queries` synthesizes the *query* side of a
replay, this module synthesizes the *traffic* side: timed streams of
:class:`~repro.workloads.replay.TrafficEvent` edge re-weights shaped
like the situations a city's feed actually produces —

* :func:`morning_rush` / :func:`evening_rush`: a congestion wave that
  ramps edge weights up toward a peak multiplier and back down, biased
  toward one half of the map (inbound in the morning, outbound in the
  evening);
* :func:`incident_spike`: a localized incident that multiplies the
  weights of every edge around a random center for a bounded window,
  then restores them;
* :func:`uniform_churn`: a steady background drizzle re-weighting
  random edges at a constant rate.

Every generator is seeded and pure (same arguments, same event list),
emits events sorted by ``at_ms``, and only ever re-weights edges that
exist — so a stream can be written to a v2 workload file
(:func:`~repro.workloads.replay.write_workload_items`), replayed
with :func:`~repro.service.serving.replay` (``repro serve-replay``),
or applied directly via
:meth:`~repro.service.serving.ServingStack.reweight`.
"""

from __future__ import annotations

import random

from repro.exceptions import ExperimentError
from repro.network.graph import RoadNetwork
from repro.workloads.replay import TrafficEvent

__all__ = [
    "SCENARIOS",
    "morning_rush",
    "evening_rush",
    "incident_spike",
    "uniform_churn",
    "scenario_events",
]


def _edge_list(network: RoadNetwork) -> list[tuple]:
    """All edges as ``(u, v, weight)``, in deterministic iteration order."""
    edges = list(network.edges())
    if not edges:
        raise ExperimentError("network has no edges to re-weight")
    return edges


def _wave(
    network: RoadNetwork,
    *,
    inbound: bool,
    duration_ms: int,
    peak_factor: float,
    events: int,
    seed: int,
) -> list[TrafficEvent]:
    """A rush-hour congestion wave over one half of the map.

    Weights ramp linearly up to ``peak_factor`` at mid-wave and back
    down to baseline at the end; each event re-weights one random edge
    whose midpoint lies in the rush half (left half for ``inbound``,
    right half for outbound), so the wave churns a spatially coherent
    region rather than the whole map.
    """
    if duration_ms <= 0 or events <= 0:
        raise ExperimentError("duration_ms and events must be positive")
    if peak_factor < 1.0:
        raise ExperimentError("peak_factor must be >= 1.0")
    rng = random.Random(seed)
    min_x, _, max_x, _ = network.bounding_box()
    mid_x = (min_x + max_x) / 2.0
    candidates = []
    for u, v, w in _edge_list(network):
        x = (network.position(u).x + network.position(v).x) / 2.0
        if (x <= mid_x) == inbound:
            candidates.append((u, v, w))
    if not candidates:  # degenerate map: rush over everything
        candidates = _edge_list(network)
    stream: list[TrafficEvent] = []
    for i in range(events):
        at_ms = round(i * duration_ms / events)
        # triangle profile: 0 at the edges of the wave, 1 at its middle
        phase = i / max(events - 1, 1)
        ramp = 1.0 - abs(2.0 * phase - 1.0)
        factor = 1.0 + (peak_factor - 1.0) * ramp
        u, v, w = rng.choice(candidates)
        stream.append(TrafficEvent(u, v, w * factor, at_ms))
    return stream


def morning_rush(
    network: RoadNetwork,
    duration_ms: int = 60_000,
    peak_factor: float = 3.0,
    events: int = 200,
    seed: int = 0,
) -> list[TrafficEvent]:
    """An inbound (left-half) congestion wave; see :func:`_wave`."""
    return _wave(
        network,
        inbound=True,
        duration_ms=duration_ms,
        peak_factor=peak_factor,
        events=events,
        seed=seed,
    )


def evening_rush(
    network: RoadNetwork,
    duration_ms: int = 60_000,
    peak_factor: float = 3.0,
    events: int = 200,
    seed: int = 0,
) -> list[TrafficEvent]:
    """An outbound (right-half) congestion wave; see :func:`_wave`."""
    return _wave(
        network,
        inbound=False,
        duration_ms=duration_ms,
        peak_factor=peak_factor,
        events=events,
        seed=seed,
    )


def incident_spike(
    network: RoadNetwork,
    duration_ms: int = 30_000,
    spike_factor: float = 8.0,
    radius: float | None = None,
    seed: int = 0,
) -> list[TrafficEvent]:
    """A localized incident: spike a neighborhood's edges, then recover.

    Picks a random center node, multiplies the weight of every edge
    with an endpoint within ``radius`` of it (default: 10% of the map
    diagonal) at ``t=0``, and emits the restoring re-weights at
    ``duration_ms`` — a burst shape of two dense cell-local batches.
    """
    if duration_ms <= 0:
        raise ExperimentError("duration_ms must be positive")
    if spike_factor <= 0:
        raise ExperimentError("spike_factor must be positive")
    rng = random.Random(seed)
    min_x, min_y, max_x, max_y = network.bounding_box()
    if radius is None:
        diagonal = ((max_x - min_x) ** 2 + (max_y - min_y) ** 2) ** 0.5
        radius = 0.10 * max(diagonal, 1e-9)
    center = rng.choice(list(network.nodes()))
    cp = network.position(center)
    stream: list[TrafficEvent] = []
    for u, v, w in _edge_list(network):
        pu, pv = network.position(u), network.position(v)
        near = min(
            ((pu.x - cp.x) ** 2 + (pu.y - cp.y) ** 2) ** 0.5,
            ((pv.x - cp.x) ** 2 + (pv.y - cp.y) ** 2) ** 0.5,
        )
        if near <= radius:
            stream.append(TrafficEvent(u, v, w * spike_factor, 0))
            stream.append(TrafficEvent(u, v, w, duration_ms))
    if not stream:  # radius missed every edge: spike the center's own
        u, v, w = _edge_list(network)[0]
        stream = [
            TrafficEvent(u, v, w * spike_factor, 0),
            TrafficEvent(u, v, w, duration_ms),
        ]
    stream.sort(key=lambda e: e.at_ms)
    return stream


def uniform_churn(
    network: RoadNetwork,
    duration_ms: int = 60_000,
    events: int = 200,
    jitter: float = 0.5,
    seed: int = 0,
) -> list[TrafficEvent]:
    """Steady background churn: random edges drift around baseline.

    Each event multiplies one uniformly random edge's baseline weight
    by a factor in ``[1 - jitter, 1 + jitter]``; events are spread
    evenly over ``duration_ms``.  This is the constant-rate stream the
    throughput-under-churn bench and the soak test drive.
    """
    if duration_ms <= 0 or events <= 0:
        raise ExperimentError("duration_ms and events must be positive")
    if not 0 <= jitter < 1:
        raise ExperimentError("jitter must be within [0, 1)")
    rng = random.Random(seed)
    edges = _edge_list(network)
    stream: list[TrafficEvent] = []
    for i in range(events):
        at_ms = round(i * duration_ms / events)
        u, v, w = rng.choice(edges)
        factor = 1.0 + jitter * (2.0 * rng.random() - 1.0)
        stream.append(TrafficEvent(u, v, w * factor, at_ms))
    return stream


#: scenario name -> generator, the registry behind ``repro scenario``
SCENARIOS = {
    "morning-rush": morning_rush,
    "evening-rush": evening_rush,
    "incident": incident_spike,
    "uniform": uniform_churn,
}


def scenario_events(
    name: str,
    network: RoadNetwork,
    duration_ms: int = 60_000,
    events: int = 200,
    seed: int = 0,
) -> list[TrafficEvent]:
    """Generate the named scenario's event stream with shared knobs.

    The uniform entry point the CLI uses: every scenario accepts the
    same ``(network, duration, seed)`` surface; scenario-specific
    parameters keep their defaults (call the generator directly for
    full control).  ``events`` is advisory for :func:`incident_spike`,
    whose event count is set by the incident radius.

    Raises
    ------
    ExperimentError
        For an unknown scenario name.
    """
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ExperimentError(f"unknown scenario {name!r}; one of: {known}")
    if name == "incident":
        return incident_spike(network, duration_ms=duration_ms, seed=seed)
    return SCENARIOS[name](
        network, duration_ms=duration_ms, events=events, seed=seed
    )
