"""Workload files for ``repro serve-replay``.

A workload file is the client-side traffic a serving stack is replayed
against, in the plain-text idiom of :mod:`repro.network.io`.  Format v1
is one protected path query per line:

```
# repro workload v1
q <source> <destination> <f_s> <f_t>
```

Format v2 additionally interleaves traffic events — edge re-weights
:func:`repro.service.serving.replay` installs as epochs between the
queries around them:

```
# repro workload v2
q <source> <destination> <f_s> <f_t>
w <u> <v> <weight> <at_ms>
```

``q`` lines carry the true endpoints plus the requested protection
sizes; ``w`` lines carry an existing edge's new weight and the event's
timestamp in milliseconds since replay start.  Lines replay in file
order, so a ``w`` line conceptually lands between the queries around
it.  :func:`read_workload` / :func:`write_workload` round-trip queries
only (v1 compatible); :func:`read_workload_items` /
:func:`write_workload_items` round-trip the full mixed stream.
:func:`synthesize_workload` generates queries from the seeded
generators in :mod:`repro.workloads.queries`; traffic-event waves come
from :mod:`repro.workloads.scenarios`.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.exceptions import ExperimentError
from repro.network.graph import NodeId, RoadNetwork

__all__ = [
    "WorkloadEntry",
    "TrafficEvent",
    "read_workload",
    "read_workload_items",
    "write_workload",
    "write_workload_items",
    "synthesize_workload",
]


@dataclass(frozen=True, slots=True)
class WorkloadEntry:
    """One protected path query of a replayable workload."""

    query: PathQuery
    setting: ProtectionSetting

    def as_request(self, user: str) -> ClientRequest:
        """Wrap the entry into a :class:`ClientRequest` for ``user``."""
        return ClientRequest(user, self.query, self.setting)


@dataclass(frozen=True, slots=True)
class TrafficEvent:
    """One edge re-weight of a live traffic stream (a v2 ``w`` line).

    Attributes
    ----------
    u, v:
        Endpoints of an *existing* edge (re-weighting never creates
        roads; :meth:`~repro.service.serving.ServingStack.reweight`
        enforces this at apply time).
    weight:
        The edge's new non-negative weight.
    at_ms:
        Event timestamp in milliseconds since stream start — the moment
        the update became known.  Replays apply events in stream
        order; the timestamp shapes scenarios and is kept on disk.
    """

    u: NodeId
    v: NodeId
    weight: float
    at_ms: int = 0

    def as_change(self) -> tuple[NodeId, NodeId, float]:
        """The ``(u, v, weight)`` tuple ``ServingStack.reweight`` takes."""
        return (self.u, self.v, self.weight)


def write_workload(
    entries: Sequence[WorkloadEntry], path: str | os.PathLike[str]
) -> None:
    """Write query-only ``entries`` to ``path`` (format v1)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# repro workload v1\n")
        for entry in entries:
            fh.write(_format_item(entry))


def write_workload_items(
    items: Sequence[WorkloadEntry | TrafficEvent],
    path: str | os.PathLike[str],
) -> None:
    """Write a mixed query/traffic stream to ``path`` (format v2).

    Items keep file order, so interleavings round-trip exactly through
    :func:`read_workload_items`.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# repro workload v2\n")
        for item in items:
            fh.write(_format_item(item))


def _format_item(item: WorkloadEntry | TrafficEvent) -> str:
    """The one-line wire form of a workload item."""
    if isinstance(item, TrafficEvent):
        return f"w {item.u} {item.v} {item.weight!r} {item.at_ms}\n"
    if isinstance(item, WorkloadEntry):
        return (
            f"q {item.query.source} {item.query.destination} "
            f"{item.setting.f_s} {item.setting.f_t}\n"
        )
    raise ExperimentError(f"unsupported workload item {item!r}")


def read_workload(path: str | os.PathLike[str]) -> list[WorkloadEntry]:
    """Read only the protected queries of a workload file.

    Accepts both formats: v1 files are returned whole; in a v2 file the
    ``w`` traffic lines are skipped (callers that replay traffic too use
    :func:`read_workload_items`).  Node ids are parsed as integers (the
    id type every generator in this package produces).

    Raises
    ------
    ExperimentError
        On malformed lines or unknown record kinds.
    """
    return [
        item
        for item in read_workload_items(path)
        if isinstance(item, WorkloadEntry)
    ]


def read_workload_items(
    path: str | os.PathLike[str],
) -> list[WorkloadEntry | TrafficEvent]:
    """Read a workload file as its full mixed item stream, in file order.

    v1 files yield only :class:`WorkloadEntry`; v2 files interleave
    :class:`TrafficEvent` items where their ``w`` lines sit.

    Raises
    ------
    ExperimentError
        On malformed lines or unknown record kinds.
    """
    items: list[WorkloadEntry | TrafficEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            try:
                if fields[0] == "q" and len(fields) == 5:
                    source, destination, f_s, f_t = (
                        int(f) for f in fields[1:]
                    )
                    items.append(
                        WorkloadEntry(
                            query=PathQuery(source, destination),
                            setting=ProtectionSetting(f_s, f_t),
                        )
                    )
                    continue
                if fields[0] == "w" and len(fields) == 5:
                    weight = float(fields[3])
                    items.append(
                        TrafficEvent(
                            u=int(fields[1]),
                            v=int(fields[2]),
                            weight=weight,
                            at_ms=int(fields[4]),
                        )
                    )
                    continue
            except ValueError as exc:
                raise ExperimentError(
                    f"malformed workload line {line_no}: {line!r}"
                ) from exc
            raise ExperimentError(
                f"malformed workload line {line_no}: {line!r}"
            )
    return items


def synthesize_workload(
    network: RoadNetwork,
    count: int,
    f_s: int = 3,
    f_t: int = 3,
    kind: str = "hotspot",
    seed: int = 0,
) -> list[WorkloadEntry]:
    """Generate a seeded workload over ``network``.

    Parameters
    ----------
    network:
        Road network the endpoints are drawn from.
    count:
        Number of entries.
    f_s, f_t:
        Protection sizes applied to every entry.
    kind:
        ``"hotspot"`` (the paper's motivating mix; repeated popular
        destinations make caches earn their keep) or ``"uniform"``.
    seed:
        Generator seed.

    Raises
    ------
    ExperimentError
        For an unknown ``kind``.
    """
    from repro.workloads.queries import hotspot_queries, uniform_queries

    if kind == "hotspot":
        queries = hotspot_queries(network, count, seed=seed)
    elif kind == "uniform":
        queries = uniform_queries(network, count, seed=seed)
    else:
        raise ExperimentError(
            f"unknown workload kind {kind!r}; use 'hotspot' or 'uniform'"
        )
    setting = ProtectionSetting(f_s, f_t)
    return [WorkloadEntry(query=q, setting=setting) for q in queries]
