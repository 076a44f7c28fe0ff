"""Plain-text serialization for road networks (TIGER-like edge lists).

The paper's obfuscator keeps "a simple road map (e.g., obtained from
Tiger/Line)".  Real TIGER/Line files are census shapefiles; this module
implements the equivalent *information content* as a human-readable text
format so maps can be shipped between the obfuscator and tooling:

```
# comment lines start with '#'
directed 0
node <id> <x> <y>
edge <u> <v> <weight>
```

Node ids are stored as integers.  Round-tripping is exact up to float
repr precision.
"""

from __future__ import annotations

import os
from typing import TextIO

from repro.exceptions import GraphError
from repro.network.graph import RoadNetwork
from repro.network.partition import Partition

__all__ = [
    "read_network",
    "write_network",
    "dumps_network",
    "loads_network",
    "read_dimacs",
    "write_dimacs",
    "read_partition",
    "write_partition",
    "dumps_partition",
    "loads_partition",
]


def write_network(network: RoadNetwork, path: str | os.PathLike[str]) -> None:
    """Write ``network`` to ``path`` in the text format described above."""
    with open(path, "w", encoding="utf-8") as fh:
        _write(network, fh)


def read_network(path: str | os.PathLike[str]) -> RoadNetwork:
    """Read a network previously written by :func:`write_network`."""
    with open(path, "r", encoding="utf-8") as fh:
        return _read(fh)


def dumps_network(network: RoadNetwork) -> str:
    """Serialize ``network`` to a string."""
    import io as _io

    buf = _io.StringIO()
    _write(network, buf)
    return buf.getvalue()


def loads_network(text: str) -> RoadNetwork:
    """Parse a network from a string produced by :func:`dumps_network`."""
    import io as _io

    return _read(_io.StringIO(text))


def _write(network: RoadNetwork, fh: TextIO) -> None:
    fh.write("# repro road network v1\n")
    fh.write(f"directed {1 if network.directed else 0}\n")
    for node in network.nodes():
        p = network.position(node)
        fh.write(f"node {node} {p.x!r} {p.y!r}\n")
    for u, v, w in network.edges():
        fh.write(f"edge {u} {v} {w!r}\n")


def read_dimacs(
    gr_path: str | os.PathLike[str],
    co_path: str | os.PathLike[str] | None = None,
    directed: bool = True,
) -> RoadNetwork:
    """Read a 9th DIMACS Challenge shortest-path graph (``.gr`` + ``.co``).

    The interchange format the road-network literature (and the paper's
    TIGER/Line-derived benchmarks) ships real metro extracts in::

        c  comment                      c  comment
        p sp <n> <m>                    p aux sp co <n>
        a <u> <v> <weight>              v <id> <x> <y>

    ``.gr`` carries arcs (1-based integer node ids), ``.co`` carries
    coordinates.  Node ids are kept verbatim; nodes named by ``p sp``
    but absent from the ``.co`` file sit at the origin (coordinates are
    optional in the challenge corpus).

    Parameters
    ----------
    gr_path:
        The arc file.
    co_path:
        Optional coordinate file; without it every node sits at
        ``(0, 0)`` (fine for the Dijkstra engines, useless for A*).
    directed:
        DIMACS arcs are directed; pass ``False`` for corpora that list
        both orientations of symmetric graphs to fold them into one
        undirected network.

    Raises
    ------
    GraphError
        For malformed lines (reported with their line number), a
        missing ``p`` header, arc counts that do not match the header,
        or node ids outside ``1..n``.
    """
    coords: dict[int, tuple[float, float]] = {}
    if co_path is not None:
        declared_co: int | None = None
        with open(co_path, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("c"):
                    continue
                fields = line.split()
                try:
                    if fields[0] == "p":
                        if declared_co is not None:
                            raise GraphError("duplicate 'p' header")
                        if fields[1:4] != ["aux", "sp", "co"]:
                            raise GraphError(
                                f"not a coordinate file: {line!r}"
                            )
                        declared_co = int(fields[4])
                    elif fields[0] == "v":
                        if declared_co is None:
                            raise GraphError("'v' line before 'p' header")
                        node, x, y = (
                            int(fields[1]), float(fields[2]), float(fields[3])
                        )
                        coords[node] = (x, y)
                    else:
                        raise GraphError(
                            f"unknown record kind {fields[0]!r}"
                        )
                except (IndexError, ValueError) as exc:
                    raise GraphError(
                        f"malformed line {line_no}: {line!r}"
                    ) from exc
        if declared_co is None:
            raise GraphError("missing 'p aux sp co' header")
        if len(coords) != declared_co:
            raise GraphError(
                f"coordinate file declares {declared_co} nodes, "
                f"lists {len(coords)}"
            )
    network = RoadNetwork(directed=directed)
    declared: tuple[int, int] | None = None
    arcs = 0
    with open(gr_path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            fields = line.split()
            try:
                if fields[0] == "p":
                    if declared is not None:
                        raise GraphError("duplicate 'p' header")
                    if fields[1] != "sp":
                        raise GraphError(f"not a shortest-path file: {line!r}")
                    declared = (int(fields[2]), int(fields[3]))
                    for node in range(1, declared[0] + 1):
                        x, y = coords.get(node, (0.0, 0.0))
                        network.add_node(node, x, y)
                elif fields[0] == "a":
                    if declared is None:
                        raise GraphError("'a' line before 'p' header")
                    u, v, w = int(fields[1]), int(fields[2]), float(fields[3])
                    if not (1 <= u <= declared[0] and 1 <= v <= declared[0]):
                        raise GraphError(
                            f"arc ({u}, {v}) outside 1..{declared[0]}"
                        )
                    arcs += 1
                    network.add_edge(u, v, w)
                else:
                    raise GraphError(f"unknown record kind {fields[0]!r}")
            except (IndexError, ValueError) as exc:
                raise GraphError(
                    f"malformed line {line_no}: {line!r}"
                ) from exc
    if declared is None:
        raise GraphError("missing 'p sp' header")
    if arcs != declared[1]:
        raise GraphError(f"header declares {declared[1]} arcs, found {arcs}")
    return network


def write_dimacs(
    network: RoadNetwork,
    gr_path: str | os.PathLike[str],
    co_path: str | os.PathLike[str] | None = None,
    comment: str = "repro road network",
) -> None:
    """Write ``network`` in DIMACS ``.gr`` (and optionally ``.co``) form.

    Node ids must already be the 1-based dense integers the format
    requires.  Undirected networks emit both orientations of every edge
    (the convention of the challenge's symmetric corpora); integral
    weights are written as integers, others with full float precision,
    so :func:`read_dimacs` round-trips exactly.

    Raises
    ------
    GraphError
        For node ids that are not ``1..n`` integers.
    """
    n = len(network)
    for node in network.nodes():
        if not isinstance(node, int) or not 1 <= node <= n:
            raise GraphError(
                f"DIMACS serialization needs dense 1-based integer node "
                f"ids, got {node!r}"
            )

    def fmt(w: float) -> str:
        return str(int(w)) if float(w).is_integer() else repr(float(w))

    arcs: list[tuple[int, int, float]] = []
    for u, v, w in network.edges():
        arcs.append((u, v, w))
        if not network.directed:
            arcs.append((v, u, w))
    with open(gr_path, "w", encoding="utf-8") as fh:
        fh.write(f"c {comment}\n")
        fh.write(f"p sp {n} {len(arcs)}\n")
        for u, v, w in arcs:
            fh.write(f"a {u} {v} {fmt(w)}\n")
    if co_path is not None:
        with open(co_path, "w", encoding="utf-8") as fh:
            fh.write(f"c {comment}\n")
            fh.write(f"p aux sp co {n}\n")
            for node in sorted(network.nodes()):
                p = network.position(node)
                fh.write(f"v {node} {p.x!r} {p.y!r}\n")


def write_partition(
    partition: Partition, path: str | os.PathLike[str]
) -> None:
    """Write a :class:`~repro.network.partition.Partition` to ``path``.

    Format (same conventions as the network format)::

        # comment lines start with '#'
        capacity <cell capacity>
        cell <cell id> <node id> <node id> ...

    Only the capacity and cell membership are stored; boundary sets and
    cut edges are derived from the network again on load, so the file
    stays small and can never drift from the graph it describes.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_partition(partition))


def dumps_partition(partition: Partition) -> str:
    """Serialize a partition to a string (see :func:`write_partition`).

    Raises
    ------
    GraphError
        For non-integer node ids.
    """
    lines = ["# repro partition v1", f"capacity {partition.cell_capacity}"]
    for i, members in enumerate(partition.cells):
        for node in members:
            if not isinstance(node, int):
                raise GraphError(
                    f"partition serialization needs integer node ids, "
                    f"got {node!r}"
                )
        lines.append(f"cell {i} " + " ".join(str(n) for n in members))
    return "\n".join(lines) + "\n"


def read_partition(path: str | os.PathLike[str], network) -> Partition:
    """Read a partition written by :func:`write_partition`.

    ``network`` supplies the adjacency the boundary sets and cut edges
    are derived from; its node set must match the file exactly.

    Raises
    ------
    GraphError
        For malformed input, cells not numbered ``0..n-1``, or cells
        that do not partition ``network``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return _read_partition(fh, network)


def loads_partition(text: str, network) -> Partition:
    """Parse a partition from a string produced by :func:`dumps_partition`."""
    import io as _io

    return _read_partition(_io.StringIO(text), network)


def _read_partition(fh: TextIO, network) -> Partition:
    capacity: int | None = None
    cells: list[tuple[int, list[int]]] = []
    for line_no, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "capacity":
                if capacity is not None:
                    raise GraphError("duplicate 'capacity' header")
                capacity = int(fields[1])
            elif kind == "cell":
                cells.append((int(fields[1]), [int(f) for f in fields[2:]]))
            else:
                raise GraphError(f"unknown record kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise GraphError(f"malformed line {line_no}: {line!r}") from exc
    if capacity is None:
        raise GraphError("missing 'capacity' header")
    cells.sort(key=lambda item: item[0])
    if [i for i, _ in cells] != list(range(len(cells))):
        raise GraphError("partition cells are not numbered 0..n-1")
    return Partition.from_cells(
        network, [members for _, members in cells], capacity
    )


def _read(fh: TextIO) -> RoadNetwork:
    network: RoadNetwork | None = None
    pending_edges: list[tuple[int, int, float]] = []
    for line_no, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "directed":
                if network is not None:
                    raise GraphError("duplicate 'directed' header")
                network = RoadNetwork(directed=bool(int(fields[1])))
            elif kind == "node":
                if network is None:
                    raise GraphError("'node' before 'directed' header")
                network.add_node(int(fields[1]), float(fields[2]), float(fields[3]))
            elif kind == "edge":
                pending_edges.append((int(fields[1]), int(fields[2]), float(fields[3])))
            else:
                raise GraphError(f"unknown record kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise GraphError(f"malformed line {line_no}: {line!r}") from exc
    if network is None:
        raise GraphError("missing 'directed' header")
    for u, v, w in pending_edges:
        network.add_edge(u, v, w)
    return network
