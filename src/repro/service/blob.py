"""Page-aligned binary artifact blobs with mmap-backed loading.

The spill format of the preprocessing cache
(:class:`~repro.service.cache.PreprocessingCache`) for CSR snapshots and
partition overlays: a binary container built for warm starts, so a cold
shard worker parses no text before it can serve:

* :func:`write_blob` / :func:`read_blob` — a generic container: an
  8-byte magic, a JSON header describing named typed sections, then the
  section payloads with every section start aligned to
  :data:`PAGE_SIZE`.  Loading memory-maps the file once and hands out
  zero-copy ``memoryview`` casts, so bytes move from the page cache
  straight into the consumer and untouched sections are never faulted
  in.  Pure stdlib (:mod:`mmap`, :mod:`array`) — numpy is not required,
  and ``numpy.frombuffer`` accepts the views unchanged when callers
  want ndarray math on top.
* :func:`write_csr_blob` / :func:`read_csr_blob` — a
  :class:`~repro.network.csr.CSRGraph` as seven flat sections.  The
  loaded snapshot keeps its ``offsets``/``targets``/``weights`` *backed
  by the mapping*: no copy is made at load time, the kernels' lazy
  ``kernel_view()`` materialization works unchanged, and the first
  query faults in exactly the pages it walks.
* :func:`write_overlay_blob` / :func:`read_overlay_blob` — an
  :class:`~repro.search.overlay.OverlayGraph` (or its nested subclass)
  with partition cells and clique paths flattened into CSR-shaped
  arrays.  Loading slices path tuples out of the mapping without any
  text parsing; a ``nested`` header flag round-trips
  :class:`~repro.search.overlay.NestedOverlayGraph`, whose level-1
  tables load from the blob while the (cheap) supercell level is
  re-derived deterministically.

Like the network text format, the codecs require integer node ids and
raise :class:`~repro.exceptions.GraphError` otherwise — the cache
treats spill as best-effort and simply rebuilds such artifacts.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from array import array
from pathlib import Path

from repro.exceptions import GraphError

__all__ = [
    "BLOB_MAGIC",
    "PAGE_SIZE",
    "Blob",
    "write_blob",
    "read_blob",
    "write_csr_blob",
    "read_csr_blob",
    "write_overlay_blob",
    "read_overlay_blob",
]

#: first eight bytes of every blob file
BLOB_MAGIC = b"RPRBLOB1"

#: section payloads start on multiples of this (the OS page size, so a
#: section maps to whole pages and faults independently of its siblings)
PAGE_SIZE = mmap.PAGESIZE

#: bytes per item of the supported section typecodes (8-byte ints and
#: C doubles — the two types every artifact array in this package uses)
_ITEM_SIZE = {"q": 8, "d": 8}


def _align(offset: int) -> int:
    """``offset`` rounded up to the next page boundary."""
    return (offset + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE


class Blob:
    """One opened blob: parsed header plus zero-copy section views.

    Attributes
    ----------
    path:
        The file the blob was read from.
    meta:
        The writer's metadata dict, verbatim.
    sections:
        ``{name: memoryview}`` typed views (``'q'`` int64 / ``'d'``
        float64) into the shared memory mapping — zero-copy, read-only.

    The mapping stays alive as long as any view does; call
    :meth:`close` only once no view has escaped (it releases the views
    this object still holds, then closes the mapping).
    """

    __slots__ = ("path", "meta", "sections", "_mm")

    def __init__(
        self, path: Path, meta: dict, sections: dict, mm: mmap.mmap
    ) -> None:
        self.path = path
        self.meta = meta
        self.sections = sections
        self._mm = mm

    def close(self) -> None:
        """Release the held views and close the memory mapping.

        Raises
        ------
        BufferError
            When a view handed out by :attr:`sections` is still alive
            elsewhere (the mapping cannot be unmapped under it).
        """
        for view in self.sections.values():
            view.release()
        self.sections = {}
        self._mm.close()

    def __repr__(self) -> str:
        names = ", ".join(self.sections)
        return f"Blob({self.path.name!r}, sections=[{names}])"


def write_blob(
    path: str | os.PathLike[str],
    meta: dict,
    sections: list[tuple[str, str, array]],
) -> None:
    """Write named typed arrays as one page-aligned blob file.

    Parameters
    ----------
    path:
        Destination file (overwritten atomically via a same-directory
        temp file, so a concurrent reader never sees a torn blob).
    meta:
        JSON-serializable metadata stored in the header.
    sections:
        ``(name, typecode, values)`` triples; ``typecode`` is ``'q'``
        (int64) or ``'d'`` (float64) and ``values`` is an
        :class:`array.array` of that typecode (or any iterable, which
        is converted).  Section payloads are laid out in order, each
        starting on a page boundary.

    Raises
    ------
    GraphError
        For an unsupported typecode or duplicate section name.
    """
    table = []
    payloads = []
    rel = 0
    seen: set[str] = set()
    for name, fmt, values in sections:
        if fmt not in _ITEM_SIZE:
            raise GraphError(f"unsupported blob section typecode {fmt!r}")
        if name in seen:
            raise GraphError(f"duplicate blob section {name!r}")
        seen.add(name)
        arr = values if isinstance(values, array) else array(fmt, values)
        if arr.typecode != fmt or arr.itemsize != _ITEM_SIZE[fmt]:
            raise GraphError(
                f"section {name!r} array does not match typecode {fmt!r}"
            )
        rel = _align(rel)
        table.append(
            {"name": name, "fmt": fmt, "count": len(arr), "offset": rel}
        )
        payloads.append((rel, arr))
        rel += len(arr) * _ITEM_SIZE[fmt]
    header = json.dumps(
        {"meta": meta, "sections": table}, separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    data_start = _align(len(BLOB_MAGIC) + 8 + len(header))
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(BLOB_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for rel_offset, arr in payloads:
            fh.seek(data_start + rel_offset)
            fh.write(memoryview(arr))
        # Extend the file over trailing zero-length sections (a seek
        # past EOF with nothing written does not grow the file), so
        # every declared section offset is mappable.
        fh.truncate(data_start + rel)
    os.replace(tmp, path)


def read_blob(path: str | os.PathLike[str]) -> Blob:
    """Memory-map a blob written by :func:`write_blob`.

    Returns a :class:`Blob` whose section views alias the mapping —
    nothing is copied, and pages fault in lazily as sections are read.

    Raises
    ------
    GraphError
        For a missing magic, a malformed header, or a section table
        that does not fit the file.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-length file cannot be mapped
            raise GraphError(f"not a blob file: {path}") from exc
    sections: dict[str, memoryview] = {}
    try:
        prefix = len(BLOB_MAGIC)
        if mm[:prefix] != BLOB_MAGIC:
            raise GraphError(f"not a blob file: {path}")
        (hlen,) = struct.unpack("<Q", mm[prefix:prefix + 8])
        try:
            header = json.loads(mm[prefix + 8:prefix + 8 + hlen])
            meta = header["meta"]
            table = header["sections"]
        except (ValueError, KeyError, TypeError) as exc:
            raise GraphError(f"malformed blob header in {path}") from exc
        data_start = _align(prefix + 8 + hlen)
        for entry in table:
            fmt = entry["fmt"]
            if fmt not in _ITEM_SIZE:
                raise GraphError(f"malformed blob section in {path}")
            nbytes = entry["count"] * _ITEM_SIZE[fmt]
            start = data_start + entry["offset"]
            if start + nbytes > len(mm):
                raise GraphError(f"malformed blob section in {path}")
            sections[entry["name"]] = memoryview(mm)[
                start:start + nbytes
            ].cast(fmt)
    except GraphError:
        for view in sections.values():
            view.release()
        mm.close()
        raise
    return Blob(path, meta, sections, mm)


# ----------------------------------------------------------------------
# CSR snapshots
# ----------------------------------------------------------------------
def write_csr_blob(csr, path: str | os.PathLike[str]) -> None:
    """Persist a :class:`~repro.network.csr.CSRGraph` as a blob.

    Raises
    ------
    GraphError
        For non-integer node ids (same restriction as every persistent
        format in this package).
    """
    for node in csr.node_ids:
        if type(node) is not int:
            raise GraphError(
                f"CSR blob needs integer node ids, got {node!r}"
            )
    meta = {"kind": "csr", "directed": bool(csr.directed)}
    sections = [
        ("node_ids", "q", array("q", csr.node_ids)),
        ("offsets", "q", csr.offsets),
        ("targets", "q", csr.targets),
        ("weights", "d", csr.weights),
        ("xs", "d", csr.xs),
        ("ys", "d", csr.ys),
    ]
    if csr.directed:
        sections += [
            ("roffsets", "q", csr.roffsets),
            ("rtargets", "q", csr.rtargets),
            ("rweights", "d", csr.rweights),
        ]
    write_blob(path, meta, sections)


def read_csr_blob(path: str | os.PathLike[str]):
    """Load a :class:`~repro.network.csr.CSRGraph` from a blob, mmap-backed.

    The returned snapshot's flat arrays are read-only views into the
    mapping — loading is O(nodes) for the id index only, and arc pages
    fault in on first touch by a query.

    Raises
    ------
    GraphError
        For a malformed blob or one of a different kind.
    """
    from repro.network.csr import CSRGraph

    blob = read_blob(path)
    try:
        if blob.meta.get("kind") != "csr":
            raise GraphError(f"not a CSR blob: {path}")
        s = blob.sections
        node_ids = tuple(s["node_ids"].tolist())
        directed = bool(blob.meta.get("directed"))
        return CSRGraph(
            node_ids=node_ids,
            index_of={node: i for i, node in enumerate(node_ids)},
            offsets=s["offsets"],
            targets=s["targets"],
            weights=s["weights"],
            xs=s["xs"],
            ys=s["ys"],
            directed=directed,
            roffsets=s["roffsets"] if directed else None,
            rtargets=s["rtargets"] if directed else None,
            rweights=s["rweights"] if directed else None,
        )
    except KeyError as exc:
        blob.close()
        raise GraphError(f"malformed CSR blob {path}") from exc
    except GraphError:
        blob.close()
        raise


# ----------------------------------------------------------------------
# Partition overlays (flat and nested)
# ----------------------------------------------------------------------
def write_overlay_blob(overlay, path: str | os.PathLike[str]) -> None:
    """Persist an overlay (flat or nested) as a blob.

    Carries exactly what :func:`repro.search.overlay.dumps_overlay`
    carries — partition cells plus every customized clique path, in the
    same deterministic order, so two overlays with identical level-1
    tables write byte-identical blobs.  A nested overlay additionally
    records its ``super_capacity``; the supercell level itself is
    re-derived on load (it is weight-independent in structure and cheap
    next to the clique searches the blob saves).

    Raises
    ------
    GraphError
        For non-integer node ids.
    """
    from repro.search.overlay import NestedOverlayGraph

    partition = overlay.partition
    cell_offsets = array("q", [0])
    cell_nodes = array("q")
    for members in partition.cells:
        for node in members:
            if type(node) is not int:
                raise GraphError(
                    f"overlay blob needs integer node ids, got {node!r}"
                )
            cell_nodes.append(node)
        cell_offsets.append(len(cell_nodes))
    clq_cell = array("q")
    clq_dist = array("d")
    clq_offsets = array("q", [0])
    clq_nodes = array("q")
    for cell, clique in enumerate(overlay.cliques):
        for b in partition.boundary[cell]:
            for p in clique[b].values():
                clq_cell.append(cell)
                clq_dist.append(p.distance)
                clq_nodes.extend(p.nodes)
                clq_offsets.append(len(clq_nodes))
    meta = {
        "kind": "overlay",
        "kernel": "csr",
        "capacity": partition.cell_capacity,
        "nested": isinstance(overlay, NestedOverlayGraph),
        "super_capacity": (
            overlay.super_capacity
            if isinstance(overlay, NestedOverlayGraph)
            else None
        ),
    }
    write_blob(path, meta, [
        ("cell_offsets", "q", cell_offsets),
        ("cell_nodes", "q", cell_nodes),
        ("clq_cell", "q", clq_cell),
        ("clq_dist", "d", clq_dist),
        ("clq_offsets", "q", clq_offsets),
        ("clq_nodes", "q", clq_nodes),
    ])


def read_overlay_blob(path: str | os.PathLike[str], network):
    """Rebuild an overlay from a blob — no text parsing on the warm path.

    ``network`` must have the same content the overlay was customized
    for (the cache guarantees this by keying spill files on the network
    fingerprint).  Returns an
    :class:`~repro.search.overlay.OverlayGraph`, or a
    :class:`~repro.search.overlay.NestedOverlayGraph` when the blob's
    ``nested`` flag is set.

    Raises
    ------
    GraphError
        For a malformed blob, a ``kernel`` other than ``"csr"`` (the
        only cell kernel there is; the key stays in the header so blobs
        written before and after its removal are the same bytes), or a
        partition that does not match ``network``.
    """
    from repro.network.io import parse_partition_cells
    from repro.search.overlay import (
        NestedOverlayGraph,
        OverlayGraph,
        PathResult,
        SearchStats,
    )

    blob = read_blob(path)
    try:
        meta = blob.meta
        if meta.get("kind") != "overlay":
            raise GraphError(f"not an overlay blob: {path}")
        if meta.get("kernel") != "csr":
            raise GraphError(
                f"unknown overlay kernel {meta.get('kernel')!r}"
            )
        capacity = int(meta["capacity"])
        s = blob.sections
        cell_offsets = s["cell_offsets"].tolist()
        cell_nodes = s["cell_nodes"].tolist()
        cells = [
            (i, cell_nodes[cell_offsets[i]:cell_offsets[i + 1]])
            for i in range(len(cell_offsets) - 1)
        ]
        partition = parse_partition_cells(cells, network, capacity)
        cliques: list[dict] = [
            {b: {} for b in boundary} for boundary in partition.boundary
        ]
        clq_cell = s["clq_cell"].tolist()
        clq_dist = s["clq_dist"].tolist()
        clq_offsets = s["clq_offsets"].tolist()
        clq_nodes = s["clq_nodes"].tolist()
        for p in range(len(clq_cell)):
            cell = clq_cell[p]
            nodes = clq_nodes[clq_offsets[p]:clq_offsets[p + 1]]
            if not 0 <= cell < partition.num_cells or len(nodes) < 2:
                raise GraphError(f"malformed clique record for cell {cell}")
            b, b2 = nodes[0], nodes[-1]
            if b not in cliques[cell] or b2 not in cliques[cell]:
                raise GraphError(
                    f"clique endpoints {b}, {b2} are not boundary nodes "
                    f"of cell {cell}"
                )
            cliques[cell][b][b2] = PathResult(
                source=b, destination=b2, nodes=tuple(nodes),
                distance=clq_dist[p],
            )
    except (KeyError, ValueError, TypeError) as exc:
        blob.close()
        raise GraphError(f"malformed overlay blob {path}") from exc
    except GraphError:
        blob.close()
        raise
    blob.close()  # everything is materialized; release the mapping
    cell_csr: list = []
    cell_rcsr: list = []
    for cell in range(partition.num_cells):
        fcsr, rcsr = OverlayGraph._cell_graphs(network, partition, cell)
        cell_csr.append(fcsr)
        cell_rcsr.append(rcsr)
    if meta.get("nested"):
        super_capacity = meta.get("super_capacity")
        return NestedOverlayGraph(
            network, partition, cliques, cell_csr, cell_rcsr,
            SearchStats(), 0,
            super_capacity=(
                int(super_capacity) if super_capacity is not None else None
            ),
        )
    return OverlayGraph(
        network, partition, cliques, cell_csr, cell_rcsr, SearchStats(), 0
    )
