"""Page-aligned binary artifact blobs with mmap-backed loading.

The spill format of the preprocessing cache
(:class:`~repro.service.cache.PreprocessingCache`) for CSR snapshots:
a binary container built for warm starts, so a cold cache reloading an
evicted snapshot parses no text:

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

Like the network text format, the CSR codec requires integer node ids
and raises :class:`~repro.exceptions.GraphError` otherwise — the cache
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
