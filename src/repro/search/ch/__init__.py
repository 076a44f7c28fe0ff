"""Contraction Hierarchies: preprocessing and persistence of the hierarchy.

The two modules cover the artifact a CH deployment pays for once:

* :mod:`~repro.search.ch.contract` — one-time preprocessing producing an
  immutable :class:`ContractedGraph` (node ordering, witness searches,
  shortcut insertion) and the shortcut unpacking every query result
  goes through;
* :mod:`~repro.search.ch.persist` — save/load of contracted graphs so a
  server pays preprocessing once per road network.

The queries run over the graph's flat-array view
(:class:`~repro.search.kernels.CSRHierarchy`): the point query
:func:`~repro.search.kernels.csr_ch_path` and the bucket many-to-many
algorithm behind the ``"ch-csr"`` MSMD processor, both in
:mod:`repro.search.kernels`.
"""

from repro.search.ch.contract import (
    ContractedGraph,
    ContractionStats,
    contract_network,
    unpack_path,
)
from repro.search.ch.persist import (
    dumps_contracted,
    loads_contracted,
    read_contracted,
    write_contracted,
)

__all__ = [
    "ContractedGraph",
    "ContractionStats",
    "contract_network",
    "unpack_path",
    "read_contracted",
    "write_contracted",
    "dumps_contracted",
    "loads_contracted",
]
