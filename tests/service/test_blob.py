"""Tests for the page-aligned artifact blobs (:mod:`repro.service.blob`).

Covers the generic container (layout, alignment, malformed input), the
CSR codec (round trips, mmap backing, byte determinism),
and the preprocessing cache's spill/reload integration for the blob
engines — the warm-start channel the gateway shard workers use.
"""

import json
import struct
from array import array

import pytest

from repro.exceptions import GraphError
from repro.network.csr import CSRGraph, csr_snapshot
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.search import get_engine, list_engines
from repro.service.blob import (
    BLOB_MAGIC,
    PAGE_SIZE,
    read_blob,
    read_csr_blob,
    write_blob,
    write_csr_blob,
)
from repro.service.cache import PreprocessingCache


@pytest.fixture(scope="module")
def net():
    return grid_network(12, 12, perturbation=0.1, seed=7)


class TestContainer:
    def test_round_trip_meta_and_sections(self, tmp_path):
        path = tmp_path / "x.blob"
        write_blob(path, {"kind": "test", "n": 3}, [
            ("ints", "q", array("q", [1, -2, 3])),
            ("floats", "d", array("d", [0.5, 1.25])),
            ("empty", "q", array("q")),
        ])
        blob = read_blob(path)
        assert blob.meta == {"kind": "test", "n": 3}
        assert blob.sections["ints"].tolist() == [1, -2, 3]
        assert blob.sections["floats"].tolist() == [0.5, 1.25]
        assert blob.sections["empty"].tolist() == []
        blob.close()

    def test_sections_are_page_aligned(self, tmp_path):
        path = tmp_path / "x.blob"
        write_blob(path, {}, [
            ("a", "q", array("q", range(5))),
            ("b", "d", array("d", [1.0] * 700)),
            ("c", "q", array("q", [9])),
        ])
        raw = path.read_bytes()
        assert raw[:len(BLOB_MAGIC)] == BLOB_MAGIC
        (hlen,) = struct.unpack(
            "<Q", raw[len(BLOB_MAGIC):len(BLOB_MAGIC) + 8]
        )
        header = json.loads(raw[len(BLOB_MAGIC) + 8:len(BLOB_MAGIC) + 8 + hlen])
        offsets = [s["offset"] for s in header["sections"]]
        assert all(offset % PAGE_SIZE == 0 for offset in offsets)
        assert offsets == sorted(offsets)

    def test_views_are_zero_copy_and_read_only(self, tmp_path):
        path = tmp_path / "x.blob"
        write_blob(path, {}, [("a", "q", array("q", [1, 2, 3]))])
        blob = read_blob(path)
        view = blob.sections["a"]
        assert view.readonly
        with pytest.raises(TypeError):
            view[0] = 9
        blob.close()

    def test_iterables_are_converted(self, tmp_path):
        path = tmp_path / "x.blob"
        write_blob(path, {}, [("a", "d", [1.0, 2.0])])
        blob = read_blob(path)
        assert blob.sections["a"].tolist() == [1.0, 2.0]
        blob.close()

    def test_duplicate_section_rejected(self, tmp_path):
        with pytest.raises(GraphError, match="duplicate"):
            write_blob(tmp_path / "x.blob", {}, [
                ("a", "q", array("q")), ("a", "q", array("q")),
            ])

    def test_unsupported_typecode_rejected(self, tmp_path):
        with pytest.raises(GraphError, match="typecode"):
            write_blob(tmp_path / "x.blob", {}, [("a", "f", array("f"))])

    @pytest.mark.parametrize("payload", [
        b"", b"NOTABLOB", BLOB_MAGIC + b"\x00" * 8,
        BLOB_MAGIC + struct.pack("<Q", 4) + b"{!!}",
    ])
    def test_malformed_file_raises(self, tmp_path, payload):
        path = tmp_path / "bad.blob"
        path.write_bytes(payload)
        with pytest.raises(GraphError):
            read_blob(path)

    def test_section_past_end_of_file_raises(self, tmp_path):
        path = tmp_path / "bad.blob"
        header = json.dumps({
            "meta": {},
            "sections": [
                {"name": "a", "fmt": "q", "count": 99, "offset": 0}
            ],
        }).encode()
        path.write_bytes(
            BLOB_MAGIC + struct.pack("<Q", len(header)) + header
        )
        with pytest.raises(GraphError, match="section"):
            read_blob(path)


class TestCSRBlob:
    def test_round_trip_and_query_parity(self, net, tmp_path):
        csr = csr_snapshot(net)
        path = tmp_path / "g.csrb"
        write_csr_blob(csr, path)
        loaded = read_csr_blob(path)
        assert loaded.node_ids == csr.node_ids
        assert loaded.directed == csr.directed
        assert list(loaded.offsets) == list(csr.offsets)
        assert list(loaded.targets) == list(csr.targets)
        assert list(loaded.weights) == list(csr.weights)
        engine = get_engine("dijkstra-csr")
        nodes = sorted(net.nodes())
        for s, t in [(nodes[0], nodes[-1]), (nodes[3], nodes[-7])]:
            got = engine.route(net, s, t, context=loaded)
            ref = engine.route(net, s, t, context=csr)
            assert got.nodes == ref.nodes
            assert got.distance == ref.distance

    def test_arrays_are_mmap_backed_views(self, net, tmp_path):
        path = tmp_path / "g.csrb"
        write_csr_blob(csr_snapshot(net), path)
        loaded = read_csr_blob(path)
        # zero-copy: the flat arrays are read-only views of the mapping,
        # not materialized array copies
        assert isinstance(loaded.offsets, memoryview)
        assert loaded.offsets.readonly
        assert isinstance(loaded.weights, memoryview)
        # the kernels' lazy list mirror still works on top
        offsets, targets, weights = loaded.kernel_view()
        assert offsets == list(csr_snapshot(net).offsets)

    def test_directed_round_trip_keeps_reverse_arrays(self, tmp_path):
        net = RoadNetwork(directed=True)
        for i in range(4):
            net.add_node(i, float(i), 0.0)
        net.add_edge(0, 1, 1.0)
        net.add_edge(1, 2, 2.0)
        net.add_edge(3, 1, 4.0)
        csr = csr_snapshot(net)
        path = tmp_path / "d.csrb"
        write_csr_blob(csr, path)
        loaded = read_csr_blob(path)
        assert loaded.directed
        assert list(loaded.roffsets) == list(csr.roffsets)
        assert list(loaded.rtargets) == list(csr.rtargets)
        assert list(loaded.rweights) == list(csr.rweights)

    def test_as_numpy_views_stay_read_only(self, net, tmp_path):
        np = pytest.importorskip("numpy")
        path = tmp_path / "g.csrb"
        write_csr_blob(csr_snapshot(net), path)
        views = read_csr_blob(path).as_numpy()
        assert not views["weights"].flags.writeable
        with pytest.raises(ValueError):
            views["weights"][0] = 999.0
        assert views["offsets"].dtype == np.int64

    def test_non_integer_ids_rejected(self, tmp_path):
        net = RoadNetwork()
        net.add_node("a", 0.0, 0.0)
        net.add_node("b", 1.0, 0.0)
        net.add_edge("a", "b", 1.0)
        with pytest.raises(GraphError, match="integer"):
            write_csr_blob(CSRGraph.from_network(net), tmp_path / "x.csrb")

    def test_wrong_kind_rejected(self, net, tmp_path):
        path = tmp_path / "o.blob"
        write_blob(path, {"kind": "other"}, [("xs", "d", array("d", [1.0]))])
        with pytest.raises(GraphError, match="CSR blob"):
            read_csr_blob(path)


class TestCacheIntegration:
    """The spill channel the gateway's shard-worker handoff rides on."""

    @pytest.mark.parametrize("engine", list_engines())
    def test_spill_now_and_reload(self, net, tmp_path, engine):
        cache = PreprocessingCache(capacity=2, spill_dir=tmp_path)
        artifact = cache.get(net, engine)
        from repro.service.cache import network_fingerprint

        fingerprint = network_fingerprint(net)
        spilled = cache.spill_now(fingerprint, engine)
        if get_engine(engine).spill is None:
            # no persistent format: nothing is written (not even a file
            # the loader could never read back), the artifact is rebuilt
            assert spilled is None
            assert not tmp_path.exists() or not list(tmp_path.iterdir())
            return
        assert spilled is not None and spilled.exists()
        # a second cache on the same spill dir warms from disk
        cold = PreprocessingCache(capacity=2, spill_dir=tmp_path)
        reloaded = cold.get(net, engine)
        assert cold.disk_loads == 1
        assert type(reloaded) is type(artifact)
        nodes = sorted(net.nodes())
        eng = get_engine(engine)
        got = eng.route(net, nodes[1], nodes[-2], context=reloaded)
        ref = eng.route(net, nodes[1], nodes[-2], context=artifact)
        assert got.nodes == ref.nodes
        assert got.distance == pytest.approx(ref.distance, abs=1e-9)
        # the reloaded artifact answers the oracle's table
        sources, destinations = nodes[3:6], nodes[-6:-3]
        processor = eng.make_processor()
        processor.use_artifact(reloaded)
        table = processor.process(net, sources, destinations)
        want = get_engine("dijkstra").make_processor().process(
            net, sources, destinations
        )
        assert list(table.paths) == list(want.paths)
        for pair, path in want.paths.items():
            assert table.paths[pair].distance == pytest.approx(
                path.distance, abs=1e-9
            )

    def test_spill_suffixes_by_engine(self, net, tmp_path):
        cache = PreprocessingCache(capacity=8, spill_dir=tmp_path)
        from repro.service.cache import network_fingerprint

        fingerprint = network_fingerprint(net)
        for engine, suffix in [
            ("dijkstra-csr", "csrb"),
            ("ch", "ch"),
        ]:
            cache.get(net, engine)
            path = cache.spill_now(fingerprint, engine)
            assert path is not None
            assert path.suffix == f".{suffix}"
