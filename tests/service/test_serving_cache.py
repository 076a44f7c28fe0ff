"""Unit tests for the serving-layer caches."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.network.generators import grid_network
from repro.search.kernels import CSRHierarchy, csr_ch_path
from repro.search.multi import MSMDResult
from repro.search.result import PathResult
from repro.service.cache import (
    PreprocessingCache,
    ResultCache,
    network_fingerprint,
)


def _table(s, t) -> MSMDResult:
    result = MSMDResult()
    result.paths[(s, t)] = PathResult(s, t, (s, t), 1.0)
    return result


class TestNetworkFingerprint:
    def test_deterministic_and_content_based(self, small_grid):
        assert network_fingerprint(small_grid) == network_fingerprint(small_grid)
        clone = small_grid.copy()
        assert network_fingerprint(clone) == network_fingerprint(small_grid)

    def test_different_networks_differ(self, small_grid, tiger_net):
        assert network_fingerprint(small_grid) != network_fingerprint(tiger_net)

    def test_mutation_changes_fingerprint(self, small_grid):
        net = small_grid.copy()
        before = network_fingerprint(net)
        net.add_edge(0, 11, 0.123)  # new diagonal shortcut
        assert network_fingerprint(net) != before

    def test_weight_change_changes_fingerprint(self, small_grid):
        net = small_grid.copy()
        before = network_fingerprint(net)
        u, v, w = next(net.edges())
        net.remove_edge(u, v)
        net.add_edge(u, v, w + 1.0)
        assert network_fingerprint(net) != before


class TestPreprocessingCache:
    def test_hit_miss_counters(self, small_grid):
        cache = PreprocessingCache(capacity=2)
        first = cache.get(small_grid, "ch")
        assert isinstance(first, CSRHierarchy)
        assert (cache.hits, cache.misses) == (0, 1)
        again = cache.get(small_grid, "ch")
        assert again is first  # same artifact object, not a rebuild
        assert (cache.hits, cache.misses) == (1, 1)

    def test_engine_is_part_of_the_key(self, small_grid):
        cache = PreprocessingCache(capacity=4)
        cache.get(small_grid, "ch")
        cache.get(small_grid, "ch-csr")
        assert cache.misses == 2 and len(cache) == 2

    def test_mutated_network_misses(self, small_grid):
        net = small_grid.copy()
        cache = PreprocessingCache(capacity=4)
        first = cache.get(net, "ch")
        net.add_edge(0, 22, 0.01)
        second = cache.get(net, "ch")
        assert second is not first
        assert cache.misses == 2 and cache.hits == 0

    def test_lru_eviction_counter(self, small_grid, tiger_net, tiny_triangle):
        cache = PreprocessingCache(capacity=2)
        cache.get(small_grid, "dijkstra")
        cache.get(tiger_net, "dijkstra")
        cache.get(tiny_triangle, "dijkstra")  # evicts small_grid
        assert cache.evictions == 1 and len(cache) == 2
        cache.get(small_grid, "dijkstra")
        assert cache.misses == 4  # evicted entry had to be rebuilt

    def test_none_artifacts_are_cached(self, small_grid):
        cache = PreprocessingCache(capacity=2)
        assert cache.get(small_grid, "dijkstra") is None
        assert cache.get(small_grid, "dijkstra") is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_disk_spill_round_trip(self, tmp_path):
        net_a = grid_network(4, 4, perturbation=0.0, seed=1)
        net_b = grid_network(5, 5, perturbation=0.0, seed=2)
        cache = PreprocessingCache(capacity=1, spill_dir=tmp_path)
        built = cache.get(net_a, "ch")
        cache.get(net_b, "ch")  # evicts and spills net_a's graph
        assert cache.evictions == 1
        assert list(tmp_path.glob("*.ch")), "evicted graph was not spilled"
        reloaded = cache.get(net_a, "ch")
        assert cache.disk_loads == 1
        assert reloaded is not built
        assert reloaded.num_nodes == built.num_nodes
        assert (
            reloaded.contracted.num_shortcuts == built.contracted.num_shortcuts
        )

    def test_disk_spill_round_trip_ch_csr(self, tmp_path):
        net_a = grid_network(4, 4, perturbation=0.1, seed=1)
        net_b = grid_network(5, 5, perturbation=0.1, seed=2)
        cache = PreprocessingCache(capacity=1, spill_dir=tmp_path)
        built = cache.get(net_a, "ch-csr")
        assert isinstance(built, CSRHierarchy)
        cache.get(net_b, "ch-csr")  # evicts net_a; spills the wrapped graph
        assert cache.evictions == 1
        assert list(tmp_path.glob("*-ch-csr.ch")), "hierarchy was not spilled"
        reloaded = cache.get(net_a, "ch-csr")
        assert cache.disk_loads == 1
        assert isinstance(reloaded, CSRHierarchy)
        assert reloaded.num_nodes == built.num_nodes
        # The reloaded hierarchy answers queries identically.
        nodes = list(net_a.nodes())
        for s, t in [(nodes[0], nodes[-1]), (nodes[3], nodes[7])]:
            assert csr_ch_path(reloaded, s, t).distance == pytest.approx(
                csr_ch_path(built, s, t).distance
            )

    def test_invalidate(self, small_grid):
        cache = PreprocessingCache(capacity=2)
        cache.get(small_grid, "ch")
        fingerprint = network_fingerprint(small_grid)
        assert cache.invalidate_fingerprint(fingerprint) == 1
        assert cache.invalidate_fingerprint(fingerprint) == 0
        cache.get(small_grid, "ch")
        assert cache.misses == 2

    def test_unknown_engine_rejected(self, small_grid):
        with pytest.raises(KeyError):
            PreprocessingCache().get(small_grid, "warp-drive")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PreprocessingCache(capacity=0)


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache(capacity=4)
        assert cache.get("fp", (1, 2), (3,), "ch") is None
        table = _table(1, 3)
        cache.put("fp", (1, 2), (3,), "ch", table)
        assert cache.get("fp", (1, 2), (3,), "ch") is table
        assert (cache.hits, cache.misses) == (1, 1)

    def test_key_includes_engine_order_and_network(self):
        cache = ResultCache(capacity=8)
        cache.put("fp", (1, 2), (3,), "ch", _table(1, 3))
        assert cache.get("fp", (1, 2), (3,), "dijkstra") is None
        assert cache.get("fp", (2, 1), (3,), "ch") is None  # wire order matters
        assert cache.get("other", (1, 2), (3,), "ch") is None  # other network

    def test_lru_eviction(self):
        cache = ResultCache(capacity=2)
        cache.put("fp", (1,), (2,), "ch", _table(1, 2))
        cache.put("fp", (3,), (4,), "ch", _table(3, 4))
        cache.get("fp", (1,), (2,), "ch")  # refresh recency of the first
        cache.put("fp", (5,), (6,), "ch", _table(5, 6))  # evicts (3,)->(4,)
        assert cache.evictions == 1
        assert cache.get("fp", (3,), (4,), "ch") is None
        assert cache.get("fp", (1,), (2,), "ch") is not None

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("fp", (1,), (2,), "ch", _table(1, 2))
        assert len(cache) == 0
        assert cache.get("fp", (1,), (2,), "ch") is None

    def test_clear_resets_counters(self):
        cache = ResultCache(capacity=2)
        cache.put("fp", (1,), (2,), "ch", _table(1, 2))
        cache.get("fp", (1,), (2,), "ch")
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_snapshot_hit_rate(self):
        cache = ResultCache(capacity=2)
        cache.put("fp", (1,), (2,), "ch", _table(1, 2))
        cache.get("fp", (1,), (2,), "ch")
        cache.get("fp", (9,), (8,), "ch")
        snap = cache.snapshot()
        assert snap.result_hits == 1 and snap.result_misses == 1
        assert snap.result_hit_rate == pytest.approx(0.5)


class TestResultCacheFragments:
    """The encoded fragment is part of its table's entry: one LRU, one
    capacity, one way out."""

    KEY = ("fp", (1,), (2,), "ch")

    def test_hit_counts_like_get_and_a_miss_counts_nothing(self):
        cache = ResultCache(capacity=4)
        assert cache.hit(*self.KEY) is None
        assert (cache.hits, cache.misses) == (0, 0)
        table = _table(1, 2)
        cache.put(*self.KEY, table)
        got, fragment = cache.hit(*self.KEY)
        assert got is table
        assert fragment == (
            b'"paths":[[1.0,0,0,0,0,1,1]]'
        )
        assert (cache.hits, cache.misses) == (1, 0)

    def test_fragment_is_encoded_once_and_kept_in_the_entry(self, monkeypatch):
        import repro.service.cache as module

        calls = []
        real = module.encode_paths
        monkeypatch.setattr(
            module, "encode_paths", lambda p: calls.append(p) or real(p)
        )
        cache = ResultCache(capacity=4)
        table = _table(1, 2)
        cache.put(*self.KEY, table)
        first = cache.fragment(*self.KEY, table)
        assert cache.fragment(*self.KEY, table) is first
        assert cache.hit(*self.KEY)[1] is first
        assert len(calls) == 1
        assert (cache.hits, cache.misses) == (1, 0)  # fragment() counts nothing

    def test_encoding_holds_no_lock(self, monkeypatch):
        """A lane thread's encode never holds up a lookup: while the
        encoder of one key blocks, a hit on another key returns."""
        import repro.service.cache as module

        cache = ResultCache(capacity=4)
        other = _table(3, 4)
        cache.put("fp", (3,), (4,), "ch", other)
        cache.fragment("fp", (3,), (4,), "ch", other)
        table = _table(1, 2)
        cache.put(*self.KEY, table)
        entered, release = threading.Event(), threading.Event()
        real = module.encode_paths

        def blocking(paths):
            entered.set()
            assert release.wait(10)
            return real(paths)

        monkeypatch.setattr(module, "encode_paths", blocking)
        lane = threading.Thread(
            target=cache.fragment, args=(*self.KEY, table)
        )
        lane.start()
        try:
            assert entered.wait(10)
            answered = []
            reader = threading.Thread(
                target=lambda: answered.append(
                    cache.hit("fp", (3,), (4,), "ch")
                )
            )
            reader.start()
            reader.join(5)
            assert not reader.is_alive()
            assert answered[0][0] is other
            assert answered[0][1] == b'"paths":[[1.0,0,0,0,0,3,1]]'
        finally:
            release.set()
            lane.join(10)
        assert not lane.is_alive()
        # the bytes are kept once the encode finishes
        assert cache.hit(*self.KEY)[1] == b'"paths":[[1.0,0,0,0,0,1,1]]'
        assert cache._entries[self.KEY][1] is not None

    def test_bytes_of_a_replaced_table_are_not_kept(self, monkeypatch):
        """The entry changed while the encoder ran: its new table keeps
        no fragment of the old one."""
        import repro.service.cache as module

        cache = ResultCache(capacity=4)
        table, fresh = _table(1, 2), _table(1, 2)
        cache.put(*self.KEY, table)
        real = module.encode_paths

        def replacing(paths):
            cache.put(*self.KEY, fresh)
            return real(paths)

        monkeypatch.setattr(module, "encode_paths", replacing)
        cache.fragment(*self.KEY, table)
        assert cache._entries[self.KEY] == [fresh, None]

    def test_kept_bytes_always_encode_their_own_table(self):
        """Six threads replace, hit and encode two keys at once: every
        fragment handed out or kept is the encoding of the table it
        came with, never of a table that replaced it."""
        from repro.service.wire import encode_paths, table_paths

        cache = ResultCache(capacity=4)
        tables = [_table(1, 2), _table(1, 2), _table(3, 4), _table(3, 4)]
        tables[1].paths[(1, 2)] = PathResult(1, 2, (1, 9, 2), 7.0)
        tables[3].paths[(3, 4)] = PathResult(3, 4, (3, 8, 4), 5.0)
        keys = [("fp", (1,), (2,), "ch")] * 2 + [("fp", (3,), (4,), "ch")] * 2
        want = {
            id(t): encode_paths(table_paths(k[1], k[2], t))
            for k, t in zip(keys, tables)
        }
        wrong = []

        def churn(seed):
            for step in range(400):
                i = (seed + step) % 4
                if step % 3 == 0:
                    cache.put(*keys[i], tables[i])
                got = cache.hit(*keys[i])
                if got is not None and got[1] != want[id(got[0])]:
                    wrong.append(got)
                fragment = cache.fragment(*keys[i], tables[i])
                if fragment != want[id(tables[i])]:
                    wrong.append(fragment)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=churn, args=(n,)) for n in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        for entry in cache._entries.values():
            assert entry[1] in (None, want[id(entry[0])])

    def test_hit_refreshes_recency_and_fragment_does_not(self):
        cache = ResultCache(capacity=2)
        a, b = _table(1, 2), _table(3, 4)
        cache.put("fp", (1,), (2,), "ch", a)
        cache.put("fp", (3,), (4,), "ch", b)
        cache.fragment("fp", (1,), (2,), "ch", a)  # a stays the oldest
        cache.put("fp", (5,), (6,), "ch", _table(5, 6))
        assert cache.hit("fp", (1,), (2,), "ch") is None
        assert cache.hit("fp", (3,), (4,), "ch") is not None  # b refreshed
        cache.put("fp", (7,), (8,), "ch", _table(7, 8))
        assert cache.hit("fp", (3,), (4,), "ch") is not None

    def test_a_table_the_cache_does_not_hold_is_encoded_but_not_kept(self):
        cache = ResultCache(capacity=4)
        held, stranger = _table(1, 2), _table(1, 2)
        stranger.paths[(1, 2)] = PathResult(1, 2, (1, 9, 2), 7.0)
        cache.put(*self.KEY, held)
        assert b'"paths":[[7.0,' in cache.fragment(*self.KEY, stranger)
        assert b'"paths":[[1.0,' in cache.hit(*self.KEY)[1]
        disabled = ResultCache(capacity=0)
        disabled.put(*self.KEY, held)
        assert b'"paths":[[1.0,' in disabled.fragment(*self.KEY, held)
        assert len(disabled) == 0

    @pytest.mark.parametrize("how", ["evict", "invalidate", "clear", "replace"])
    def test_fragment_leaves_with_its_entry(self, how):
        cache = ResultCache(capacity=1)
        table = _table(1, 2)
        cache.put(*self.KEY, table)
        cache.fragment(*self.KEY, table)
        if how == "evict":
            cache.put("fp", (3,), (4,), "ch", _table(3, 4))
        elif how == "invalidate":
            assert cache.invalidate_fingerprint("fp") == 1
        elif how == "clear":
            cache.clear()
        if how == "replace":
            fresh = _table(1, 2)
            fresh.paths[(1, 2)] = PathResult(1, 2, (1, 9, 2), 7.0)
            cache.put(*self.KEY, fresh)
            assert b'"paths":[[7.0,' in cache.hit(*self.KEY)[1]
        else:
            assert cache.hit(*self.KEY) is None
        assert all(entry[0] is not table for entry in cache._entries.values())


class TestInvalidateFingerprint:
    def test_preprocessing_drops_all_engines_of_one_fingerprint(
        self, small_grid, tiger_net
    ):
        cache = PreprocessingCache(capacity=8)
        cache.get(small_grid, "ch")
        cache.get(small_grid, "dijkstra-csr")
        cache.get(tiger_net, "ch")
        fp = network_fingerprint(small_grid)
        assert cache.invalidate_fingerprint(fp) == 2
        assert cache.peek(fp, "ch") is None
        assert cache.peek(fp, "dijkstra-csr") is None
        # The other fingerprint's artifact survives.
        assert cache.peek(network_fingerprint(tiger_net), "ch") is not None
        # Idempotent: nothing left to drop.
        assert cache.invalidate_fingerprint(fp) == 0

    def test_result_cache_drops_only_that_fingerprint(self):
        cache = ResultCache(capacity=8)
        cache.put("old", (1,), (2,), "ch", _table(1, 2))
        cache.put("old", (3,), (4,), "ch", _table(3, 4))
        cache.put("new", (1,), (2,), "ch", _table(1, 2))
        assert cache.invalidate_fingerprint("old") == 2
        assert cache.get("old", (1,), (2,), "ch") is None
        assert cache.get("new", (1,), (2,), "ch") is not None
