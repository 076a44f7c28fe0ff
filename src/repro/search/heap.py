"""Indexed binary min-heap with decrease-key.

Dijkstra needs a priority queue that can lower the priority of an
already-enqueued node.  The standard-library ``heapq`` handles this only by
lazy deletion; an addressable heap keeps the frontier size equal to the
number of live nodes, which keeps the ``SearchStats.heap_pushes`` counter
meaningful for the cost-model experiments.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Generic, TypeVar

K = TypeVar("K", bound=Hashable)

__all__ = ["AddressableHeap"]


class AddressableHeap(Generic[K]):
    """Binary min-heap over ``(priority, key)`` with O(log n) decrease-key.

    Ties are broken by insertion order, which makes every search that uses
    the heap fully deterministic.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[float, int, K]] = []
        self._index: dict[K, int] = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._index

    def push(self, key: K, priority: float) -> None:
        """Insert ``key`` with ``priority``.

        Raises
        ------
        KeyError
            If ``key`` is already present (use :meth:`decrease_key`).
        """
        if key in self._index:
            raise KeyError(f"key already in heap: {key!r}")
        entry = (priority, self._counter, key)
        self._counter += 1
        self._entries.append(entry)
        self._index[key] = len(self._entries) - 1
        self._sift_up(len(self._entries) - 1)

    def push_or_decrease(self, key: K, priority: float) -> bool:
        """Insert ``key`` or lower its priority; return ``True`` on insert.

        If ``key`` is present with an equal or lower priority this is a
        no-op (returns ``False``).
        """
        pos = self._index.get(key)
        if pos is None:
            self.push(key, priority)
            return True
        if priority < self._entries[pos][0]:
            self.decrease_key(key, priority)
        return False

    def decrease_key(self, key: K, priority: float) -> None:
        """Lower the priority of an existing ``key``.

        Raises
        ------
        KeyError
            If ``key`` is absent.
        ValueError
            If ``priority`` is higher than the current one.
        """
        pos = self._index[key]
        current = self._entries[pos][0]
        if priority > current:
            raise ValueError(
                f"cannot increase priority of {key!r} from {current} to {priority}"
            )
        self._entries[pos] = (priority, self._entries[pos][1], key)
        self._sift_up(pos)

    def peek(self) -> tuple[K, float]:
        """Return ``(key, priority)`` of the minimum without removing it."""
        if not self._entries:
            raise IndexError("peek on empty heap")
        priority, _order, key = self._entries[0]
        return key, priority

    def pop(self) -> tuple[K, float]:
        """Remove and return ``(key, priority)`` of the minimum."""
        if not self._entries:
            raise IndexError("pop on empty heap")
        priority, _order, key = self._entries[0]
        last = self._entries.pop()
        del self._index[key]
        if self._entries:
            self._entries[0] = last
            self._index[last[2]] = 0
            self._sift_down(0)
        return key, priority

    def priority_of(self, key: K) -> float:
        """Current priority of ``key``."""
        return self._entries[self._index[key]][0]

    # ------------------------------------------------------------------
    def _sift_up(self, pos: int) -> None:
        entry = self._entries[pos]
        while pos > 0:
            parent = (pos - 1) >> 1
            if self._entries[parent] <= entry:
                break
            self._entries[pos] = self._entries[parent]
            self._index[self._entries[pos][2]] = pos
            pos = parent
        self._entries[pos] = entry
        self._index[entry[2]] = pos

    def _sift_down(self, pos: int) -> None:
        size = len(self._entries)
        entry = self._entries[pos]
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            right = child + 1
            if right < size and self._entries[right] < self._entries[child]:
                child = right
            if entry <= self._entries[child]:
                break
            self._entries[pos] = self._entries[child]
            self._index[self._entries[pos][2]] = pos
            pos = child
        self._entries[pos] = entry
        self._index[entry[2]] = pos
