"""Indexed binary min-heap with key updates in either direction.

The greedy point-selection strategy (Implementation Detail 1, Section
3.2) keeps its non-empty grid cells in this heap, keyed by the negated
number of uncovered POIs in the cell, and raises a cell's key every
time one of its points is covered.  (The SSAD searches do not use it:
they run on ``heapq`` or SciPy, see :mod:`repro.geodesic.dijkstra`.)

Among equally keyed items the one surfaced by :meth:`IndexedMinHeap.
peek` depends on the heap's swap history, and the greedy partition
tree inherits that tie order — so this stays a hand-rolled indexed
heap rather than ``heapq`` with lazy deletion.  Items may be any
hashable objects; each item appears at most once.
"""

from __future__ import annotations

from typing import Hashable, Tuple

__all__ = ["IndexedMinHeap"]


class IndexedMinHeap:
    """An array-backed binary min-heap with O(log n) key updates.

    The heap maps hashable *items* to float *keys*.  Unlike ``heapq`` it
    supports changing the key of, or removing, an item already in the
    heap, which the greedy grid requires.

    Example
    -------
    >>> heap = IndexedMinHeap()
    >>> heap.push("a", 3.0)
    >>> heap.push("b", 1.0)
    >>> heap.update_key("a", 0.5)
    >>> heap.peek()
    ('a', 0.5)
    """

    def __init__(self) -> None:
        self._keys: list[float] = []
        self._items: list[Hashable] = []
        self._pos: dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._pos

    def key_of(self, item: Hashable) -> float:
        """Return the current key of ``item``; raises ``KeyError`` if absent."""
        return self._keys[self._pos[item]]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def push(self, item: Hashable, key: float) -> None:
        """Insert a new item.  Raises ``ValueError`` on duplicates."""
        if item in self._pos:
            raise ValueError(f"item already in heap: {item!r}")
        self._items.append(item)
        self._keys.append(key)
        self._pos[item] = len(self._items) - 1
        self._sift_up(len(self._items) - 1)

    def push_or_update(self, item: Hashable, key: float) -> None:
        """Insert ``item`` or update its key (either direction)."""
        if item in self._pos:
            self.update_key(item, key)
        else:
            self.push(item, key)

    def peek(self) -> Tuple[Hashable, float]:
        """Return the minimum ``(item, key)`` pair without removing it."""
        if not self._items:
            raise IndexError("peek from empty heap")
        return self._items[0], self._keys[0]

    def remove(self, item: Hashable) -> float:
        """Remove an arbitrary item; returns its key."""
        index = self._pos[item]
        key = self._keys[index]
        self._remove_at(index)
        return key

    def update_key(self, item: Hashable, key: float) -> None:
        """Set the key of ``item`` to any value, restoring heap order."""
        index = self._pos[item]
        old = self._keys[index]
        self._keys[index] = key
        if key < old:
            self._sift_up(index)
        elif key > old:
            self._sift_down(index)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _remove_at(self, index: int) -> None:
        last = len(self._items) - 1
        item = self._items[index]
        if index != last:
            self._swap(index, last)
        self._items.pop()
        self._keys.pop()
        del self._pos[item]
        if index < len(self._items):
            self._sift_down(index)
            self._sift_up(index)

    def _swap(self, i: int, j: int) -> None:
        self._items[i], self._items[j] = self._items[j], self._items[i]
        self._keys[i], self._keys[j] = self._keys[j], self._keys[i]
        self._pos[self._items[i]] = i
        self._pos[self._items[j]] = j

    def _sift_up(self, index: int) -> None:
        while index > 0:
            parent = (index - 1) >> 1
            if self._keys[index] < self._keys[parent]:
                self._swap(index, parent)
                index = parent
            else:
                break

    def _sift_down(self, index: int) -> None:
        size = len(self._items)
        while True:
            left = 2 * index + 1
            right = left + 1
            smallest = index
            if left < size and self._keys[left] < self._keys[smallest]:
                smallest = left
            if right < size and self._keys[right] < self._keys[smallest]:
                smallest = right
            if smallest == index:
                break
            self._swap(index, smallest)
            index = smallest

    def check_invariants(self) -> None:
        """Assert the heap property and index consistency (for tests)."""
        size = len(self._items)
        assert len(self._keys) == size
        assert len(self._pos) == size
        for index in range(1, size):
            parent = (index - 1) >> 1
            assert self._keys[parent] <= self._keys[index], (
                f"heap order violated at {index}"
            )
        for item, index in self._pos.items():
            assert self._items[index] == item, "position map out of sync"
