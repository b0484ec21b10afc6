"""Unit and property tests for the indexed binary min-heap."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastructures import IndexedMinHeap


def _pop(heap):
    item, key = heap.peek()
    heap.remove(item)
    return item, key


def _heap_of(pairs):
    heap = IndexedMinHeap()
    for item, key in pairs:
        heap.push(item, key)
    return heap


class TestMinHeapBasics:
    def test_empty_heap_is_falsy(self):
        heap = IndexedMinHeap()
        assert not heap
        assert len(heap) == 0

    def test_peek_empty_raises(self):
        with pytest.raises(IndexError):
            IndexedMinHeap().peek()

    def test_push_pop_single(self):
        heap = IndexedMinHeap()
        heap.push("a", 1.5)
        assert heap.peek() == ("a", 1.5)
        assert heap.remove("a") == 1.5
        assert not heap

    def test_pop_order_is_sorted(self):
        heap = IndexedMinHeap()
        values = [5.0, 3.0, 8.0, 1.0, 9.0, 2.0, 7.0]
        for i, value in enumerate(values):
            heap.push(i, value)
        popped = [_pop(heap)[1] for _ in range(len(values))]
        assert popped == sorted(values)

    def test_duplicate_push_raises(self):
        heap = IndexedMinHeap()
        heap.push("a", 1.0)
        with pytest.raises(ValueError):
            heap.push("a", 2.0)

    def test_contains_and_key_of(self):
        heap = IndexedMinHeap()
        heap.push("x", 4.0)
        assert "x" in heap
        assert "y" not in heap
        assert heap.key_of("x") == 4.0

    def test_key_of_missing_raises(self):
        with pytest.raises(KeyError):
            IndexedMinHeap().key_of("missing")

    def test_equal_keys_all_popped(self):
        heap = IndexedMinHeap()
        for i in range(10):
            heap.push(i, 1.0)
        items = {_pop(heap)[0] for _ in range(10)}
        assert items == set(range(10))


class TestMinHeapKeyUpdates:
    def test_update_key_decrease_moves_to_front(self):
        heap = _heap_of([("a", 5.0), ("b", 2.0)])
        heap.update_key("a", 1.0)
        assert _pop(heap) == ("a", 1.0)

    def test_update_key_increase(self):
        heap = _heap_of([("a", 1.0), ("b", 2.0)])
        heap.update_key("a", 3.0)
        assert _pop(heap) == ("b", 2.0)
        assert _pop(heap) == ("a", 3.0)

    def test_push_or_update_inserts_then_updates(self):
        heap = IndexedMinHeap()
        heap.push_or_update("a", 5.0)
        heap.push_or_update("a", 2.0)
        assert len(heap) == 1
        assert _pop(heap) == ("a", 2.0)

    def test_remove_middle_item(self):
        heap = _heap_of((i, float(i)) for i in range(8))
        key = heap.remove(4)
        assert key == 4.0
        popped = [_pop(heap)[0] for _ in range(len(heap))]
        assert popped == [0, 1, 2, 3, 5, 6, 7]

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            IndexedMinHeap().remove("nope")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False), max_size=60))
def test_heapsort_property(values):
    heap = IndexedMinHeap()
    for i, value in enumerate(values):
        heap.push(i, value)
    heap.check_invariants()
    popped = [_pop(heap)[1] for _ in range(len(values))]
    assert popped == sorted(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["push", "pop", "update", "remove"]),
                          st.integers(0, 30),
                          st.floats(min_value=-1e6, max_value=1e6,
                                    allow_nan=False)),
                max_size=120))
def test_random_operations_match_reference(ops):
    """Drive the heap with arbitrary ops against a dict reference model."""
    heap = IndexedMinHeap()
    reference = {}
    for op, item, key in ops:
        if op == "push" and item not in reference:
            heap.push(item, key)
            reference[item] = key
        elif op == "pop" and reference:
            popped_item, popped_key = _pop(heap)
            assert popped_key == min(reference.values())
            assert reference.pop(popped_item) == popped_key
        elif op == "update" and item in reference:
            heap.update_key(item, key)
            reference[item] = key
        elif op == "remove" and item in reference:
            assert heap.remove(item) == reference.pop(item)
    heap.check_invariants()
    assert len(heap) == len(reference)
    drained = {}
    while heap:
        popped_item, popped_key = _pop(heap)
        drained[popped_item] = popped_key
    assert drained == reference


def test_large_random_stress():
    rng = random.Random(42)
    heap = IndexedMinHeap()
    reference = {}
    for step in range(3000):
        action = rng.random()
        if action < 0.5 or not reference:
            item = rng.randrange(10000)
            if item not in reference:
                key = rng.uniform(0, 1000)
                heap.push(item, key)
                reference[item] = key
        elif action < 0.75:
            popped_item, popped_key = _pop(heap)
            assert popped_key == pytest.approx(min(reference.values()))
            del reference[popped_item]
        else:
            item = rng.choice(list(reference))
            key = rng.uniform(0, 1000)
            heap.update_key(item, key)
            reference[item] = key
    heap.check_invariants()
