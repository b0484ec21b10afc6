"""Data-structure substrates used by the SE oracle construction.

* :class:`~repro.datastructures.binheap.IndexedMinHeap` — a priority
  queue with key updates (the greedy selection's cell heap);
* :class:`~repro.datastructures.perfect_hash.PerfectHashMap` — FKS
  two-level perfect hashing for node-pair and enhanced-edge lookup;
* :class:`~repro.datastructures.csr.CSRGraph` — the flat NumPy-backed
  adjacency substrate (frozen CSR core + dynamic site overlay) every
  shortest-path search runs on.
"""

from .binheap import IndexedMinHeap
from .csr import CSRGraph, DijkstraScratch
from .perfect_hash import PerfectHashMap, pack_pair, unpack_pair

__all__ = [
    "CSRGraph",
    "DijkstraScratch",
    "IndexedMinHeap",
    "PerfectHashMap",
    "pack_pair",
    "unpack_pair",
]
