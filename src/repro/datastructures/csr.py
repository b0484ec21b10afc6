"""Flat CSR (compressed sparse row) graph core with a dynamic overlay.

``CSRGraph`` is the adjacency substrate every shortest-path search in
this repository runs on.  It has two sections:

* a **frozen static section** — the mesh vertices and Steiner points
  (and, after :meth:`~repro.geodesic.graph.GeodesicGraph.attach_pois`
  refreezes, the POI sites too) stored as three parallel NumPy arrays:
  ``indptr`` (``int64``), ``indices`` (``int32``) and ``weights``
  (``float64``), the classic CSR layout;
* a small **dynamic overlay** for sites attached after the freeze
  (transient A2A query points, dynamic-oracle inserts).  Overlay nodes
  keep per-node adjacency lists; edges *back* from static nodes into
  the overlay live in a side table consulted only when the overlay is
  non-empty.

The NumPy arrays are the canonical storage: the SciPy-backed fast path
of the Dijkstra kernel hands them to ``scipy.sparse.csgraph`` wholesale
(see :meth:`scipy_matrix`, which appends the overlay when there is
one), and the exact ``frontier_min`` reconstruction gathers over the
searched matrix vectorised.  The *pure-Python* kernel (targets /
single-target / parents modes, or no SciPy) instead
iterates prebuilt per-node ``(neighbor, weight)`` tuple rows — CPython
pays ~5x for boxed elementwise NumPy access, so the hot loop reads
:meth:`kernel_view`'s list form.  Both views are frozen from the same
data.

The graph also owns a pool of :class:`DijkstraScratch` buffers —
preallocated distance / parent / label arrays the search kernel reuses
across calls instead of allocating per-call dicts.  Generation
stamping makes clearing them O(1): a slot is valid only when its stamp
equals the current generation, so "resetting" is one counter increment.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["CSRGraph", "DijkstraScratch"]

Row = List[Tuple[int, float]]


class DijkstraScratch:
    """Reusable per-search buffers, generation-stamped for O(1) reset.

    ``dist[v]`` / ``parent[v]`` are meaningful only when
    ``label[v] == gen``; the bidirectional kernel additionally marks
    settledness in ``settled``.  A new search calls
    :meth:`next_generation` instead of clearing.  The buffers are plain
    Python lists: the kernel reads and writes them elementwise millions
    of times, where list access beats both dict hashing and boxed NumPy
    scalar access.
    """

    __slots__ = ("dist", "parent", "label", "settled", "gen", "capacity")

    def __init__(self, capacity: int):
        self.capacity = max(capacity, 1)
        self.dist: List[float] = [0.0] * self.capacity
        self.parent: List[int] = [-1] * self.capacity
        self.label: List[int] = [0] * self.capacity
        self.settled: List[int] = [0] * self.capacity
        self.gen = 0

    def ensure(self, capacity: int) -> None:
        if capacity > self.capacity:
            grow = capacity - self.capacity
            self.dist.extend([0.0] * grow)
            self.parent.extend([-1] * grow)
            self.label.extend([0] * grow)
            self.settled.extend([0] * grow)
            self.capacity = capacity

    def next_generation(self) -> int:
        self.gen += 1
        return self.gen


class CSRGraph:
    """Undirected weighted graph: frozen CSR arrays + dynamic overlay.

    Build one with :meth:`from_lists`; the list-of-lists adjacency is
    frozen into the static section.  Later nodes enter through
    :meth:`attach_node` (overlay) and leave LIFO via
    :meth:`detach_last`.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        if self.indptr.ndim != 1 or len(self.indptr) == 0:
            raise ValueError("indptr must be a non-empty 1-D array")
        if len(self.indices) != len(self.weights):
            raise ValueError("indices and weights must be parallel")
        if int(self.indptr[-1]) != len(self.indices):
            raise ValueError("indptr[-1] must equal the entry count")
        # Per-node (neighbor, weight) rows for the pure-Python kernel,
        # materialised lazily: graphs that only ever take the SciPy
        # fast path never pay the O(E) tuple build.
        self._rows: Optional[List[Row]] = None
        # Dynamic overlay (nodes with id >= num_static).
        self._ov_rows: List[Row] = []
        # Static node -> edges into the overlay.
        self._extra: Dict[int, Row] = {}
        self._scratch_pool: List[DijkstraScratch] = []
        # SciPy matrices: the static section (kept for the graph's
        # lifetime) and static + overlay (dropped on every overlay
        # mutation).
        self._static_matrix = None
        self._overlay_matrix = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_lists(cls, neighbors: Iterable[Iterable[int]],
                   weights: Iterable[Iterable[float]]) -> "CSRGraph":
        """Freeze a ``(neighbors, weights)`` list-of-lists adjacency."""
        neighbors = list(neighbors)
        weights = list(weights)
        if len(neighbors) != len(weights):
            raise ValueError("neighbors and weights must be parallel")
        indptr = np.zeros(len(neighbors) + 1, dtype=np.int64)
        for node, row in enumerate(neighbors):
            indptr[node + 1] = indptr[node] + len(row)
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int32)
        flat_weights = np.empty(total, dtype=np.float64)
        cursor = 0
        for row, row_weights in zip(neighbors, weights):
            step = len(row)
            indices[cursor:cursor + step] = row
            flat_weights[cursor:cursor + step] = row_weights
            cursor += step
        return cls(indptr, indices, flat_weights)

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def num_static(self) -> int:
        """Nodes in the frozen section (ids below this are static)."""
        return len(self.indptr) - 1

    @property
    def num_overlay(self) -> int:
        return len(self._ov_rows)

    @property
    def num_nodes(self) -> int:
        return self.num_static + len(self._ov_rows)

    @property
    def num_entries(self) -> int:
        """Directed adjacency entries (static + overlay, both ways)."""
        overlay = sum(len(row) for row in self._ov_rows)
        extra = sum(len(row) for row in self._extra.values())
        return len(self.indices) + overlay + extra

    # ------------------------------------------------------------------
    # overlay mutation
    # ------------------------------------------------------------------
    def attach_node(self, neighbors: Iterable[int],
                    weights: Iterable[float]) -> int:
        """Append an overlay node with the given (undirected) edges."""
        node = self.num_nodes
        row: Row = [(int(v), float(w)) for v, w in zip(neighbors, weights)]
        self._overlay_matrix = None
        static_n = self.num_static
        self._ov_rows.append(row)
        for other, weight in row:
            if other < static_n:
                self._extra.setdefault(other, []).append((node, weight))
            else:
                self._ov_rows[other - static_n].append((node, weight))
        return node

    def detach_last(self) -> None:
        """Remove the most recently attached overlay node."""
        if not self._ov_rows:
            raise ValueError("no overlay nodes to detach")
        node = self.num_nodes - 1
        static_n = self.num_static
        row = self._ov_rows.pop()
        self._overlay_matrix = None
        for other, _ in row:
            if other < static_n:
                back = self._extra[other]
            else:
                back = self._ov_rows[other - static_n]
            for position, (neighbor, _) in enumerate(back):
                if neighbor == node:
                    back.pop(position)
                    break
            if other < static_n and not back:
                del self._extra[other]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> Tuple[List[int], List[float]]:
        """``(neighbors, weights)`` of one node (fresh lists)."""
        static_n = self.num_static
        if node >= static_n:
            row = self._ov_rows[node - static_n]
        else:
            row = self._static_rows()[node] + self._extra.get(node, [])
        return [v for v, _ in row], [w for _, w in row]

    def _static_rows(self) -> List[Row]:
        if self._rows is None:
            indices_l = self.indices.tolist()
            weights_l = self.weights.tolist()
            indptr_l = self.indptr.tolist()
            self._rows = [
                list(zip(indices_l[indptr_l[i]:indptr_l[i + 1]],
                         weights_l[indptr_l[i]:indptr_l[i + 1]]))
                for i in range(len(indptr_l) - 1)
            ]
        return self._rows

    def kernel_view(self):
        """The pieces the pure-Python search kernel iterates.

        Returns ``(rows, static_n, overlay_rows, extra)`` where every
        row is a list of ``(neighbor, weight)`` tuples and ``extra``
        maps static node ids to their overlay back-edges.
        """
        return (self._static_rows(), self.num_static, self._ov_rows,
                self._extra)

    def scipy_matrix(self):
        """The whole graph as a cached ``scipy.sparse.csr_matrix``.

        Returns ``None`` when SciPy is unavailable.  With an empty
        overlay this is the static section, built once.  Otherwise
        each static row is followed by its overlay back-edges and the
        overlay rows come last; that matrix is cached until the next
        :meth:`attach_node` / :meth:`detach_last`.  The
        ``(data, indices, indptr)`` construction keeps every entry as
        given — explicit zero weights survive (``csgraph.dijkstra``
        honours them as zero-length edges, pinned by an equivalence
        test) and nothing is summed.
        """
        try:
            from scipy.sparse import csr_matrix
        except ImportError:  # pragma: no cover - scipy is optional
            return None
        if not self._ov_rows:
            if self._static_matrix is None:
                n = self.num_static
                self._static_matrix = csr_matrix(
                    (self.weights, self.indices, self.indptr), shape=(n, n))
            return self._static_matrix
        if self._overlay_matrix is None:
            self._overlay_matrix = csr_matrix(self._overlay_arrays(),
                                              shape=(self.num_nodes,) * 2)
        return self._overlay_matrix

    def _overlay_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(data, indices, indptr)`` of the static + overlay graph."""
        static_n = self.num_static
        counts = np.diff(self.indptr)
        extra_counts = np.zeros(static_n, dtype=np.int64)
        for node, row in self._extra.items():
            extra_counts[node] = len(row)
        overlay_counts = [len(row) for row in self._ov_rows]
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.concatenate([counts + extra_counts, overlay_counts]),
                  out=indptr[1:])
        total = int(indptr[-1])
        indices = np.empty(total, dtype=np.int32)
        data = np.empty(total, dtype=np.float64)
        # Static entries keep their order at the head of each row.
        shift = np.repeat(indptr[:static_n] - self.indptr[:-1], counts)
        positions = shift + np.arange(len(self.indices), dtype=np.int64)
        indices[positions] = self.indices
        data[positions] = self.weights
        tails = [(int(indptr[node] + counts[node]), row)
                 for node, row in self._extra.items()]
        tails += [(int(indptr[static_n + k]), row)
                  for k, row in enumerate(self._ov_rows)]
        for start, row in tails:
            for offset, (neighbor, weight) in enumerate(row):
                indices[start + offset] = neighbor
                data[start + offset] = weight
        return data, indices, indptr

    # ------------------------------------------------------------------
    # scratch pool
    # ------------------------------------------------------------------
    def acquire_scratch(self) -> DijkstraScratch:
        """Borrow a scratch buffer sized for the current node count."""
        if self._scratch_pool:
            scratch = self._scratch_pool.pop()
        else:
            scratch = DijkstraScratch(self.num_nodes)
        scratch.ensure(self.num_nodes)
        return scratch

    def release_scratch(self, scratch: DijkstraScratch) -> None:
        """Return a borrowed scratch buffer to the pool."""
        self._scratch_pool.append(scratch)
