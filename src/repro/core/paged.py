"""Out-of-core paged query backend: bounded resident memory.

:func:`~repro.core.store.open_oracle` hands whole-section
``numpy.memmap`` views to :class:`~repro.core.compiled.CompiledOracle`
— convenient, but a hot ``query_batch`` can touch the entire packed
pair columns, so the resident set grows with store size rather than
with the working set.  With ``max_resident_bytes`` the same queries
run against the same v4 store through a **fixed-size page pool**:

* the O(#pairs) columns — ``pair_keys``, ``pair_distances``,
  ``hash_level2_a/shift/offset``, ``hash_slots`` — are never mapped.
  Each batch probe is an element *gather*: candidate indices are
  grouped by page (``numpy.argsort`` over page ids) so every resident
  page is touched exactly once per gather, pages load with
  ``read(page_bytes)`` at the section's fixed file offset, and an LRU
  bounds how many stay resident;
* the small routing state — the ancestor-chain matrix and its derived
  key planes, the tree tables, the two level-1 hash scalars — loads
  once (O(n·h) bytes, independent of the pair count) and is accounted
  separately as ``fixed_bytes``;
* the probe **arithmetic** is byte-for-byte the compiled oracle's:
  the inner engine *is* a :class:`CompiledOracle` whose frozen pair
  table has been swapped for a paged gather layer
  (:class:`_PagedPairTable` reproduces
  :meth:`~repro.datastructures.perfect_hash.PerfectHashMap.get_batch`
  exactly, element accesses routed through the pool).  Because paging
  only changes *where* an element's bytes come from — never which
  element is read — results are bit-identical to the mmap'd
  ``CompiledOracle`` at any pool bound, down to a single page.

:class:`PagedOracle` serves a monolithic store this way.  A tiled
store (:mod:`~repro.core.tiled`) pages every tile's columns through
**one shared pool** keyed ``(tiles/NNNN/<section>, page)`` — the pool
is the only residency mechanism inside a store.

The ledger (:meth:`_PagePool.ledger`): page ``loads`` / ``evictions``
/ ``hits`` reconcile as ``loads - evictions == resident_pages``, and
``resident_bytes`` / ``peak_resident_bytes`` never exceed the
configured pool budget.  ``benchmarks/bench_paged.py`` and
``benchmarks/bench_tiled.py`` gate both the equivalence and the
memory ceiling in CI.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

from .compiled import CompiledOracle
from .store import PathLike, file_signature, section_layouts

__all__ = ["PagedOracle", "DEFAULT_PAGE_BYTES", "PAGED_SECTIONS",
           "page_ledger"]

#: Default page size: 64 KiB — large enough that sequential gathers
#: amortise the seek, small enough that tiny pool budgets still hold
#: several pages.
DEFAULT_PAGE_BYTES = 64 * 1024

#: The store sections that page through the pool — exactly the
#: O(#pairs) columns ``PerfectHashMap.get_batch`` probes.  Everything
#: else is O(n·h) routing state and loads once at open.
PAGED_SECTIONS = ("pair_keys", "pair_distances", "hash_level2_a",
                  "hash_level2_shift", "hash_level2_offset",
                  "hash_slots")

_RESIDENT_SECTIONS = ("tree_table", "tree_radii", "chains",
                      "hash_level1")

Layouts = Dict[str, Tuple[int, np.dtype, Tuple[int, ...]]]


def pool_shape(max_resident_bytes: Optional[int] = None,
               page_bytes: Optional[int] = None,
               max_pages: Optional[int] = None) -> Tuple[int, int]:
    """``(page_bytes, max_pages)`` for a byte budget or explicit shape.

    The one rule turning ``max_resident_bytes`` into a pool: split the
    budget into at least 8 pages of at most :data:`DEFAULT_PAGE_BYTES`
    each.  No budget and no shape means default pages, unbounded.
    """
    if page_bytes is None:
        if max_resident_bytes is not None:
            if max_resident_bytes < 8:
                raise ValueError(
                    "max_resident_bytes must be at least 8 "
                    "(one 8-byte element)")
            # Split the budget into at least 8 pages: one probe
            # round gathers from all six paged sections, so a pool
            # with fewer pages than sections evicts *within* every
            # round and can never hit.
            page_bytes = max(8, min(DEFAULT_PAGE_BYTES,
                                    max_resident_bytes // 8 // 8 * 8))
        else:
            page_bytes = DEFAULT_PAGE_BYTES
    if max_pages is None:
        if max_resident_bytes is not None:
            max_pages = max(1, max_resident_bytes // page_bytes)
        else:
            max_pages = 1 << 30  # effectively unbounded
    return page_bytes, max_pages


def page_ledger(index) -> Optional[Dict[str, Any]]:
    """``index``'s page-pool ledger, or ``None`` when it is unpaged
    (no ``page_counters``, or a tiled store mapped whole)."""
    counters = getattr(index, "page_counters", None)
    return counters() if counters is not None else None


class _PagePool:
    """LRU pool of fixed-size pages over a store file's flat sections.

    One pool serves every section in ``sections`` (full store names,
    e.g. ``pair_keys`` or ``tiles/0003/pair_keys``); the page key is
    ``(section, page_number)``.  ``gather`` is the only read path:
    element indices are sorted by page id so each distinct page is
    located (and, on a miss, loaded) exactly once per call, whatever
    order the probe produced the indices in.
    """

    def __init__(self, path: PathLike, layouts: Layouts,
                 sections: Iterable[str], page_bytes: int,
                 max_pages: int):
        if page_bytes < 8 or page_bytes % 8:
            raise ValueError("page_bytes must be a positive multiple "
                             "of 8 (all paged sections are 8-byte "
                             "elements)")
        if max_pages < 1:
            raise ValueError("page pool needs at least one page")
        self.page_bytes = int(page_bytes)
        self.max_pages = int(max_pages)
        self._handle = open(path, "rb")
        self._geometry: Dict[str, Tuple[int, np.dtype, int, int]] = {}
        for name in sections:
            offset, dtype, shape = layouts[name]
            total = int(np.prod(shape, dtype=np.int64)) if shape else 1
            per_page = max(1, self.page_bytes // dtype.itemsize)
            self._geometry[name] = (offset, dtype, total, per_page)
        self._pages: "OrderedDict[Tuple[str, int], np.ndarray]" = \
            OrderedDict()
        self._lock = threading.RLock()
        self.loads = 0
        self.evictions = 0
        self.hits = 0
        self.resident_bytes = 0
        self.peak_resident_bytes = 0

    def close(self) -> None:
        with self._lock:
            self._pages.clear()
            self.resident_bytes = 0
            if not self._handle.closed:
                self._handle.close()

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def ledger(self, fixed_bytes: int) -> Dict[str, Any]:
        """The paging ledger: ``loads - evictions == resident_pages``,
        ``peak_resident_bytes <= page_bytes * max_pages`` always.
        ``fixed_bytes`` is the caller's never-paged routing state."""
        with self._lock:
            return {
                "page_bytes": self.page_bytes,
                "max_pages": self.max_pages,
                "budget_bytes": self.page_bytes * self.max_pages,
                "loads": self.loads,
                "evictions": self.evictions,
                "hits": self.hits,
                "resident_pages": self.resident_pages,
                "resident_bytes": self.resident_bytes,
                "peak_resident_bytes": self.peak_resident_bytes,
                "fixed_bytes": fixed_bytes,
            }

    def gather(self, section: str, indices: np.ndarray) -> np.ndarray:
        """``section_array[indices]`` with page-grouped access.

        ``indices`` must be in-range element indices (any integer
        dtype).  The result dtype is the section's; the element order
        matches ``indices`` — only the *access* order is grouped, so
        the gather is value-equal to a fancy-index on the full array.
        """
        flat = np.ascontiguousarray(indices, dtype=np.int64)
        offset, dtype, total, per_page = self._geometry[section]
        out = np.empty(flat.shape[0], dtype=dtype)
        if flat.shape[0] == 0:
            return out
        page_ids = flat // per_page
        order = np.argsort(page_ids, kind="stable")
        sorted_ids = page_ids[order]
        cuts = np.flatnonzero(np.diff(sorted_ids)) + 1
        with self._lock:
            for group in np.split(order, cuts):
                page_no = int(page_ids[group[0]])
                page = self._page(section, page_no)
                out[group] = page[flat[group] - page_no * per_page]
        return out

    def _page(self, section: str, page_no: int) -> np.ndarray:
        key = (section, page_no)
        page = self._pages.get(key)
        if page is not None:
            self._pages.move_to_end(key)
            self.hits += 1
            return page
        offset, dtype, total, per_page = self._geometry[section]
        start = page_no * per_page
        count = min(per_page, total - start)
        self._handle.seek(offset + start * dtype.itemsize)
        raw = self._handle.read(count * dtype.itemsize)
        if len(raw) != count * dtype.itemsize:  # pragma: no cover
            raise ValueError(
                f"short read paging {section} page {page_no}")
        page = np.frombuffer(raw, dtype=dtype)
        while len(self._pages) >= self.max_pages:
            _, evicted = self._pages.popitem(last=False)
            self.resident_bytes -= evicted.nbytes
            self.evictions += 1
        self._pages[key] = page
        self.resident_bytes += page.nbytes
        self.peak_resident_bytes = max(self.peak_resident_bytes,
                                       self.resident_bytes)
        self.loads += 1
        return page


class _PagedPairTable:
    """Frozen-pair-table stand-in whose element reads page on demand.

    Reproduces :meth:`PerfectHashMap.get_batch` operation for
    operation — same dtypes, same multiply-shift arithmetic, same
    guarded-miss handling — with each table access routed through
    :meth:`_PagePool.gather`.  ``CompiledOracle`` only ever calls
    ``get_batch`` and ``_freeze`` on its pair table, so this duck-type
    is a complete drop-in.  ``prefix`` names the table's sections in
    the pool (``""`` for a monolithic store, ``tiles/NNNN/`` for a
    tile); the names are resolved once here, not per probe.
    """

    def __init__(self, pool: _PagePool, level1: np.ndarray,
                 num_pairs: int, prefix: str = ""):
        self._pool = pool
        self._level1_a = np.uint64(level1[0])
        self._level1_shift = np.uint64(level1[1])
        self._n = int(num_pairs)
        (self._keys, self._distances, self._level2_a,
         self._level2_shift, self._level2_offset,
         self._slots) = (prefix + name for name in PAGED_SECTIONS)

    def _freeze(self) -> None:
        """No-op: the tables are already frozen on disk."""

    def get_batch(self, keys, default: float = float("nan")
                  ) -> np.ndarray:
        key_array = np.asarray(keys, dtype=np.uint64)
        if self._n == 0:
            return np.full(key_array.shape, default, dtype=np.float64)
        flat = np.ascontiguousarray(key_array).reshape(-1)
        bucket = ((self._level1_a * flat)
                  >> self._level1_shift).astype(np.int64)
        a = self._pool.gather(self._level2_a, bucket)
        shift = self._pool.gather(self._level2_shift, bucket)
        offset = self._pool.gather(self._level2_offset, bucket)
        slot = ((a * flat) >> shift).astype(np.int64)
        index = self._pool.gather(self._slots, offset + slot)
        guarded = np.where(index >= 0, index, 0)
        found = ((index >= 0)
                 & (self._pool.gather(self._keys, guarded) == flat))
        result = np.where(found,
                          self._pool.gather(self._distances, guarded),
                          np.float64(default))
        return result.reshape(key_array.shape)

    def size_bytes(self, value_bytes: int = 8) -> int:
        """Same byte model as the frozen hash (on-disk columns)."""
        _, _, slots, _ = self._pool._geometry[self._slots]
        return 8 * slots + (8 + value_bytes) * self._n


def _read_section(handle, layout: Tuple[int, np.dtype, Tuple[int, ...]]
                  ) -> np.ndarray:
    offset, dtype, shape = layout
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    handle.seek(offset)
    raw = handle.read(count * dtype.itemsize)
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def paged_compiled(pool: _PagePool, handle, layouts: Layouts,
                   epsilon: float, prefix: str = ""
                   ) -> Tuple[CompiledOracle, int]:
    """A :class:`CompiledOracle` whose pair table pages through
    ``pool``, plus its fixed resident bytes.

    The chains and the level-1 hash scalars load once from the
    sections under ``prefix``; the fixed bytes are the chains plus
    the four derived key planes (5 × n·(h+1) × 8) and level 1.
    """
    chains = _read_section(handle, layouts[prefix + "chains"])
    level1 = _read_section(handle, layouts[prefix + "hash_level1"])
    num_pairs = int(layouts[prefix + "pair_keys"][2][0])
    table = _PagedPairTable(pool, level1, num_pairs, prefix)
    return (CompiledOracle(chains, table, epsilon),
            5 * chains.nbytes + level1.nbytes)


class PagedOracle:
    """A v4 store served through a bounded page pool.

    Implements ``DistanceIndex`` (``query`` / ``query_batch`` /
    ``query_matrix``) with the resident footprint of the pair/hash
    columns capped at ``max_resident_bytes`` (or an explicit
    ``page_bytes`` × ``max_pages`` pool shape).  Bit-identical to the
    mmap'd :class:`~repro.core.compiled.CompiledOracle` at any bound.

    Thread-safe: the pool serialises gathers behind an ``RLock``, so
    concurrent service workers share one pool.
    """

    def __init__(self, path: PathLike, *,
                 max_resident_bytes: Optional[int] = None,
                 page_bytes: Optional[int] = None,
                 max_pages: Optional[int] = None):
        started = time.perf_counter()
        page_bytes, max_pages = pool_shape(max_resident_bytes,
                                           page_bytes, max_pages)
        self.path = os.fspath(path)
        self.stat_signature = file_signature(path)
        meta, layouts = section_layouts(path)
        if "tiles" in meta:
            raise ValueError(
                f"{path}: tiled store; open it with open_oracle(path, "
                "max_resident_bytes=...) to page its tiles")
        missing = [name for name in (*_RESIDENT_SECTIONS,
                                     *PAGED_SECTIONS)
                   if name not in layouts]
        if missing:
            raise ValueError(
                f"{path}: store is missing sections {missing}")
        self.epsilon = meta["epsilon"]
        self.strategy = meta["strategy"]
        self.method = meta["method"]
        self.seed = meta["seed"]
        self.fingerprint = meta["fingerprint"]
        self.build: Dict[str, Any] = meta.get("build", {})
        self.stats: Dict[str, Any] = dict(meta.get("stats", {}))
        self.tree_meta: Dict[str, Any] = meta["tree"]
        self._num_pairs = int(layouts["pair_keys"][2][0])

        self._pool = _PagePool(path, layouts, PAGED_SECTIONS,
                               page_bytes, max_pages)
        with open(path, "rb") as handle:
            self.compiled, fixed_bytes = paged_compiled(
                self._pool, handle, layouts, self.epsilon)
            self._tree_table = _read_section(handle,
                                             layouts["tree_table"])
            self._tree_radii = _read_section(handle,
                                             layouts["tree_radii"])
        # Fixed resident state: the compiled routing planes plus the
        # tree tables.  Reported in the ledger so "bounded" is an
        # auditable claim, not a slogan.
        self.fixed_bytes = (fixed_bytes + self._tree_table.nbytes
                            + self._tree_radii.nbytes)
        self.load_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # DistanceIndex protocol
    # ------------------------------------------------------------------
    @property
    def num_pois(self) -> int:
        return self.compiled.num_pois

    @property
    def num_pairs(self) -> int:
        return self._num_pairs

    @property
    def height(self) -> int:
        return self.compiled.height

    @property
    def supports_updates(self) -> bool:
        return False

    @property
    def is_compiled(self) -> bool:
        return True

    def query(self, source: int, target: int) -> float:
        return self.compiled.query(source, target)

    def query_batch(self, sources, targets) -> np.ndarray:
        return self.compiled.query_batch(sources, targets)

    def query_matrix(self, pois=None) -> np.ndarray:
        return self.compiled.query_matrix(pois)

    # ------------------------------------------------------------------
    # ledger
    # ------------------------------------------------------------------
    def page_counters(self) -> Dict[str, Any]:
        """The pool's ledger (see :meth:`_PagePool.ledger`)."""
        return self._pool.ledger(self.fixed_bytes)

    # ------------------------------------------------------------------
    # store plumbing (same surface the service uses on StoredOracle)
    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """The store's on-disk footprint."""
        return os.path.getsize(self.path)

    def is_stale(self) -> bool:
        """True when the file on disk is a newer generation than the
        one this pool pages from (see ``StoredOracle.is_stale``)."""
        if self.stat_signature is None:
            return False
        current = file_signature(self.path)
        return current is not None and current != self.stat_signature

    def check_fingerprint(self, engine) -> None:
        from .serialize import workload_fingerprint
        if self.fingerprint != workload_fingerprint(engine):
            raise ValueError(
                f"{self.path}: oracle was built for a different "
                "workload (terrain / POIs / Steiner density mismatch)")

    def close(self) -> None:
        self._pool.close()
