"""In-memory span recorder wrapped around each layer's public entry points.

The recorder lives in the benchmark, not in the program: ``install``
replaces the listed functions and methods of an already imported
``repro`` with wrappers that record one span per call (name, start,
end, parent span).  Spans are appended to flat arrays and written out
once, by ``dump``, when the process ends.  A span's self time is its
duration minus the time its child spans cover; ``summarize`` folds
the spans into per-name call counts, total and self seconds; ``noted``
sums the counts taken at span boundaries.

Wrappers keep one stack of open spans, so the process must call the
wrapped entry points from one thread at a time; the builder and the
asyncio server both do.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np


class Tracer:
    """Spans and notes of one process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: per span: work items the call handled (``size`` hook), or 0
        self.size = array("q")
        self._open: List[int] = []
        #: ``(time, key, value)`` counts taken at span boundaries (SSAD
        #: effort, build stages, flush rows, ...)
        self.notes: List[tuple] = []

    def note(self, key: str, value: float) -> None:
        self.notes.append((time.perf_counter(), key, float(value)))

    def wrap(self, name: str, function: Callable,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None,
             size: Optional[Callable] = None) -> Callable:
        """``function`` recording a ``name`` span per call.

        ``before(args)`` runs first and its value is handed to
        ``after(args, result, state)``, which runs once the call
        returned; both feed :attr:`notes`.  ``size(result)`` gives
        the span's work-item count.
        """
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        name_ids, parents, starts, ends, sizes = (
            self.name_id, self.parent, self.start, self.end, self.size)
        stack = self._open

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = before(args) if before is not None else None
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            sizes.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if size is not None:
                sizes[index] = size(result)
            if after is not None:
                after(args, result, state)
            return result

        return traced

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the spans (``.npz``) and notes (``.json``) out."""
        np.savez(
            path + ".npz",
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            size=np.frombuffer(self.size, dtype=np.int64),
        )
        with open(path + ".json", "w") as handle:
            json.dump({"notes": self.notes, **extra}, handle)


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost one span adds to a call, in seconds."""
    tracer = Tracer()

    def noop() -> None:
        return None

    traced = tracer.wrap("probe", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        tick = clock()
        for _ in range(calls):
            noop()
        bare = clock() - tick
        tick = clock()
        for _ in range(calls):
            traced()
        best = min(best, (clock() - tick - bare) / calls)
    return max(best, 0.0)


class Spans:
    """Spans read back from a :meth:`Tracer.dump`."""

    def __init__(self, path: str):
        with np.load(path + ".npz") as data:
            self.names = [str(name) for name in data["names"]]
            self.name_id = data["name_id"]
            self.parent = data["parent"]
            self.start = data["start"]
            self.end = data["end"]
            self.size = data["size"]
        with open(path + ".json") as handle:
            self.meta = json.load(handle)
        duration = self.end - self.start
        children = np.zeros_like(duration)
        nested = self.parent >= 0
        np.add.at(children, self.parent[nested], duration[nested])
        self.duration = duration
        self.self_time = duration - children

    def noted(self, key: str, windows: Optional[Sequence[tuple]] = None,
              combine=sum) -> float:
        """``combine`` (default: sum) of the ``key`` notes taken inside
        one of ``windows``, or of all of them; 0 when there are none."""
        values = [value for when, name, value in self.meta["notes"]
                  if name == key and (windows is None or any(
                      begin <= when < end for begin, end in windows))]
        return combine(values) if values else 0.0

    def summarize(self, windows: Optional[Sequence[tuple]] = None
                  ) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s``, ``self_s`` and
        ``items`` (summed sizes), counting the spans that start inside
        one of ``windows`` (``(t0, t1)`` on the shared monotonic clock)
        when they are given."""
        keep = np.full(self.start.shape, windows is None)
        for begin, end in windows or ():
            keep |= (self.start >= begin) & (self.start < end)
        size = len(self.names)
        ids = self.name_id[keep]
        calls = np.bincount(ids, minlength=size)
        total = np.bincount(ids, weights=self.duration[keep], minlength=size)
        own = np.bincount(ids, weights=self.self_time[keep], minlength=size)
        items = np.bincount(ids, weights=self.size[keep], minlength=size)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(own[i]), "items": int(items[i])}
            for i, name in enumerate(self.names)
        }


def _engine_counts(tracer: Tracer) -> Dict[str, Callable]:
    def before(args):
        engine = args[0]
        return (engine.ssad_calls, engine.settled_nodes, engine.heap_pushes)

    def after(args, result, state):
        engine = args[0]
        tracer.note("ssad_calls", engine.ssad_calls - state[0])
        tracer.note("settled_nodes", engine.settled_nodes - state[1])
        tracer.note("heap_pushes", engine.heap_pushes - state[2])

    return {"before": before, "after": after}


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the imported ``repro``.

    Names bound by ``from ... import`` in another module are patched
    in that module too, since calls there resolve the local binding.
    """
    import repro.core
    import repro.core.store as store
    import repro.serving.protocol as protocol
    import repro.serving.service as service
    import repro.terrain as terrain
    from repro.core.compiled import CompiledOracle
    from repro.core.dynamic import DynamicSEOracle
    from repro.core.oracle import SEOracle
    from repro.geodesic.engine import GeodesicEngine

    def build_stats(args, result, state):
        stats = args[0].stats
        for key in ("tree_seconds", "enhanced_seconds", "pairs_seconds",
                    "hash_seconds", "compressed_nodes", "height",
                    "enhanced_edges", "pairs_considered", "pairs_stored"):
            tracer.note("build." + key, getattr(stats, key))

    def flush_rows(args, result, state):
        tracer.note("flush.reused_rows", result.get("reused_rows", 0))
        tracer.note("flush.computed_rows", result.get("computed_rows", 0))

    def overlay_size(args, result, state):
        tracer.note("overlay_size", args[0].overlay_size)

    pack = tracer.wrap("core.pack", store.pack_oracle)
    open_ = tracer.wrap("core.open", store.open_oracle)
    for module in (store, repro.core, service):
        module.pack_oracle, module.open_oracle = pack, open_
    for name in ("make_terrain", "read_mesh", "sample_uniform"):
        setattr(terrain, name, tracer.wrap("terrain.setup",
                                          getattr(terrain, name)))
    GeodesicEngine.__init__ = tracer.wrap("geodesic.engine",
                                          GeodesicEngine.__init__)
    counts = _engine_counts(tracer)
    for name in ("distances_from_poi", "distances_from_node",
                 "multi_source_distances", "distance", "node_distance",
                 "query_many", "shortest_path"):
        setattr(GeodesicEngine, name, tracer.wrap(
            "geodesic.ssad", getattr(GeodesicEngine, name), **counts))
    SEOracle.build = tracer.wrap("core.build", SEOracle.build,
                                 after=build_stats)
    CompiledOracle.query_batch = tracer.wrap(
        "core.probe", CompiledOracle.query_batch, size=len)
    DynamicSEOracle.insert = tracer.wrap(
        "core.insert", DynamicSEOracle.insert, after=overlay_size)
    DynamicSEOracle.delete = tracer.wrap(
        "core.delete", DynamicSEOracle.delete, after=overlay_size)
    DynamicSEOracle.flush = tracer.wrap(
        "core.flush_rebuild", DynamicSEOracle.flush, after=flush_rows)
    for name, span in (("k_nearest_neighbors", "queries.knn"),
                       ("range_query", "queries.range"),
                       ("reverse_nearest_neighbors", "queries.rnn")):
        setattr(service, name, tracer.wrap(span, getattr(service, name)))
    for name, span in (("decode_line", "serving.decode"),
                       ("validate_request", "serving.validate"),
                       ("encode", "serving.encode")):
        setattr(protocol, name, tracer.wrap(span, getattr(protocol, name)))
    for name in ("query_batch", "k_nearest", "range_query",
                 "reverse_nearest", "insert_poi", "delete_poi", "flush"):
        setattr(service.OracleService, name, tracer.wrap(
            "serving." + name, getattr(service.OracleService, name)))
