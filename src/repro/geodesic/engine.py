"""High-level geodesic engine: the SSAD service used by the oracle.

``GeodesicEngine`` binds a terrain mesh, a Steiner density and a POI
set into one object exposing exactly the operations the paper's
algorithms need:

* :meth:`distances_from_poi` — the two SSAD variants (cover-all /
  radius-bounded) returning geodesic distances *to POIs*;
* :meth:`distances_many` / :meth:`query_many` — batched forms of the
  above: many sources per call (build-time SSAD sweeps), or many
  point-to-point queries grouped so each distinct source runs one
  multi-target search instead of one search per pair;
* :meth:`multi_source_distances` — a single search seeded from several
  nodes at once (nearest-site style workloads);
* :meth:`distance` — a single P2P geodesic distance (ground truth for
  error measurement, and the naive construction's workhorse);
* :meth:`shortest_path` — path reconstruction for examples;
* transient attachment of arbitrary surface points (A2A queries);
* :meth:`snapshot` / :meth:`from_snapshot` — a picklable frozen-CSR
  image of the engine and its rehydration, the mechanism by which the
  parallel build executor (:mod:`repro.core.parallel`) ships the SSAD
  service to worker processes exactly once.

All searches run on the graph's frozen CSR core (the POI set is frozen
into it at construction); see :mod:`repro.geodesic.graph`.  The engine
also counts SSAD invocations, settled nodes and heap pushes, which the
benchmark harness reports as construction-effort metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..datastructures.csr import CSRGraph
from ..terrain.mesh import TriangleMesh
from ..terrain.poi import POISet
from .dijkstra import DijkstraResult, TargetRow, dijkstra, target_distances
from .graph import GeodesicGraph

__all__ = ["GeodesicEngine", "EngineSnapshot"]


@dataclass(frozen=True)
class EngineSnapshot:
    """Picklable frozen-CSR image of a :class:`GeodesicEngine`.

    Carries exactly what the SSAD surface needs — the static CSR
    arrays and the POI -> node mapping — and nothing mesh-shaped, so
    shipping one to a worker process costs a few array pickles instead
    of a terrain rebuild.  Rehydrate with
    :meth:`GeodesicEngine.from_snapshot`.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    poi_nodes: Tuple[int, ...]
    points_per_edge: int

    def rehydrate(self) -> "GeodesicEngine":
        """Shorthand for :meth:`GeodesicEngine.from_snapshot`."""
        return GeodesicEngine.from_snapshot(self)


class _FrozenGraphView:
    """Minimal stand-in for :class:`GeodesicGraph` in worker processes.

    Exposes the two attributes the engine's SSAD surface reads — the
    CSR core and the Steiner density — and nothing geometric; workers
    never reconstruct paths or attach surface points.
    """

    __slots__ = ("csr", "points_per_edge")

    def __init__(self, csr: CSRGraph, points_per_edge: int):
        self.csr = csr
        self.points_per_edge = points_per_edge


def _single_target_distance(result: DijkstraResult, target: int) -> float:
    """Read a single-target search's answer without building the dict.

    The kernel stops immediately after settling ``single_target``, so
    when the target was reached it is the last settled node; otherwise
    the component drained without it.
    """
    ids = result.settled_ids
    if ids and ids[-1] == target:
        return result.settled_dists[-1]
    return math.inf


class GeodesicEngine:
    """Geodesic distance service over a terrain and its POI set.

    Parameters
    ----------
    mesh:
        Terrain surface.
    pois:
        The POI set ``P``; may be empty for pure vertex workloads.
    points_per_edge:
        Steiner density of the underlying graph (0 = vertex graph).
    """

    def __init__(self, mesh: TriangleMesh, pois: POISet,
                 points_per_edge: int = 2, weight_fn=None):
        self._mesh = mesh
        self._pois = pois
        self._graph = GeodesicGraph(mesh, points_per_edge,
                                    weight_fn=weight_fn)
        self._poi_nodes: List[int] = self._graph.attach_pois(pois)
        self._index_poi_nodes()
        self.ssad_calls = 0
        self.settled_nodes = 0
        self.heap_pushes = 0

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def mesh(self) -> TriangleMesh:
        return self._mesh

    @property
    def pois(self) -> POISet:
        return self._pois

    @property
    def graph(self) -> GeodesicGraph:
        return self._graph

    @property
    def num_pois(self) -> int:
        # Counted on the node mapping, not the POISet: rehydrated
        # worker engines carry no POISet (see :meth:`from_snapshot`).
        return len(self._poi_nodes)

    def poi_node(self, poi_index: int) -> int:
        """Graph node id hosting POI ``poi_index``."""
        return self._poi_nodes[poi_index]

    def reset_counters(self) -> None:
        self.ssad_calls = 0
        self.settled_nodes = 0
        self.heap_pushes = 0

    def account_external(self, ssad_calls: int, settled_nodes: int,
                         heap_pushes: int) -> None:
        """Fold in search-effort counters measured out-of-process.

        The multiprocess build executor runs SSADs on rehydrated
        worker engines; their counter deltas are reported back and
        added here so construction stats match a serial build exactly.
        """
        self.ssad_calls += ssad_calls
        self.settled_nodes += settled_nodes
        self.heap_pushes += heap_pushes

    # ------------------------------------------------------------------
    # snapshot / rehydrate (parallel build support)
    # ------------------------------------------------------------------
    def snapshot(self) -> EngineSnapshot:
        """A picklable image of the frozen SSAD state.

        Requires every site to be frozen into the static CSR section
        (true after construction; transient A2A attachments must be
        detached first).  The arrays are shared, not copied — the
        snapshot is a cheap view that pickles by value.
        """
        csr = self._graph.csr
        if csr.num_overlay:
            raise RuntimeError(
                "cannot snapshot an engine with transient overlay sites; "
                "detach them first"
            )
        return EngineSnapshot(
            indptr=csr.indptr, indices=csr.indices, weights=csr.weights,
            poi_nodes=tuple(self._poi_nodes),
            points_per_edge=self._graph.points_per_edge,
        )

    @classmethod
    def from_snapshot(cls, snapshot: EngineSnapshot) -> "GeodesicEngine":
        """Rehydrate a worker-side engine from a snapshot.

        The result serves the full SSAD surface (``distances_from_poi``
        / ``distances_many`` / ``distance`` / ``query_many``) on the
        frozen CSR arrays; geometric operations (``shortest_path``,
        ``attach_point``) are unavailable because no mesh travels with
        the snapshot.
        """
        engine = cls.__new__(cls)
        engine._mesh = None
        engine._pois = None
        engine._graph = _FrozenGraphView(
            CSRGraph(snapshot.indptr, snapshot.indices, snapshot.weights),
            snapshot.points_per_edge,
        )
        engine._poi_nodes = list(snapshot.poi_nodes)
        engine._index_poi_nodes()
        engine.ssad_calls = 0
        engine.settled_nodes = 0
        engine.heap_pushes = 0
        return engine

    # ------------------------------------------------------------------
    # SSAD variants (Implementation Detail 2)
    # ------------------------------------------------------------------
    def distances_from_poi(self, poi_index: int,
                           radius: Optional[float] = None
                           ) -> Dict[int, float]:
        """Geodesic distances from a POI to other POIs.

        With ``radius`` set this is the paper's SSAD *version 2*: the
        search stops once the frontier passes ``radius`` and only POIs
        within the radius appear in the result.  Without it this is
        *version 1*: the search settles the whole component, so every
        reachable POI appears.  The POI distances are gathered off the
        search's distance vector (:func:`~repro.geodesic.dijkstra.
        target_distances`); the row lists POIs in ascending node-id
        order.
        """
        row = target_distances(self._graph.csr, self._poi_nodes[poi_index],
                               self._target_nodes, radius=radius)
        self._account(row)
        return dict(zip(self._target_pois[row.positions].tolist(),
                        row.distances.tolist()))

    def distances_many(self, poi_indices: Sequence[int],
                       radius: Union[None, float,
                                     Sequence[Optional[float]]] = None
                       ) -> List[Dict[int, float]]:
        """Batched :meth:`distances_from_poi` over many sources.

        ``radius`` may be a single value shared by every source or a
        per-source sequence (entries may be ``None`` for cover-all
        mode) — the form the enhanced-edge builder uses to sweep one
        partition-tree layer per call.  Each source is one search
        whose row is gathered off its distance vector with no
        per-node Python work; the batch boundary is where a sharded
        or multi-source bulk primitive slots in without touching call
        sites.
        """
        poi_indices = list(poi_indices)
        if radius is None or isinstance(radius, (int, float)):
            radii: List[Optional[float]] = [radius] * len(poi_indices)
        else:
            radii = list(radius)
            if len(radii) != len(poi_indices):
                raise ValueError("radius sequence must match poi_indices")
        return [self.distances_from_poi(poi, radius=r)
                for poi, r in zip(poi_indices, radii)]

    def query_many(self, pairs: Iterable[Tuple[int, int]]) -> List[float]:
        """Batched P2P distances for many ``(source, target)`` POI pairs.

        Pairs are canonicalized (the metric is symmetric) and grouped
        by source: each distinct source runs one multi-target search
        covering all of its targets, instead of one early-exit search
        per pair.  Returns distances aligned with the input order
        (``inf`` for disconnected pairs).
        """
        pairs = [(int(a), int(b)) for a, b in pairs]
        by_source: Dict[int, set] = {}
        for a, b in pairs:
            if a != b:
                low, high = (a, b) if a < b else (b, a)
                by_source.setdefault(low, set()).add(high)
        answers: Dict[Tuple[int, int], float] = {}
        csr = self._graph.csr
        for a, targets in by_source.items():
            source = self._poi_nodes[a]
            target_nodes = {self._poi_nodes[b]: b for b in targets}
            result = dijkstra(csr, source, targets=list(target_nodes))
            self._account(result)
            distances = result.distances
            for node, b in target_nodes.items():
                answers[(a, b)] = distances.get(node, math.inf)
        return [0.0 if a == b else answers[(a, b) if a < b else (b, a)]
                for a, b in pairs]

    def distances_from_node(self, node: int,
                            radius: Optional[float] = None,
                            targets: Optional[Sequence[int]] = None
                            ) -> DijkstraResult:
        """Raw node-level SSAD (used by the A2A oracle over Steiner sites)."""
        result = dijkstra(self._graph.csr, node, radius=radius,
                          targets=targets)
        self._account(result)
        return result

    def multi_source_distances(self, nodes: Sequence[int],
                               radius: Optional[float] = None
                               ) -> DijkstraResult:
        """One search seeded from several nodes at distance 0.

        Settles each reachable node at its distance to the *nearest*
        source — the bulk primitive for nearest-site assignment and
        Voronoi-style partitions.
        """
        result = dijkstra(self._graph.csr, list(nodes), radius=radius)
        self._account(result)
        return result

    def distance(self, poi_a: int, poi_b: int) -> float:
        """Geodesic distance between two POIs (early-exit search)."""
        if poi_a == poi_b:
            return 0.0
        source = self._poi_nodes[poi_a]
        target = self._poi_nodes[poi_b]
        result = dijkstra(self._graph.csr, source, single_target=target)
        self._account(result)
        return _single_target_distance(result, target)

    def shortest_path(self, poi_a: int, poi_b: int
                      ) -> Tuple[float, np.ndarray]:
        """Distance and polyline of the geodesic path between two POIs."""
        source = self._poi_nodes[poi_a]
        target = self._poi_nodes[poi_b]
        result = dijkstra(self._graph.csr, source,
                          single_target=target, return_parents=True)
        self._account(result)
        if target not in result.distances:
            return math.inf, np.zeros((0, 3))
        nodes = result.path_to(target)
        points = np.asarray([self._graph.position(n) for n in nodes])
        return result.distances[target], points

    # ------------------------------------------------------------------
    # arbitrary surface points (A2A support)
    # ------------------------------------------------------------------
    def attach_point(self, x: float, y: float) -> int:
        """Attach the surface point above planar ``(x, y)``; returns node id.

        Raises ``ValueError`` when ``(x, y)`` is outside the terrain.
        Attachments must be detached LIFO via :meth:`detach_points`.
        """
        face_id = self._mesh.locate_face(x, y)
        if face_id < 0:
            raise ValueError(f"({x}, {y}) is outside the terrain")
        weights = self._mesh.barycentric_weights(face_id, x, y)
        corners = self._mesh.vertices[self._mesh.faces[face_id]]
        position = weights @ corners
        return self._graph.attach_site(tuple(position), face_id)

    def detach_points(self, count: int) -> None:
        """Detach the ``count`` most recently attached points."""
        self._graph.detach_last_sites(count)

    def node_distance(self, node_a: int, node_b: int) -> float:
        """Geodesic distance between two raw graph nodes."""
        if node_a == node_b:
            return 0.0
        result = dijkstra(self._graph.csr, node_a,
                          single_target=node_b)
        self._account(result)
        return _single_target_distance(result, node_b)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _index_poi_nodes(self) -> None:
        """Sorted POI host nodes and the POI each one hosts.

        A vertex node can host at most one POI after dedup; should two
        share a node anyway, the later POI owns it.
        """
        node_to_poi = {node: poi for poi, node in enumerate(self._poi_nodes)}
        nodes = sorted(node_to_poi)
        self._target_nodes = np.array(nodes, dtype=np.int64)
        self._target_pois = np.array([node_to_poi[node] for node in nodes],
                                     dtype=np.int64)

    def _account(self, result: Union[DijkstraResult, TargetRow]) -> None:
        self.ssad_calls += 1
        self.settled_nodes += result.settled_count
        self.heap_pushes += result.heap_pushes
