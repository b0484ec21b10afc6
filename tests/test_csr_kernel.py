"""CSR graph core + array Dijkstra kernel: equivalence with the seed kernel.

The array kernel (both its SciPy fast path and its pure-Python
generation-stamped path) must reproduce the seed dict kernel
*bit-for-bit*: identical distance maps, identical ``settled_count``,
identical ``frontier_min`` — across all three stopping rules, on
randomized terrains, with and without an attached-site overlay.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import importlib

# The package re-exports the ``dijkstra`` *function* under the same
# name as the submodule, so fetch the module itself for monkeypatching.
dijkstra_module = importlib.import_module("repro.geodesic.dijkstra")
from repro.datastructures import CSRGraph
from repro.geodesic import (
    GeodesicEngine,
    GeodesicGraph,
    bidirectional_distance,
    dijkstra,
    dijkstra_reference,
)
from repro.geodesic.dijkstra import target_distances
from repro.terrain import make_terrain, sample_uniform


def _random_graph(seed, points_per_edge=1, grid_exponent=3):
    mesh = make_terrain(grid_exponent=grid_exponent, extent=(60.0, 60.0),
                        relief=15.0, seed=seed)
    return GeodesicGraph(mesh, points_per_edge=points_per_edge)


def _assert_same(array_result, reference_result):
    assert array_result.distances == reference_result.distances
    assert array_result.settled_count == reference_result.settled_count
    assert array_result.frontier_min == reference_result.frontier_min


def _check_all_rules(graph, seed):
    """One randomized scenario: every stopping rule, exact equality."""
    adjacency = graph.adjacency
    csr = graph.csr
    n = graph.num_nodes
    source = seed % n

    # No stopping rule: whole component.
    full_ref = dijkstra_reference(adjacency, source)
    _assert_same(dijkstra(csr, source), full_ref)

    ordered = sorted(full_ref.distances.values())

    # Radius rule, including a radius that exactly equals a settled
    # distance (boundary inclusion) and a radius beyond the component.
    for radius in (ordered[len(ordered) // 4], ordered[len(ordered) // 2],
                   ordered[-1] * 2.0):
        _assert_same(
            dijkstra(csr, source, radius=radius),
            dijkstra_reference(adjacency, source, radius=radius))

    # Cover-targets rule.
    targets = [(seed * 7 + k * 13) % n for k in range(5)]
    _assert_same(
        dijkstra(csr, source, targets=targets),
        dijkstra_reference(adjacency, source, targets=targets))

    # Single-target rule.
    target = (seed * 31 + 11) % n
    _assert_same(
        dijkstra(csr, source, single_target=target),
        dijkstra_reference(adjacency, source, single_target=target))


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 1000))
def test_kernel_matches_reference(seed):
    graph = _random_graph(seed % 17, points_per_edge=1 + seed % 2)
    _check_all_rules(graph, seed)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 1000))
def test_python_kernel_matches_reference(seed):
    """Same property with the SciPy fast path disabled."""
    graph = _random_graph(seed % 13)
    with mock.patch.object(dijkstra_module, "_scipy_dijkstra", None):
        _check_all_rules(graph, seed)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 1000))
def test_kernel_matches_reference_with_overlay(seed):
    """Attached sites route searches through the overlay side table."""
    graph = _random_graph(seed % 11)
    rng_x = 5.0 + (seed % 7) * 7.0
    graph.attach_site((rng_x, 20.0, 0.0),
                      face_id=seed % graph.mesh.num_faces)
    graph.attach_site((30.0, rng_x, 0.0),
                      face_id=(seed * 3) % graph.mesh.num_faces)
    assert graph.csr.num_overlay == 2
    _check_all_rules(graph, seed)
    # Overlay node as the source.
    source = graph.num_nodes - 1
    _assert_same(dijkstra(graph.csr, source),
                 dijkstra_reference(graph.adjacency, source))


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 1000))
def test_bidirectional_matches_unidirectional(seed):
    graph = _random_graph(seed % 17)
    n = graph.num_nodes
    source = seed % n
    full = dijkstra(graph.csr, source)
    for k in range(4):
        target = (seed * 5 + 29 * k) % n
        expected = full.distances.get(target, math.inf)
        assert bidirectional_distance(graph.csr, source, target) \
            == pytest.approx(expected)


def test_multi_source_is_min_over_sources():
    graph = _random_graph(3)
    sources = [0, graph.num_nodes // 2, graph.num_nodes - 1]
    merged = dijkstra(graph.csr, sources)
    singles = [dijkstra(graph.csr, s).distances for s in sources]
    for node, dist in merged.distances.items():
        assert dist == min(s.get(node, math.inf) for s in singles)
    # Pure-Python multi-source agrees with the SciPy min_only path.
    with mock.patch.object(dijkstra_module, "_scipy_dijkstra", None):
        py = dijkstra(graph.csr, sources)
    assert py.distances == merged.distances


def test_radius_pruning_reports_fewer_pushes():
    """The pruned lazy-deletion heap must not grow past the reference."""
    graph = _random_graph(5, grid_exponent=4)
    full = dijkstra_reference(graph.adjacency, 0)
    radius = sorted(full.distances.values())[len(full.distances) // 4]
    with mock.patch.object(dijkstra_module, "_scipy_dijkstra", None):
        pruned = dijkstra(graph.csr, 0, radius=radius)
    reference = dijkstra_reference(graph.adjacency, 0, radius=radius)
    assert pruned.heap_pushes > 0
    assert pruned.heap_pushes <= reference.heap_pushes
    assert pruned.distances == reference.distances
    assert pruned.frontier_min == reference.frontier_min


def test_scratch_reuse_is_isolated_across_calls():
    """Generation stamping: stale buffer contents must never leak."""
    graph = _random_graph(7)
    csr = graph.csr
    first = dijkstra(csr, 0, radius=10.0)
    second = dijkstra(csr, graph.num_nodes - 1, radius=1e-6)
    third = dijkstra(csr, 0, radius=10.0)
    assert first.distances == third.distances
    assert second.settled_count == 1  # only its own source


class TestCSRGraph:
    def test_from_lists_round_trip(self):
        neighbors = [[1, 2], [0], [0, 3], [2]]
        weights = [[1.0, 2.5], [1.0], [2.5, 0.5], [0.5]]
        csr = CSRGraph.from_lists(neighbors, weights)
        assert csr.num_static == 4
        assert csr.num_nodes == 4
        assert csr.num_entries == 6
        for node in range(4):
            got_n, got_w = csr.neighbors(node)
            assert got_n == neighbors[node]
            assert got_w == weights[node]

    def test_overlay_attach_detach(self):
        csr = CSRGraph.from_lists([[1], [0]], [[1.0], [1.0]])
        node = csr.attach_node([0, 1], [2.0, 3.0])
        assert node == 2
        assert csr.num_overlay == 1
        assert csr.neighbors(2) == ([0, 1], [2.0, 3.0])
        assert csr.neighbors(0) == ([1, 2], [1.0, 2.0])
        second = csr.attach_node([2], [0.25])
        assert csr.neighbors(2) == ([0, 1, 3], [2.0, 3.0, 0.25])
        csr.detach_last()
        csr.detach_last()
        assert csr.num_overlay == 0
        assert csr.neighbors(0) == ([1], [1.0])
        with pytest.raises(ValueError):
            csr.detach_last()
        assert second == 3

    def test_zero_weight_edges_exact_on_both_paths(self):
        # Explicit zeros must survive scipy.sparse storage; if a future
        # SciPy drops them, this equivalence check fails loudly.
        neighbors = [[1], [0, 2], [1]]
        weights = [[0.0], [0.0, 2.0], [2.0]]
        csr = CSRGraph.from_lists(neighbors, weights)
        expected = dijkstra_reference((neighbors, weights), 0).distances
        assert expected == {0: 0.0, 1: 0.0, 2: 2.0}
        assert dijkstra(csr, 0).distances == expected
        with mock.patch.object(dijkstra_module, "_scipy_dijkstra", None):
            assert dijkstra(csr, 0).distances == expected

    def test_geodesic_graph_freezes_pois(self):
        mesh = make_terrain(grid_exponent=3, seed=2)
        pois = sample_uniform(mesh, 8, seed=2)
        engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        # attach_pois freezes: no overlay left, searches take the
        # static fast path.
        assert engine.graph.csr.num_overlay == 0
        assert engine.graph.csr.num_static == engine.graph.num_nodes

    def test_detach_after_freeze_refreezes(self):
        mesh = make_terrain(grid_exponent=3, seed=2)
        pois = sample_uniform(mesh, 4, seed=2)
        engine = GeodesicEngine(mesh, pois, points_per_edge=0)
        graph = engine.graph
        nodes_before = graph.num_nodes
        node = engine.attach_point(20.0, 20.0)
        assert graph.csr.num_overlay == 1
        d_attached = engine.node_distance(node, engine.poi_node(0))
        assert d_attached > 0
        engine.detach_points(1)
        assert graph.num_nodes == nodes_before
        assert graph.csr.num_overlay == 0
        # Graph still searchable and consistent after the detach.
        full = dijkstra(graph.csr, 0)
        ref = dijkstra_reference(graph.adjacency, 0)
        assert full.distances == ref.distances


class TestEngineBatchedAPIs:
    @pytest.fixture(scope="class")
    def engine(self):
        mesh = make_terrain(grid_exponent=4, extent=(80.0, 80.0),
                            relief=12.0, seed=9)
        pois = sample_uniform(mesh, 14, seed=9)
        return GeodesicEngine(mesh, pois, points_per_edge=1)

    def test_query_many_matches_distance(self, engine):
        pairs = [(0, 5), (0, 9), (3, 3), (7, 2), (0, 5)]
        batched = engine.query_many(pairs)
        for (a, b), got in zip(pairs, batched):
            assert got == pytest.approx(engine.distance(a, b))

    def test_distances_many_matches_single(self, engine):
        singles = [engine.distances_from_poi(i) for i in range(4)]
        batched = engine.distances_many(range(4))
        assert batched == singles

    def test_distances_many_per_source_radius(self, engine):
        full = engine.distances_from_poi(0)
        radius = sorted(full.values())[5]
        batched = engine.distances_many([0, 1], radius=[radius, None])
        assert batched[0] == engine.distances_from_poi(0, radius=radius)
        assert batched[1] == engine.distances_from_poi(1)

    def test_multi_source_distances(self, engine):
        nodes = [engine.poi_node(0), engine.poi_node(5)]
        merged = engine.multi_source_distances(nodes)
        singles = [engine.distances_from_node(n).distances for n in nodes]
        for node, dist in merged.distances.items():
            assert dist == min(s.get(node, math.inf) for s in singles)

    def test_counters_include_heap_pushes(self, engine):
        engine.reset_counters()
        engine.distance(0, 1)  # single-target: python kernel, pushes > 0
        assert engine.heap_pushes > 0
        assert engine.ssad_calls == 1

    def test_query_many_dedupes_symmetric_pairs(self, engine):
        engine.reset_counters()
        batched = engine.query_many([(0, 5), (5, 0), (3, 7)])
        assert engine.ssad_calls == 2  # (0,5)/(5,0) share one search
        assert batched[0] == batched[1]


class TestOracleBatchedAPIs:
    """The oracle-level query_many wrappers match their single-query
    counterparts."""

    def test_kalgo_query_many(self):
        from repro.baselines import KAlgo
        mesh = make_terrain(grid_exponent=3, extent=(80.0, 80.0), seed=6)
        pois = sample_uniform(mesh, 8, seed=6)
        kalgo = KAlgo(mesh, pois, epsilon=0.25, points_per_edge=1)
        pairs = [(0, 3), (3, 0), (5, 5), (2, 7)]
        assert kalgo.query_many(pairs) == \
            [kalgo.query(a, b) for a, b in pairs]

    def test_a2a_query_many(self):
        from repro.core import A2AOracle
        mesh = make_terrain(grid_exponent=3, extent=(80.0, 80.0), seed=6)
        oracle = A2AOracle(mesh, epsilon=0.25, sites_per_edge=1,
                           points_per_edge=1, seed=1).build()
        pairs = [((10.0, 12.0), (60.0, 55.0)),
                 ((20.0, 30.0), (10.0, 12.0)),
                 ((10.0, 12.0), (60.0, 55.0))]
        assert oracle.query_many(pairs) == \
            [oracle.query(*pair) for pair in pairs]

    def test_dynamic_query_batch(self):
        from repro.core import DynamicSEOracle
        mesh = make_terrain(grid_exponent=3, extent=(80.0, 80.0), seed=6)
        pois = sample_uniform(mesh, 10, seed=6)
        oracle = DynamicSEOracle(mesh, pois, epsilon=0.25,
                                 rebuild_factor=5.0, seed=1).build()
        fresh = oracle.insert(40.0, 40.0)
        assert oracle.overlay_size == 1  # still an overlay POI
        pairs = [(0, 3), (fresh, 2), (2, fresh), (fresh, fresh), (4, 1)]
        batched = oracle.query_batch([a for a, _ in pairs],
                                     [b for _, b in pairs])
        assert list(batched) == [oracle.query(a, b) for a, b in pairs]
        with pytest.raises(KeyError):
            oracle.query_batch([0], [999])


# ----------------------------------------------------------------------
# known answers for the build's gather primitive
# ----------------------------------------------------------------------
# Weights are dyadic so every path sum is exact.  From node 0:
#   0 -1.0- 1 -2.0- 2 -0.0- 3        d(1)=1, d(2)=3, d(3)=3 (zero edge)
#   0 -3.5- 4 -0.25- 2               d(4)=3.25 (via 2, not the 3.5 edge)
#   5 -1.0- 6                        another component
KNOWN_NEIGHBORS = [[1, 4], [0, 2], [1, 3, 4], [2], [0, 2], [6], [5]]
KNOWN_WEIGHTS = [[1.0, 3.5], [1.0, 2.0], [2.0, 0.0, 0.25], [0.0],
                 [3.5, 0.25], [1.0], [1.0]]
KNOWN_TARGETS = np.array([1, 3, 4, 5], dtype=np.int64)


@pytest.fixture(params=["scipy", "python"])
def kernel(request):
    """Run the test once per kernel (SciPy, then pure Python).

    Without SciPy installed both runs take the pure-Python kernel.
    """
    if request.param == "scipy":
        yield request.param
    else:
        with mock.patch.object(dijkstra_module, "_scipy_dijkstra", None):
            yield request.param


class TestTargetDistances:
    @pytest.fixture
    def csr(self):
        return CSRGraph.from_lists(KNOWN_NEIGHBORS, KNOWN_WEIGHTS)

    def test_target_at_exactly_radius_is_included(self, csr, kernel):
        row = target_distances(csr, 0, KNOWN_TARGETS, radius=3.0)
        assert row.positions.tolist() == [0, 1]  # nodes 1 and 3
        assert row.distances.tolist() == [1.0, 3.0]
        assert row.settled_count == 4  # nodes 0, 1, 2, 3

    def test_unreachable_target_is_absent(self, csr, kernel):
        row = target_distances(csr, 0, KNOWN_TARGETS, radius=100.0)
        assert 3 not in row.positions.tolist()  # node 5
        row = target_distances(csr, 5, KNOWN_TARGETS)
        assert row.positions.tolist() == [3]  # only itself
        assert row.distances.tolist() == [0.0]

    def test_zero_weight_edge(self, csr, kernel):
        row = target_distances(csr, 2, np.array([3], dtype=np.int64),
                               radius=0.0)
        assert row.positions.tolist() == [0]
        assert row.distances.tolist() == [0.0]
        assert row.settled_count == 2  # nodes 2 and 3, both at 0.0

    def test_cover_all_settles_whole_component(self, csr, kernel):
        row = target_distances(csr, 0, KNOWN_TARGETS)
        assert row.positions.tolist() == [0, 1, 2]
        assert row.distances.tolist() == [1.0, 3.0, 3.25]
        assert row.settled_count == 5  # component {0, 1, 2, 3, 4}

    def test_rows_follow_target_order(self, csr, kernel):
        row = target_distances(csr, 0, np.array([4, 1, 3], dtype=np.int64))
        assert row.positions.tolist() == [0, 1, 2]
        assert row.distances.tolist() == [3.25, 1.0, 3.0]

    def test_heap_pushes_only_from_python_kernel(self, csr, kernel):
        row = target_distances(csr, 0, KNOWN_TARGETS)
        python_kernel = dijkstra_module._scipy_dijkstra is None
        assert (row.heap_pushes > 0) == python_kernel

    def test_engine_rows_in_ascending_node_order(self, kernel):
        mesh = make_terrain(grid_exponent=3, seed=4)
        pois = sample_uniform(mesh, 12, seed=4)
        engine = GeodesicEngine(mesh, pois, points_per_edge=1)
        full = dijkstra_reference(engine.graph.adjacency, engine.poi_node(3))
        for radius in (None, 30.0):
            row = engine.distances_from_poi(3, radius=radius)
            nodes = [engine.poi_node(poi) for poi in row]
            assert nodes == sorted(nodes)
            expected = {
                poi: full.distances[engine.poi_node(poi)]
                for poi in range(engine.num_pois)
                if radius is None
                or full.distances[engine.poi_node(poi)] <= radius
            }
            assert row == expected


class TestOverlayMatrix:
    """The SciPy matrix follows every overlay mutation."""

    @staticmethod
    def reference(csr, source, radius=None):
        rows = [csr.neighbors(node) for node in range(csr.num_nodes)]
        adjacency = ([n for n, _ in rows], [w for _, w in rows])
        return dijkstra_reference(adjacency, source, radius=radius)

    def test_attach_search_detach_search(self):
        csr = CSRGraph.from_lists(KNOWN_NEIGHBORS, KNOWN_WEIGHTS)
        static = csr.scipy_matrix()  # None without SciPy
        _assert_same(dijkstra(csr, 0), self.reference(csr, 0))

        node = csr.attach_node([0, 3], [0.5, 0.5])
        if static is not None:
            assert csr.scipy_matrix() is not static
            assert csr.scipy_matrix().shape == (8, 8)
        for source in (0, node):
            _assert_same(dijkstra(csr, source), self.reference(csr, source))
            _assert_same(dijkstra(csr, source, radius=1.0),
                         self.reference(csr, source, radius=1.0))
        assert dijkstra(csr, 0).distances[3] == 1.0  # through the overlay

        csr.detach_last()
        assert csr.scipy_matrix() is static
        _assert_same(dijkstra(csr, 0), self.reference(csr, 0))

        # Same id, different edges: a stale matrix would keep 0.5.
        again = csr.attach_node([0, 6], [2.0, 0.25])
        assert again == node
        for source in (0, again, 5):
            _assert_same(dijkstra(csr, source), self.reference(csr, source))
        assert dijkstra(csr, 0).distances[3] == 3.0
        assert dijkstra(csr, 0).distances[5] == 3.25

    def test_overlay_to_overlay_edges(self):
        csr = CSRGraph.from_lists(KNOWN_NEIGHBORS, KNOWN_WEIGHTS)
        first = csr.attach_node([1], [0.5])
        assert 5 not in dijkstra(csr, first).distances
        second = csr.attach_node([first, 5], [0.5, 0.5])
        for source in (0, first, second, 6):
            _assert_same(dijkstra(csr, source), self.reference(csr, source))
            _assert_same(dijkstra(csr, source, radius=1.5),
                         self.reference(csr, source, radius=1.5))
        csr.detach_last()
        _assert_same(dijkstra(csr, 0), self.reference(csr, 0))
        assert 5 not in dijkstra(csr, 0).distances
