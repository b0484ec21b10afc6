"""Tests for the partition tree: Lemma 1's three properties and Lemma 2."""

import hashlib
import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fuzz_equivalence import draw_workload

from repro.core import build_partition_tree, compress_tree
from repro.core.partition_tree import _DensityGrid
from repro.geodesic import GeodesicEngine
from repro.terrain import sample_uniform


@pytest.fixture(scope="module", params=["random", "greedy"])
def tree_and_engine(request, medium_engine):
    tree = build_partition_tree(medium_engine, strategy=request.param,
                                seed=5)
    return tree, medium_engine


def _center_distances(engine, center, radius=None):
    return engine.distances_from_poi(center, radius=radius)


class TestStructure:
    def test_basic_shape(self, tree_and_engine):
        tree, engine = tree_and_engine
        tree.check_structure()
        assert tree.root.layer == 0
        assert tree.root.radius == tree.root_radius

    def test_leaf_layer_has_n_nodes(self, tree_and_engine):
        tree, engine = tree_and_engine
        assert len(tree.layers[-1]) == engine.num_pois
        leaf_centers = {tree.node(i).center for i in tree.layers[-1]}
        assert leaf_centers == set(range(engine.num_pois))

    def test_layer_radii_halve(self, tree_and_engine):
        tree, _ = tree_and_engine
        for layer_number in range(tree.height + 1):
            expected = tree.root_radius / (1 << layer_number)
            for node_id in tree.layers[layer_number]:
                assert tree.node(node_id).radius == pytest.approx(expected)

    def test_every_node_has_child_chain(self, tree_and_engine):
        """Each node's centre re-appears as a child centre (chain)."""
        tree, _ = tree_and_engine
        for node in tree.nodes:
            if node.layer == tree.height:
                continue
            child_centers = {tree.node(c).center for c in node.children}
            assert node.center in child_centers

    def test_first_layer_of_center(self, tree_and_engine):
        tree, _ = tree_and_engine
        for node in tree.nodes:
            assert tree.first_layer_of_center[node.center] <= node.layer

    def test_ancestor_at_layer(self, tree_and_engine):
        tree, _ = tree_and_engine
        leaf = tree.layers[-1][0]
        for layer in range(tree.height, -1, -1):
            ancestor = tree.ancestor_at_layer(leaf, layer)
            assert tree.node(ancestor).layer == layer


class TestSeparationProperty:
    def test_same_layer_centers_are_separated(self, tree_and_engine):
        """Separation: centres in Layer i are >= r0/2^i apart."""
        tree, engine = tree_and_engine
        for layer_number in (1, 2, min(3, tree.height)):
            radius = tree.layer_radius(layer_number)
            centers = [tree.node(i).center
                       for i in tree.layers[layer_number]]
            for center in centers[:8]:  # spot-check a prefix
                reached = _center_distances(engine, center,
                                            radius=radius * 0.999)
                others = [c for c in centers
                          if c != center and c in reached
                          and reached[c] < radius * 0.999]
                assert others == [], (
                    f"layer {layer_number} centres too close: "
                    f"{center} vs {others}"
                )


class TestCoveringProperty:
    def test_every_poi_covered_per_layer(self, tree_and_engine):
        tree, engine = tree_and_engine
        n = engine.num_pois
        for layer_number in range(tree.height + 1):
            radius = tree.layer_radius(layer_number)
            covered = set()
            for node_id in tree.layers[layer_number]:
                center = tree.node(node_id).center
                reached = _center_distances(engine, center,
                                            radius=radius * (1 + 1e-6))
                covered.update(p for p, d in reached.items()
                               if d <= radius * (1 + 1e-6))
            assert covered == set(range(n)), (
                f"layer {layer_number} fails covering"
            )


class TestDistanceProperty:
    def test_descendant_centers_within_double_radius(self, tree_and_engine):
        tree, engine = tree_and_engine
        # For a few internal nodes, check all descendants.
        internal = [n for n in tree.nodes if n.children][:6]
        for node in internal:
            reached = _center_distances(engine, node.center,
                                        radius=2.0 * node.radius * (1 + 1e-6))
            stack = list(node.children)
            while stack:
                child = tree.node(stack.pop())
                assert reached.get(child.center, math.inf) \
                    <= 2.0 * node.radius * (1 + 1e-6)
                stack.extend(child.children)


class TestHeightBound:
    def test_lemma2_height_bound(self, tree_and_engine):
        """h <= log2(d_max / d_min) + 1 (Lemma 2)."""
        tree, engine = tree_and_engine
        n = engine.num_pois
        d_max = 0.0
        d_min = math.inf
        for i in range(n):
            reached = engine.distances_from_poi(i)
            for j, d in reached.items():
                if j != i:
                    d_max = max(d_max, d)
                    d_min = min(d_min, d)
        bound = math.log2(d_max / d_min) + 1
        assert tree.height <= bound + 1e-9

    def test_height_is_small(self, tree_and_engine):
        tree, _ = tree_and_engine
        assert tree.height < 30  # the paper's empirical claim


class TestEdgeCases:
    def test_single_poi(self, small_terrain):
        pois = sample_uniform(small_terrain, 1, seed=1)
        engine = GeodesicEngine(small_terrain, pois, points_per_edge=0)
        tree = build_partition_tree(engine)
        assert tree.height == 0
        assert tree.num_nodes == 1
        assert tree.root_radius == 0.0

    def test_zero_pois_rejected(self, small_terrain):
        from repro.terrain import POISet
        engine = GeodesicEngine(small_terrain, POISet([]), points_per_edge=0)
        with pytest.raises(ValueError):
            build_partition_tree(engine)

    def test_two_pois(self, small_terrain):
        pois = sample_uniform(small_terrain, 2, seed=3)
        engine = GeodesicEngine(small_terrain, pois, points_per_edge=0)
        tree = build_partition_tree(engine)
        assert len(tree.layers[-1]) == 2
        tree.check_structure()

    def test_deterministic_given_seed(self, medium_engine):
        t1 = build_partition_tree(medium_engine, seed=9)
        t2 = build_partition_tree(medium_engine, seed=9)
        assert [(n.center, n.layer) for n in t1.nodes] \
            == [(n.center, n.layer) for n in t2.nodes]

    def test_strategies_build_valid_trees(self, medium_engine):
        for strategy in ("random", "greedy"):
            tree = build_partition_tree(medium_engine, strategy=strategy,
                                        seed=1)
            tree.check_structure()


class TestCompression:
    def test_compressed_shape(self, tree_and_engine):
        tree, engine = tree_and_engine
        compressed = compress_tree(tree)
        compressed.check_structure(engine.num_pois)

    def test_linear_size(self, tree_and_engine):
        """Lemma 9: at most 2n - 1 nodes."""
        tree, engine = tree_and_engine
        compressed = compress_tree(tree)
        assert compressed.num_nodes <= 2 * engine.num_pois - 1
        assert compressed.num_nodes < tree.num_nodes

    def test_leaf_radius_zero(self, tree_and_engine):
        tree, _ = tree_and_engine
        compressed = compress_tree(tree)
        for node in compressed.nodes:
            if node.is_leaf:
                assert node.radius == 0.0
                assert node.enlarged_radius == 0.0
            else:
                assert node.radius > 0.0

    def test_layers_preserved_from_original(self, tree_and_engine):
        """Compressed nodes keep their original layer number."""
        tree, _ = tree_and_engine
        compressed = compress_tree(tree)
        for node in compressed.nodes:
            original = tree.node(node.origin_id)
            assert original.layer == node.layer
            assert original.center == node.center

    def test_leaf_lookup(self, tree_and_engine):
        tree, engine = tree_and_engine
        compressed = compress_tree(tree)
        for poi in range(engine.num_pois):
            leaf = compressed.node(compressed.leaf_of_poi[poi])
            assert leaf.center == poi
            assert leaf.is_leaf

    def test_representative_sets_partition_pois(self, tree_and_engine):
        tree, engine = tree_and_engine
        compressed = compress_tree(tree)
        root_rs = compressed.descendant_leaf_centers(compressed.root_id)
        assert sorted(root_rs) == list(range(engine.num_pois))
        for child in compressed.root.children:
            child_rs = compressed.descendant_leaf_centers(child)
            assert set(child_rs) <= set(root_rs)

    def test_layer_array(self, tree_and_engine):
        tree, engine = tree_and_engine
        compressed = compress_tree(tree)
        array = compressed.layer_array(0)
        assert array[compressed.root.layer] == compressed.root_id
        leaf_id = compressed.leaf_of_poi[0]
        assert array[compressed.node(leaf_id).layer] == leaf_id
        # Entries must lie on the leaf-to-root path.
        path = set(compressed.path_to_root(leaf_id))
        assert all(entry in path for entry in array if entry is not None)

    def test_single_poi_compression(self, small_terrain):
        pois = sample_uniform(small_terrain, 1, seed=1)
        engine = GeodesicEngine(small_terrain, pois, points_per_edge=0)
        compressed = compress_tree(build_partition_tree(engine))
        assert compressed.num_nodes == 1
        assert compressed.root.is_leaf


# The greedy strategy's picks depend on which of several equally dense
# grid cells the indexed heap surfaces first, and that tie order is a
# function of the heap's swap history.  It is therefore part of what
# the greedy tree *is*: a heap rewrite (``heapq``, a counts argmax, a
# different sift rule) can build equally valid but different trees.
# These digests of ``[[center, layer, parent], ...]`` pin the trees on
# the fuzz-wall workloads (seed ``s`` builds with ``seed=s``) and on the
# medium fixture (``seed=5``).
GREEDY_TREE_DIGESTS = {
    0: "3cd4337b489a70ffd61cadfc0153c103f282967e07f5cc5b18a7de731d309e69",
    1: "84fc773ded743d1f08594b2cc06cb9e34c89cf814401c2a6ad6fe0d90e8d925c",
    2: "f40538c095e3a7d3a8ddf83601e1391c07a8823d9fd30f528fb919c528dfcfe7",
    3: "0266e8d2b101a2520769e04671b4fe5c17c27fa758e00d5d1f6040264dc60a41",
    4: "11f55f1909f3411b24164593d2e9e3ee6b329e46553b82216eebe8371161a3f9",
    5: "66dc78fb079386234ad0ef9c902beca69843a8d0400b1004c675c3f25a470947",
    6: "43d4295d4209d064290e4711e718b27f0668e8d9e69682ab8dc6161e59b99a07",
    7: "c8f6598d2ac13ea41b1605d0db8595f64b7a1e1c54d531901393f2ab4af658d8",
}
MEDIUM_GREEDY_TREE_DIGEST = (
    "225b363deea9ccaf1fe97d0e30c590893ee28d4dc7866c59811cd6baae85ce04"
)


def _tree_digest(tree):
    rows = [[node.center, node.layer, node.parent] for node in tree.nodes]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestGreedyTreeKnownAnswers:
    @pytest.mark.parametrize("seed", sorted(GREEDY_TREE_DIGESTS))
    def test_fuzz_workload_tree(self, seed):
        engine, _ = draw_workload(seed)
        tree = build_partition_tree(engine, strategy="greedy", seed=seed)
        assert _tree_digest(tree) == GREEDY_TREE_DIGESTS[seed]

    def test_medium_fixture_tree(self, medium_engine):
        tree = build_partition_tree(medium_engine, strategy="greedy", seed=5)
        assert _tree_digest(tree) == MEDIUM_GREEDY_TREE_DIGEST


def _cluster(center, count, spread, rng):
    cx, cy = center
    return [(cx + rng.uniform(-spread, spread),
             cy + rng.uniform(-spread, spread)) for _ in range(count)]


class TestDensityGrid:
    """The greedy strategy's grid + max-heap of non-empty cells."""

    def test_cell_floor_semantics(self):
        points = [(0.0, 0.0), (1.99, 1.99), (2.0, 0.0), (-0.01, 0.0)]
        grid = _DensityGrid(points, 2.0, random.Random(0))
        assert [grid._cell_of[poi] for poi in range(4)] \
            == [(0, 0), (0, 0), (1, 0), (-1, 0)]

    def test_empty_grid_pick_raises(self):
        grid = _DensityGrid([], 1.0, random.Random(0))
        with pytest.raises(IndexError):
            grid.pick_from_densest()

    def test_densest_cell_wins(self):
        rng = random.Random(0)
        points = (_cluster((0.5, 0.5), 3, 0.1, rng)
                  + _cluster((10.5, 10.5), 8, 0.1, rng))
        grid = _DensityGrid(points, 1.0, rng)
        for _ in range(5):
            assert grid.pick_from_densest() >= 3  # from the dense cluster

    def test_pick_does_not_remove(self):
        grid = _DensityGrid([(0.5, 0.5)], 1.0, random.Random(0))
        assert grid.pick_from_densest() == 0
        assert grid.pick_from_densest() == 0

    def test_density_order_flips_after_removals(self):
        rng = random.Random(1)
        points = (_cluster((0.5, 0.5), 6, 0.1, rng)
                  + _cluster((10.5, 10.5), 4, 0.1, rng))
        grid = _DensityGrid(points, 1.0, rng)
        assert grid.pick_from_densest() < 6
        # Cover points of the dense cluster until the other one wins.
        for poi in range(3):
            grid.remove(poi)
        assert grid.pick_from_densest() >= 6
        grid._heap.check_invariants()

    def test_remove_missing_raises(self):
        grid = _DensityGrid([(0.5, 0.5)], 1.0, random.Random(0))
        grid.remove(0)
        with pytest.raises(KeyError):
            grid.remove(0)

    def test_empty_cells_leave_heap(self):
        grid = _DensityGrid([(0.5, 0.5), (5.5, 5.5)], 1.0, random.Random(0))
        assert len(grid._heap) == 2
        grid.remove(0)
        assert len(grid._heap) == 1
        assert grid.pick_from_densest() == 1
        grid.remove(1)
        assert len(grid._heap) == 0
        grid._heap.check_invariants()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                max_size=80),
       st.floats(0.1, 50.0),
       st.data())
def test_density_grid_picks_from_a_densest_cell(points, width, data):
    """After random removals the pick lies in a maximum-count cell."""
    grid = _DensityGrid(points, width, random.Random(0))
    removed = data.draw(st.lists(st.sampled_from(range(len(points))),
                                 unique=True)
                        if points else st.just([]))
    for poi in removed:
        grid.remove(poi)
    grid._heap.check_invariants()
    remaining = set(range(len(points))) - set(removed)
    if not remaining:
        with pytest.raises(IndexError):
            grid.pick_from_densest()
        return

    def cell(poi):
        x, y = points[poi]
        return (math.floor(x / width), math.floor(y / width))

    counts = Counter(cell(poi) for poi in remaining)
    picked = grid.pick_from_densest()
    assert picked in remaining
    assert counts[cell(picked)] == max(counts.values())
    assert len(grid._heap) == len(counts)
