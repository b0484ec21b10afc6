"""Tests for the SE oracle: node pairs, Theorem 1, queries, ε-guarantee."""

import hashlib
import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DynamicSEOracle,
    EnhancedEdgeIndex,
    SEOracle,
    build_enhanced_edges,
    build_partition_tree,
    compress_tree,
    generate_node_pairs_batched,
    pack_oracle,
    well_separated_threshold,
)
from repro.core.node_pairs import enhanced_edge_factor
from repro.datastructures import PerfectHashMap
from repro.geodesic import GeodesicEngine
from repro.terrain import make_terrain, sample_uniform
from test_fuzz_equivalence import draw_workload


@pytest.fixture(scope="module")
def oracle(medium_engine):
    return SEOracle(medium_engine, epsilon=0.25, seed=3).build()


@pytest.fixture(scope="module")
def exact(medium_engine):
    """Ground-truth distance matrix on the same metric."""
    n = medium_engine.num_pois
    matrix = {}
    for i in range(n):
        reached = medium_engine.distances_from_poi(i)
        for j in range(n):
            matrix[(i, j)] = reached[j]
    return matrix


class TestConstructionValidation:
    def test_epsilon_validation(self, medium_engine):
        with pytest.raises(ValueError):
            SEOracle(medium_engine, epsilon=0.0)
        with pytest.raises(ValueError):
            SEOracle(medium_engine, epsilon=-1.0)

    def test_method_validation(self, medium_engine):
        with pytest.raises(ValueError):
            SEOracle(medium_engine, epsilon=0.1, method="magic")

    def test_query_before_build_raises(self, medium_engine):
        fresh = SEOracle(medium_engine, epsilon=0.2)
        with pytest.raises(RuntimeError):
            fresh.query(0, 1)
        with pytest.raises(RuntimeError):
            fresh.size_bytes()

    def test_build_populates_stats(self, oracle):
        stats = oracle.stats
        assert stats.total_seconds > 0
        assert stats.height == oracle.height
        assert stats.compressed_nodes <= stats.original_nodes
        assert stats.pairs_stored <= stats.pairs_considered
        assert stats.ssad_calls > 0
        assert stats.enhanced_lookup_fallbacks == 0  # Lemma 4 holds

    def test_well_separated_threshold(self):
        assert well_separated_threshold(2.0) == pytest.approx(3.0)
        assert well_separated_threshold(0.1) == pytest.approx(22.0)
        with pytest.raises(ValueError):
            well_separated_threshold(0.0)


class TestNodePairProperties:
    def test_all_pairs_well_separated(self, oracle, exact):
        """Theorem 1, part 1: every stored pair is well-separated."""
        tree = oracle.tree
        threshold = well_separated_threshold(oracle.epsilon)
        for (a, b), stored in oracle.pair_set.pairs.items():
            node_a, node_b = tree.node(a), tree.node(b)
            true_distance = exact[(node_a.center, node_b.center)]
            larger = max(node_a.enlarged_radius, node_b.enlarged_radius)
            assert true_distance >= threshold * larger * (1 - 1e-6)

    def test_stored_distance_is_center_distance(self, oracle, exact):
        tree = oracle.tree
        for (a, b), stored in oracle.pair_set.pairs.items():
            centers = (tree.node(a).center, tree.node(b).center)
            assert stored == pytest.approx(exact[centers], rel=1e-6)

    def test_unique_node_pair_match(self, oracle, medium_engine):
        """Theorem 1, part 2: exactly one pair covers every (p, q)."""
        n = medium_engine.num_pois
        sample = list(itertools.product(range(0, n, 5), range(0, n, 7)))
        for source, target in sample:
            a, b, _ = oracle.covering_pair(source, target)  # asserts ==1

    def test_pair_count_linear_in_n(self, medium_engine):
        """Theorem 2 flavour: pairs = O(n h / eps^2beta)."""
        oracle = SEOracle(medium_engine, epsilon=0.5, seed=1).build()
        n = medium_engine.num_pois
        budget = n * (oracle.height + 1) * (1 / 0.5) ** 4 * 64
        assert oracle.num_pairs < budget

    def test_smaller_epsilon_means_more_pairs(self, medium_engine):
        loose = SEOracle(medium_engine, epsilon=1.0, seed=1).build()
        tight = SEOracle(medium_engine, epsilon=0.1, seed=1).build()
        assert tight.num_pairs > loose.num_pairs
        # Size is dominated by the pair hash; with a 10x epsilon gap the
        # FKS slot-count variance cannot mask the growth.
        assert tight.size_bytes() > loose.size_bytes()


class TestQueries:
    def test_self_distance_zero(self, oracle, medium_engine):
        for poi in range(0, medium_engine.num_pois, 4):
            assert oracle.query(poi, poi) == 0.0

    def test_epsilon_guarantee_all_pairs(self, oracle, exact,
                                         medium_engine):
        """|d_oracle - d| <= eps * d for every POI pair."""
        n = medium_engine.num_pois
        eps = oracle.epsilon
        for source in range(n):
            for target in range(n):
                if source == target:
                    continue
                approx = oracle.query(source, target)
                true = exact[(source, target)]
                assert abs(approx - true) <= eps * true * (1 + 1e-6), (
                    f"({source},{target}): {approx} vs {true}"
                )

    def test_efficient_equals_naive_query(self, oracle, medium_engine):
        n = medium_engine.num_pois
        for source in range(0, n, 3):
            for target in range(0, n, 5):
                assert oracle.query(source, target) \
                    == oracle.query_naive(source, target)

    def test_query_matches_covering_pair(self, oracle):
        for source, target in [(0, 7), (3, 12), (20, 5)]:
            _, _, distance = oracle.covering_pair(source, target)
            assert oracle.query(source, target) == distance

    def test_symmetric_queries_within_epsilon(self, oracle, exact):
        """query(s,t) and query(t,s) may use different pairs but both
        ε-approximate the same distance."""
        eps = oracle.epsilon
        for source, target in [(1, 9), (4, 30), (17, 2)]:
            forward = oracle.query(source, target)
            backward = oracle.query(target, source)
            true = exact[(source, target)]
            assert abs(forward - true) <= eps * true * (1 + 1e-6)
            assert abs(backward - true) <= eps * true * (1 + 1e-6)


class TestNaiveConstruction:
    def test_naive_build_same_answers(self, medium_engine, exact):
        """SE(Naive) must produce an equivalent oracle (same tree seed)."""
        efficient = SEOracle(medium_engine, epsilon=0.25, seed=3).build()
        naive = SEOracle(medium_engine, epsilon=0.25, seed=3,
                         method="naive").build()
        assert naive.num_pairs == efficient.num_pairs
        n = medium_engine.num_pois
        for source in range(0, n, 3):
            for target in range(1, n, 7):
                d_naive = naive.query(source, target)
                d_eff = efficient.query(source, target)
                assert d_naive == pytest.approx(d_eff, rel=1e-9)

    def test_naive_uses_no_enhanced_edges(self, medium_engine):
        naive = SEOracle(medium_engine, epsilon=0.3, seed=2,
                         method="naive").build()
        assert naive.stats.enhanced_edges == 0
        assert naive.stats.enhanced_seconds == 0.0


class TestGreedyVariant:
    def test_greedy_build_guarantee(self, medium_engine, exact):
        oracle = SEOracle(medium_engine, epsilon=0.25, strategy="greedy",
                          seed=4).build()
        eps = oracle.epsilon
        n = medium_engine.num_pois
        for source in range(0, n, 4):
            for target in range(2, n, 6):
                if source == target:
                    continue
                approx = oracle.query(source, target)
                true = exact[(source, target)]
                assert abs(approx - true) <= eps * true * (1 + 1e-6)


class TestSmallCases:
    def test_single_poi_oracle(self, small_terrain):
        pois = sample_uniform(small_terrain, 1, seed=1)
        engine = GeodesicEngine(small_terrain, pois, points_per_edge=0)
        oracle = SEOracle(engine, epsilon=0.1).build()
        assert oracle.query(0, 0) == 0.0

    def test_two_poi_oracle(self, small_terrain):
        pois = sample_uniform(small_terrain, 2, seed=5)
        engine = GeodesicEngine(small_terrain, pois, points_per_edge=1)
        oracle = SEOracle(engine, epsilon=0.1).build()
        true = engine.distance(0, 1)
        assert oracle.query(0, 1) == pytest.approx(true, rel=0.1)
        assert oracle.query(0, 0) == 0.0

    def test_various_epsilons_small(self, small_engine):
        n = small_engine.num_pois
        exact = {}
        for i in range(n):
            reached = small_engine.distances_from_poi(i)
            for j, d in reached.items():
                exact[(i, j)] = d
        for epsilon in (0.05, 0.1, 0.25, 0.5, 1.0):
            oracle = SEOracle(small_engine, epsilon=epsilon, seed=7).build()
            for source in range(0, n, 2):
                for target in range(1, n, 3):
                    if source == target:
                        continue
                    approx = oracle.query(source, target)
                    true = exact[(source, target)]
                    assert abs(approx - true) <= epsilon * true * (1 + 1e-6)


class TestSizeModel:
    def test_size_components(self, oracle):
        assert oracle.size_bytes() > 0
        assert oracle.tree.size_bytes() < oracle.size_bytes()

    def test_size_grows_with_n(self, medium_terrain):
        sizes = []
        for count in (10, 40):
            pois = sample_uniform(medium_terrain, count, seed=8)
            engine = GeodesicEngine(medium_terrain, pois, points_per_edge=0)
            oracle = SEOracle(engine, epsilon=0.25, seed=1).build()
            sizes.append(oracle.size_bytes())
        assert sizes[1] > sizes[0]


# Known answers: sha256 of the canonical ``pack_oracle`` bytes.  These
# digests predate the array-native build (vectorised enhanced edges,
# array pair generation, SSAD rows gathered off the SciPy distance
# vector) and were recorded with the scalar pipeline it replaced; any
# change to tree, pair set, distances or hash tables breaks them.
#
# Per ``draw_workload`` seed: (random, greedy) builds with the drawn
# ε and oracle seed.
PACK_DIGESTS = {
    0: ("0ca8e21be9e48e49aacd2770c70f8e068fb58bf95d5dac2237a156b6c996e435",
        "89ac8349475af897bff98f9ca10b48658dd8cdd04a0e92cbf4fab08bde982b25"),
    1: ("aae17017a97fbe3cc3d13e4b6c335634d6c5df8892fb47325c209166bac3a4cb",
        "0380a97d75ece1da83ba8dcda6258110b3eb364cf14afa2ee6cbd5fccca2584b"),
    2: ("528e0952f9646e607120e4318bfaa5b82f825c53c1b1f1f88e5916c97b530bbf",
        "d51c1a7cd762622ac8e1cdefe12302bc6949f93cc3fc8c012bae1441f66c9c9e"),
    3: ("f2bd09d75c989315a9b26644007c724ed64825c9629798fb63f31de5dad6da63",
        "396b99d951d0a283366acf48d5485bd4241856fcca3fe6b70f5e9df84b39216a"),
    4: ("3a3e29ab4f298630ad4f81757e06f695fb1a082154e5addf7644f07072198d9c",
        "c90f41f961dcbf67477e5b22cb9358237390533aeb05ca603c33873c59194cd9"),
    5: ("9271c15c4773fbfda84d534ff71de0005aa07395ec075e2242824a116b186cb0",
        "d6b91618615f0addf9e9ac4ad2c9a209ad267955c880cfa071c8d1c59d3cdb68"),
    6: ("dfeb61da94fe825e0d35c5397d6df78ac77fa6cc358f7d70215ce04dcb9752c7",
        "78e76e57aaac3add2fc2144349318e26950a692b5b20a3eb8f14f4465dec978d"),
    7: ("05e525af9f74f83d2ddbfa7ba1f815fd38729031179bfe65fde283901c638962",
        "67210aa871d56752a2b46079ed73816c2c00b0ce4606453c42aa47f854d3d767"),
}

#: One digest per flush of :data:`FLUSH_STEPS` (incremental flushes
#: replaying memoised SSAD rows), recorded with the same scalar build.
FLUSH_DIGESTS = (
    "2b7a4fd19dc8979f4906f3dc25690dadf66a05f312330a4173426df9692152db",
    "8d4d833a65529b3de10d5bddd45fb249c2f09e3d433ff3e552809589e7d2f00c",
    "df3c194046a898b6bc1269c0deaab9a06ea3e29b096a6e25dfb25a2541f065fb",
    "6939f2e5ab63db534797eb1e3e322c4ff9a5614ca9b3d0fb58361e5c0e7086a3",
)
FLUSH_STEPS = (("insert", 20.0, 30.0), ("delete", 3),
               ("insert", 70.0, 55.0), ("delete", 12))


def pack_digest(oracle, tmp_path) -> str:
    path = tmp_path / "oracle.sestore"
    pack_oracle(oracle, path, canonical=True)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestKnownAnswerDigests:
    @pytest.mark.parametrize("seed", sorted(PACK_DIGESTS))
    def test_fuzz_workload_packs_match(self, seed, tmp_path):
        engine, drawn = draw_workload(seed)
        for strategy, expected in zip(("random", "greedy"),
                                      PACK_DIGESTS[seed]):
            oracle = SEOracle(engine, drawn.epsilon, strategy=strategy,
                              seed=drawn.seed).build()
            assert pack_digest(oracle, tmp_path) == expected, strategy

    def test_flush_sequence_packs_match(self, tmp_path):
        mesh = make_terrain(grid_exponent=3, extent=(100.0, 100.0),
                            relief=15.0, seed=7)
        pois = sample_uniform(mesh, 12, seed=8)
        dynamic = DynamicSEOracle(mesh, pois, epsilon=0.25,
                                  rebuild_factor=10.0, seed=1).build()
        digests = []
        for step in FLUSH_STEPS:
            if step[0] == "insert":
                dynamic.insert(step[1], step[2])
            else:
                dynamic.delete(step[1])
            dynamic.flush()
            digests.append(pack_digest(dynamic.oracle, tmp_path))
        assert tuple(digests) == FLUSH_DIGESTS


# ----------------------------------------------------------------------
# array stages against the element-wise spec
# ----------------------------------------------------------------------
# The functions prefixed ``spec_`` are the scalar formulations of
# Section 3.3 / 3.5 as the paper states them: one dict ``setdefault``
# per reached centre, one bottom-up layer walk per centre pair (Lemma
# 4), one split decision per considered pair.  The build runs the same
# steps on arrays; on random partition trees both must produce the
# same edges, the same distances and the same pair dict, insertion
# order included.

_EPS = 1e-9


def spec_enhanced_edges(engine, tree, epsilon) -> Dict[int, float]:
    """Enhanced edges, one ``setdefault`` per reached same-layer centre."""
    factor = enhanced_edge_factor(epsilon)
    n = engine.num_pois
    entries: Dict[int, float] = {}
    for layer_number, layer in enumerate(tree.layers):
        nodes = [tree.node(node_id) for node_id in layer]
        centers_in_layer = {node.center for node in nodes}
        for node in nodes:
            bound = factor * node.radius * (1.0 + _EPS)
            reached = engine.distances_from_poi(
                node.center, radius=None if layer_number == 0 else bound)
            for other, distance in reached.items():
                if other == node.center or other not in centers_in_layer:
                    continue
                if distance > bound:
                    continue
                a, b = sorted((node.center, other))
                entries.setdefault((layer_number * n + a) * n + b, distance)
    return entries


def spec_edge_distance(edges, n, layer, center_a, center_b):
    """Distance of the enhanced edge at ``layer``, if present."""
    if center_a > center_b:
        center_a, center_b = center_b, center_a
    return edges.get((layer * n + center_a) * n + center_b)


def spec_pair_distance(edges, tree, n, center_a, center_b
                       ) -> Optional[float]:
    """Lemma 4's bottom-up walk for one centre pair."""
    if center_a == center_b:
        return 0.0
    start = max(tree.first_layer_of_center[center_a],
                tree.first_layer_of_center[center_b])
    for layer in range(tree.height, start - 1, -1):
        distance = spec_edge_distance(edges, n, layer, center_a, center_b)
        if distance is not None:
            return distance
    return None


def spec_generate_node_pairs(tree, epsilon, distance_of):
    """Section 3.3's generator, one pair at a time, wavefront order."""
    threshold = well_separated_threshold(epsilon)
    pairs: Dict[Tuple[int, int], float] = {}
    considered = 0
    frontier: List[Tuple[int, int]] = [(tree.root_id, tree.root_id)]
    while frontier:
        next_frontier: List[Tuple[int, int]] = []
        for pair in frontier:
            node_a = tree.node(pair[0])
            node_b = tree.node(pair[1])
            distance = distance_of(node_a.center, node_b.center)
            considered += 1
            larger = max(node_a.enlarged_radius, node_b.enlarged_radius)
            if distance >= threshold * larger * (1.0 - _EPS):
                pairs[pair] = distance
                continue
            if (node_a.radius, -node_a.node_id) \
                    >= (node_b.radius, -node_b.node_id):
                split, split_first = node_a, True
            else:
                split, split_first = node_b, False
            assert not split.is_leaf
            for child in split.children:
                next_frontier.append(
                    (child, pair[1]) if split_first else (pair[0], child))
        frontier = next_frontier
    return pairs, considered


def draw_trees(seed: int, num_pois: int, epsilon: float, strategy: str):
    mesh = make_terrain(grid_exponent=3, extent=(90.0, 70.0), relief=20.0,
                        seed=seed)
    pois = sample_uniform(mesh, num_pois, seed=seed + 1)
    engine = GeodesicEngine(mesh, pois, points_per_edge=seed % 2)
    original = build_partition_tree(engine, strategy=strategy, seed=seed)
    return engine, original, compress_tree(original)


workloads = st.tuples(st.integers(0, 500), st.integers(3, 20),
                      st.sampled_from((0.1, 0.25, 0.5, 1.0)),
                      st.sampled_from(("random", "greedy")))


@settings(max_examples=12, deadline=None)
@given(workloads)
def test_array_stages_match_spec(workload):
    seed, num_pois, epsilon, strategy = workload
    engine, original, tree = draw_trees(seed, num_pois, epsilon, strategy)
    n = engine.num_pois

    edges = spec_enhanced_edges(engine, original, epsilon)
    index = build_enhanced_edges(engine, original, epsilon, seed=seed)
    assert index.edge_count == len(edges)
    # Same keys, same first-seen winners, same insertion order.
    assert list(index._table.items()) == list(edges.items())

    grid = np.arange(n, dtype=np.int64)
    centers_a, centers_b = np.repeat(grid, n), np.tile(grid, n)
    walked = index.pair_distances(centers_a, centers_b)
    for a, b, got in zip(centers_a.tolist(), centers_b.tolist(),
                         walked.tolist()):
        expected = spec_pair_distance(edges, original, n, a, b)
        if expected is None:
            assert math.isnan(got)
        else:
            assert got == expected

    def spec_distance(a, b):
        return spec_pair_distance(edges, original, n, a, b)

    spec_pairs, spec_considered = spec_generate_node_pairs(
        tree, epsilon, spec_distance)
    generated = generate_node_pairs_batched(tree, epsilon,
                                            index.pair_distances)
    assert generated.considered == spec_considered
    assert list(generated.pairs.items()) == list(spec_pairs.items())


def test_walk_reports_missing_edges_as_nan():
    engine, original, _ = draw_trees(3, 10, 0.25, "random")
    index = build_enhanced_edges(engine, original, 0.25)
    # Emptying the table leaves every distinct-centre pair unresolved.
    index._table = PerfectHashMap([], seed=0)
    walked = index.pair_distances(np.array([0, 2, 4]), np.array([0, 5, 4]))
    assert walked[0] == 0.0 and walked[2] == 0.0
    assert math.isnan(walked[1])


def test_generator_rejects_unsplittable_leaf_pair():
    _, _, tree = draw_trees(5, 6, 0.5, "random")

    def always_close(centers_a: Sequence[int], centers_b) -> np.ndarray:
        # Negative between distinct centres: never separated.
        return np.where(np.asarray(centers_a) == np.asarray(centers_b),
                        0.0, -1.0)

    with pytest.raises(RuntimeError, match="cannot split leaf pair"):
        generate_node_pairs_batched(tree, 0.5, always_close)


def test_generator_rejects_misaligned_batch():
    _, _, tree = draw_trees(5, 6, 0.5, "random")
    with pytest.raises(ValueError, match="misaligned"):
        generate_node_pairs_batched(tree, 0.5,
                                    lambda a, b: np.zeros(len(a) + 1))


def test_oracle_recovers_missing_edges_with_ssads(monkeypatch):
    """Lemma 4 misses (never expected) fall back to P2P searches."""
    engine, _, _ = draw_trees(7, 12, 0.25, "random")
    reference = SEOracle(engine, 0.25, seed=7).build()
    walk = EnhancedEdgeIndex.pair_distances
    knocked = []

    def lossy(self, centers_a, centers_b):
        distances = walk(self, centers_a, centers_b)
        drop = np.flatnonzero(np.asarray(centers_a) != np.asarray(centers_b))
        drop = drop[::2]
        knocked.append(int(drop.size))
        distances[drop] = np.nan
        return distances

    monkeypatch.setattr(EnhancedEdgeIndex, "pair_distances", lossy)
    recovered = SEOracle(engine, 0.25, seed=7).build()
    assert recovered.stats.enhanced_lookup_fallbacks == sum(knocked) > 0
    assert list(recovered.pair_set.pairs) == list(reference.pair_set.pairs)
    for pair, distance in reference.pair_set.pairs.items():
        assert recovered.pair_set.pairs[pair] == pytest.approx(distance,
                                                               rel=1e-12)
