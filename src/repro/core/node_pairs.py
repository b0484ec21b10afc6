"""Node pair set (WSPD) and enhanced edges — SE component 2 (§3.3, §3.5).

Two nodes of the compressed tree are *well-separated* when the geodesic
distance between their centres is at least ``(2/ε + 2)`` times the
larger of their enlarged-disk radii.  The node pair set is generated by
recursively splitting non-well-separated pairs starting from
``(root, root)``; Theorem 1 guarantees that exactly one resulting pair
*contains* any ordered POI pair ``(p, q)``, and that the centre
distance stored with that pair ε-approximates ``d_g(p, q)``.

Every considered pair needs the geodesic distance between its centres.
The *naive* construction runs one SSAD per pair; the *efficient*
construction (Section 3.5) instead precomputes **enhanced edges**: for
every node ``O`` of the original partition tree, one radius-bounded
SSAD from ``c_O`` records the distance to every same-layer centre
within ``l * r_O`` where ``l = 8/ε + 10``.  Lemma 4 proves that every
pair the generator considers finds its centre distance on some
enhanced edge, discoverable in O(h) by walking both centre chains
bottom-up through the layers.

Enhanced edges are keyed by ``(layer, centre_a, centre_b)`` — exactly
the identity of a same-layer node pair in ``T_org``, since a node of
``T_org`` is determined by its layer and centre.

Both stages run on arrays rather than per element: each layer's SSAD
rows are flattened and reduced by mask, the generator keeps its
frontier as two node-id arrays, and the Lemma 4 walk resolves a whole
frontier with one batched hash probe per layer.  The output — edge
set, pair set, insertion order and distances — is that of the
element-wise formulation the paper states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..datastructures.perfect_hash import PerfectHashMap
from ..geodesic.engine import GeodesicEngine
from .compressed_tree import CompressedPartitionTree
from .parallel import BuildExecutor, SerialExecutor
from .partition_tree import PartitionTree

__all__ = [
    "EnhancedEdgeIndex",
    "build_enhanced_edges",
    "NodePairSet",
    "generate_node_pairs_batched",
    "well_separated_threshold",
]

#: Batched centre-distance provider: one call answers a whole round of
#: pair candidates (``(centres_a, centres_b) -> distances``, aligned
#: arrays), which is what lets the naive construction fan its SSADs
#: out across a build executor.
BatchDistanceProvider = Callable[[np.ndarray, np.ndarray], np.ndarray]

_EPS = 1e-9


def well_separated_threshold(epsilon: float) -> float:
    """The separation factor ``2/ε + 2``."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 2.0 / epsilon + 2.0


def enhanced_edge_factor(epsilon: float) -> float:
    """``l = 8/ε + 10`` (about 4x the well-separated factor)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 8.0 / epsilon + 10.0


class EnhancedEdgeIndex:
    """Perfect-hash index of enhanced edges with O(h) pair lookup.

    The key of an edge between same-layer nodes centred ``a`` and ``b``
    is ``(layer, min(a,b), max(a,b))`` packed into one integer.
    """

    def __init__(self, table: PerfectHashMap, tree: PartitionTree,
                 num_pois: int, edge_count: int):
        self._table = table
        self._n = num_pois
        self._height = tree.height
        self._first_layer = np.array(
            [tree.first_layer_of_center[poi]
             for poi in range(num_pois)], dtype=np.int64)
        self.edge_count = edge_count

    def pair_distances(self, centers_a: np.ndarray,
                       centers_b: np.ndarray) -> np.ndarray:
        """Centre distances via the deepest enhanced edge on both chains.

        Walks layers bottom-up (Step 4's traversal) with one
        ``get_batch`` per layer over the pairs still unresolved.  A key
        only exists at layers where *both* centres already head their
        own node, so the first hit connects nodes centred exactly at
        the two centres (see Lemma 4 discussion).  Equal centres read
        0; a pair with no edge on its chains reads ``nan``.
        """
        low = np.minimum(centers_a, centers_b).astype(np.int64)
        high = np.maximum(centers_a, centers_b).astype(np.int64)
        result = np.full(low.shape, np.nan)
        result[low == high] = 0.0
        pending = np.flatnonzero(low != high)
        start = np.maximum(self._first_layer[low], self._first_layer[high])
        n = self._n
        for layer in range(self._height, -1, -1):
            pending = pending[start[pending] <= layer]
            if not pending.size:
                break
            keys = (layer * n + low[pending]) * n + high[pending]
            found = self._table.get_batch(keys)
            hit = ~np.isnan(found)
            result[pending[hit]] = found[hit]
            pending = pending[~hit]
        return result

    def size_bytes(self) -> int:
        return self._table.size_bytes(value_bytes=8)


def build_enhanced_edges(engine: GeodesicEngine, tree: PartitionTree,
                         epsilon: float, seed: int = 0,
                         executor: Optional[BuildExecutor] = None
                         ) -> EnhancedEdgeIndex:
    """Step 2 of the efficient construction: one SSAD per tree node.

    For every node ``O`` of ``T_org`` run a radius-bounded SSAD from
    ``c_O`` out to ``l * r_O`` and record an edge to every same-layer
    centre found inside.  The root layer (radius ``r_0``) covers all of
    ``P`` by construction, so its SSAD runs in cover-all mode.

    This is the fan-out stage of the build pipeline: each layer is one
    SSAD batch handed to ``executor`` (default: a
    :class:`~repro.core.parallel.SerialExecutor` on the live engine).
    Each layer's rows are flattened into arrays and filtered by mask
    (same-layer centre, within the bound, not the source); an edge
    reached from both ends keeps the distance seen first in layer/node
    order, so the index is identical whichever executor ran the batch.
    """
    if executor is None:
        executor = SerialExecutor()
        executor.bind(engine)
    factor = enhanced_edge_factor(epsilon)
    n = engine.num_pois
    layer_keys: List[np.ndarray] = []
    layer_distances: List[np.ndarray] = []
    for layer_number, layer in enumerate(tree.layers):
        nodes = [tree.node(node_id) for node_id in layer]
        centers = np.array([node.center for node in nodes], dtype=np.int64)
        bounds = np.array([factor * node.radius * (1.0 + _EPS)
                           for node in nodes])
        radii = [None] * len(nodes) if layer_number == 0 else bounds.tolist()
        reached_per_node = executor.map_ssad(
            list(zip(centers.tolist(), radii)))
        if len(reached_per_node) != len(nodes):
            raise ValueError("executor returned a misaligned batch")
        sizes = np.array([len(reached) for reached in reached_per_node],
                         dtype=np.int64)
        total = int(sizes.sum())
        others = np.fromiter(chain.from_iterable(reached_per_node),
                             dtype=np.int64, count=total)
        distances = np.fromiter(
            chain.from_iterable(reached.values()
                                for reached in reached_per_node),
            dtype=np.float64, count=total)
        source = np.repeat(centers, sizes)
        in_layer = np.zeros(n, dtype=bool)
        in_layer[centers] = True
        keep = (in_layer[others] & (others != source)
                & (distances <= np.repeat(bounds, sizes)))
        low = np.minimum(source[keep], others[keep])
        high = np.maximum(source[keep], others[keep])
        layer_keys.append((layer_number * n + low) * n + high)
        layer_distances.append(distances[keep])

    keys = np.concatenate(layer_keys)
    distances = np.concatenate(layer_distances)
    _, first = np.unique(keys, return_index=True)
    first.sort()  # first-seen order, as a dict's setdefault keeps it
    table = PerfectHashMap(zip(keys[first].tolist(),
                               distances[first].tolist()), seed=seed)
    return EnhancedEdgeIndex(table, tree, n, edge_count=int(first.size))


@dataclass
class NodePairSet:
    """The generated node pair set with its distances.

    ``pairs`` maps ordered compressed-node-id pairs ``(o1, o2)`` to the
    geodesic distance between their centres.  ``considered`` counts all
    pairs examined by the generator (Theorem 2's bound).
    """

    pairs: Dict[Tuple[int, int], float]
    considered: int
    epsilon: float

    def __len__(self) -> int:
        return len(self.pairs)

    def distance_of(self, node_a: int, node_b: int) -> Optional[float]:
        return self.pairs.get((node_a, node_b))


def generate_node_pairs_batched(tree: CompressedPartitionTree,
                                epsilon: float,
                                batch_provider: BatchDistanceProvider
                                ) -> NodePairSet:
    """The Section 3.3 generator, wavefront-staged on id arrays.

    Starting from ``(root, root)``, repeatedly split the node with the
    larger radius (ties: smaller node id) of any non-well-separated
    pair, until all pairs are well-separated.  Pairs are expanded in
    rounds: each round asks ``batch_provider`` for the centre
    distances of the whole frontier at once, tests separation on
    arrays, and expands the split nodes' children with ``np.repeat``
    over a children CSR, in frontier order.  Whether a pair is split
    depends only on its own distance, so the generated pair set — its
    insertion order included — and the ``considered`` count are
    exactly those of the depth-first reference formulation,
    independent of round structure or of how a build executor chunks
    the batch.
    """
    threshold = well_separated_threshold(epsilon)
    nodes = tree.nodes
    center = np.array([node.center for node in nodes], dtype=np.int64)
    radius = np.array([node.radius for node in nodes], dtype=np.float64)
    enlarged = np.array([node.enlarged_radius for node in nodes],
                        dtype=np.float64)
    child_count = np.array([len(node.children) for node in nodes],
                           dtype=np.int64)
    child_start = np.concatenate([[0], np.cumsum(child_count)[:-1]])
    children = np.fromiter(
        chain.from_iterable(node.children for node in nodes),
        dtype=np.int64, count=int(child_count.sum()))

    pairs: Dict[Tuple[int, int], float] = {}
    considered = 0
    first = np.array([tree.root_id], dtype=np.int64)
    second = first.copy()
    while first.size:
        distances = np.asarray(batch_provider(center[first], center[second]),
                               dtype=np.float64)
        if distances.shape != first.shape:
            raise ValueError("batch provider returned a misaligned batch")
        considered += int(first.size)
        larger = np.maximum(enlarged[first], enlarged[second])
        # Well-separated (leaf self-pairs land here with 0 >= 0).
        separated = distances >= threshold * larger * (1.0 - _EPS)
        pairs.update(zip(zip(first[separated].tolist(),
                             second[separated].tolist()),
                         distances[separated].tolist()))
        first = first[~separated]
        second = second[~separated]
        # Split the node with the larger radius; ties -> smaller id.
        split_first = (radius[first] > radius[second]) | (
            (radius[first] == radius[second]) & (first <= second))
        split = np.where(split_first, first, second)
        if (child_count[split] == 0).any():
            # Both leaves and not separated: only possible for
            # identical centres, which dedup rules out; guard anyway.
            position = int(np.flatnonzero(child_count[split] == 0)[0])
            raise RuntimeError(
                f"cannot split leaf pair ({first[position]}, "
                f"{second[position]}); duplicate POIs present?")
        counts = child_count[split]
        owner = np.repeat(np.arange(split.size), counts)
        rank = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
        child = children[child_start[split][owner] + rank]
        keep_first = split_first[owner]
        first, second = (np.where(keep_first, child, first[owner]),
                         np.where(keep_first, second[owner], child))

    return NodePairSet(pairs=pairs, considered=considered, epsilon=epsilon)
