"""Differential tests: the level-synchronous traversal and the exact
best-first nearest-neighbour search against the reference Algorithm 2 code.

``RTree.search_many`` tests a whole tree level in one kernel call; the
reference, :func:`transformed_range_search`, descends one entry at a time
with a scalar, periodic-aware overlap predicate.  Both must return the same
candidates *and* open the same nodes.  ``KIndex.nearest_neighbors`` must
pull the same candidates, open the same nodes and answer the same as the
incremental reference stream :func:`transformed_nearest_neighbors_iter`
consumed with the one-record-at-a-time exact verification it replaced.

Every case runs on insert-built (linear, quadratic, R*) and STR-packed
trees, in the polar and the rectangular layout, with no transformation and
with one that has negative scales; between two rounds of probes more data
is inserted, so a stale per-node cache would show.
"""

from __future__ import annotations

import math
import zlib

import numpy as np
import pytest

from repro import TimeSeries, random_walk_collection
from repro.core.objects import FeatureVector
from repro.core.spaces import PolarSpace, RectangularSpace
from repro.core.transformations import RealLinearTransformation
from repro.index.geometry import Rect
from repro.index.kindex import KIndex
from repro.index.rstar import RStarTree
from repro.index.rtree import RTree
from repro.index.transformed import (
    transformed_nearest_neighbors_iter,
    transformed_range_search,
)
from repro.storage.columnar import transform_full_record
from repro.timeseries.features import SeriesFeatureExtractor, record_distance
from repro.timeseries.transforms import reverse_spectral

SPACES = {"polar": PolarSpace(2, 2), "rectangular": RectangularSpace(2, 2)}


def periodic_overlap(space):
    """The scalar reference overlap test: angles compare modulo ``2*pi``
    through :meth:`PolarSpace.angle_intervals_overlap`."""
    if not isinstance(space, PolarSpace):
        return None
    mask = space.periodic_dimension_mask().tolist()

    def overlap(a: Rect, b: Rect) -> bool:
        for dim, periodic in enumerate(mask):
            if periodic:
                if not PolarSpace.angle_intervals_overlap(a.low[dim], a.high[dim],
                                                          b.low[dim], b.high[dim]):
                    return False
            elif a.low[dim] > b.high[dim] or b.low[dim] > a.high[dim]:
                return False
        return True

    return overlap


def random_points(space, rng, count: int) -> np.ndarray:
    if isinstance(space, PolarSpace):
        extras = rng.normal(size=(count, 2))
        features = rng.uniform(0.0, 3.0, size=(count, 2)) * np.exp(
            1j * rng.uniform(-math.pi, math.pi, size=(count, 2)))
        return np.vstack([space.encode(f, e).values for f, e in zip(features, extras)])
    return rng.normal(scale=2.0, size=(count, space.dimension))


def negative_scale(space) -> RealLinearTransformation:
    if isinstance(space, PolarSpace):
        # Conjugation (angles negate) and a sign flip of the mean.
        return RealLinearTransformation([-1.0, 1.5, 0.5, -1.0, 2.0, -1.0],
                                        [0.3, 0.0, 0.0, 0.0, 0.0, 0.0])
    return RealLinearTransformation([-1.0, 2.0, -0.5, 1.0, -1.5, 1.0],
                                    [0.0, 0.5, 0.0, -1.0, 0.0, 0.0])


def windows_for(space, rng) -> list[Rect]:
    """Query windows; in the polar layout several straddle the +-pi seam."""
    centres = random_points(space, rng, 10)
    if isinstance(space, PolarSpace):
        centres[:4, 3] = [math.pi - 0.05, -math.pi + 0.05, math.pi, -math.pi + 0.2]
        centres[:4, 2] = 2.5
    base = 1.2 if isinstance(space, PolarSpace) else 2.2
    windows = []
    for position, centre in enumerate(centres):
        epsilon = base * (1.0 + 0.25 * (position % 4))
        windows.append(Rect(*space.search_rectangle(FeatureVector(centre), epsilon)))
    return windows


TREE_FACTORIES = {
    "linear": lambda d, pts: _inserted(RTree(d, max_entries=5, split="linear"), pts),
    "quadratic": lambda d, pts: _inserted(RTree(d, max_entries=5, split="quadratic"), pts),
    "rstar": lambda d, pts: _inserted(RStarTree(d, max_entries=5), pts),
    "str": lambda d, pts: RTree.bulk_load(pts, list(range(len(pts))), max_entries=5),
}


def _inserted(tree: RTree, points: np.ndarray) -> RTree:
    for record, point in enumerate(points):
        tree.insert(point, record)
    return tree


def _probe(tree: RTree, call):
    tree.reset_stats()
    found = call()
    return found, (tree.access_stats.internal, tree.access_stats.leaf)


@pytest.mark.parametrize("space_name", sorted(SPACES))
@pytest.mark.parametrize("tree_name", sorted(TREE_FACTORIES))
@pytest.mark.parametrize("transformed", [False, True], ids=["identity", "negative-scale"])
def test_search_many_matches_reference(space_name, tree_name, transformed):
    space = SPACES[space_name]
    rng = np.random.default_rng(zlib.crc32(f"{space_name}/{tree_name}/{transformed}".encode()))
    points = random_points(space, rng, 240)
    tree = TREE_FACTORIES[tree_name](space.dimension, points)
    transformation = negative_scale(space) if transformed else None
    overlap = periodic_overlap(space)
    periodic = space.periodic_dimension_mask()
    windows = windows_for(space, rng)
    for round_number in range(2):
        if round_number:
            extra = random_points(space, rng, 60)
            for offset, point in enumerate(extra):
                tree.insert(point, len(points) + offset)
        reference_total = 0
        for window in windows:
            expected, expected_accesses = _probe(tree, lambda: transformed_range_search(
                tree, window, transformation, overlap=overlap))
            got, accesses = _probe(tree, lambda: tree.search_many(
                [window], periodic_dims=periodic, transformation=transformation)[0])
            assert sorted(got) == sorted(expected)
            assert accesses == expected_accesses
            reference_total += sum(expected_accesses)
        batched, batch_accesses = _probe(tree, lambda: tree.search_many(
            windows, periodic_dims=periodic, transformation=transformation))
        for window, got in zip(windows, batched):
            expected = transformed_range_search(tree, window, transformation,
                                                overlap=overlap)
            assert sorted(got) == sorted(expected)
        # Shared traversal: every node opens at most once for the batch.
        assert sum(batch_accesses) <= reference_total


# ----------------------------------------------------------------------
# k-index nearest neighbours
# ----------------------------------------------------------------------
def reference_nearest(index: KIndex, query, k: int, transformation):
    """The incremental NN the k-index ran before: the reference stream with
    one exact verification per pulled candidate."""
    extractor = index.extractor
    features = extractor.extract(query)
    query_full = (features.full_coefficients, features.mean, features.std)
    point = features.point
    real_map = None
    if transformation is not None:
        linear = transformation.to_linear(extractor.num_coefficients, skip_first=True,
                                          include_extra=extractor.include_stats)
        real_map = linear.to_real(index.space)
        point = linear.apply_point(point, index.space)
        query_full = transform_full_record(*query_full, transformation)
    distance_to_rect = None
    if isinstance(index.space, PolarSpace):
        def distance_to_rect(values, rect):
            return index.space.mindist_to_rectangle(FeatureVector(values),
                                                    rect.low, rect.high)
    index.tree.reset_stats()
    best, pulled = [], 0
    for bound, record_id in transformed_nearest_neighbors_iter(
            index.tree, point.values, real_map, distance_to_rect):
        if len(best) >= k and bound > best[k - 1][1]:
            break
        pulled += 1
        full = transform_full_record(*index.store.full_record(record_id), transformation)
        best.append((index.store.series(record_id).object_id,
                     record_distance(full, query_full, extractor.include_stats)))
        best.sort(key=lambda pair: pair[1])
    stats = index.tree.access_stats
    return best[:k], pulled, (stats.internal, stats.leaf)


def _kindex(representation: str, tree_name: str, data) -> KIndex:
    extractor = SeriesFeatureExtractor(num_coefficients=2, representation=representation)
    if tree_name == "str":
        return KIndex.bulk_load(data, extractor, max_entries=5)
    kind = {"linear": "rtree-linear", "quadratic": "rtree-quadratic",
            "rstar": "rstar"}[tree_name]
    index = KIndex(extractor, tree_kind=kind, max_entries=5)
    index.extend(data)
    return index


@pytest.mark.parametrize("representation", ["polar", "rectangular"])
@pytest.mark.parametrize("tree_name", sorted(TREE_FACTORIES))
@pytest.mark.parametrize("transformed", [False, True], ids=["identity", "negative-scale"])
def test_nearest_neighbors_match_reference(representation, tree_name, transformed):
    walks = random_walk_collection(190, 64, seed=17)
    # Copies of stored series tie with their originals (equal bounds, equal
    # exact distances), and queries that are stored series have bound 0 at
    # distance 0: the pull rule and tie order must hold on those too.
    copies = [TimeSeries(series.values, name=f"copy-{series.name}") for series in walks[:6]]
    data, more = walks[:150] + copies, walks[150:180]
    queries = walks[180:] + [walks[2], walks[5]]
    index = _kindex(representation, tree_name, data)
    # reverse_spectral flips the mean's sign (a negative scale in both
    # layouts) and, in the polar one, turns every angle by pi.
    transformation = reverse_spectral(64) if transformed else None
    for round_number in range(2):
        if round_number:
            index.extend(more)
        for query in queries:
            for k in (1, 5):
                expected, pulled, accesses = reference_nearest(index, query, k,
                                                               transformation)
                result = index.nearest_neighbors(query, k, transformation=transformation)
                statistics = result.statistics
                assert [(s.object_id, d) for s, d in result.answers] == expected
                assert statistics.candidates == pulled
                assert statistics.record_fetches == pulled
                assert (statistics.internal_node_accesses,
                        statistics.leaf_node_accesses) == accesses
