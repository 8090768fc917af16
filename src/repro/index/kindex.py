"""The k-index: similarity queries over time series via an R*-tree on DFT features.

A ``k``-index stores, for every series, the point

``(mean, std, coefficients 1..k of the normal form)``

in either the polar or the rectangular complex layout, inside an R-tree
variant.  Queries are answered in three phases, exactly as in the companion
evaluation:

1. **Preprocessing** — the query series is reduced to the same features; when
   a transformation is supplied it is applied to the query features and
   lowered (safely) to a per-coordinate map for the index's space; the
   epsilon-ball around the query point becomes a search rectangle.
2. **Search** — the R-tree is traversed one level at a time, transforming
   every bounding rectangle on the fly (Algorithm 2, vectorised per level by
   :meth:`RTree.search_many`), yielding *candidates*.  Keeping only ``k``
   coefficients can produce false hits but — by Parseval — never false
   dismissals (Lemma 1).
3. **Postprocessing** — the candidates' full records live in the index's
   :class:`~repro.storage.columnar.ColumnarRecordStore`; they are gathered
   and their exact distances computed as **one kernel call per batch** (a
   single query is a batch of one), instead of fetching and scoring Python
   records one at a time.

The class also supports nearest-neighbour queries and index-probe all-pairs
(self-join) queries under a transformation.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.errors import IndexError_, UnsafeTransformationError
from ..core.objects import FeatureVector
from ..core.spaces import PolarSpace
from ..core.transformations import LinearTransformation, RealLinearTransformation
from ..storage.columnar import (
    ColumnarRecordStore,
    exact_distances,
    gathered_pair_distances,
    transform_full_record,
)
from ..storage.pages import PageStore
from ..timeseries.features import SeriesFeatureExtractor, SeriesFeatures
from ..timeseries.series import TimeSeries
from ..timeseries.transforms import SpectralTransformation
from .geometry import Rect, mindist_batch
from .rstar import RStarTree
from .rtree import RTree

__all__ = ["QueryStatistics", "RangeQueryResult", "NearestNeighborResult", "KIndex"]

#: Lower bounds on the distance to every entry of a node, from the node's
#: ``(n, d)`` corner arrays.
LowerBounds = Callable[[np.ndarray, np.ndarray], list[float]]
#: Exact distances of a leaf's records, from their record ids.
LeafScorer = Callable[[np.ndarray], list[float]]


def _best_first(tree: RTree, lower_bounds: LowerBounds, score: LeafScorer
                ) -> Iterator[tuple[float, int, float]]:
    """Yield ``(lower bound, record id, exact distance)`` in ascending bound
    order (ties in push order) from a best-first traversal of ``tree``.

    Nodes open in the order of
    :func:`~repro.index.transformed.transformed_nearest_neighbors_iter`, and
    only when the caller pulls past them.  Each opened node is bounded with
    one ``lower_bounds`` call and each opened leaf scored with one ``score``
    call, so a record's exact distance is ready when it is pulled.
    """
    counter = itertools.count(1)
    heap: list[tuple[float, int, bool, int, float]] = [(0.0, 0, False, tree.root_id, 0.0)]
    while heap:
        bound, _, is_record, payload, distance = heapq.heappop(heap)
        if is_record:
            yield bound, payload, distance
            continue
        node = tree.visit(payload)
        if not node.entries:
            continue
        lows, highs, payloads = tree.node_arrays(node)
        bounds = lower_bounds(lows, highs)
        if node.is_leaf:
            for entry_bound, record_id, exact in zip(bounds, payloads.tolist(),
                                                     score(payloads)):
                heapq.heappush(heap, (entry_bound, next(counter), True, record_id, exact))
        else:
            for entry_bound, child_id in zip(bounds, payloads.tolist()):
                heapq.heappush(heap, (entry_bound, next(counter), False, child_id, 0.0))


@dataclass
class QueryStatistics:
    """Work counters for one query.

    ``node_accesses`` counts index-node (or, for sequential scans, data-page)
    visits; ``record_fetches`` counts the full records fetched for exact
    postprocessing — the random I/O an index pays per candidate but a scan
    gets for free with the pages it already read.  ``io_total`` combines the
    two into the evaluation's "disk access" currency, which is what the
    cost-based planner estimates and the crossover benchmark compares.  The
    ``internal/leaf`` split and the buffer counters are snapshots of
    :class:`~repro.index.rtree.NodeAccessStats` and
    :class:`~repro.storage.buffer.BufferStatistics` taken per query (per
    *batch* for grouped traversals, whose shared totals expose the saving).

    Batched execution keeps every counter **exact**: kernels verify gathered
    candidate blocks, and the counters are derived from the block shapes —
    per-element work is counted, never estimated.
    """

    node_accesses: int = 0
    candidates: int = 0
    postprocessed: int = 0
    elapsed_seconds: float = 0.0
    record_fetches: int = 0
    internal_node_accesses: int = 0
    leaf_node_accesses: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0

    @property
    def io_total(self) -> int:
        """Node/page accesses plus per-candidate record fetches."""
        return self.node_accesses + self.record_fetches

    def as_dict(self) -> dict[str, float]:
        """The counters as a plain dictionary (for benchmark reports)."""
        return {"node_accesses": self.node_accesses, "candidates": self.candidates,
                "postprocessed": self.postprocessed,
                "elapsed_seconds": self.elapsed_seconds,
                "record_fetches": self.record_fetches,
                "io_total": self.io_total,
                "internal_node_accesses": self.internal_node_accesses,
                "leaf_node_accesses": self.leaf_node_accesses,
                "buffer_hits": self.buffer_hits,
                "buffer_misses": self.buffer_misses}


@dataclass
class RangeQueryResult:
    """Answers of a range query, sorted by ascending exact distance."""

    answers: list[tuple[TimeSeries, float]] = field(default_factory=list)
    statistics: QueryStatistics = field(default_factory=QueryStatistics)

    def series(self) -> list[TimeSeries]:
        """Just the answer series."""
        return [series for series, _ in self.answers]

    def __len__(self) -> int:
        return len(self.answers)


@dataclass
class NearestNeighborResult:
    """Answers of a k-nearest-neighbour query, nearest first."""

    answers: list[tuple[TimeSeries, float]] = field(default_factory=list)
    statistics: QueryStatistics = field(default_factory=QueryStatistics)

    def __len__(self) -> int:
        return len(self.answers)


class KIndex:
    """An R-tree-backed similarity index over time series.

    Parameters
    ----------
    extractor:
        Feature configuration (number of coefficients, representation,
        whether mean/std are stored).  Defaults to the evaluation's setup:
        two coefficients in polar layout plus mean and standard deviation
        (a six-dimensional index).
    tree_kind:
        ``"rstar"`` (default), ``"rtree-quadratic"`` or ``"rtree-linear"``.
    max_entries:
        Node capacity of the underlying tree.
    page_store:
        Optional simulated page store for I/O accounting.
    """

    def __init__(self, extractor: SeriesFeatureExtractor | None = None, *,
                 tree_kind: str = "rstar", max_entries: int = 8,
                 page_store: PageStore | None = None) -> None:
        self.extractor = extractor if extractor is not None else SeriesFeatureExtractor()
        self.space = self.extractor.space
        self.tree = self._build_tree(tree_kind, max_entries, page_store)
        #: Columnar full records, one row per record id (dense, insertion
        #: order).  Shared with the executor's scan fallback and the
        #: statistics sampler through ``Database.columnar_store``.
        self.store = ColumnarRecordStore()
        self._point_rows: list[np.ndarray] = []

    def _build_tree(self, tree_kind: str, max_entries: int,
                    page_store: PageStore | None) -> RTree:
        dimension = self.space.dimension
        if tree_kind == "rstar":
            return RStarTree(dimension, max_entries=max_entries, page_store=page_store)
        if tree_kind == "rtree-quadratic":
            return RTree(dimension, max_entries=max_entries, split="quadratic",
                         page_store=page_store)
        if tree_kind == "rtree-linear":
            return RTree(dimension, max_entries=max_entries, split="linear",
                         page_store=page_store)
        raise IndexError_(f"unknown tree kind {tree_kind!r}")

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def _store_record(self, series: TimeSeries, features: SeriesFeatures) -> int:
        record_id = self.store.append(series,
                                      full_coefficients=features.full_coefficients,
                                      mean=features.mean, std=features.std)
        self._point_rows.append(features.point.values)
        return record_id

    def insert(self, series: TimeSeries) -> int:
        """Index one series; returns its record id."""
        features = self.extractor.extract(series)
        record_id = self._store_record(series, features)
        self.tree.insert(features.point.values, record_id)
        return record_id

    def extend(self, collection: Iterable[TimeSeries]) -> None:
        """Index every series of a collection."""
        for series in collection:
            self.insert(series)

    @classmethod
    def bulk_load(cls, collection: Iterable[TimeSeries],
                  extractor: SeriesFeatureExtractor | None = None, *,
                  tree_kind: str = "rstar", max_entries: int = 8,
                  page_store: PageStore | None = None) -> "KIndex":
        """Build an index with the Sort-Tile-Recursive bulk loader.

        Feature extraction still happens per series, but the tree is packed
        bottom-up in one pass instead of by repeated insertion — linear time
        rather than ``O(n log n)`` tree descents, and the packed nodes are
        fuller and overlap less, so range queries touch no more (usually
        fewer) nodes than on an insert-built tree.
        """
        index = cls(extractor, tree_kind=tree_kind, max_entries=max_entries,
                    page_store=page_store)
        series_list = list(collection)
        if not series_list:
            return index
        for series in series_list:
            index._store_record(series, index.extractor.extract(series))
        points = np.vstack(index._point_rows)
        index.tree.bulk_load_points(points, list(range(len(series_list))))
        return index

    def __len__(self) -> int:
        return len(self.store)

    def record(self, record_id: int) -> tuple[TimeSeries, SeriesFeatures]:
        """The stored series and its extracted features."""
        try:
            coefficients, mean, std = self.store.full_record(record_id)
            series = self.store.series(record_id)
            point = FeatureVector(self._point_rows[record_id])
        except IndexError:
            raise IndexError_(f"unknown record id {record_id}") from None
        return series, SeriesFeatures(point=point, full_coefficients=coefficients,
                                      mean=mean, std=std)

    def series_list(self) -> list[TimeSeries]:
        """All indexed series, in insertion order."""
        return self.store.series_list()

    def structure_summary(self) -> dict[str, float]:
        """The tree's structural facts plus the full-record size — what the
        planner's cost model prices index traversals and scans with."""
        summary = self.tree.structure_summary()
        summary["record_bytes"] = float(self.store.record_bytes())
        return summary

    def _snapshot_tree_stats(self, statistics: QueryStatistics) -> None:
        """Copy the tree's access (and buffer) counters into the statistics."""
        statistics.internal_node_accesses = self.tree.access_stats.internal
        statistics.leaf_node_accesses = self.tree.access_stats.leaf
        buffer = getattr(self.tree, "buffer", None)
        if buffer is not None:
            statistics.buffer_hits = buffer.stats.hits
            statistics.buffer_misses = buffer.stats.misses

    # ------------------------------------------------------------------
    # transformation plumbing
    # ------------------------------------------------------------------
    def _lower_transformation(self, transformation: SpectralTransformation |
                              LinearTransformation | None
                              ) -> tuple[LinearTransformation | None,
                                         RealLinearTransformation | None]:
        """Derive (prefix linear transformation, per-coordinate real map)."""
        if transformation is None:
            return None, None
        if isinstance(transformation, SpectralTransformation):
            linear = transformation.to_linear(self.extractor.num_coefficients,
                                              skip_first=True,
                                              include_extra=self.extractor.include_stats)
        elif isinstance(transformation, LinearTransformation):
            linear = transformation
            if linear.num_features != self.extractor.num_coefficients:
                raise IndexError_(
                    f"transformation acts on {linear.num_features} coefficients but the "
                    f"index stores {self.extractor.num_coefficients}"
                )
        else:
            raise IndexError_(
                "transformation must be a SpectralTransformation or LinearTransformation"
            )
        if not linear.is_safe_for(self.space):
            raise UnsafeTransformationError(
                f"transformation {linear.name!r} is not safe for the index space "
                f"{self.space.name}; pick the other representation or drop the offset"
            )
        return linear, linear.to_real(self.space)

    def _prepare_query(self, query: TimeSeries | FeatureVector,
                       transformation: SpectralTransformation | None,
                       linear: LinearTransformation | None, transform_query: bool
                       ) -> tuple[tuple[np.ndarray, float, float], FeatureVector]:
        """The query's full record and index point, both transformed unless
        there is no transformation or ``transform_query`` is off."""
        features = self._query_features(query)
        if transformation is None or not transform_query:
            return ((features.full_coefficients, features.mean, features.std),
                    features.point)
        full = transform_full_record(features.full_coefficients, features.mean,
                                     features.std, transformation,
                                     owner="stored record")
        return full, self._transform_point(features.point, linear)

    # ------------------------------------------------------------------
    # postprocessing without verification
    # ------------------------------------------------------------------
    def _filter_answers(self, candidates: Sequence[int], query_point: FeatureVector,
                        linear: LinearTransformation | None,
                        epsilon: float) -> list[tuple[TimeSeries, float]]:
        """``exact=False`` postprocessing: candidates within ``epsilon`` by
        their (transformed) *filter* distance, nearest first."""
        answers = []
        for record_id in candidates:
            point = self._transform_point(FeatureVector(self._point_rows[record_id]),
                                          linear)
            distance = self.space.distance(point, query_point)
            if distance <= epsilon:
                answers.append((self.store.series(record_id), distance))
        answers.sort(key=lambda pair: pair[1])
        return answers

    # ------------------------------------------------------------------
    # traversal hook (overridden by the partitioned facade; range searches
    # go through ``tree.search_many``, which the partition forest fans out
    # itself)
    # ------------------------------------------------------------------
    def _nearest_candidate_iter(self, lower_bounds: LowerBounds,
                                score: LeafScorer
                                ) -> Iterator[tuple[float, int, float]]:
        """``(filter lower bound, record id, exact distance)`` triples in
        ascending bound order."""
        return _best_first(self.tree, lower_bounds, score)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(self, query: TimeSeries | FeatureVector, epsilon: float, *,
                    transformation: SpectralTransformation | None = None,
                    transform_query: bool = True,
                    exact: bool = True) -> RangeQueryResult:
        """All series whose (transformed) representation lies within ``epsilon``
        of the (transformed) query.

        Parameters
        ----------
        query:
            A query series (reduced to features automatically) or an already
            encoded feature point.
        epsilon:
            The distance threshold.
        transformation:
            Optional :class:`SpectralTransformation` applied to the data (and
            by default also to the query, which is how "compare the moving
            averages of both series" is expressed).
        transform_query:
            When ``False`` the query features are used as given and only the
            data side is transformed.
        exact:
            When ``False`` postprocessing is skipped and candidates are
            returned with their *filter* distance — useful for measuring the
            false-hit rate of the index alone.

        Runs as a batch of one (:meth:`range_query_batch`).
        """
        return self.range_query_batch([query], epsilon, transformation=transformation,
                                      transform_query=transform_query, exact=exact)[0]

    def range_query_batch(self, queries: Sequence[TimeSeries | FeatureVector],
                          epsilon: float | Sequence[float], *,
                          transformation: SpectralTransformation | None = None,
                          transform_query: bool = True,
                          exact: bool = True) -> list[RangeQueryResult]:
        """Answer a batch of range queries with one shared tree traversal.

        All query windows are probed together, under the transformation if
        one is given: every tree node on the way is visited once for the
        whole batch and each level's entry-versus-window overlap tests run
        as one vectorised kernel (see :meth:`RTree.search_many`);
        exact-distance postprocessing gathers **all candidates of all
        queries** into a single kernel call over the columnar store.  Answers
        are identical to calling :meth:`range_query` once per query.

        ``epsilon`` may be a single threshold or one per query.

        Each result's ``node_accesses`` reports the *shared* traversal total,
        which is the batch's actual I/O cost — summing it over the batch
        would double count.
        """
        queries = list(queries)
        epsilons = np.broadcast_to(np.asarray(epsilon, dtype=np.float64),
                                   (len(queries),))
        if np.any(epsilons < 0):
            raise ValueError("epsilon must be non-negative")
        if not queries:
            return []
        started = time.perf_counter()
        self.tree.reset_stats()
        linear, real_map = self._lower_transformation(transformation)
        query_fulls = []
        query_points = []
        windows = []
        for query, eps in zip(queries, epsilons):
            full, point = self._prepare_query(query, transformation, linear,
                                              transform_query)
            query_fulls.append(full)
            query_points.append(point)
            windows.append(Rect(*self.space.search_rectangle(point, float(eps))))
        candidate_lists = self.tree.search_many(
            windows, periodic_dims=self.space.periodic_dimension_mask(),
            transformation=real_map)
        shared_accesses = self.tree.access_stats.total
        results = [RangeQueryResult() for _ in queries]
        for result, candidates in zip(results, candidate_lists):
            result.statistics.candidates = len(candidates)
            result.statistics.node_accesses = shared_accesses
        if exact:
            self._verify_batch(candidate_lists, query_fulls, transformation,
                               epsilons, results)
        else:
            for index, candidates in enumerate(candidate_lists):
                results[index].answers = self._filter_answers(
                    candidates, query_points[index], linear, float(epsilons[index]))
        elapsed_share = (time.perf_counter() - started) / len(queries)
        for result in results:
            if exact:
                result.statistics.postprocessed = result.statistics.candidates
            result.statistics.record_fetches = result.statistics.postprocessed
            self._snapshot_tree_stats(result.statistics)
            result.statistics.elapsed_seconds = elapsed_share
        return results

    def _verify_batch(self, candidate_lists: Sequence[Sequence[int]],
                      query_fulls: list[tuple[np.ndarray, float, float]],
                      transformation: SpectralTransformation | None,
                      epsilons: np.ndarray,
                      results: list[RangeQueryResult]) -> None:
        """One gathered verification pass for a whole batch of range queries."""
        counts = [len(candidates) for candidates in candidate_lists]
        total = sum(counts)
        if total == 0:
            return
        row_ids = np.concatenate([
            np.asarray(candidates, dtype=np.intp) if len(candidates) else
            np.zeros(0, dtype=np.intp) for candidates in candidate_lists])
        query_index = np.repeat(np.arange(len(candidate_lists), dtype=np.intp),
                                counts)
        query_lengths = np.array([full[0].shape[0] for full in query_fulls],
                                 dtype=np.intp)
        width = int(query_lengths.max()) if len(query_fulls) else 0
        query_matrix = np.zeros((len(query_fulls), width), dtype=np.complex128)
        for position, full in enumerate(query_fulls):
            query_matrix[position, :full[0].shape[0]] = full[0]
        query_means = np.array([full[1] for full in query_fulls])
        query_stds = np.array([full[2] for full in query_fulls])
        coefficients, means, stds = self.store.transformed_arrays(transformation)
        distances = gathered_pair_distances(
            coefficients, self.store.lengths, means, stds,
            self.extractor.include_stats, row_ids,
            query_matrix, query_lengths, query_means, query_stds, query_index)
        offset = 0
        for index, count in enumerate(counts):
            block = distances[offset:offset + count]
            ids = row_ids[offset:offset + count]
            offset += count
            keep = np.nonzero(block <= float(epsilons[index]))[0]
            order = keep[np.argsort(block[keep], kind="stable")]
            results[index].answers = [(self.store.series(int(ids[i])),
                                       float(block[i])) for i in order]

    def nearest_neighbors_batch(self, queries: Sequence[TimeSeries | FeatureVector],
                                k: int = 1, *,
                                transformation: SpectralTransformation | None = None,
                                transform_query: bool = True
                                ) -> list[NearestNeighborResult]:
        """Nearest-neighbour queries for a batch, one result per query.

        Best-first search cannot share a traversal across different query
        points, so batching here amortises setup only.
        """
        return [self.nearest_neighbors(query, k, transformation=transformation,
                                       transform_query=transform_query)
                for query in queries]

    def nearest_neighbors(self, query: TimeSeries | FeatureVector, k: int = 1, *,
                          transformation: SpectralTransformation | None = None,
                          transform_query: bool = True) -> NearestNeighborResult:
        """The ``k`` indexed series nearest to the query (exact distances).

        The search pulls candidates from an incremental best-first
        branch-and-bound over transformed rectangles (filter distances are
        lower bounds on exact distances) and stops as soon as the next
        filter lower bound exceeds the current k-th exact distance — so the
        answer is exact, not merely a re-ranking of a fixed candidate pool.

        Each opened node's rectangles are transformed as one array and
        bounded in one pass; each opened leaf's records are scored with one
        gathered exact-distance kernel call.  A record counts as a
        candidate (and a record fetch) only when the search pulls it, and
        the current best ``k`` live in a bounded heap.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        started = time.perf_counter()
        self.tree.reset_stats()
        linear, real_map = self._lower_transformation(transformation)
        query_full, query_point = self._prepare_query(query, transformation, linear,
                                                      transform_query)
        point = query_point.values
        space = self.space

        def lower_bounds(lows: np.ndarray, highs: np.ndarray) -> list[float]:
            if real_map is not None:
                lows, highs = real_map.apply_bounds(lows, highs)
            if isinstance(space, PolarSpace):
                return space.mindist_to_rectangles(point, lows, highs)
            return mindist_batch(point, lows, highs).tolist()

        coefficients, means, stds = self.store.transformed_arrays(transformation)

        def score(record_ids: np.ndarray) -> list[float]:
            return exact_distances(coefficients, self.store.lengths, means, stds,
                                   *query_full, self.extractor.include_stats,
                                   row_ids=record_ids).tolist()

        # Max-heap of the best k as (-distance, -pull number, record id): the
        # root is the k-th nearest, the latest pull losing ties.
        best: list[tuple[float, int, int]] = []
        pulled = 0
        for bound, record_id, distance in self._nearest_candidate_iter(lower_bounds,
                                                                       score):
            if len(best) >= k and bound > -best[0][0]:
                break
            pulled += 1
            if len(best) < k:
                heapq.heappush(best, (-distance, -pulled, record_id))
            elif distance < -best[0][0]:
                heapq.heapreplace(best, (-distance, -pulled, record_id))
        best.sort(reverse=True)
        result = NearestNeighborResult(
            answers=[(self.store.series(record_id), -negated)
                     for negated, _, record_id in best])
        result.statistics.candidates = pulled
        result.statistics.postprocessed = pulled
        result.statistics.record_fetches = pulled
        result.statistics.node_accesses = self.tree.access_stats.total
        self._snapshot_tree_stats(result.statistics)
        result.statistics.elapsed_seconds = time.perf_counter() - started
        return result

    def all_pairs(self, epsilon: float, *,
                  transformation: SpectralTransformation | None = None
                  ) -> tuple[list[tuple[TimeSeries, TimeSeries, float]], QueryStatistics]:
        """Self-join: every ordered pair of distinct series within ``epsilon``.

        Implemented as one index probe per stored series (methods (c)/(d) of
        the original join experiment): each series becomes a range query
        posed to the index, under the same transformation on both sides.
        Each probe's candidate verification runs through the gathered
        kernel, so the quadratic postprocessing is vectorised even though
        the probes stay per-record.
        """
        started = time.perf_counter()
        pairs: list[tuple[TimeSeries, TimeSeries, float]] = []
        stats = QueryStatistics()
        for record_id in range(len(self.store)):
            series = self.store.series(record_id)
            result = self.range_query(series, epsilon, transformation=transformation)
            stats.node_accesses += result.statistics.node_accesses
            stats.candidates += result.statistics.candidates
            stats.postprocessed += result.statistics.postprocessed
            stats.record_fetches += result.statistics.record_fetches
            stats.internal_node_accesses += result.statistics.internal_node_accesses
            stats.leaf_node_accesses += result.statistics.leaf_node_accesses
            for other, distance in result.answers:
                if other.object_id != series.object_id:
                    pairs.append((series, other, distance))
        stats.elapsed_seconds = time.perf_counter() - started
        return pairs, stats

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _query_features(self, query: TimeSeries | FeatureVector) -> SeriesFeatures:
        if isinstance(query, TimeSeries):
            return self.extractor.extract(query)
        if isinstance(query, FeatureVector):
            # A bare point has no full record: treat its encoded coefficients
            # as the complete description (exact distances then equal filter
            # distances).
            extra, feats = self.space.decode(query)
            mean = float(extra[0]) if extra.shape[0] > 0 else 0.0
            std = float(extra[1]) if extra.shape[0] > 1 else 0.0
            return SeriesFeatures(point=query, full_coefficients=feats, mean=mean, std=std)
        raise IndexError_("query must be a TimeSeries or a FeatureVector")

    def _transform_point(self, point: FeatureVector,
                         linear: LinearTransformation | None) -> FeatureVector:
        if linear is None:
            return point
        return linear.apply_point(point, self.space)

    def __repr__(self) -> str:
        return (f"KIndex(size={len(self)}, k={self.extractor.num_coefficients}, "
                f"representation={self.extractor.representation!r}, "
                f"tree={type(self.tree).__name__})")
