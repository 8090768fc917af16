"""Partitioned index facades: per-partition sub-indexes, one index surface.

Partition-parallel execution wants the index layer shaped like the storage
layer: fixed-size row partitions, each with its own independently bulk-
loaded structure, behind a facade that looks exactly like the monolithic
index to everything above it.

* :class:`PartitionedIndex` is a drop-in :class:`~repro.index.kindex.KIndex`
  whose "tree" is a :class:`_PartitionForest` — one STR-bulk-loaded R-tree
  per ``partition_rows`` block of record ids.  The **whole** KIndex query
  surface (three-phase range search, incremental nearest neighbours,
  batched traversals, gathered verification, counters) is inherited; only
  the traversal hooks fan out across sub-trees.  One shared
  :class:`~repro.storage.columnar.ColumnarRecordStore` keeps record ids
  global and dense, so ``Database.columnar_store`` adoption, ``len()``, and
  ``state_token`` semantics are unchanged.
* :class:`PartitionedMetricIndex` composes per-partition vantage-point
  trees (:class:`~repro.index.metric.MetricIndex`) the same way for metric
  domains.

Merging is deterministic and independent of the worker count, so answers
are identical at any ``workers`` setting:

* range candidates concatenate in partition order and flow through the
  inherited gathered verification (final order: stable sort by exact
  distance);
* nearest-neighbour candidate streams merge with a k-way heap on
  ``(filter lower bound, record id)`` — each per-partition stream is
  already ascending, so the merged stream is the ascending global stream
  and the inherited stopping rule applies unchanged;
* work counters sum over partitions.  Each sub-structure's counters are
  touched by exactly one worker task, so sums taken after the fan-out
  joins are exact — no shared mutable counter is raced.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..core.parallel import parallel_map, resolve_workers
from ..core.transformations import RealLinearTransformation
from ..storage.buffer import BufferStatistics
from ..storage.pages import PageStore
from ..storage.partition import DEFAULT_PARTITION_ROWS
from ..timeseries.features import SeriesFeatureExtractor
from .kindex import KIndex, NearestNeighborResult, RangeQueryResult, _best_first
from .metric import MetricIndex
from .rtree import NodeAccessStats, RTree

__all__ = ["PartitionedIndex", "PartitionedMetricIndex"]


class _AggregateBuffer:
    """A read-only view summing the sub-trees' buffer-pool statistics."""

    def __init__(self, buffers: Sequence[Any]) -> None:
        self._buffers = list(buffers)

    @property
    def stats(self) -> BufferStatistics:
        return BufferStatistics(
            hits=sum(buffer.stats.hits for buffer in self._buffers),
            misses=sum(buffer.stats.misses for buffer in self._buffers),
            evictions=sum(buffer.stats.evictions for buffer in self._buffers))


class _PartitionForest:
    """A list of per-partition R-trees wearing the single-tree interface.

    Record ids are assumed dense and ascending (they are: the store assigns
    them in insertion order), so ``record_id // partition_rows`` names the
    owning sub-tree.  The pieces of the :class:`~repro.index.rtree.RTree`
    surface the :class:`~repro.index.kindex.KIndex` relies on — ``insert``,
    ``bulk_load_points``, ``search_many``, ``reset_stats``,
    ``access_stats``, ``buffer``, ``structure_summary`` — aggregate over the
    sub-trees; traversal entry points that need a root (``root_id`` /
    ``visit``) intentionally do not exist, which is what forces partition-
    aware callers through the facade's fan-out hooks.
    """

    def __init__(self, tree_factory: Callable[[], RTree],
                 partition_rows: int, workers: int) -> None:
        self._tree_factory = tree_factory
        self.partition_rows = max(1, int(partition_rows))
        self.workers = workers
        self.trees: list[RTree] = []

    def _tree_for(self, record_id: int) -> RTree:
        position = record_id // self.partition_rows
        while len(self.trees) <= position:
            self.trees.append(self._tree_factory())
        return self.trees[position]

    def insert(self, rect_or_point: Any, record_id: int) -> None:
        self._tree_for(int(record_id)).insert(rect_or_point, record_id)

    def bulk_load_points(self, points: np.ndarray, records: Sequence[Any]) -> None:
        """STR-bulk-load each partition's block into its own sub-tree."""
        records = list(records)
        tasks = []
        for start in range(0, len(records), self.partition_rows):
            stop = min(start + self.partition_rows, len(records))
            tasks.append((self._tree_for(int(records[start])),
                          points[start:stop], records[start:stop]))
        parallel_map(lambda tree, block, ids: tree.bulk_load_points(block, ids),
                     tasks, workers=self.workers)

    def search_many(self, windows: Sequence[Any], *,
                    periodic_dims: np.ndarray | None = None,
                    transformation: RealLinearTransformation | None = None
                    ) -> list[list[Any]]:
        """Batched window search fanned across sub-trees, merged per query
        in partition order (deterministic at any worker count)."""
        per_tree = parallel_map(
            lambda tree: tree.search_many(windows, periodic_dims=periodic_dims,
                                          transformation=transformation),
            [(tree,) for tree in self.trees], workers=self.workers)
        merged: list[list[Any]] = [[] for _ in windows]
        for tree_results in per_tree:
            for query_index, candidates in enumerate(tree_results):
                merged[query_index].extend(candidates)
        return merged

    def reset_stats(self) -> None:
        for tree in self.trees:
            tree.reset_stats()

    @property
    def access_stats(self) -> NodeAccessStats:
        return NodeAccessStats(
            internal=sum(tree.access_stats.internal for tree in self.trees),
            leaf=sum(tree.access_stats.leaf for tree in self.trees))

    @property
    def buffer(self) -> _AggregateBuffer | None:
        buffers = [tree.buffer for tree in self.trees if tree.buffer is not None]
        return _AggregateBuffer(buffers) if buffers else None

    def __len__(self) -> int:
        return sum(len(tree) for tree in self.trees)

    def structure_summary(self) -> dict[str, float]:
        """Forest-wide structural facts with the monolithic summary's keys.

        Counts sum; the height is the tallest sub-tree (traversals descend
        sub-trees independently); fanouts and radii are node-count-weighted
        means — the same "expected nodes a query opens" semantics the cost
        model prices a single tree with.
        """
        summaries = [tree.structure_summary() for tree in self.trees]
        if not summaries:
            return RTree(1).structure_summary()

        def total(key: str) -> float:
            return sum(summary[key] for summary in summaries)

        def weighted(key: str, weight_key: str) -> float:
            weight = total(weight_key)
            if not weight:
                return 0.0
            return sum(summary[key] * summary[weight_key]
                       for summary in summaries) / weight

        return {
            "height": max(summary["height"] for summary in summaries),
            "leaf_count": total("leaf_count"),
            "internal_count": total("internal_count"),
            "node_count": total("node_count"),
            "avg_leaf_fanout": weighted("avg_leaf_fanout", "leaf_count"),
            "avg_internal_fanout": weighted("avg_internal_fanout",
                                            "internal_count"),
            "avg_leaf_radius": weighted("avg_leaf_radius", "leaf_count"),
            "avg_internal_radius": weighted("avg_internal_radius",
                                            "internal_count"),
        }

    def __repr__(self) -> str:
        return (f"_PartitionForest(partitions={len(self.trees)}, "
                f"partition_rows={self.partition_rows}, size={len(self)})")


class PartitionedIndex(KIndex):
    """A :class:`KIndex` over per-partition STR-bulk-loaded sub-trees.

    Behaves exactly like a ``KIndex`` (same query surface, same store and
    counter semantics) while keeping one independently rebuildable R-tree
    per ``partition_rows`` block of records and fanning traversals across
    ``workers`` threads.

    Parameters (beyond :class:`KIndex`'s)
    -------------------------------------
    partition_rows:
        Records per partition sub-tree.
    workers:
        Worker threads for fan-out (``None``/1 serial, 0 = all cores).
        Answers are identical at any setting.
    """

    def __init__(self, extractor: SeriesFeatureExtractor | None = None, *,
                 tree_kind: str = "rstar", max_entries: int = 8,
                 page_store: PageStore | None = None,
                 partition_rows: int = DEFAULT_PARTITION_ROWS,
                 workers: int | None = None) -> None:
        # _build_tree runs inside super().__init__ and needs these.
        self.partition_rows = max(1, int(partition_rows))
        self.workers = resolve_workers(workers)
        super().__init__(extractor, tree_kind=tree_kind,
                         max_entries=max_entries, page_store=page_store)

    def _build_tree(self, tree_kind: str, max_entries: int,
                    page_store: PageStore | None) -> "_PartitionForest":
        def factory() -> RTree:
            return KIndex._build_tree(self, tree_kind, max_entries, page_store)

        return _PartitionForest(factory, self.partition_rows, self.workers)

    @classmethod
    def bulk_load(cls, collection: Iterable[Any],
                  extractor: SeriesFeatureExtractor | None = None, *,
                  tree_kind: str = "rstar", max_entries: int = 8,
                  page_store: PageStore | None = None,
                  partition_rows: int = DEFAULT_PARTITION_ROWS,
                  workers: int | None = None) -> "PartitionedIndex":
        """Bulk build: STR-pack every partition's sub-tree (in parallel)."""
        index = cls(extractor, tree_kind=tree_kind, max_entries=max_entries,
                    page_store=page_store, partition_rows=partition_rows,
                    workers=workers)
        series_list = list(collection)
        if not series_list:
            return index
        for series in series_list:
            index._store_record(series, index.extractor.extract(series))
        points = np.vstack(index._point_rows)
        index.tree.bulk_load_points(points, list(range(len(series_list))))
        return index

    # ------------------------------------------------------------------
    # traversal hook: the only KIndex behaviour that changes (range
    # searches fan out inside the forest's ``search_many``)
    # ------------------------------------------------------------------
    def _nearest_candidate_iter(self, lower_bounds, score):
        """K-way heap merge of the per-partition best-first streams.

        Each stream yields ``(lower bound, record id, exact distance)``
        ascending, so the merge yields the globally ascending stream and the
        caller's stopping rule ("next bound exceeds the k-th exact
        distance") sees exactly what a single-tree traversal would show it.
        """
        return heapq.merge(*(_best_first(tree, lower_bounds, score)
                             for tree in self.tree.trees))

    def __repr__(self) -> str:
        return (f"PartitionedIndex(size={len(self)}, "
                f"partitions={len(self.tree.trees)}, "
                f"partition_rows={self.partition_rows}, workers={self.workers}, "
                f"k={self.extractor.num_coefficients})")


class PartitionedMetricIndex:
    """Per-partition vantage-point trees behind the ``MetricIndex`` surface.

    Objects land in fixed-size partitions in insertion order, each with its
    own independently (lazily) built VP-tree.  Queries fan across the
    partitions on the shared worker pool and merge deterministically, so
    answers are identical at any worker count; per-query counters sum the
    partitions' exact-distance and node-access work, preserving the "exact
    distance computations" currency.
    """

    #: Same planner marker as :class:`MetricIndex`.
    is_metric = True

    def __init__(self, distance: Callable[[Any, Any], float], *,
                 leaf_capacity: int = 8,
                 partition_rows: int = DEFAULT_PARTITION_ROWS,
                 workers: int | None = None) -> None:
        self.distance = distance
        self.leaf_capacity = max(1, int(leaf_capacity))
        self.partition_rows = max(1, int(partition_rows))
        self.workers = resolve_workers(workers)
        self._partitions: list[MetricIndex] = []
        self._count = 0

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def insert(self, obj: Any) -> None:
        """Add one object to the tail partition (new ones open as needed)."""
        if self._count % self.partition_rows == 0:
            self._partitions.append(
                MetricIndex(self.distance, leaf_capacity=self.leaf_capacity))
        self._partitions[-1].insert(obj)
        self._count += 1

    def extend(self, objects: Iterable[Any]) -> None:
        """Add every object of a collection."""
        for obj in objects:
            self.insert(obj)

    def __len__(self) -> int:
        return self._count

    def structure_summary(self) -> dict[str, float]:
        """Aggregated structural facts (monolithic keys: counts sum, the
        height is the tallest partition)."""
        summaries = [partition.structure_summary()
                     for partition in self._partitions]
        if not summaries:
            return {"node_count": 0.0, "leaf_count": 0.0, "height": 0.0,
                    "leaf_capacity": float(self.leaf_capacity)}
        return {
            "node_count": sum(summary["node_count"] for summary in summaries),
            "leaf_count": sum(summary["leaf_count"] for summary in summaries),
            "height": max(summary["height"] for summary in summaries),
            "leaf_capacity": float(self.leaf_capacity),
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def range_query(self, query: Any, epsilon: float) -> RangeQueryResult:
        """All objects within ``epsilon`` of ``query`` (exact)."""
        return self.range_query_batch([query], [epsilon])[0]

    def range_query_batch(self, queries: Sequence[Any],
                          epsilons: Sequence[float]) -> list[RangeQueryResult]:
        """Batched range search fanned across partitions.

        Every partition runs the shared-traversal batch search on its own
        VP-tree; per-query answers concatenate in partition order and are
        stable-sorted by distance (the monolithic order), and counters sum.
        """
        queries = list(queries)
        epsilons = list(epsilons)
        if len(queries) != len(epsilons):
            raise ValueError("one epsilon is required per query")
        started = time.perf_counter()
        per_partition = parallel_map(
            lambda partition: partition.range_query_batch(queries, epsilons),
            [(partition,) for partition in self._partitions],
            workers=self.workers)
        results = [RangeQueryResult() for _ in queries]
        for partition_results in per_partition:
            for merged, part in zip(results, partition_results):
                merged.answers.extend(part.answers)
                merged.statistics.node_accesses += part.statistics.node_accesses
                merged.statistics.candidates += part.statistics.candidates
                merged.statistics.postprocessed += part.statistics.postprocessed
        elapsed = time.perf_counter() - started
        for result in results:
            result.answers.sort(key=lambda pair: pair[1])
            result.statistics.record_fetches = result.statistics.postprocessed
            result.statistics.elapsed_seconds = elapsed / max(1, len(queries))
        return results

    def nearest_neighbors(self, query: Any, k: int = 1) -> NearestNeighborResult:
        """The global ``k`` nearest: union of per-partition top-``k`` lists.

        Every global answer is in its partition's top-``k``, so merging the
        per-partition results loses nothing; ties at the cut sort by
        (distance, partition, rank within partition) — deterministic and
        worker-count independent.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        started = time.perf_counter()
        per_partition = parallel_map(
            lambda partition: partition.nearest_neighbors(query, k),
            [(partition,) for partition in self._partitions],
            workers=self.workers)
        result = NearestNeighborResult()
        ranked: list[tuple[float, int, int, Any]] = []
        for position, part in enumerate(per_partition):
            result.statistics.node_accesses += part.statistics.node_accesses
            result.statistics.candidates += part.statistics.candidates
            result.statistics.postprocessed += part.statistics.postprocessed
            for rank, (obj, distance) in enumerate(part.answers):
                ranked.append((distance, position, rank, obj))
        ranked.sort(key=lambda entry: entry[:3])
        result.answers = [(obj, distance)
                          for distance, _, _, obj in ranked[:k]]
        result.statistics.record_fetches = result.statistics.postprocessed
        result.statistics.elapsed_seconds = time.perf_counter() - started
        return result

    def __repr__(self) -> str:
        return (f"PartitionedMetricIndex(size={len(self)}, "
                f"partitions={len(self._partitions)}, "
                f"partition_rows={self.partition_rows}, workers={self.workers})")
