"""Public-API snapshot: the facade cannot change shape silently.

Two guards:

* ``repro.__all__`` is pinned to an explicit snapshot — adding a name is a
  conscious one-line diff here, removing or renaming one fails loudly;
* the signatures of the session facade (``connect`` / ``Session`` /
  ``PreparedQuery`` / ``Q``) are pinned, so parameter renames, reorderings
  or default changes — all silently breaking for keyword callers — fail.

When a change here is intentional, update the snapshot *in the same PR* and
call the break out in the changelog.
"""

from __future__ import annotations

import inspect

import repro
from repro import BoundQuery, PreparedQuery, Q, RelationHandle, Session, connect

EXPECTED_ALL = [
    "AdditiveCostModel", "AllPairsQuery", "AnyPattern", "BackoffPolicy",
    "BoundQuery",
    "BufferPool", "CancellationToken", "CatalogError", "ColumnSegment",
    "ColumnarRecordStore",
    "ComposedTransformation", "ConnectionLostError", "ConstantPattern",
    "CostBudget", "CostEstimate", "CostExceededError", "DataObject",
    "Database", "DeadlineExceededError", "DimensionMismatchError",
    "DistanceHistogram",
    "DistanceProvider", "DurableDatabase", "FaultPlan", "FeatureVector",
    "FunctionTransformation", "GenericObject", "IdentityTransformation",
    "IndexAdvisor", "IndexRecommendation", "InvalidObjectError",
    "KIndex", "LinearTransformation", "MaxCostModel", "MetricIndex",
    "MovingAverageTransform", "NearestNeighborQuery", "NearestNeighborResult",
    "ObjectRef",
    "PageStore", "Param", "PartitionedIndex", "PartitionedMetricIndex",
    "Pattern", "PatternError", "Planner", "PolarSpace",
    "PredicatePattern", "PreparedQuery", "ProtocolError", "Q",
    "QueryBuildError", "QueryBuilder",
    "QueryCancelledError",
    "QueryCostModel", "QueryEngine", "QueryOutcome", "QueryPlanningError",
    "QueryServer", "QuerySyntaxError",
    "RStarTree", "RTree", "RangeQuery", "RangeQueryResult",
    "RealLinearTransformation", "Rect", "RectangularSpace", "RejectedPlan",
    "Relation", "RelationHandle", "RelationPattern", "RelationStatistics",
    "RemoteCursor", "RemoteOutcome", "RemoteStatement",
    "ReproError", "RetryExhaustedError", "RetryLaterError",
    "ReverseTransform",
    "Row", "ScaleTransform", "SegmentPageStore", "SequentialScan",
    "SeriesFeatureExtractor", "ServerClient", "ServerConfig", "ServerError",
    "ServerHandle",
    "Session", "SessionClosedError", "ShiftTransform", "SimilarityEngine",
    "SimilarityQuery",
    "SpectralTransformation", "StockArchiveConfig", "StringObject",
    "TimeSeries", "TimeWarpTransform", "Transformation",
    "TransformationRuleSet", "TransformedPattern", "UnsafeTransformationError",
    "WorkloadProfile", "WriteAheadLog",
    "__version__", "cancel_scope", "cancellation_checkpoint", "city_block",
    "client", "connect", "dft", "dtw_distance",
    "edit_distance_provider", "euclidean", "euclidean_with_early_abandon",
    "explain", "identity_spectral", "inverse_dft", "is_similar",
    "make_stock_archive", "materialize_transformed_tree", "mindist",
    "minmaxdist", "moving_average_spectral", "noisy_copy", "normalize",
    "normalized_euclidean", "opposite_copy", "parse_query", "random_walk",
    "random_walk_collection", "reverse_spectral", "scale_spectral",
    "serve",
    "shift_spectral", "time_warp_linear", "transformation_distance",
    "transformation_edit_distance", "transformed_join",
    "transformed_nearest_neighbors", "transformed_range_search",
    "weighted_edit_distance",
]


def _signature(callable_obj) -> str:
    return str(inspect.signature(callable_obj))


class TestAllSnapshot:
    def test_all_matches_snapshot(self):
        assert sorted(repro.__all__) == EXPECTED_ALL

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_every_name_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing name {name!r}"


class TestFacadeSignatures:
    def test_connect(self):
        # PR 8: durable storage adds path / wal_sync / buffer_pages.
        assert _signature(connect) == (
            "(database: 'Database | None' = None, *, "
            "transformations: 'Mapping[str, SpectralTransformation] | None' = None, "
            "plan_cache_size: 'int' = 256, answer_cache_size: 'int' = 1024, "
            "answer_cache_bytes: 'int | None' = None, "
            "workers: 'int | None' = None, path: 'str | None' = None, "
            "wal_sync: 'str' = 'batch', buffer_pages: 'int' = 256) "
            "-> 'Session'")

    def test_session_methods(self):
        assert _signature(Session.sql) == (
            "(self, query: 'str | Query | Any', "
            "parameters: 'Mapping[str, Any] | None' = None, "
            "**keyword_parameters: 'Any') -> 'QueryOutcome'")
        assert _signature(Session.sql_many) == (
            "(self, queries: 'Sequence[str | Query | Any]', "
            "parameters: 'Sequence[Mapping[str, Any] | None] | Mapping[str, Any] "
            "| None' = None) -> 'list[QueryOutcome]'")
        assert _signature(Session.prepare) == \
            "(self, query: 'str | Query | Any') -> 'PreparedQuery'"
        assert _signature(Session.explain) == \
            "(self, query: 'str | Query | PreparedQuery | Any') -> 'str'"
        assert _signature(Session.relation) == (
            "(self, name: 'str', rows: 'Iterable[Row | DataObject]' = ()) "
            "-> 'RelationHandle'")
        assert _signature(Session.with_transformation) == (
            "(self, name: 'str', transformation: 'SpectralTransformation') "
            "-> 'Session'")
        assert _signature(Session.analyze) == "(self, relation_name: 'str')"
        # PR 6: the self-tuning entry points.
        assert _signature(Session.advise) == (
            "(self, relation_name: 'str', workload: 'Any') "
            "-> 'IndexRecommendation'")
        assert _signature(Session.autotune) == (
            "(self, relation_name: 'str', workload: 'Any') "
            "-> 'IndexRecommendation'")

    def test_prepared_query_methods(self):
        assert _signature(PreparedQuery.run) == (
            "(self, parameters: 'Mapping[str, Any] | None' = None, "
            "**keyword_parameters: 'Any') -> 'QueryOutcome'")
        assert _signature(PreparedQuery.run_many) == (
            "(self, bindings: 'Sequence[Mapping[str, Any] | None]') "
            "-> 'list[QueryOutcome]'")
        assert _signature(PreparedQuery.bind) == (
            "(self, parameters: 'Mapping[str, Any] | None' = None, "
            "**keyword_parameters: 'Any') -> 'BoundQuery'")
        assert _signature(BoundQuery.run) == "(self) -> 'QueryOutcome'"

    def test_builder_entry_points(self):
        assert _signature(Q.from_) == "(relation: 'str') -> 'QueryBuilder'"
        assert _signature(Q.param) == "(name: 'str') -> 'Param'"

    def test_builder_steps_exist(self):
        from repro import QueryBuilder
        for step in ("under", "raw_query", "within", "of", "nearest", "to",
                     "similar_to", "pairs_with", "pairs_within", "build"):
            assert callable(getattr(QueryBuilder, step))

    def test_relation_handle_surface(self):
        for method in ("insert", "insert_many", "with_index", "with_distance",
                       "rows", "objects"):
            assert callable(getattr(RelationHandle, method))

    def test_session_durability_surface(self):
        # PR 8: checkpoint/close and context-manager checkpointing.
        for method in ("checkpoint", "close", "__enter__", "__exit__"):
            assert callable(getattr(Session, method))
