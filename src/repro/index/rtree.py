"""An R-tree index (Guttman, 1984) with linear and quadratic node splits.

The tree stores *records* (arbitrary Python objects — usually object ids)
under axis-aligned rectangles; point data is stored as degenerate rectangles.
It supports range (window) search, branch-and-bound nearest-neighbour search,
and exposes its nodes so that :mod:`repro.index.transformed` can traverse the
same structure under an on-the-fly transformation.

Node accesses are counted per tree (``tree.access_stats``), and when a
:class:`~repro.storage.pages.PageStore` is supplied every node occupies one
simulated page, read through an LRU :class:`~repro.storage.buffer.BufferPool`
during searches, so benchmarks can report "disk" accesses.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.errors import IndexError_
from ..core.transformations import RealLinearTransformation
from ..storage.buffer import BufferPool
from ..storage.pages import PageStore
from .geometry import Rect, mindist_batch, overlap_pairs

__all__ = ["RTreeEntry", "RTreeNode", "NodeAccessStats", "RTree"]


@dataclass
class RTreeEntry:
    """One slot of a node: a bounding rectangle plus either a child node id
    (internal nodes) or a data record (leaf nodes)."""

    rect: Rect
    child_id: int | None = None
    record: Any = None

    @property
    def is_data(self) -> bool:
        """Whether the entry points at a data record rather than a child node."""
        return self.child_id is None


@dataclass
class RTreeNode:
    """A node of the tree: a flat list of entries plus bookkeeping."""

    node_id: int
    is_leaf: bool
    entries: list[RTreeEntry] = field(default_factory=list)
    parent_id: int | None = None

    def mbr(self) -> Rect:
        """Minimum bounding rectangle of all entries."""
        if not self.entries:
            raise IndexError_("an empty node has no bounding rectangle")
        return Rect.union_of(entry.rect for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class NodeAccessStats:
    """Counters for node visits during searches."""

    internal: int = 0
    leaf: int = 0

    def reset(self) -> None:
        """Zero the counters."""
        self.internal = 0
        self.leaf = 0

    @property
    def total(self) -> int:
        """All node visits."""
        return self.internal + self.leaf


class RTree:
    """A dynamic R-tree.

    Parameters
    ----------
    dimension:
        Dimensionality of the indexed space.
    max_entries:
        Maximum entries per node (``M``); nodes split when it is exceeded.
    min_entries:
        Minimum entries per node (``m``); defaults to ``ceil(0.4 * M)``.
    split:
        Node split policy: ``"linear"`` or ``"quadratic"`` (Guttman's two
        heuristics).
    page_store:
        Optional simulated page store; when given, each node occupies one
        page and search-time node visits are routed through an LRU buffer
        pool so I/O counts can be reported.
    buffer_capacity:
        Size of the buffer pool used when ``page_store`` is given.
    """

    SPLIT_POLICIES = ("linear", "quadratic")

    def __init__(self, dimension: int, max_entries: int = 8,
                 min_entries: int | None = None, split: str = "quadratic",
                 page_store: PageStore | None = None,
                 buffer_capacity: int = 64) -> None:
        if dimension <= 0:
            raise IndexError_("dimension must be positive")
        if max_entries < 2:
            raise IndexError_("max_entries must be at least 2")
        if split not in self.SPLIT_POLICIES:
            raise IndexError_(f"unknown split policy {split!r}; choose from {self.SPLIT_POLICIES}")
        self.dimension = int(dimension)
        self.max_entries = int(max_entries)
        self.min_entries = (int(min_entries) if min_entries is not None
                            else max(1, math.ceil(0.4 * max_entries)))
        if self.min_entries > self.max_entries // 2:
            self.min_entries = max(1, self.max_entries // 2)
        self.split_policy = split
        self.access_stats = NodeAccessStats()
        self._nodes: dict[int, RTreeNode] = {}
        self._node_counter = itertools.count()
        self._size = 0
        self._page_store = page_store
        self._buffer = (BufferPool(page_store, capacity=buffer_capacity)
                        if page_store is not None else None)
        self._node_pages: dict[int, int] = {}
        self._node_arrays_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.root_id = self._new_node(is_leaf=True).node_id

    # ------------------------------------------------------------------
    # node plumbing
    # ------------------------------------------------------------------
    def _new_node(self, is_leaf: bool) -> RTreeNode:
        node = RTreeNode(node_id=next(self._node_counter), is_leaf=is_leaf)
        self._nodes[node.node_id] = node
        if self._page_store is not None:
            self._node_pages[node.node_id] = self._page_store.allocate(node)
        return node

    def node(self, node_id: int) -> RTreeNode:
        """Fetch a node without touching the access counters (structural use)."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise IndexError_(f"unknown node id {node_id}") from None

    def visit(self, node_id: int) -> RTreeNode:
        """Fetch a node *during a search*: counts the access and goes through
        the buffer pool when a page store is attached."""
        node = self.node(node_id)
        if node.is_leaf:
            self.access_stats.leaf += 1
        else:
            self.access_stats.internal += 1
        if self._buffer is not None:
            self._buffer.read(self._node_pages[node_id])
        return node

    def _mark_dirty(self, node: RTreeNode) -> None:
        self._node_arrays_cache.pop(node.node_id, None)
        if self._page_store is not None:
            self._page_store.write(self._node_pages[node.node_id], node)

    def node_arrays(self, node: RTreeNode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The node's entries as arrays: ``(n, d)`` low and high corners plus
        the ``(n,)`` payloads (child ids of an internal node, records of a
        leaf).

        Cached per node and invalidated by :meth:`_mark_dirty` on any
        mutation, so traversals pay the stacking cost once per node version.
        Leaf records that are all plain ints are kept as an integer array
        (gathers and ``tolist`` stay cheap); any other records as an object
        array.
        """
        cached = self._node_arrays_cache.get(node.node_id)
        if cached is None:
            entries = node.entries
            if entries:
                lows = np.vstack([entry.rect.low for entry in entries])
                highs = np.vstack([entry.rect.high for entry in entries])
            else:
                lows = highs = np.empty((0, self.dimension))
            if not node.is_leaf:
                payloads = np.array([entry.child_id for entry in entries], dtype=np.intp)
            elif all(type(entry.record) is int for entry in entries):
                payloads = np.array([entry.record for entry in entries], dtype=np.intp)
            else:
                payloads = np.empty(len(entries), dtype=object)
                for position, entry in enumerate(entries):
                    payloads[position] = entry.record
            cached = (lows, highs, payloads)
            self._node_arrays_cache[node.node_id] = cached
        return cached

    @property
    def root(self) -> RTreeNode:
        """The root node."""
        return self.node(self.root_id)

    @property
    def buffer(self) -> BufferPool | None:
        """The buffer pool (``None`` when no page store was supplied)."""
        return self._buffer

    def __len__(self) -> int:
        return self._size

    def height(self) -> int:
        """Number of levels (1 for a tree that is just a leaf root)."""
        level = 1
        node = self.root
        while not node.is_leaf:
            node = self.node(node.entries[0].child_id)
            level += 1
        return level

    def reset_stats(self) -> None:
        """Zero the access counters (and buffer statistics, if any)."""
        self.access_stats.reset()
        if self._buffer is not None:
            self._buffer.stats.reset()

    def structure_summary(self) -> dict[str, float]:
        """Structural facts the cost model estimates node accesses from.

        Walks the tree through :meth:`node` (no access counting, no buffer
        traffic): node counts per kind, average fanout, and the average node
        "radius" (half the MBR diagonal) — the amount a query rectangle is
        effectively enlarged by when testing whether a node must be opened.
        """
        leaf_count = internal_count = 0
        leaf_entries = internal_entries = 0
        leaf_radius_total = internal_radius_total = 0.0
        pending = [self.root_id]
        while pending:
            node = self.node(pending.pop())
            radius = 0.0
            if node.entries:
                mbr = node.mbr()
                radius = 0.5 * float(np.linalg.norm(mbr.high - mbr.low))
            if node.is_leaf:
                leaf_count += 1
                leaf_entries += len(node.entries)
                leaf_radius_total += radius
            else:
                internal_count += 1
                internal_entries += len(node.entries)
                internal_radius_total += radius
                pending.extend(entry.child_id for entry in node.entries)
        return {
            "height": float(self.height()),
            "leaf_count": float(leaf_count),
            "internal_count": float(internal_count),
            "node_count": float(leaf_count + internal_count),
            "avg_leaf_fanout": leaf_entries / leaf_count if leaf_count else 0.0,
            "avg_internal_fanout": (internal_entries / internal_count
                                    if internal_count else 0.0),
            "avg_leaf_radius": (leaf_radius_total / leaf_count
                                if leaf_count else 0.0),
            "avg_internal_radius": (internal_radius_total / internal_count
                                    if internal_count else 0.0),
        }

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, rect_or_point: Rect | Sequence[float] | np.ndarray, record: Any) -> None:
        """Insert a record under a rectangle (or a point)."""
        rect = rect_or_point if isinstance(rect_or_point, Rect) else Rect.from_point(rect_or_point)
        if rect.dimension != self.dimension:
            raise IndexError_(
                f"rectangle of dimension {rect.dimension} inserted into a tree of "
                f"dimension {self.dimension}"
            )
        entry = RTreeEntry(rect=rect, record=record)
        leaf = self._choose_leaf(self.root, entry)
        leaf.entries.append(entry)
        self._mark_dirty(leaf)
        self._size += 1
        if len(leaf.entries) > self.max_entries:
            self._handle_overflow(leaf)
        else:
            self._adjust_upward(leaf)

    def _choose_leaf(self, node: RTreeNode, entry: RTreeEntry) -> RTreeNode:
        while not node.is_leaf:
            best = min(node.entries,
                       key=lambda e: (e.rect.enlargement(entry.rect), e.rect.area()))
            node = self.node(best.child_id)
        return node

    def _handle_overflow(self, node: RTreeNode) -> None:
        self._split(node)

    def _split(self, node: RTreeNode) -> None:
        group_a, group_b = self._split_entries(node.entries)
        sibling = self._new_node(is_leaf=node.is_leaf)
        node.entries = group_a
        sibling.entries = group_b
        if not node.is_leaf:
            for entry in sibling.entries:
                child = self.node(entry.child_id)
                child.parent_id = sibling.node_id
        self._mark_dirty(node)
        self._mark_dirty(sibling)
        if node.node_id == self.root_id:
            new_root = self._new_node(is_leaf=False)
            new_root.entries = [
                RTreeEntry(rect=node.mbr(), child_id=node.node_id),
                RTreeEntry(rect=sibling.mbr(), child_id=sibling.node_id),
            ]
            node.parent_id = new_root.node_id
            sibling.parent_id = new_root.node_id
            self.root_id = new_root.node_id
            self._mark_dirty(new_root)
            return
        parent = self.node(node.parent_id)
        for entry in parent.entries:
            if entry.child_id == node.node_id:
                entry.rect = node.mbr()
                break
        sibling.parent_id = parent.node_id
        parent.entries.append(RTreeEntry(rect=sibling.mbr(), child_id=sibling.node_id))
        self._mark_dirty(parent)
        if len(parent.entries) > self.max_entries:
            self._handle_overflow(parent)
        else:
            self._adjust_upward(parent)

    def _adjust_upward(self, node: RTreeNode) -> None:
        while node.parent_id is not None:
            parent = self.node(node.parent_id)
            for entry in parent.entries:
                if entry.child_id == node.node_id:
                    entry.rect = node.mbr()
                    break
            self._mark_dirty(parent)
            node = parent

    # -- split heuristics ----------------------------------------------------
    def _split_entries(self, entries: list[RTreeEntry]
                       ) -> tuple[list[RTreeEntry], list[RTreeEntry]]:
        if self.split_policy == "linear":
            seed_a, seed_b = self._linear_seeds(entries)
        else:
            seed_a, seed_b = self._quadratic_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rect_a = entries[seed_a].rect
        rect_b = entries[seed_b].rect
        remaining = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        while remaining:
            # If one group must take everything left to reach the minimum, do so.
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                break
            entry = self._pick_next(remaining, rect_a, rect_b)
            remaining.remove(entry)
            grow_a = rect_a.enlargement(entry.rect)
            grow_b = rect_b.enlargement(entry.rect)
            if (grow_a, rect_a.area(), len(group_a)) <= (grow_b, rect_b.area(), len(group_b)):
                group_a.append(entry)
                rect_a = rect_a.union(entry.rect)
            else:
                group_b.append(entry)
                rect_b = rect_b.union(entry.rect)
        return group_a, group_b

    def _pick_next(self, remaining: list[RTreeEntry], rect_a: Rect, rect_b: Rect) -> RTreeEntry:
        if self.split_policy == "linear":
            return remaining[0]
        best_entry = remaining[0]
        best_difference = -1.0
        for entry in remaining:
            difference = abs(rect_a.enlargement(entry.rect) - rect_b.enlargement(entry.rect))
            if difference > best_difference:
                best_difference = difference
                best_entry = entry
        return best_entry

    @staticmethod
    def _linear_seeds(entries: list[RTreeEntry]) -> tuple[int, int]:
        dimension = entries[0].rect.dimension
        best_pair = (0, 1)
        best_separation = -1.0
        for dim in range(dimension):
            lows = np.array([e.rect.low[dim] for e in entries])
            highs = np.array([e.rect.high[dim] for e in entries])
            width = float(highs.max() - lows.min())
            if width <= 0:
                continue
            highest_low = int(np.argmax(lows))
            lowest_high = int(np.argmin(highs))
            if highest_low == lowest_high:
                continue
            separation = float(lows[highest_low] - highs[lowest_high]) / width
            if separation > best_separation:
                best_separation = separation
                best_pair = (highest_low, lowest_high)
        return best_pair

    @staticmethod
    def _quadratic_seeds(entries: list[RTreeEntry]) -> tuple[int, int]:
        best_pair = (0, 1)
        worst_waste = -math.inf
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                union = entries[i].rect.union(entries[j].rect)
                waste = union.area() - entries[i].rect.area() - entries[j].rect.area()
                if waste > worst_waste:
                    worst_waste = waste
                    best_pair = (i, j)
        return best_pair

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self, window: Rect) -> list[Any]:
        """All records whose rectangle intersects ``window``."""
        return self.search_many([window])[0]

    def search_many(self, windows: Sequence[Rect], *,
                    periodic_dims: np.ndarray | None = None,
                    transformation: RealLinearTransformation | None = None
                    ) -> list[list[Any]]:
        """Range searches for a whole batch of windows, one tree level at a time.

        The traversal is level-synchronous.  The nodes open on a level are
        visited once each (through :meth:`visit`, so the access counters
        stay exact), their cached entry arrays (:meth:`node_arrays`) are
        concatenated, and every (node, still-active window) pair is expanded
        to that node's entries: the whole level's overlap tests then run as
        **one** :func:`~repro.index.geometry.overlap_pairs` kernel call.  A
        child opens on the next level when its entry hits at least one
        window active at its parent — exactly the nodes a per-window descent
        would open, each once per batch however many windows need it.

        ``transformation`` is applied to the gathered entry rectangles before
        the test: this is Algorithm 2 (search under an on-the-fly
        transformation, see :mod:`repro.index.transformed`) in vectorised
        form.  ``periodic_dims`` optionally marks wrap-around dimensions
        (phase angles of the polar feature layout) so their overlap test is
        taken modulo ``2*pi``.

        Returns one result list per window, aligned with the input order;
        each list holds its records in level order.
        """
        results: list[list[Any]] = [[] for _ in windows]
        if not windows:
            return results
        for window in windows:
            if window.dimension != self.dimension:
                raise IndexError_(
                    f"window of dimension {window.dimension} searched in a tree of "
                    f"dimension {self.dimension}"
                )
        window_lows = np.vstack([window.low for window in windows])
        window_highs = np.vstack([window.high for window in windows])
        frontier = [self.root_id]
        # The active (node, window) pairs: frontier positions and window rows.
        pair_nodes = np.zeros(len(windows), dtype=np.intp)
        pair_windows = np.arange(len(windows))
        while frontier:
            nodes = [self.visit(node_id) for node_id in frontier]
            arrays = [self.node_arrays(node) for node in nodes]
            if len(arrays) == 1:
                lows, highs, payloads = arrays[0]
            else:
                lows = np.concatenate([entry[0] for entry in arrays])
                highs = np.concatenate([entry[1] for entry in arrays])
                payloads = np.concatenate([entry[2] for entry in arrays])
            if transformation is not None:
                lows, highs = transformation.apply_bounds(lows, highs)
            # Expand each pair to one row per entry of its node.
            counts = np.array([len(node.entries) for node in nodes], dtype=np.intp)
            per_pair = counts[pair_nodes]
            pair_starts = np.cumsum(per_pair) - per_pair
            node_starts = np.cumsum(counts) - counts
            entries = (np.repeat(node_starts[pair_nodes] - pair_starts, per_pair)
                       + np.arange(int(per_pair.sum())))
            entry_windows = np.repeat(pair_windows, per_pair)
            hits = overlap_pairs(lows[entries], highs[entries], window_lows[entry_windows],
                                 window_highs[entry_windows], periodic_dims)
            entries = entries[hits]
            entry_windows = entry_windows[hits]
            if nodes[0].is_leaf:  # height-balanced: a level is all leaves or none
                order = np.argsort(entry_windows, kind="stable")
                records = payloads[entries[order]].tolist()
                bounds = np.searchsorted(entry_windows[order],
                                         np.arange(len(windows) + 1)).tolist()
                for window_row in range(len(windows)):
                    results[window_row] = records[bounds[window_row]:bounds[window_row + 1]]
                return results
            opened, pair_nodes = np.unique(entries, return_inverse=True)
            pair_windows = entry_windows
            frontier = payloads[opened].tolist()
        return results

    def nearest_neighbors(self, point: Sequence[float] | np.ndarray, k: int = 1
                          ) -> list[tuple[float, Any]]:
        """The ``k`` records nearest to ``point`` (by Euclidean distance to
        their rectangles), as ``(distance, record)`` pairs sorted by distance.

        Uses best-first branch-and-bound with the MINDIST lower bound.
        """
        if k <= 0:
            raise IndexError_("k must be positive")
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        heap: list[tuple[float, int, bool, Any]] = []
        counter = itertools.count()
        heap.append((0.0, next(counter), False, self.root_id))
        results: list[tuple[float, Any]] = []
        import heapq

        heapq.heapify(heap)
        while heap:
            distance, _, is_record, payload = heapq.heappop(heap)
            if len(results) >= k and distance > results[-1][0]:
                break
            if is_record:
                results.append((distance, payload))
                results.sort(key=lambda pair: pair[0])
                results = results[:k]
                continue
            node = self.visit(payload)
            if not node.entries:
                continue
            # One vectorised MINDIST evaluation over the whole node instead
            # of a per-entry loop.
            lows, highs, _ = self.node_arrays(node)
            distances = mindist_batch(point, lows, highs)
            for entry, d in zip(node.entries, distances.tolist()):
                if node.is_leaf:
                    heapq.heappush(heap, (d, next(counter), True, entry.record))
                else:
                    heapq.heappush(heap, (d, next(counter), False, entry.child_id))
        return results

    # ------------------------------------------------------------------
    # iteration / bulk loading
    # ------------------------------------------------------------------
    def all_entries(self) -> Iterator[RTreeEntry]:
        """Every leaf entry in the tree (structural traversal, not counted)."""
        stack = [self.root_id]
        while stack:
            node = self.node(stack.pop())
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(entry.child_id for entry in node.entries)

    def __iter__(self) -> Iterator[Any]:
        return (entry.record for entry in self.all_entries())

    def _str_chunk_sizes(self, count: int) -> list[int]:
        """Split ``count`` entries into node-sized chunks.

        Every chunk is within ``[min_entries, max_entries]`` whenever
        ``count >= min_entries``; a short remainder borrows from the last full
        chunk (possible because ``min_entries <= max_entries // 2``).
        """
        if count <= self.max_entries:
            return [count]
        sizes = [self.max_entries] * (count // self.max_entries)
        remainder = count % self.max_entries
        if remainder:
            if remainder < self.min_entries:
                deficit = self.min_entries - remainder
                sizes[-1] -= deficit
                remainder = self.min_entries
            sizes.append(remainder)
        return sizes

    #: Dimensions whose spread falls below this fraction of the widest
    #: dimension's are skipped when tiling: slicing along a nearly flat (or
    #: periodic, hence low-spread) coordinate scatters neighbours without
    #: buying any pruning power.
    STR_SPREAD_CUTOFF = 0.25

    def _str_tiles(self, centers: np.ndarray) -> list[np.ndarray]:
        """Sort-Tile-Recursive grouping of ``centers`` into node-sized tiles.

        Recursively slices the data into slabs along each tiling dimension in
        turn — ``ceil(P ** (1/d))`` slabs for ``P`` target nodes over ``d``
        remaining dimensions — then chunks the final dimension's ordering
        into runs of node capacity.  Tiling considers only dimensions with
        significant spread, widest first.  Returns index arrays, one per
        future node.
        """
        spread = centers.max(axis=0) - centers.min(axis=0)
        keep = np.nonzero(spread >= spread.max() * self.STR_SPREAD_CUTOFF)[0]
        if keep.size == 0:
            keep = np.array([int(np.argmax(spread))])
        centers = centers[:, keep[np.argsort(-spread[keep])]]
        dimension = centers.shape[1]

        def recurse(indices: np.ndarray, dim: int) -> list[np.ndarray]:
            count = indices.shape[0]
            if count <= self.max_entries:
                return [indices]
            order = indices[np.argsort(centers[indices, dim], kind="stable")]
            if dim == dimension - 1:
                tiles = []
                start = 0
                for size in self._str_chunk_sizes(count):
                    tiles.append(order[start:start + size])
                    start += size
                return tiles
            target_nodes = math.ceil(count / self.max_entries)
            num_slabs = math.ceil(target_nodes ** (1.0 / (dimension - dim)))
            slab_size = math.ceil(count / num_slabs / self.max_entries) * self.max_entries
            tiles = []
            start = 0
            while start < count:
                end = min(count, start + slab_size)
                # Do not leave a tail slab too small to fill a node's minimum.
                if count - end < self.min_entries:
                    end = count
                tiles.extend(recurse(order[start:end], dim + 1))
                start = end
            return tiles

        return recurse(np.arange(centers.shape[0]), 0)

    def bulk_load_rects(self, lows: np.ndarray, highs: np.ndarray,
                        records: Sequence[Any]) -> None:
        """Bottom-up Sort-Tile-Recursive bulk load of rectangle data.

        Packs the data into leaves tile by tile and then builds each internal
        level by STR-packing the level below, producing a tighter and
        shallower tree than one-at-a-time insertion.  The tree must be empty.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        if lows.ndim != 2 or lows.shape != highs.shape:
            raise IndexError_("bulk load expects matching 2-d corner arrays")
        if lows.shape[1] != self.dimension:
            raise IndexError_(
                f"rectangles of dimension {lows.shape[1]} bulk loaded into a tree of "
                f"dimension {self.dimension}"
            )
        if len(records) != lows.shape[0]:
            raise IndexError_("number of records must match number of rectangles")
        if self._size or self.root.entries:
            raise IndexError_("bulk load requires an empty tree")
        if lows.shape[0] == 0:
            return
        placeholder_root = self.root_id
        level_lows, level_highs = lows, highs
        payloads: Sequence[Any] = records
        is_leaf = True
        while True:
            tiles = self._str_tiles((level_lows + level_highs) / 2.0)
            nodes: list[RTreeNode] = []
            next_lows = np.empty((len(tiles), self.dimension))
            next_highs = np.empty((len(tiles), self.dimension))
            for tile_index, tile in enumerate(tiles):
                node = self._new_node(is_leaf=is_leaf)
                if is_leaf:
                    node.entries = [
                        RTreeEntry(rect=Rect(level_lows[i], level_highs[i]),
                                   record=payloads[i])
                        for i in tile.tolist()
                    ]
                else:
                    node.entries = [
                        RTreeEntry(rect=Rect(level_lows[i], level_highs[i]),
                                   child_id=payloads[i])
                        for i in tile.tolist()
                    ]
                    for entry in node.entries:
                        self.node(entry.child_id).parent_id = node.node_id
                self._mark_dirty(node)
                nodes.append(node)
                next_lows[tile_index] = level_lows[tile].min(axis=0)
                next_highs[tile_index] = level_highs[tile].max(axis=0)
            if len(nodes) == 1:
                self.root_id = nodes[0].node_id
                nodes[0].parent_id = None
                break
            level_lows, level_highs = next_lows, next_highs
            payloads = [node.node_id for node in nodes]
            is_leaf = False
        del self._nodes[placeholder_root]
        self._size = lows.shape[0]

    def bulk_load_points(self, points: np.ndarray, records: Sequence[Any]) -> None:
        """STR bulk load of point data (stored as degenerate rectangles)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise IndexError_("bulk_load expects a 2-d array of points")
        self.bulk_load_rects(points, points, records)

    @classmethod
    def bulk_load(cls, points: np.ndarray, records: Sequence[Any], *,
                  max_entries: int = 8, min_entries: int | None = None,
                  split: str = "quadratic",
                  page_store: PageStore | None = None) -> "RTree":
        """Build a tree from point data with the Sort-Tile-Recursive loader.

        Unlike repeated :meth:`insert` this packs nodes bottom-up to full
        fan-out, so benchmark-scale loads are linear-time and the resulting
        tree is shallower with tighter, barely overlapping rectangles.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise IndexError_("bulk_load expects a 2-d array of points")
        tree = cls(dimension=points.shape[1] or 1,
                   max_entries=max_entries, min_entries=min_entries, split=split,
                   page_store=page_store)
        tree.bulk_load_points(points, records)
        return tree
