"""Axis-aligned rectangle geometry used by the R-tree family.

Everything an R-tree needs from geometry lives here: minimum bounding
rectangles (MBRs), containment and overlap tests, enlargement, margin,
overlap area, and the MINDIST / MINMAXDIST metrics used by branch-and-bound
nearest-neighbour search.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from ..core.errors import DimensionMismatchError

__all__ = ["Rect", "mindist", "minmaxdist", "mindist_batch", "overlap_matrix",
           "overlap_pairs"]

TWO_PI = 2.0 * math.pi


class Rect:
    """An axis-aligned (hyper-)rectangle given by ``low`` and ``high`` corners.

    Degenerate rectangles (``low == high``) represent points.  Instances are
    immutable from the caller's point of view: all operations return new
    rectangles.
    """

    __slots__ = ("low", "high")

    def __init__(self, low: Sequence[float] | np.ndarray,
                 high: Sequence[float] | np.ndarray) -> None:
        low_arr = np.asarray(low, dtype=np.float64).reshape(-1)
        high_arr = np.asarray(high, dtype=np.float64).reshape(-1)
        if low_arr.shape != high_arr.shape:
            raise DimensionMismatchError(
                f"low has shape {low_arr.shape} but high has shape {high_arr.shape}"
            )
        if np.any(low_arr > high_arr):
            raise ValueError("every low coordinate must be <= the matching high coordinate")
        self.low = low_arr.copy()
        self.high = high_arr.copy()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_point(cls, point: Sequence[float] | np.ndarray) -> "Rect":
        """A degenerate rectangle containing exactly one point."""
        arr = np.asarray(point, dtype=np.float64).reshape(-1)
        return cls(arr, arr)

    @classmethod
    def trusted(cls, low: Sequence[float] | np.ndarray,
                high: Sequence[float] | np.ndarray) -> "Rect":
        """Construct without the shape/order validation or defensive copy.

        For coordinates this library produced itself (deserializing its own
        index pages): the invariants held when the rect was written, and
        the arrays are fresh, so revalidating every rect of a large tree is
        pure overhead on the recovery path.
        """
        rect = object.__new__(cls)
        rect.low = np.asarray(low, dtype=np.float64)
        rect.high = np.asarray(high, dtype=np.float64)
        return rect

    @classmethod
    def union_of(cls, rects: Iterable["Rect"]) -> "Rect":
        """The minimum bounding rectangle of a non-empty collection."""
        rects = list(rects)
        if not rects:
            raise ValueError("union_of needs at least one rectangle")
        low = np.min(np.vstack([r.low for r in rects]), axis=0)
        high = np.max(np.vstack([r.high for r in rects]), axis=0)
        return cls(low, high)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Number of coordinates."""
        return int(self.low.shape[0])

    @property
    def extents(self) -> np.ndarray:
        """Side length along each dimension."""
        return self.high - self.low

    def area(self) -> float:
        """Hyper-volume (product of side lengths)."""
        return float(np.prod(self.extents))

    def margin(self) -> float:
        """Sum of side lengths (the R*-tree split criterion)."""
        return float(np.sum(self.extents))

    def center(self) -> np.ndarray:
        """Centre point of the rectangle."""
        return (self.low + self.high) / 2.0

    def is_point(self) -> bool:
        """Whether the rectangle is degenerate."""
        return bool(np.all(self.low == self.high))

    # ------------------------------------------------------------------
    # relations
    # ------------------------------------------------------------------
    def _check(self, other: "Rect") -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles share at least one point."""
        self._check(other)
        return bool(np.all(self.low <= other.high) and np.all(other.low <= self.high))

    def contains(self, other: "Rect") -> bool:
        """Whether ``other`` lies entirely inside this rectangle."""
        self._check(other)
        return bool(np.all(self.low <= other.low) and np.all(other.high <= self.high))

    def contains_point(self, point: Sequence[float] | np.ndarray) -> bool:
        """Whether a point lies inside (or on the boundary of) the rectangle."""
        arr = np.asarray(point, dtype=np.float64).reshape(-1)
        if arr.shape[0] != self.dimension:
            raise DimensionMismatchError(
                f"point of dimension {arr.shape[0]} vs rectangle of dimension {self.dimension}"
            )
        return bool(np.all(arr >= self.low) and np.all(arr <= self.high))

    def intersection(self, other: "Rect") -> "Rect | None":
        """The overlapping region, or ``None`` when the rectangles are disjoint."""
        self._check(other)
        low = np.maximum(self.low, other.low)
        high = np.minimum(self.high, other.high)
        if np.any(low > high):
            return None
        return Rect(low, high)

    def overlap_area(self, other: "Rect") -> float:
        """Hyper-volume of the overlap (zero when disjoint)."""
        region = self.intersection(other)
        return region.area() if region is not None else 0.0

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        """The minimum rectangle covering both."""
        self._check(other)
        return Rect(np.minimum(self.low, other.low), np.maximum(self.high, other.high))

    def enlargement(self, other: "Rect") -> float:
        """Increase in area needed to also cover ``other`` (the classic
        R-tree insertion criterion)."""
        return self.union(other).area() - self.area()

    def expanded(self, amount: float) -> "Rect":
        """The rectangle grown by ``amount`` on every side."""
        return Rect(self.low - amount, self.high + amount)

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rect):
            return NotImplemented
        return bool(np.array_equal(self.low, other.low)
                    and np.array_equal(self.high, other.high))

    def __hash__(self) -> int:
        return hash((self.low.tobytes(), self.high.tobytes()))

    def __repr__(self) -> str:
        low = ", ".join(f"{v:.4g}" for v in self.low)
        high = ", ".join(f"{v:.4g}" for v in self.high)
        return f"Rect([{low}], [{high}])"


def mindist(point: Sequence[float] | np.ndarray, rect: Rect) -> float:
    """MINDIST: the smallest Euclidean distance from ``point`` to ``rect``.

    Zero when the point lies inside the rectangle.  This is a lower bound on
    the distance from the point to any object stored under the rectangle, so
    it is safe for pruning nearest-neighbour search.
    """
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if p.shape[0] != rect.dimension:
        raise DimensionMismatchError(
            f"point of dimension {p.shape[0]} vs rectangle of dimension {rect.dimension}"
        )
    clamped = np.clip(p, rect.low, rect.high)
    return float(np.linalg.norm(p - clamped))


def minmaxdist(point: Sequence[float] | np.ndarray, rect: Rect) -> float:
    """MINMAXDIST: an upper bound on the distance to the *nearest* object in ``rect``.

    Along each dimension the nearest face is considered while all other
    coordinates take their farthest value; the minimum over dimensions is an
    upper bound on the nearest-object distance because every face of an MBR
    touches at least one stored object (Roussopoulos et al., 1995).
    """
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if p.shape[0] != rect.dimension:
        raise DimensionMismatchError(
            f"point of dimension {p.shape[0]} vs rectangle of dimension {rect.dimension}"
        )
    center = rect.center()
    # rm_k: the coordinate of the nearer face in dimension k.
    rm = np.where(p <= center, rect.low, rect.high)
    # rM_k: the coordinate of the farther face in dimension k.
    rM = np.where(p >= center, rect.low, rect.high)
    total_far = np.sum((p - rM) ** 2)
    best = math.inf
    for k in range(rect.dimension):
        value = total_far - (p[k] - rM[k]) ** 2 + (p[k] - rm[k]) ** 2
        best = min(best, float(value))
    return math.sqrt(max(0.0, best))


# ----------------------------------------------------------------------
# batched kernels (whole-node / whole-batch tests in one numpy call)
# ----------------------------------------------------------------------
def mindist_batch(point: Sequence[float] | np.ndarray, lows: np.ndarray,
                  highs: np.ndarray) -> np.ndarray:
    """MINDIST from one point to many rectangles at once.

    ``lows`` and ``highs`` are ``(n, d)`` arrays of rectangle corners; the
    result is the ``(n,)`` array of Euclidean distances, matching
    :func:`mindist` applied row by row.
    """
    p = np.asarray(point, dtype=np.float64).reshape(-1)
    if lows.ndim != 2 or lows.shape != highs.shape:
        raise DimensionMismatchError(
            f"expected matching (n, d) corner arrays, got {lows.shape} and {highs.shape}"
        )
    if p.shape[0] != lows.shape[1]:
        raise DimensionMismatchError(
            f"point of dimension {p.shape[0]} vs rectangles of dimension {lows.shape[1]}"
        )
    clamped = np.clip(p, lows, highs)
    delta = p - clamped
    return np.sqrt(np.sum(delta * delta, axis=1))


def overlap_matrix(lows: np.ndarray, highs: np.ndarray,
                   window_lows: np.ndarray, window_highs: np.ndarray,
                   periodic_dims: np.ndarray | None = None) -> np.ndarray:
    """Rectangle-overlap tests for every (entry, window) pair in one shot.

    ``lows``/``highs`` describe ``n`` entry rectangles as ``(n, d)`` arrays;
    ``window_lows``/``window_highs`` describe ``q`` query windows as
    ``(q, d)`` arrays.  The result is an ``(n, q)`` boolean matrix whose
    ``[i, j]`` element says whether entry ``i`` intersects window ``j`` (see
    :func:`overlap_pairs` for the test itself).
    """
    return overlap_pairs(lows[:, None, :], highs[:, None, :],
                         window_lows[None, :, :], window_highs[None, :, :],
                         periodic_dims)


def overlap_pairs(lows: np.ndarray, highs: np.ndarray,
                  window_lows: np.ndarray, window_highs: np.ndarray,
                  periodic_dims: np.ndarray | None = None) -> np.ndarray:
    """Rectangle-overlap tests of paired rows: entry ``i`` against window ``i``.

    All four corner arrays have the coordinates on their last axis and
    broadcast against each other over the leading axes; ``(p, d)`` inputs
    give a ``(p,)`` result.

    ``periodic_dims`` is an optional ``(d,)`` boolean mask marking wrap-around
    dimensions (the polar representation's phase angles); those dimensions use
    the modulo-``2*pi`` interval test instead of the plain one.  Two angular
    intervals overlap modulo ``2*pi`` exactly when the circular distance of
    their centres is at most the sum of their half-widths (intervals at least
    ``2*pi`` wide overlap everything), which evaluates as one fused kernel
    over all periodic dimensions — equivalent to, and much faster than,
    testing each shifted copy of the interval separately.
    """
    if periodic_dims is None:
        plain = slice(None)
        has_periodic = False
    else:
        periodic_dims = np.asarray(periodic_dims, dtype=bool)
        has_periodic = bool(periodic_dims.any())
        plain = ~periodic_dims if has_periodic else slice(None)
    result = np.all((lows[..., plain] <= window_highs[..., plain])
                    & (window_lows[..., plain] <= highs[..., plain]), axis=-1)
    if has_periodic:
        angular = np.nonzero(periodic_dims)[0]
        entry_half = (highs[..., angular] - lows[..., angular]) * 0.5
        entry_center = lows[..., angular] + entry_half
        window_half = (window_highs[..., angular] - window_lows[..., angular]) * 0.5
        window_center = window_lows[..., angular] + window_half
        gap = np.abs((entry_center - window_center + math.pi) % TWO_PI - math.pi)
        hits = gap <= entry_half + window_half
        wide = (entry_half >= math.pi) | (window_half >= math.pi)
        result &= np.all(hits | wide, axis=-1)
    return result
