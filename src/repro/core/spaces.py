"""Feature spaces for complex-valued features.

A data object is mapped to a small vector of *complex* features (for time
series: the leading DFT coefficients).  The index and the transformation
machinery, however, operate on points in a real multidimensional space.  Two
standard ways of laying a complex vector out as a real point are provided:

``Srect``
    Each complex feature contributes its real part and imaginary part as two
    consecutive real coordinates.

``Spol``
    Each complex feature contributes its magnitude and phase angle as two
    consecutive real coordinates.

The choice matters for *safety* of transformations (see
:mod:`repro.core.safety`): a complex multiplier is safe in ``Spol`` but not in
``Srect``, while a complex translation is safe in ``Srect`` but not in
``Spol``.

Each space also knows how to build the *search rectangle* for a range query —
the minimum bounding rectangle of all points within Euclidean distance
``epsilon`` (per complex feature) of a query point — which is what the index
traversal intersects against.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatchError
from .objects import FeatureVector

__all__ = [
    "FeatureSpace",
    "RectangularSpace",
    "PolarSpace",
    "TWO_PI",
]

TWO_PI = 2.0 * math.pi


class FeatureSpace:
    """Abstract layout of ``num_features`` complex features as real coordinates.

    Parameters
    ----------
    num_features:
        Number of complex features.  The real dimension of the space is
        ``2 * num_features`` plus ``num_extra`` leading real coordinates.
    num_extra:
        Number of extra *real* coordinates stored before the complex
        features.  The time-series k-index uses two (mean and standard
        deviation of the original series).
    """

    name = "abstract"

    def __init__(self, num_features: int, num_extra: int = 0) -> None:
        if num_features < 0 or num_extra < 0:
            raise ValueError("num_features and num_extra must be non-negative")
        self.num_features = int(num_features)
        self.num_extra = int(num_extra)

    @property
    def dimension(self) -> int:
        """Real dimensionality of the space."""
        return self.num_extra + 2 * self.num_features

    # ------------------------------------------------------------------
    # encoding / decoding
    # ------------------------------------------------------------------
    def encode(self, complex_features: Sequence[complex] | np.ndarray,
               extra: Sequence[float] | np.ndarray | None = None) -> FeatureVector:
        """Lay out complex features (plus optional extra reals) as a real point."""
        raise NotImplementedError

    def decode(self, point: FeatureVector) -> tuple[np.ndarray, np.ndarray]:
        """Invert :meth:`encode`; returns ``(extra, complex_features)``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # range-query geometry
    # ------------------------------------------------------------------
    def search_rectangle(self, query: FeatureVector, epsilon: float
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Bounds ``(low, high)`` of the minimum rectangle containing the
        epsilon-ball around ``query``.

        The ball is taken per complex feature (and per extra coordinate):
        every object whose distance to the query is at most ``epsilon``
        necessarily has every individual feature within ``epsilon`` of the
        query's, so the rectangle is a conservative filter — it can produce
        false hits but never false dismissals.
        """
        raise NotImplementedError

    def distance(self, a: FeatureVector, b: FeatureVector) -> float:
        """Euclidean distance between the *complex feature vectors* of two points.

        For ``Srect`` this equals the plain L2 distance between the real
        points; for ``Spol`` the points are decoded back to complex numbers
        first.
        """
        extra_a, feats_a = self.decode(a)
        extra_b, feats_b = self.decode(b)
        d2 = float(np.sum(np.abs(feats_a - feats_b) ** 2))
        d2 += float(np.sum((extra_a - extra_b) ** 2))
        return math.sqrt(d2)

    def periodic_dimension_mask(self) -> np.ndarray:
        """Boolean mask over coordinates that wrap around (modulo ``2*pi``).

        The rectangular layout has none; the polar layout marks its phase
        angles.  Batched R-tree probes use this to pick the right per-
        dimension overlap test.
        """
        return np.zeros(self.dimension, dtype=bool)

    def _check_point(self, point: FeatureVector) -> None:
        if point.dimension != self.dimension:
            raise DimensionMismatchError(
                f"point of dimension {point.dimension} does not belong to "
                f"{self.name} space of dimension {self.dimension}"
            )

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(num_features={self.num_features}, "
                f"num_extra={self.num_extra})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureSpace):
            return NotImplemented
        return (type(self) is type(other)
                and self.num_features == other.num_features
                and self.num_extra == other.num_extra)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.num_features, self.num_extra))


class RectangularSpace(FeatureSpace):
    """``Srect``: complex feature *i* occupies coordinates ``(2i-1, 2i)`` as
    (real part, imaginary part)."""

    name = "Srect"

    def encode(self, complex_features: Sequence[complex] | np.ndarray,
               extra: Sequence[float] | np.ndarray | None = None) -> FeatureVector:
        feats = np.asarray(complex_features, dtype=np.complex128)
        if feats.shape != (self.num_features,):
            raise DimensionMismatchError(
                f"expected {self.num_features} complex features, got shape {feats.shape}"
            )
        extra_arr = self._extra_array(extra)
        coords = np.empty(self.dimension, dtype=np.float64)
        coords[: self.num_extra] = extra_arr
        coords[self.num_extra::2] = feats.real
        coords[self.num_extra + 1::2] = feats.imag
        return FeatureVector(coords)

    def decode(self, point: FeatureVector) -> tuple[np.ndarray, np.ndarray]:
        self._check_point(point)
        values = point.values
        extra = values[: self.num_extra].copy()
        real = values[self.num_extra::2]
        imag = values[self.num_extra + 1::2]
        return extra, real + 1j * imag

    def search_rectangle(self, query: FeatureVector, epsilon: float
                         ) -> tuple[np.ndarray, np.ndarray]:
        self._check_point(query)
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        values = query.values
        low = values - epsilon
        high = values + epsilon
        return low.copy(), high.copy()

    def _extra_array(self, extra: Sequence[float] | np.ndarray | None) -> np.ndarray:
        if extra is None:
            extra = ()
        arr = np.asarray(list(extra), dtype=np.float64)
        if arr.shape != (self.num_extra,):
            raise DimensionMismatchError(
                f"expected {self.num_extra} extra coordinates, got shape {arr.shape}"
            )
        return arr


class PolarSpace(FeatureSpace):
    """``Spol``: complex feature *i* occupies coordinates ``(2i-1, 2i)`` as
    (magnitude, phase angle).

    Phase angles are stored in radians in ``(-pi, pi]`` (the range of
    ``math.atan2``).  The search rectangle for a feature with query magnitude
    ``m`` and angle ``alpha`` is ``[m - eps, m + eps]`` in magnitude and
    ``[alpha - asin(eps / m), alpha + asin(eps / m)]`` in angle; when
    ``eps >= m`` the whole angle range is used because the epsilon-ball then
    contains the origin and every phase is possible.
    """

    name = "Spol"

    def encode(self, complex_features: Sequence[complex] | np.ndarray,
               extra: Sequence[float] | np.ndarray | None = None) -> FeatureVector:
        feats = np.asarray(complex_features, dtype=np.complex128)
        if feats.shape != (self.num_features,):
            raise DimensionMismatchError(
                f"expected {self.num_features} complex features, got shape {feats.shape}"
            )
        extra_arr = RectangularSpace._extra_array(self, extra)  # same validation
        coords = np.empty(self.dimension, dtype=np.float64)
        coords[: self.num_extra] = extra_arr
        coords[self.num_extra::2] = np.abs(feats)
        coords[self.num_extra + 1::2] = np.angle(feats)
        return FeatureVector(coords)

    def decode(self, point: FeatureVector) -> tuple[np.ndarray, np.ndarray]:
        self._check_point(point)
        values = point.values
        extra = values[: self.num_extra].copy()
        magnitude = values[self.num_extra::2]
        angle = values[self.num_extra + 1::2]
        return extra, magnitude * np.exp(1j * angle)

    def search_rectangle(self, query: FeatureVector, epsilon: float
                         ) -> tuple[np.ndarray, np.ndarray]:
        self._check_point(query)
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        values = query.values
        low = np.empty(self.dimension, dtype=np.float64)
        high = np.empty(self.dimension, dtype=np.float64)
        low[: self.num_extra] = values[: self.num_extra] - epsilon
        high[: self.num_extra] = values[: self.num_extra] + epsilon
        for i in range(self.num_features):
            mag_dim = self.num_extra + 2 * i
            ang_dim = mag_dim + 1
            magnitude = values[mag_dim]
            angle = values[ang_dim]
            low[mag_dim] = max(0.0, magnitude - epsilon)
            high[mag_dim] = magnitude + epsilon
            if epsilon >= magnitude or magnitude == 0.0:
                # The disc of radius epsilon around the feature contains the
                # origin: any phase angle is reachable.
                low[ang_dim] = -math.pi
                high[ang_dim] = math.pi
            else:
                delta = math.asin(min(1.0, epsilon / magnitude))
                low[ang_dim] = angle - delta
                high[ang_dim] = angle + delta
        return low, high

    def mindist_to_rectangle(self, query: FeatureVector, low: np.ndarray,
                             high: np.ndarray) -> float:
        """Lower bound on the *true* (complex) distance from ``query`` to any
        point whose polar encoding lies in the rectangle ``[low, high]``.

        Plain Euclidean MINDIST in polar coordinates is not a valid lower
        bound on the complex-plane distance (an angle difference of ``d``
        radians corresponds to a chord of length up to ``2 m sin(d/2)``, and
        for small magnitudes the polar-coordinate distance overestimates the
        true one).  This method instead measures, per complex feature, the
        distance from the query's complex value to the annular sector the
        rectangle describes, and adds the usual interval distance for the
        extra real coordinates.
        """
        self._check_point(query)
        return self.mindist_to_rectangles(
            query.values, np.asarray(low, dtype=np.float64).reshape(1, -1),
            np.asarray(high, dtype=np.float64).reshape(1, -1))[0]

    def mindist_to_rectangles(self, values: np.ndarray, lows: np.ndarray,
                              highs: np.ndarray) -> list[float]:
        """:meth:`mindist_to_rectangle` from the point ``values`` to every row
        of the ``(n, d)`` corner arrays ``lows`` / ``highs``.

        Runs on Python floats (``tolist`` rows): at R-tree node sizes a
        scalar loop costs less than numpy's per-call overhead would.
        """
        point = values.tolist()
        extra = self.num_extra
        bounds = []
        for low, high in zip(lows.tolist(), highs.tolist()):
            total = 0.0
            for dim in range(extra):
                if point[dim] < low[dim]:
                    total += (low[dim] - point[dim]) ** 2
                elif point[dim] > high[dim]:
                    total += (point[dim] - high[dim]) ** 2
            for mag_dim in range(extra, len(point), 2):
                ang_dim = mag_dim + 1
                d = _sector_distance(point[mag_dim], point[ang_dim],
                                     max(0.0, low[mag_dim]), high[mag_dim],
                                     low[ang_dim], high[ang_dim])
                total += d ** 2
            bounds.append(math.sqrt(total))
        return bounds

    def periodic_dimension_mask(self) -> np.ndarray:
        """Phase-angle coordinates wrap around; magnitudes and extras do not."""
        mask = np.zeros(self.dimension, dtype=bool)
        mask[self.num_extra + 1::2] = True
        return mask

    @staticmethod
    def normalize_angle(angle: float) -> float:
        """Reduce an angle to the canonical interval ``(-pi, pi]``."""
        reduced = math.fmod(angle + math.pi, TWO_PI)
        if reduced <= 0.0:
            reduced += TWO_PI
        return reduced - math.pi

    @staticmethod
    def angle_intervals_overlap(low_a: float, high_a: float,
                                low_b: float, high_b: float) -> bool:
        """Whether two angular intervals overlap modulo ``2*pi``.

        Intervals are given as (possibly un-normalised) ``[low, high]`` with
        ``low <= high``; an interval of width ``>= 2*pi`` overlaps everything.
        """
        if high_a - low_a >= TWO_PI or high_b - low_b >= TWO_PI:
            return True
        # Shift interval b by multiples of 2*pi so that candidate overlaps are
        # tested against a directly.
        for shift in (-TWO_PI, 0.0, TWO_PI):
            if low_b + shift <= high_a and high_b + shift >= low_a:
                return True
        return False


def _angular_difference(a: float, b: float) -> float:
    """Smallest non-negative angle between two directions (in [0, pi])."""
    diff = math.fmod(abs(a - b), TWO_PI)
    return min(diff, TWO_PI - diff)


def _distance_to_ray_segment(magnitude: float, angle_gap: float,
                             radius_low: float, radius_high: float) -> float:
    """Distance from the point (magnitude, angle gap from the ray) to the
    segment of the ray between the two radii."""
    cosine = math.cos(angle_gap)
    projection = magnitude * cosine
    if projection < radius_low:
        return math.sqrt(max(0.0, magnitude ** 2 + radius_low ** 2
                             - 2.0 * magnitude * radius_low * cosine))
    if projection > radius_high:
        return math.sqrt(max(0.0, magnitude ** 2 + radius_high ** 2
                             - 2.0 * magnitude * radius_high * cosine))
    return abs(magnitude * math.sin(angle_gap))


def _sector_distance(magnitude: float, angle: float, radius_low: float,
                     radius_high: float, angle_low: float, angle_high: float) -> float:
    """Distance in the complex plane from a point (given in polar form) to the
    annular sector {r e^{i t}: r in [radius_low, radius_high],
    t in [angle_low, angle_high]} (the angular interval is taken modulo 2*pi)."""
    if radius_high < radius_low:
        radius_low, radius_high = radius_high, radius_low
    width = angle_high - angle_low
    if width >= TWO_PI:
        # Full annulus: only the radial gap matters.
        return max(0.0, radius_low - magnitude, magnitude - radius_high)
    gap = _angular_difference(angle, (angle_low + angle_high) / 2.0)
    if gap <= width / 2.0 + 1e-15:
        return max(0.0, radius_low - magnitude, magnitude - radius_high)
    if width == 0.0:
        # A single ray (every point entry): both edges are the midline.
        return _distance_to_ray_segment(magnitude, gap, radius_low, radius_high)
    gap_low = _angular_difference(angle, angle_low)
    gap_high = _angular_difference(angle, angle_high)
    return min(_distance_to_ray_segment(magnitude, gap_low, radius_low, radius_high),
               _distance_to_ray_segment(magnitude, gap_high, radius_low, radius_high))
