"""Feature extraction: from a time series to a point in a feature space.

The layout reproduces the k-index of the companion evaluation:

* extra dimension 0 — mean of the original series,
* extra dimension 1 — standard deviation of the original series,
* complex features 1..k — DFT coefficients 1..k of the *normal form*
  (coefficient 0 of a normal form is identically zero and is dropped).

Storing the mean and deviation separately keeps simple shifts and scales
available without any transformation (the Goldin–Kanellakis normal-form
trick) while the coefficients support the richer transformations.

:class:`SeriesFeatureExtractor` bundles the configuration (how many
coefficients, polar or rectangular layout, whether to include the extra
dimensions) and provides both the indexable prefix point and the *full*
record used by postprocessing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.objects import FeatureVector
from ..core.spaces import FeatureSpace, PolarSpace, RectangularSpace
from . import dft as dft_module
from .normalform import normal_form_values
from .series import TimeSeries

__all__ = ["SeriesFeatures", "SeriesFeatureExtractor", "series_features"]


@dataclass(frozen=True)
class SeriesFeatures:
    """Everything extracted from one series.

    ``point`` is the indexable prefix (mean, std, first ``k`` coefficients)
    encoded in the configured space; ``full_coefficients`` holds *all*
    normal-form coefficients (excluding the zero coefficient 0) so the exact
    distance can be computed during postprocessing without going back to the
    raw series; ``mean`` and ``std`` are the statistics of the original
    series.
    """

    point: FeatureVector
    full_coefficients: np.ndarray
    mean: float
    std: float


class SeriesFeatureExtractor:
    """Maps series to feature points with a fixed configuration.

    Parameters
    ----------
    num_coefficients:
        ``k``: how many DFT coefficients of the normal form are indexed.
    representation:
        ``"polar"`` (default, as in the evaluation — it keeps complex
        multipliers safe) or ``"rectangular"``.
    include_stats:
        Whether the mean and standard deviation occupy two extra leading
        dimensions (default ``True``).
    """

    def __init__(self, num_coefficients: int = 2, representation: str = "polar",
                 include_stats: bool = True) -> None:
        if num_coefficients < 1:
            raise ValueError("at least one coefficient must be indexed")
        if representation not in ("polar", "rectangular"):
            raise ValueError("representation must be 'polar' or 'rectangular'")
        self.num_coefficients = int(num_coefficients)
        self.representation = representation
        self.include_stats = bool(include_stats)
        num_extra = 2 if include_stats else 0
        if representation == "polar":
            self.space: FeatureSpace = PolarSpace(self.num_coefficients, num_extra)
        else:
            self.space = RectangularSpace(self.num_coefficients, num_extra)

    # ------------------------------------------------------------------
    def extract(self, series: TimeSeries) -> SeriesFeatures:
        """Full extraction: indexable point plus the complete coefficient record."""
        values, mean, std = normal_form_values(series.values)
        spectrum = dft_module.dft(values)
        full = spectrum[1:]
        prefix = full[: self.num_coefficients]
        if prefix.shape[0] < self.num_coefficients:
            prefix = np.concatenate([
                prefix, np.zeros(self.num_coefficients - prefix.shape[0],
                                 dtype=np.complex128)])
        extra = (mean, std) if self.include_stats else ()
        point = self.space.encode(prefix, extra)
        return SeriesFeatures(point=point, full_coefficients=full, mean=mean, std=std)

    def point(self, series: TimeSeries) -> FeatureVector:
        """Just the indexable point for ``series``."""
        return self.extract(series).point

    def query_point(self, series: TimeSeries) -> FeatureVector:
        """Alias of :meth:`point`, for readability at query call sites."""
        return self.point(series)

    def full_distance(self, a: SeriesFeatures, b: SeriesFeatures) -> float:
        """Exact distance between two extracted records.

        The distance is Euclidean over the concatenation of (mean, std) — when
        statistics are included — and *all* normal-form coefficients.  By
        Parseval the coefficient part equals the time-domain distance between
        the two normal forms.
        """
        total = float(np.sum(np.abs(a.full_coefficients - b.full_coefficients) ** 2))
        if self.include_stats:
            total += (a.mean - b.mean) ** 2 + (a.std - b.std) ** 2
        return float(np.sqrt(total))

    def __repr__(self) -> str:
        return (f"SeriesFeatureExtractor(k={self.num_coefficients}, "
                f"representation={self.representation!r}, include_stats={self.include_stats})")


#: Bytes of the (mean, std) pair stored alongside a full coefficient record.
RECORD_STATS_BYTES = 16


def full_record_bytes(full_coefficients: np.ndarray) -> int:
    """Estimated bytes of one stored full record (coefficients plus stats).

    The shared input to :func:`repro.storage.pages.records_per_page`: the
    sequential-scan baseline lays its pages out with it and the planner's
    cost model prices scans with it, so measured and estimated scan I/O use
    the same figure by construction.
    """
    return int(full_coefficients.nbytes) + RECORD_STATS_BYTES


def record_distance(a: tuple[np.ndarray, float, float],
                    b: tuple[np.ndarray, float, float],
                    include_stats: bool) -> float:
    """Exact distance between two ``(coefficients, mean, std)`` records.

    Taken over the common coefficient prefix: by Parseval still a valid
    lower bound when one side carries fewer coefficients (a bare
    feature-point query), and exact when both records are complete.  The
    columnar kernels (:func:`~repro.storage.columnar.exact_distances` and
    friends) reproduce this formula bit for bit on equal-length data; this
    scalar form is their reference.
    """
    common = min(a[0].shape[0], b[0].shape[0])
    total = float(np.sum(np.abs(a[0][:common] - b[0][:common]) ** 2))
    if include_stats:
        total += (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2
    return float(np.sqrt(total))


def series_features(series: TimeSeries, space: FeatureSpace) -> FeatureVector:
    """Convenience used by :meth:`TimeSeries.feature_vector`.

    Builds an extractor matching ``space`` (its representation, arity and
    whether it reserves the two statistics dimensions) and returns the
    indexable point.
    """
    representation = "polar" if isinstance(space, PolarSpace) else "rectangular"
    include_stats = space.num_extra >= 2
    extractor = SeriesFeatureExtractor(num_coefficients=space.num_features,
                                       representation=representation,
                                       include_stats=include_stats)
    return extractor.point(series)
