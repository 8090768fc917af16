"""Brute-force exact-distance oracle, computed from the raw value arrays.

The engine's distance between two series is the Euclidean distance between
their normal forms, ``(x - mean) / std``, plus the squared differences of
the removed means and standard deviations; ``USING mavg8`` first replaces
both normal forms by their circular 8-day moving average and leaves mean and
standard deviation alone.  The oracle evaluates exactly that in the time
domain with numpy, independent of the engine's DFT feature code, so an
answer agrees with it only if the index, the scan and the planner are all
right.

Comparison rules (``DIST_TOL`` is the stated tolerance):

* range: the answer set must hold every row at distance ``<= eps - tol``
  and none beyond ``eps + tol``; each reported distance must match the
  oracle's within ``tol``;
* nearest neighbours: the answer ids must equal the oracle's ordered ids,
  except that rows whose oracle distances tie within ``tol`` may swap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Absolute tolerance on distances (the engine works on DFT coefficients,
#: the oracle on time-domain values; both agree to ~1e-12 on this data).
DIST_TOL = 1e-6

#: The one transformation the workloads use, by its ``USING`` name.
MAVG_WINDOW = 8


def normal_forms(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise ``(normal forms, means, stds)`` of a ``(rows, length)`` array."""
    means = values.mean(axis=1)
    stds = values.std(axis=1)
    safe = np.where(stds == 0.0, 1.0, stds)
    forms = (values - means[:, None]) / safe[:, None]
    forms[stds == 0.0] = 0.0
    return forms, means, stds


def moving_average(forms: np.ndarray, window: int = MAVG_WINDOW) -> np.ndarray:
    """Circular moving average along each row: day ``i`` averages days
    ``i, i-1, ..., i-window+1``, wrapping around the start."""
    total = np.zeros_like(forms)
    for shift in range(window):
        total += np.roll(forms, shift, axis=-1)
    return total / window


@dataclass(frozen=True)
class Query:
    """One issued query, as the oracle needs to replay it."""

    kind: str  # "range" or "nn"
    values: np.ndarray  # raw query series
    transformed: bool  # USING mavg8
    epsilon: float = 0.0
    k: int = 0
    rows: int | None = None  # rows visible when the query ran (None = all)


class Oracle:
    """Exact distances from raw rows to a query, by brute force."""

    def __init__(self, values: np.ndarray, object_ids: list[int]) -> None:
        forms, self.means, self.stds = normal_forms(np.asarray(values, dtype=np.float64))
        #: Per ``transformed`` flag: the rows' (moving-averaged) normal forms
        #: and their squared norms.
        self._forms = {False: forms}
        self._norms = {False: np.einsum("ij,ij->i", forms, forms)}
        self.object_ids = list(object_ids)
        self.row_of = {object_id: row for row, object_id in enumerate(self.object_ids)}

    def distances(self, query: Query) -> np.ndarray:
        """Exact distance of every visible row to the query, as
        ``|x|^2 + |q|^2 - 2 x.q`` over the normal forms plus the squared
        mean and standard-deviation differences."""
        if query.transformed not in self._forms:
            averaged = moving_average(self._forms[False])
            self._forms[True] = averaged
            self._norms[True] = np.einsum("ij,ij->i", averaged, averaged)
        rows = len(self.object_ids) if query.rows is None else query.rows
        forms, mean, std = normal_forms(query.values[None, :])
        if query.transformed:
            forms = moving_average(forms)
        form = forms[0]
        squared = (self._norms[query.transformed][:rows] + form @ form
                   - 2.0 * (self._forms[query.transformed][:rows] @ form))
        squared += (self.means[:rows] - mean[0]) ** 2 + (self.stds[:rows] - std[0]) ** 2
        return np.sqrt(np.maximum(squared, 0.0))

    def check(self, query: Query, ids: np.ndarray, distances: np.ndarray) -> str | None:
        """``None`` when the answers (object ids and distances, in the order
        returned) are right for ``query``; otherwise why not."""
        expected = self.distances(query)
        rows = []
        for object_id, distance in zip(ids.tolist(), distances.tolist()):
            row = self.row_of.get(object_id)
            if row is None or row >= expected.shape[0]:
                return f"answer id {object_id} is not a visible row"
            if abs(distance - expected[row]) > DIST_TOL:
                return (f"row {row}: distance {distance:.12g} but oracle says "
                        f"{expected[row]:.12g}")
            rows.append(row)
        if len(set(rows)) != len(rows):
            return "duplicate answer ids"
        if query.kind == "range":
            must = set(np.nonzero(expected <= query.epsilon - DIST_TOL)[0].tolist())
            may = expected <= query.epsilon + DIST_TOL
            missing = must.difference(rows)
            if missing:
                return f"{len(missing)} rows within epsilon missing, e.g. row {min(missing)}"
            outside = [row for row in rows if not may[row]]
            if outside:
                return f"{len(outside)} answers beyond epsilon, e.g. row {outside[0]}"
            return None
        k = min(query.k, expected.shape[0])
        if len(rows) != k:
            return f"{len(rows)} nearest neighbours returned, expected {k}"
        order = np.argsort(expected, kind="stable")[:k]
        if rows == order.tolist():
            return None
        ranked = expected[order]
        for position, row in enumerate(rows):
            if abs(expected[row] - ranked[position]) > DIST_TOL:
                return (f"nearest-neighbour rank {position}: row {row} at "
                        f"{expected[row]:.12g}, oracle ranks row {order[position]} at "
                        f"{ranked[position]:.12g}")
        return None
