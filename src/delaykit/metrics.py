"""Forecast accuracy scoring: the horizon-aware mean absolute scaled error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeriesError, ValidationError
from .timeseries import as_count, as_values

__all__ = ["MaseScore", "h_mase"]


@dataclass(frozen=True)
class MaseScore:
    """An h-step MASE value together with the horizon it was scored at.

    Scores at different horizons are not comparable; the ordering
    operators refuse to compare across h.
    """

    value: float
    h: int
    scaling_denominator: float

    def __post_init__(self):
        as_count(self.h, "h")
        if not self.scaling_denominator > 0:
            raise ValidationError("scaling denominator must be positive")

    def _check(self, other: "MaseScore") -> None:
        if not isinstance(other, MaseScore):
            raise TypeError("can only compare MaseScore with MaseScore")
        if other.h != self.h:
            raise ValidationError(
                f"refusing to compare {self.h}-step and {other.h}-step scores"
            )

    def __lt__(self, other):
        self._check(other)
        return self.value < other.value

    def __le__(self, other):
        self._check(other)
        return self.value <= other.value

    def __gt__(self, other):
        self._check(other)
        return self.value > other.value

    def __ge__(self, other):
        self._check(other)
        return self.value >= other.value


def h_mase(predictions, truth, train, h: int) -> MaseScore:
    """Mean absolute error scaled by the average in-sample h-step
    random-walk error of the training signal.

    numerator   = sum_j |p_j - c_j|
    denominator = (k / (n-h)) * sum_{i=1}^{n-h}
                      sqrt( sum_{iota=1}^{h} (x_i - x_{i+iota})^2 / h )

    The in-sample sum stops at i = n-h, the last start for which all h
    forward differences exist, and the prefactor normalizes by that same
    count. A score below 1 means the forecast beat an h-step random walk
    on the training data.

    Raises
    ------
    DegenerateSeriesError
        If the training signal is constant (zero scaling term).
    ValidationError
        On non-finite or non-vector inputs, length mismatches or h >= n.
    """
    p, c = as_values(predictions, "predictions"), as_values(truth, "truth")
    x = as_values(train)
    if p.size != c.size:
        raise ValidationError("predictions and truth must be equal-length vectors")
    k = p.size
    if k < 1:
        raise ValidationError("need at least one prediction")
    n = x.size
    h = as_count(h, "h")
    if h >= n:
        raise ValidationError(f"horizon h={h} requires train length > {h}")

    numerator = float(np.sum(np.abs(p - c)))

    count = n - h
    sq = np.zeros(count)
    for iota in range(1, h + 1):
        sq += (x[:count] - x[iota : iota + count]) ** 2
    walk = float(np.sum(np.sqrt(sq / h)))
    if walk == 0.0:
        raise DegenerateSeriesError(
            "constant training signal: random-walk scaling term is zero"
        )
    denominator = k / count * walk
    return MaseScore(value=numerator / denominator, h=h,
                     scaling_denominator=denominator)
