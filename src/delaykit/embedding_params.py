"""Reconstruction parameter selection: classical tau and m heuristics and
the information-storage-optimal selector."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._neighbours import _ExactIndex
from .errors import (
    NoEmbeddingFoundError,
    NoMinimumError,
    NoZeroCrossingError,
    ValidationError,
)
from .estimators import (
    DEFAULT_MAX_SAMPLES,
    _autocorrelation_at,
    atau_surface,
    binned_mutual_information,
    td_mutual_information_curve,
)
from .timeseries import as_count, as_values, delay_matrix

__all__ = [
    "FnnConfig",
    "ParamChoice",
    "tau_first_min_mi",
    "tau_first_zero_autocorr",
    "fnn_fraction",
    "estimate_m_fnn",
    "atau_optimal_params",
]

# The false-neighbor test asks for the neighbors of this many points at a
# time. At m = 1 its tracemalloc peak on a 2*10^5-sample series was 5.4
# times the series (12.4 at 2**16, 24.7 for one query of every point), and
# 4.1 times at 10^6 samples (12.2 for one query), at the same speed.
_FNN_BLOCK = 2**14


@dataclass(frozen=True)
class FnnConfig:
    """False-neighbor test tolerances.

    ``r_tol`` flags pairs whose distance jumps when a dimension is added;
    ``a_tol`` flags pairs that were never close relative to the attractor
    size. The dimension search accepts the first m whose flagged fraction
    drops below ``fraction_threshold``.
    """

    r_tol: float = 10.0
    a_tol: float = 2.0
    fraction_threshold: float = 0.10
    m_max: int = 10

    def __post_init__(self):
        if not self.r_tol > 0:
            raise ValidationError("r_tol must be positive")
        if not self.a_tol > 0:
            raise ValidationError("a_tol must be positive")
        if not 0.0 < self.fraction_threshold < 1.0:
            raise ValidationError("fraction_threshold must lie in (0, 1)")
        as_count(self.m_max, "m_max", low=2)


@dataclass(frozen=True)
class ParamChoice:
    """A selected reconstruction parameter pair and the score behind it."""

    m: int
    tau: int
    method: str
    score: float

    def __post_init__(self):
        as_count(self.m, "m")
        as_count(self.tau, "tau")


def tau_first_min_mi(series, tau_max: int) -> ParamChoice:
    """Smallest tau that is an interior minimum of the lagged mutual
    information curve, scanning tau = 1..tau_max.

    The lag-0 point (the series' own entropy) anchors the left edge.
    Plateaus extend the scan: a run of equal values counts as a minimum
    only if the curve rises after it, and the run's first lag is reported.

    Raises
    ------
    NoMinimumError
        If the curve never turns back up within ``tau_max`` (an AR(1)
        process decays monotonically, for example).
    """
    tau_max = as_count(tau_max, "tau_max", low=3)
    values = as_values(series)
    curve = td_mutual_information_curve(values, tau_max)
    mi = np.array([binned_mutual_information(values, values)]
                  + [v for _, v in curve])
    tau = 1
    while tau <= tau_max:
        if mi[tau - 1] > mi[tau]:
            end = tau
            while end + 1 <= tau_max and mi[end + 1] == mi[tau]:
                end += 1
            if end + 1 <= tau_max and mi[end + 1] > mi[tau]:
                return ParamChoice(m=1, tau=tau, method="first_min_mi",
                                   score=float(mi[tau]))
            tau = end + 1
        else:
            tau += 1
    raise NoMinimumError(
        f"lagged mutual information has no interior minimum for tau <= {tau_max}"
    )


def tau_first_zero_autocorr(series, tau_max: int) -> ParamChoice:
    """Smallest tau where the autocorrelation reaches or crosses zero.

    A finite sample never lands exactly on zero, so a lag also counts as a
    zero when |R(tau)| falls below the Bartlett standard error of an
    autocorrelation estimate under the null, 1/sqrt(N - tau).

    Raises
    ------
    NoZeroCrossingError
        If R(tau) stays positive through ``tau_max``.
    """
    values = as_values(series)
    tau_max = as_count(tau_max, "tau_max")
    if tau_max >= values.size:
        raise ValidationError("tau_max must be smaller than the series length")
    autocorr = _autocorrelation_at(values)
    prev = autocorr(0)
    for tau in range(1, tau_max + 1):
        r = autocorr(tau)
        if abs(r) <= 1.0 / np.sqrt(values.size - tau) or (prev > 0.0 > r):
            return ParamChoice(m=1, tau=tau, method="first_zero_autocorr", score=r)
        prev = r
    raise NoZeroCrossingError(
        f"autocorrelation has no zero for tau <= {tau_max}"
    )


def fnn_fraction(series, m: int, tau: int,
                 config: FnnConfig | None = None) -> float:
    """Fraction of reconstruction points whose nearest neighbor is false.

    Each point of the m-dimensional reconstruction that extends to m+1
    dimensions is paired with its nearest neighbor among those points: the
    nearest other point by the scan distance
    ``np.sqrt(np.sum((p - q) ** 2))``, the smallest index winning ties, so
    the pairs depend on the data alone. The pair is false when the added
    coordinate stretches it by more than ``r_tol`` relative to its
    m-dimensional distance, or when its (m+1)-dimensional distance exceeds
    ``a_tol`` attractor sizes. Pairs at zero distance are skipped (the
    stretch ratio is undefined). Both criteria are ratios, so the result
    is scale invariant. When every point is skipped, as when each has a
    copy in a coarsely rounded series, the fraction is undefined and NaN
    is returned: no pair gives evidence for or against m.
    """
    config = config or FnnConfig()
    values = as_values(series)
    m, tau = as_count(m, "m"), as_count(tau, "tau")
    if values.size - m * tau < 2:
        raise ValidationError(
            f"series cannot support the false-neighbor test at (m+1={m + 1}, tau={tau})"
        )
    ext = delay_matrix(values, m + 1, tau)  # columns 0..m-1 plus the new lag
    base = ext[:, :m]
    added = ext[:, m]
    # a point with a copy has a neighbor at distance 0 and is skipped; the
    # others are asked for their nearest other point
    index = _ExactIndex(base)
    r_a = float(np.std(values))
    flagged = used = 0
    for start in range(0, index.first.size, _FNN_BLOCK):
        lone = np.flatnonzero(index.alone[start : start + _FNN_BLOCK])
        rows = index.first[start + lone]
        # k = 3 proposes the point itself, its neighbor and one more, which
        # shows whether the neighbor is tied; a point without a copy among
        # at least two points always has another point to pair with.
        d_m, nbr = index.nearest(base[rows],
                                 lambda idx, part: idx == rows[part, None], 3)
        usable = d_m > 0.0
        d_m = d_m[usable]
        gap = np.abs(added[rows] - added[nbr])[usable]
        d_m1 = np.sqrt(d_m ** 2 + gap ** 2)
        flagged += int(np.count_nonzero((gap / d_m > config.r_tol)
                                        | (d_m1 / r_a > config.a_tol)))
        used += d_m.size
    return flagged / used if used else math.nan


def estimate_m_fnn(series, tau: int,
                   config: FnnConfig | None = None) -> ParamChoice:
    """Smallest dimension whose false-neighbor fraction is at or below the
    configured threshold.

    Raises
    ------
    NoEmbeddingFoundError
        If no m up to ``config.m_max`` meets the threshold; the fraction
        curve is attached for inspection.
    """
    config = config or FnnConfig()
    fractions = {}
    for m in range(1, config.m_max + 1):
        frac = fnn_fraction(series, m, tau, config)
        fractions[m] = frac
        if frac <= config.fraction_threshold:
            return ParamChoice(m=m, tau=tau, method="fnn", score=frac)
    raise NoEmbeddingFoundError(fractions, config.fraction_threshold)


def atau_optimal_params(series, m_range, tau_range, h: int = 1, k: int = 4,
                        max_samples: int | None = DEFAULT_MAX_SAMPLES,
                        jobs: int = 1) -> ParamChoice:
    """Grid argmax of active information storage over (m, tau).

    Exact ties on a plateau resolve to the smallest m, then the smallest
    tau, since lower dimensions cost less and amplify less noise.
    The cells run on threads: one per usable core at ``jobs=1``, N
    threads at ``jobs=N > 1``.
    """
    return _atau_choice(atau_surface(series, m_range, tau_range, h=h, k=k,
                                     max_samples=max_samples, jobs=jobs))


def _atau_choice(grid) -> ParamChoice:
    """The A_tau-optimal choice of an ``atau_surface`` grid."""
    m, tau, score = grid.argbest("max")
    return ParamChoice(m=m, tau=tau, method="atau_optimal", score=score)
