"""Information-theoretic estimators on scalar series and point sets.

Binned mutual information, the k-nearest-neighbor (KSG) mutual-information
estimator, active information storage of delay reconstructions,
ordinal-pattern entropies (PE / WPE), and autocorrelation.

All quantities are reported in bits. The KSG estimator works in nats
internally and is converted once at the end.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from ._neighbours import _mark_cell_worker, _query_workers
from .errors import (
    CapacityError,
    DegenerateSeriesError,
    DelayKitError,
    ValidationError,
)
from .timeseries import _usable_cores, as_count, as_points, as_values, delay_matrix

__all__ = [
    "SweepGrid",
    "binned_mutual_information",
    "td_mutual_information_curve",
    "ksg_mutual_information",
    "active_information_storage",
    "atau_surface",
    "autocorrelation",
    "permutation_entropy",
    "weighted_permutation_entropy",
    "select_word_length",
]

_LN2 = math.log(2.0)

# Default bin count per axis of a joint histogram.
DEFAULT_BINS_2D = 16

# A_tau sweep cells subsample to at most this many joint samples
# (uniform stride); the estimator stays accurate on small subsets.
DEFAULT_MAX_SAMPLES = 20000


@dataclass
class SweepGrid:
    """Rectangular (m, tau) grid of scalar results from a parameter sweep.

    Cells that could not be evaluated hold NaN and carry a message in
    ``cell_errors``.
    """

    m_values: tuple
    tau_values: tuple
    values: np.ndarray
    metadata: dict = field(default_factory=dict)
    cell_errors: dict = field(default_factory=dict)

    def argbest(self, mode: str = "max") -> tuple[int, int, float]:
        """Grid arg-optimum as (m, tau, value); ties prefer the smallest m,
        then the smallest tau. A grid with no valid cell raises
        ValidationError, naming the first failed cell and its reason when
        every cell failed; so does a mode other than "max" or "min"."""
        if mode not in ("max", "min"):
            raise ValidationError(f"mode must be 'max' or 'min', got {mode!r}")
        vals = self.values
        if np.all(np.isnan(vals)):
            if len(self.cell_errors) == vals.size:
                (m, tau), reason = next(iter(self.cell_errors.items()))
                raise ValidationError("every cell of the grid failed; "
                                      f"first at m={m} tau={tau}: {reason}")
            raise ValidationError("grid has no valid cells")
        target = np.nanmax(vals) if mode == "max" else np.nanmin(vals)
        i, j = np.argwhere(vals == target)[0]
        return self.m_values[i], self.tau_values[j], float(vals[i, j])

    def value_at(self, m: int, tau: int) -> float:
        """The cell at (m, tau); ValidationError names an absent m or tau."""
        for name, value, values in (("m", m, self.m_values), ("tau", tau, self.tau_values)):
            if value not in values:
                raise ValidationError(f"{name}={value!r} is not on the grid")
        return float(self.values[self.m_values.index(m), self.tau_values.index(tau)])

    def to_csv_rows(self):
        """Rows for the ``m,tau,value`` schema; missing cells emit an
        empty value field."""
        yield "m,tau,value"
        for i, m in enumerate(self.m_values):
            for j, tau in enumerate(self.tau_values):
                v = self.values[i, j]
                yield f"{m},{tau}," if np.isnan(v) else f"{m},{tau},{float(v)!r}"


def _entropy_from_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    # summing in sorted order keeps H (hence MI) exactly symmetric in its
    # arguments: the multiset of probabilities determines the float result
    p = np.sort(counts[counts > 0]) / total
    return float(-np.sum(p * np.log2(p))) + 0.0  # avoid -0.0


def _bin_indices(values: np.ndarray, bins: int) -> np.ndarray:
    """Each value's equal-width bin over the observed [min, max]; a
    constant series spans [v - 0.5, v + 0.5], and the maximum falls in
    the last bin."""
    bins = as_count(bins, "bins", low=2)
    lo, hi = float(np.min(values)), float(np.max(values))
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    # NaN and infinite values, and a constant too large to widen, fail this
    if not -np.inf < lo < hi < np.inf:
        raise ValidationError(f"cannot bin values in [{lo}, {hi}]")
    idx = np.floor((values - lo) / (hi - lo) * bins).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def _binned_mi(ix: np.ndarray, iy: np.ndarray, bins: int) -> float:
    """H[X] + H[Y] - H[X,Y] of two bin-index sequences, in bits; the
    marginal entropies come from the joint table."""
    joint = np.bincount(ix * bins + iy, minlength=bins * bins).reshape(bins, bins)
    h_x = _entropy_from_counts(joint.sum(axis=1))
    h_y = _entropy_from_counts(joint.sum(axis=0))
    h_xy = _entropy_from_counts(joint.ravel())
    return h_x + h_y - h_xy


def binned_mutual_information(x, y, bins: int = DEFAULT_BINS_2D) -> float:
    """H[X] + H[Y] - H[X,Y] from a joint histogram, in bits.

    Each variable gets ``bins`` equal-width bins over its own observed
    range. Marginal entropies are taken from the joint table, so the
    result is symmetric and nonnegative up to rounding.
    """
    xv, yv = as_values(x), as_values(y)
    if xv.size != yv.size:
        raise ValidationError("series must have equal lengths")
    return _binned_mi(_bin_indices(xv, bins), _bin_indices(yv, bins), bins)


def td_mutual_information_curve(series, tau_max: int,
                                bins: int = DEFAULT_BINS_2D) -> list[tuple[int, float]]:
    """Binned mutual information between the series and its tau-lagged copy,
    for tau = 1..tau_max, over the overlapping N - tau pairs.

    Both copies share one binning over the whole series' range.
    """
    values = as_values(series)
    tau_max = as_count(tau_max, "tau_max")
    if tau_max >= values.size:
        raise ValidationError("tau_max must be smaller than the series length")
    idx = _bin_indices(values, bins)
    return [(tau, _binned_mi(idx[tau:], idx[:-tau], bins))
            for tau in range(1, tau_max + 1)]


# The counting tree of marginals wider than one coordinate, and its kNN
# queries; counts do not depend on these. Summed over the x-counts of the
# benchmark's A_tau grids (Henon m 2-8 x tau 1-10, logistic m 2-8 x tau
# 1-5, Lorenz-96 m 2 x tau 1-30; N ~ 1,200, mean count 4-7, one thread,
# best of 5), ball counts on an unbalanced leaf-128 tree took 423, 128
# and 125 ms; 16 first neighbours in groups of 128 on an unbalanced
# leaf-32 tree took 252, 64 and 78 ms. Leaf 16 was as fast, leaf 64 and
# 128 6-33 % slower; groups of 64, 256 or 512 up to 13 % slower; a first
# k of 8 or 12 up to 66 % slower, 24 or 32 within 5 %. A call on every
# core starts threads in each scipy call, so it takes larger groups: the
# x-count of a standalone m = 2, N = 20,000 Henon A_tau took 21 ms as ball
# counts, 38 ms in groups of 128 and 16 ms in groups of 1,024.
_COUNT_LEAFSIZE = 32
_COUNT_FIRST_K = 16
_COUNT_GROUP = {1: 128, -1: 1024}  # queries per kNN call, by its workers

def _sorted_counts(values: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Points j with |values[j] - values[i]| <= radii[i], self included,
    for finite 1-D values and non-negative radii.

    Both ends of [v - r, v + r] are binary searches in the sorted values.
    Those bounds round, so each end then moves, one run of equal values
    at a time, until the exact predicate holds just inside it and fails
    just outside; the qualifying values are contiguous in sorted order
    because fl(s - v) is monotone in s.
    """
    s = np.sort(values)
    n = s.size

    def inside(j):
        return np.abs(s[j] - values) <= radii

    lo = np.searchsorted(s, values - radii, side="left")
    hi = np.searchsorted(s, values + radii, side="right")
    while True:
        grow_lo = (lo > 0) & inside(np.maximum(lo - 1, 0))
        cut_lo = (lo < n) & ~inside(np.minimum(lo, n - 1))
        grow_hi = (hi < n) & inside(np.minimum(hi, n - 1))
        cut_hi = (hi > 0) & ~inside(np.maximum(hi - 1, 0))
        if not (grow_lo.any() or cut_lo.any() or grow_hi.any() or cut_hi.any()):
            return hi - lo
        lo[grow_lo] = np.searchsorted(s, s[lo[grow_lo] - 1], side="left")
        lo[cut_lo] = np.searchsorted(s, s[lo[cut_lo]], side="right")
        hi[grow_hi] = np.searchsorted(s, s[hi[grow_hi]], side="right")
        hi[cut_hi] = np.searchsorted(s, s[hi[cut_hi] - 1], side="left")


def _marginal_counts(points: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Neighbors within and on the boundary of each point's max-norm radius,
    excluding the point itself.

    One-dimensional marginals use the exact sorted counter. Wider ones
    share one tree and take their queries in ascending order of radius,
    in groups. Each group is one kNN query for the first k neighbors
    (self included), with scipy's bound, which admits distances strictly
    below it, one ulp above the group's largest radius, so it admits every
    distance up to each query's own radius. A query with fewer than k
    returned distances within its radius is settled: a point it did not
    get lies no nearer than its k-th neighbor, or at or beyond the bound,
    and both lie beyond its radius.
    The queries that are not settled, and every later one once a group
    leaves more than half of its queries unsettled (large counts, as on
    coarsely quantised series), are ball counts, exact at any count.
    Both routes compare scipy's max-norm distance, max_d |p_jd - p_id|
    with no power transform, against r_i on the rounded differences, so
    every count equals the brute-force one.
    """
    if points.shape[1] == 1:
        return _sorted_counts(points[:, 0], radii) - 1
    workers = _query_workers()
    tree = cKDTree(points, leafsize=_COUNT_LEAFSIZE, balanced_tree=False)
    k = min(_COUNT_FIRST_K, points.shape[0])
    group = _COUNT_GROUP[workers]
    order = np.argsort(radii, kind="stable")
    counts = np.empty(points.shape[0], dtype=np.intp)
    unsettled = []
    for start in range(0, order.size, group):
        rows = order[start : start + group]
        r = radii[rows]
        dist, _ = tree.query(points[rows], k=k, p=np.inf, workers=workers,
                             distance_upper_bound=np.nextafter(r[-1], np.inf))
        hits = np.count_nonzero(dist <= r[:, None], axis=1)
        settled = hits < k
        counts[rows[settled]] = hits[settled]
        unsettled.append(rows[~settled])
        if 2 * unsettled[-1].size > rows.size:
            unsettled.append(order[start + group :])
            break
    rows = np.concatenate(unsettled)
    if rows.size:
        counts[rows] = tree.query_ball_point(points[rows], radii[rows], p=np.inf,
                                             workers=workers, return_length=True)
    return counts - 1


def ksg_mutual_information(x_points, y_points, k: int = 4) -> float:
    """k-nearest-neighbor mutual information between two point sets, in bits.

    For each sample the k nearest neighbors are located in the joint space
    under the max norm; per-marginal radii are the extents of the smallest
    axis-aligned box around those neighbors. Neighbors within and on the
    boundaries are counted per marginal (n_q, n_r) and

        I = psi(k) - 1/k - <psi(n_q) + psi(n_r)> + psi(N)

    Duplicate points only make boundary counts larger; the estimate stays
    finite (and grows with N when Y is a deterministic copy of X).

    Delay vectors often tie at the k-th joint neighbor distance (two
    neighbors at exactly the same max-norm distance). Such ties are broken
    by the layout of the joint ``cKDTree`` built with scipy's defaults, so
    the choice, and with it the radii, follows that layout rather than a
    rule of its own.
    """
    xp, yp = as_points(x_points), as_points(y_points)
    n = xp.shape[0]
    if yp.shape[0] != n:
        raise ValidationError("point sets must have equal sizes")
    k = as_count(k, "k")
    if k >= n:
        raise ValidationError("require 1 <= k < N")
    joint = np.hstack([xp, yp])
    _, idx = cKDTree(joint).query(joint, k=k + 1, p=np.inf,
                                  workers=_query_workers())
    nbrs = idx[:, 1:]
    rho_x = np.max(np.abs(xp[:, None, :] - xp[nbrs]), axis=(1, 2))
    rho_y = np.max(np.abs(yp[:, None, :] - yp[nbrs]), axis=(1, 2))
    n_x = _marginal_counts(xp, rho_x)
    n_y = _marginal_counts(yp, rho_y)
    nats = (digamma(k) - 1.0 / k
            - float(np.mean(digamma(n_x) + digamma(n_y)))
            + digamma(n))
    return nats / _LN2


def _delay_state_and_future(values: np.ndarray, m: int, tau: int,
                            h: int) -> tuple[np.ndarray, np.ndarray]:
    span = (m - 1) * tau
    count = values.size - span - h
    if count < 2:
        raise CapacityError(span + h + 2, values.size)
    states = delay_matrix(values, m, tau)[:count]
    future = values[span + h :]
    return states, future


def _subsample(states: np.ndarray, future: np.ndarray,
               max_samples: int | None) -> tuple[np.ndarray, np.ndarray]:
    n = states.shape[0]
    if max_samples is None or n <= as_count(max_samples, "max_samples"):
        return states, future
    stride = int(np.ceil(n / max_samples))
    return states[::stride], future[::stride]


def active_information_storage(series, m: int, tau: int, h: int = 1,
                               k: int = 4,
                               max_samples: int | None = None) -> float:
    """Mutual information between m-dimensional delay vectors and the
    scalar observation h steps past each vector's anchor, in bits.

    With ``m=1`` the delay is unused and this reduces to the KSG mutual
    information between X_j and X_{j+h}.
    """
    values = as_values(series)
    m, tau, h = as_count(m, "m"), as_count(tau, "tau"), as_count(h, "h")
    states, future = _delay_state_and_future(values, m, tau, h)
    states, future = _subsample(states, future, max_samples)
    return ksg_mutual_information(states, future, k=k)


def run_grid(cell_fn, series, m_range, tau_range, jobs: int,
             metadata: dict) -> SweepGrid:
    """Evaluate ``cell_fn(values, m, tau)`` at every cell of an (m, tau) grid.

    Cells are independent and run on threads of this process: one per
    usable core at ``jobs=1``, N threads at ``jobs=N > 1``. Inside a
    pool of more than one thread, tree queries run on one thread.
    A cell that raises a toolkit error is flagged missing (NaN) with its
    message in ``cell_errors``; the rest of the grid is still returned.
    Any other error stops the grid: cells not yet started are dropped
    and the error is raised.
    """
    values = as_values(series)
    # integers only; one below 1 fails its own cell
    m_values = tuple(as_count(m, "m", low=None) for m in m_range)
    tau_values = tuple(as_count(t, "tau", low=None) for t in tau_range)
    if not m_values or not tau_values:
        raise ValidationError("empty parameter grid")
    jobs = as_count(jobs, "jobs")
    cells = [(m, tau) for m in m_values for tau in tau_values]
    task = partial(_grid_cell, cell_fn, values)
    workers = min(jobs if jobs > 1 else _usable_cores(), len(cells))
    # a single worker has no other cell to share the cores with
    pool = ThreadPoolExecutor(max_workers=workers,
                              initializer=_mark_cell_worker if workers > 1 else None)
    try:
        results = list(pool.map(task, *zip(*cells), chunksize=1))
    finally:
        pool.shutdown(cancel_futures=True)
    grid = np.array([value for value, _ in results], dtype=np.float64)
    errors = {cell: err for cell, (_, err) in zip(cells, results) if err is not None}
    return SweepGrid(m_values, tau_values,
                     grid.reshape(len(m_values), len(tau_values)),
                     metadata=metadata, cell_errors=errors)


def _grid_cell(cell_fn, values, m, tau):
    try:
        return cell_fn(values, m, tau), None
    except DelayKitError as err:
        return np.nan, str(err)


def _atau_cell(values, m, tau, h, k, max_samples):
    # looks the estimator up through the module on every call, so a
    # replaced ``active_information_storage`` is the one the cells run
    return active_information_storage(values, m, tau, h=h, k=k,
                                      max_samples=max_samples)


def atau_surface(series, m_range, tau_range, h: int = 1, k: int = 4,
                 max_samples: int | None = DEFAULT_MAX_SAMPLES,
                 jobs: int = 1) -> SweepGrid:
    """Active-information-storage values over a rectangular (m, tau) grid.

    ``h``, ``k`` and ``max_samples`` are checked up front. Cells are
    independent; invalid cells are flagged missing (NaN) with the error
    recorded, and the rest of the grid is still returned. The cells run
    on threads: one per usable core at ``jobs=1``, N threads at
    ``jobs=N > 1``.
    """
    h, k = as_count(h, "h"), as_count(k, "k")
    if max_samples is not None:
        max_samples = as_count(max_samples, "max_samples")
    cell = partial(_atau_cell, h=h, k=k, max_samples=max_samples)
    meta = {"h": h, "k": k, "max_samples": max_samples, "quantity": "atau"}
    return run_grid(cell, series, m_range, tau_range, jobs, meta)


def _autocorrelation_at(values: np.ndarray):
    """R(tau) of a series as a function of the lag, with the mean, the
    variance and the deviations computed once. ``autocorrelation`` and
    the lag scans evaluate every lag through it, so they agree exactly.
    The caller checks 0 <= tau < N."""
    n = values.size
    mu = values.mean()
    var = np.mean((values - mu) ** 2)
    if var == 0.0:
        raise DegenerateSeriesError("zero-variance series has no autocorrelation")
    dev = values - mu

    def at(tau: int) -> float:
        if tau == 0:
            return 1.0
        return float(np.sum(dev[tau:] * dev[:-tau]) / ((n - tau) * var))

    return at


def autocorrelation(series, tau: int) -> float:
    """Autocorrelation at lag ``tau`` using the full-series mean and
    variance; exactly 1 at lag zero."""
    values = as_values(series)
    tau = as_count(tau, "tau", low=0)
    if tau >= values.size:
        raise ValidationError("require 0 <= tau < series length")
    return _autocorrelation_at(values)(tau)


# Windows per block of the ordinal-pattern pass: a block's ranks and
# variance temporaries hold a few ell-wide rows of 2^16, whatever the
# series length, while the codes and weights keep one entry per window.
_PATTERN_BLOCK = 1 << 16


def _ordinal_windows(series, ell: int) -> np.ndarray:
    """Every length-``ell`` window of the series, as a strided view."""
    values = as_values(series)
    ell = as_count(ell, "ell", low=2)
    if values.size < ell:
        raise CapacityError(ell, values.size)
    return np.lib.stride_tricks.sliding_window_view(values, ell)


def _ordinal_ranks(windows: np.ndarray) -> np.ndarray:
    """Each window's ranks: each row lists the window's time indices sorted
    by value, equal values keeping temporal order, so the earlier sample
    gets the lower rank."""
    return np.argsort(windows, axis=1, kind="stable")


def _row_sum(terms, ell: int) -> np.ndarray:
    """The sum of ``ell`` arrays, 2 <= ell <= 15, in the order numpy sums a
    row of ``ell`` values: left to right below 8; from 8, the first eight
    pairwise, then the rest in turn. Python evaluates the left operand of
    ``+`` first, so the terms are drawn in index order."""
    terms = iter(terms)
    if ell < 8:
        total = next(terms) + next(terms)
    else:
        total = (next(terms) + next(terms)) + (next(terms) + next(terms))
        total += (next(terms) + next(terms)) + (next(terms) + next(terms))
    for term in terms:
        total += term
    return total


def _window_variances(block: np.ndarray) -> np.ndarray:
    """``np.var(block, axis=1)`` byte for byte, summed column by column:
    each column of a window view is a contiguous slice of the series, where
    numpy's reduction over a short row costs more than its arithmetic."""
    ell = block.shape[1]
    mean = _row_sum((block[:, j] for j in range(ell)), ell) / ell
    deviations = (block[:, j] - mean for j in range(ell))
    return _row_sum((np.square(d, out=d) for d in deviations), ell) / ell


def _pattern_labels(windows: np.ndarray, weighted: bool = False
                    ) -> tuple[np.ndarray, np.ndarray | None]:
    """Each window's ordinal pattern as a dense label 0, 1, ... in packed
    base-ell code order, so count tables stay as short as the number of
    distinct patterns rather than ell**ell long; with ``weighted``, also
    each window's variance about its mean, else None.

    Ranks, codes and variances are computed a block of windows at a time;
    each row's result does not depend on the blocking. The variances are
    those of ``np.var`` over each window, summed over the block's columns
    in the order numpy sums a row (``_window_variances``)."""
    n, ell = windows.shape
    if ell > 15:
        raise ValidationError("word length must be <= 15, the longest whose "
                              "packed pattern code fits in 64 bits")
    place = ell ** np.arange(ell, dtype=np.int64)
    codes = np.empty(n, dtype=np.int64)
    weights = np.empty(n) if weighted else None
    for start in range(0, n, _PATTERN_BLOCK):
        block = windows[start:start + _PATTERN_BLOCK]
        codes[start:start + len(block)] = _ordinal_ranks(block) @ place
        if weighted:
            weights[start:start + len(block)] = _window_variances(block)
    # a label is the code's place among the distinct codes: looked up, not
    # taken from np.unique's inverse, whose argsort and cumsum each hold
    # one more entry per window
    return np.searchsorted(np.unique(codes), codes), weights


def permutation_entropy(series, ell: int, normalized: bool = True) -> float:
    """Shannon entropy of the ordinal-pattern distribution.

    Normalization divides by log2(ell!) so the result lies in [0, 1].
    """
    windows = _ordinal_windows(series, ell)
    labels, _ = _pattern_labels(windows)
    h = _entropy_from_counts(np.bincount(labels))
    if normalized:
        h /= math.log2(math.factorial(windows.shape[1]))
    return h


def weighted_permutation_entropy(series, ell: int, normalized: bool = True) -> float:
    """Permutation entropy with each window weighted by its variance about
    the window mean, so large-amplitude features dominate.

    A series whose every window is constant has zero total weight; that
    case is defined as 0 (maximally structured).
    """
    windows = _ordinal_windows(series, ell)
    labels, weights = _pattern_labels(windows, weighted=True)
    total = weights.sum()
    if total == 0.0:
        return 0.0
    mass = np.bincount(labels, weights=weights)
    p = mass[mass > 0] / total
    h = max(0.0, float(-np.sum(p * np.log2(p))))
    if normalized:
        h /= math.log2(math.factorial(windows.shape[1]))
    return h


def select_word_length(n: int, lo: int = 2, hi: int = 8,
                       counts_per_pattern: int = 100) -> int:
    """Largest word length whose pattern table is well sampled:
    argmax over ell of n >= 100 * ell!, capped to [lo, hi], 2 <= lo <= hi."""
    n, lo = as_count(n, "n", low=0), as_count(lo, "lo", low=2)
    hi = as_count(hi, "hi", low=lo)
    counts_per_pattern = as_count(counts_per_pattern, "counts_per_pattern")
    best = lo
    for ell in range(lo, hi + 1):
        if n >= counts_per_pattern * math.factorial(ell):
            best = ell
    return best
