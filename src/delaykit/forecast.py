"""Forecasting strategies and the rolling evaluation protocol.

Four predictors: random walk (repeat the last observation), naive (mean of
all prior observations), nearest-neighbor analogue forecasting on a delay
reconstruction, and a least-squares autoregressive baseline. All run under
the same rolling protocol: predict a block of h steps from the current
training prefix, ingest the h true values, repeat to the end of the test
segment, and score the collected predictions with h-MASE. One driver,
``_roll``, steps the analogue and AR blocks together. Analogues come from
one exact neighbour index over the distinct delay vectors, so a quantised
series costs what its distinct vectors cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._neighbours import _ExactIndex, _scan_distances
from .errors import NoNeighborError, ValidationError
from .metrics import MaseScore, h_mase
from .timeseries import ScalarSeries, _train_length, as_count, as_values, delay_matrix

__all__ = [
    "ForecastRun",
    "forecast_ar",
    "forecast_lma",
    "rolling_evaluate",
]


@dataclass(frozen=True)
class ForecastRun:
    """Paired prediction/truth sequences with protocol metadata and score."""

    method: str
    params: dict
    predictions: np.ndarray
    truth: np.ndarray
    train_length: int
    score: MaseScore

    def __post_init__(self):
        if self.predictions.shape != self.truth.shape:
            raise ValidationError("predictions and truth must align")


# Each batched LAPACK call of the AR solver stacks at most this many floats
# (76 one-row refits of an order-8 fit); one refit that needs more goes
# alone.
_BATCH_FLOATS = 2**16


def _ar_rows(x: np.ndarray, order: int, start: int, stop: int) -> np.ndarray:
    """Rows ``[1, x[t-1], ..., x[t-order], x[t]]`` of the AR design and
    target for the targets ``start <= t < stop``."""
    rows = np.ones((stop - start, order + 2))
    rows[:, 1:-1] = delay_matrix(x[start - order : stop - 1], order, 1)
    rows[:, -1] = x[start:stop]
    return rows


def _fit_ar(x: np.ndarray, positions: np.ndarray, order: int):
    """Least-squares AR(order) fits with intercept to the prefixes
    ``x[:pos]``, one per ascending ``pos`` in ``positions``, solved by QR.

    Returns (coefficients, fallbacks): row k of the (K, order + 1)
    coefficients belongs to ``positions[k]``, its entry 0 being the
    intercept and entry i multiplying the value i steps back. Each fit's
    triangular factor of ``[design | target]`` folds the rows added since
    the previous fit into that fit's factor, and gives the coefficients by
    back substitution. A design whose rank falls short by ``lstsq``'s
    cutoff (``eps * max(rows, columns) * s_max`` on its singular values),
    such as that of a constant series or one with fewer rows than
    coefficients, falls back to the mean of its prefix and is flagged in
    the (K,) mask; a last prefix that short raises ``ValidationError``.

    Fits go in batches of at most ``_BATCH_FLOATS`` stacked floats: one QR
    call factors ``[previous factor; new rows; zero padding]`` for every
    fit of the batch, one SVD call checks their ranks and one solve covers
    the full-rank ones.
    """
    order = as_count(order, "order")
    if positions[0] <= order:
        raise ValidationError(f"AR({order}) needs more than {order} samples")
    if positions[-1] <= 2 * order:
        raise ValidationError(f"AR({order}) needs {order + 1} design rows, a prefix "
                              f"of {2 * order + 1} samples; the last fit has {positions[-1]}")
    as_values(x[: positions[-1]])  # only the prefixes fitted are read
    p = order + 1
    cols = p + 1
    counts = positions - order
    coef = np.zeros((positions.size, p))
    fallbacks = np.ones(positions.size, dtype=bool)
    cutoff = np.finfo(np.float64).eps * np.maximum(counts, p)
    r = np.empty((0, cols))
    done = order  # the factor r holds the rows of targets below this
    # fewer rows than coefficients cannot have full rank: no factor needed
    k = np.searchsorted(counts, p)
    most = max(1, _BATCH_FLOATS // cols**2)
    while k < positions.size:
        height = np.maximum(cols, len(r) + positions[k : k + most] - done)
        floats = np.arange(1, height.size + 1) * height * cols
        b = max(1, int(np.searchsorted(floats, _BATCH_FLOATS, side="right")))
        batch = slice(k, k + b)
        rows = _ar_rows(x, order, done, positions[k + b - 1])
        taken = np.arange(len(rows)) < (positions[batch] - done)[:, None]
        stack = np.zeros((b, height[b - 1], cols))
        stack[:, : len(r)] = r
        stack[:, len(r) : len(r) + len(rows)] = np.where(taken[..., None], rows, 0.0)
        factors = np.linalg.qr(stack, mode="r")
        tri = factors[:, :p, :p]
        s = np.linalg.svd(tri, compute_uv=False)
        full = s[:, -1] > cutoff[batch] * s[:, 0]
        if full.any():
            coef[k + np.flatnonzero(full)] = np.linalg.solve(
                tri[full], factors[full, :p, p:])[..., 0]
        fallbacks[batch] = ~full
        r = factors[-1]
        done = positions[k + b - 1]
        k += b
    coef[fallbacks, 0] = [x[:pos].mean() for pos in positions[fallbacks]]
    return coef, fallbacks


def _roll(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int,
          step) -> np.ndarray:
    """The rolling protocol's one step loop: the predictions of the blocks
    of ``lengths[b]`` samples at ``starts[b]``, concatenated. Work row b
    holds the ``width`` samples before block b, then its predictions; step
    s fills column ``width + s`` of the first ``live`` rows (only the last
    block can be short) with ``step(s, live, work[:live, : width + s])``."""
    work = np.empty((starts.size, width + lengths[0]))
    work[:, :width] = sliding_window_view(x[: starts[-1]], width)[starts - width]
    for s in range(lengths[0]):
        live = np.count_nonzero(lengths > s)
        work[:live, width + s] = step(s, live, work[:live, : width + s])
    return work[:, width:].ravel()[: lengths.sum()]


def _ar_blocks(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
               order: int, refit_every: int):
    """AR forecasts of the blocks of ``lengths[b]`` samples at ``starts[b]``,
    and the number of fits that fell back to the mean.

    The block at ``pos`` iterates the AR fit to ``x[:pos]`` of the last
    refit at or before it, refits falling on every ``refit_every``-th
    block. All fits come from one ``_fit_ar`` call; the s-th steps of all
    blocks are one ``_roll`` step.
    """
    coef, fallbacks = _fit_ar(x, starts[::refit_every], order)
    coef = coef[np.arange(starts.size) // refit_every]
    lagged = coef[:, :0:-1]  # the oldest sample's coefficient first

    def step(s, live, known):
        return coef[:live, 0] + np.einsum("ij,ij->i", lagged[:live],
                                          known[:, -order:])

    return _roll(x, starts, lengths, order, step), int(np.count_nonzero(fallbacks))


def forecast_ar(train, order: int = 8) -> float:
    """One-step prediction from a least-squares AR(order) fit with intercept."""
    x = as_values(train)
    return float(_ar_blocks(x, np.array([x.size]), np.array([1]), order, 1)[0][0])


def _lma_blocks(x: np.ndarray, starts: np.ndarray, lengths: np.ndarray, m: int,
                tau: int, theiler: int) -> np.ndarray:
    """Analogue forecasts of the blocks of ``lengths[b]`` samples at
    ``starts[b]``.

    The block at ``pos`` sees ``x[:pos]`` and its own earlier predictions,
    exactly as a full scan over the C-ordered delay vectors of that prefix
    would (see ``forecast_lma``): the nearest admissible vector (anchor
    more than ``theiler`` before the query's, image known) supplies its
    image, ties going to the earliest anchor. One KD-tree over the prefix's
    distinct delay vectors serves every block; the s-th steps of all blocks
    form one ``_roll`` step, which adds the at most h - 1 vectors that hold
    predictions (or whose image is one) by direct distance.
    """
    m, tau = as_count(m, "m"), as_count(tau, "tau")
    theiler = as_count(theiler, "theiler", low=0)
    span = (m - 1) * tau
    n = int(starts[0])
    if span >= n:
        raise ValidationError(
            f"train of length {n} cannot be reconstructed at (m={m}, tau={tau})"
        )
    # admissible anchors of the first query, span .. n - 2 - theiler, are
    # the fewest of any query
    if n - 2 - theiler < span:
        raise NoNeighborError(
            f"no admissible analogue at step 1 "
            f"(theiler={theiler}, {n - span} reconstruction points)"
        )
    # row i is anchored at sample span + i; every row's image is known
    # before the last block starts
    index = _ExactIndex(delay_matrix(x[: starts[-1] - 1], m, tau))
    lags = tau * np.arange(m)

    def step(s, live, known):
        # known[b] holds samples starts[b] - 1 - span onward, then the
        # block's predictions so far
        queries = known[:, span + s - lags]
        # index rows: anchors up to pos - 2 and outside the Theiler window;
        # never none, as the first query has the fewest. The query's own
        # temporal neighbours, excluded or future, tend to be nearest.
        last = starts[:live] - 2 - max(0, theiler - s) - span
        dist, rows = index.nearest(queries, lambda idx, part: idx > last[part, None],
                                   16 + 2 * theiler)
        pred = x[rows + span + 1]
        # anchors pos - 1 + j hold predictions or have one as their image
        extra = s - theiler
        if extra > 0:
            cols = span + np.arange(extra)[:, None] - lags
            d = _scan_distances(known[:, cols], queries)
            j = np.argmin(d, axis=1)
            closer = d[np.arange(live), j] < dist
            pred = np.where(closer, known[np.arange(live), span + 1 + j], pred)
        return pred

    return _roll(x, starts, lengths, span + 1, step)


def forecast_lma(train, m: int, tau: int, steps: int = 1,
                 theiler: int = 0) -> np.ndarray:
    """Nearest-neighbor analogue forecast in reconstruction space.

    The final delay vector's nearest neighbor (Euclidean; excluding
    itself, anything inside the Theiler window, and any point with no
    forward image) supplies the prediction: its forward image's leading
    coordinate. Multi-step forecasts append the predicted delay vector to
    the trajectory and repeat. Equidistant neighbors resolve to the
    smallest index so runs are deterministic.

    Neighbors come from a KD-tree over the distinct training delay
    vectors and are re-ranked by the distance of a full scan,
    ``np.sqrt(np.sum((P - q) ** 2, axis=1))`` over C-ordered rows P, such
    as ``np.ascontiguousarray(delay_reconstruct(train, m, tau).points)``:
    the result equals that scan's bit for bit. Over the raw strided
    ``points`` numpy sums rows of m >= 8 at tau >= 2 in another order, so
    a tie can go to another anchor.

    Raises
    ------
    NoNeighborError
        When every candidate is excluded.
    """
    x = as_values(train)
    steps = as_count(steps, "steps")
    return _lma_blocks(x, np.array([x.size]), np.array([steps]), m, tau, theiler)


def _predict(x: np.ndarray, n: int, h: int, method, name: str, m, tau,
             theiler: int, order: int, refit_every: int):
    """Predictions of ``x[n:]`` in blocks of h by ``method``, and the
    settings it used; its block arrays are freed before h-MASE runs."""
    starts = np.arange(n, x.size, h)
    lengths = np.minimum(h, x.size - starts)
    if callable(method):
        blocks = []
        for pos, length in zip(starts.tolist(), lengths.tolist()):
            block = np.asarray(method(x[:pos], length), dtype=np.float64)
            if block.shape != (length,):
                raise ValidationError(f"method {name!r} returned a wrong-length block")
            blocks.append(block)
        return np.concatenate(blocks), {}
    if method in ("random_walk", "naive"):
        # naive keeps train.mean()'s pairwise sum: prefix means from a
        # cumulative sum would round otherwise
        level = (x[starts - 1] if method == "random_walk"
                 else [x[:pos].mean() for pos in starts])
        return np.repeat(level, lengths), {}
    if method == "lma":
        if m is None or tau is None:
            raise ValidationError("lma requires m and tau")
        return (_lma_blocks(x, starts, lengths, m, tau, theiler),
                {"m": m, "tau": tau, "theiler": theiler})
    if method == "ar":
        refit_every = as_count(refit_every, "refit_every")
        pred, fallbacks = _ar_blocks(x, starts, lengths, order, refit_every)
        return pred, {"order": order, "refit_every": refit_every,
                      "fallbacks": fallbacks}
    raise ValidationError(f"unknown forecast method {method!r}")


def rolling_evaluate(series, fraction: float, method, h: int = 1, *,
                     m: int | None = None, tau: int | None = None,
                     theiler: int = 0, order: int = 8,
                     refit_every: int = 1) -> ForecastRun:
    """Roll a forecaster over the test segment in blocks of h steps.

    Each block is predicted from the current training prefix, then the h
    true values are appended and the model moves on; h=1 reproduces the
    one-step protocol for every method. The h-MASE scaling term always
    comes from the initial training split.

    ``method`` is one of "random_walk", "naive", "lma", "ar", or a
    callable ``f(train_values, steps) -> sequence`` (useful for injecting
    oracles in tests), called once per block. LMA builds one KD-tree over
    the series' distinct delay vectors for the whole run and answers each
    step with the nearest admissible vector, exactly as a full scan over
    the prefix's C-ordered delay vectors would (see ``forecast_lma``). The
    AR baseline refits its coefficients to the prefix every
    ``refit_every`` blocks. The refits are computed together, in batches:
    one QR call folds each refit's new design rows into the previous
    factor, one SVD call checks their ranks with ``lstsq``'s cutoff and one
    solve gives the full-rank coefficients. Fallbacks to the mean predictor
    are counted in the run's params.
    """
    h = as_count(h, "h")
    x = (series if isinstance(series, ScalarSeries) else ScalarSeries(series)).values
    n = _train_length(x.size, fraction)

    name = method if isinstance(method, str) else getattr(method, "__name__", "custom")
    pred, settings = _predict(x, n, h, method, name, m, tau, theiler, order,
                              refit_every)
    truth = x[n:]
    score = h_mase(pred, truth, x[:n], h)
    return ForecastRun(method=name, params={"h": h, "fraction": fraction, **settings},
                       predictions=pred, truth=truth, train_length=n, score=score)
