"""Forecasting strategies and the rolling evaluation protocol.

Four predictors: random walk (repeat the last observation), naive (mean of
all prior observations), nearest-neighbor analogue forecasting on a delay
reconstruction, and a least-squares autoregressive baseline. All run under
the same rolling protocol: predict a block of h steps from the current
training prefix, ingest the h true values, repeat to the end of the test
segment, and score the collected predictions with h-MASE.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoNeighborError, ValidationError
from .metrics import MaseScore, h_mase
from .timeseries import ScalarSeries, as_values, delay_matrix, split

__all__ = [
    "ForecastRun",
    "forecast_random_walk",
    "forecast_naive",
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


def forecast_random_walk(train) -> float:
    """The last observed value."""
    x = as_values(train)
    if x.size < 1:
        raise ValidationError("train must be nonempty")
    return float(x[-1])


def forecast_naive(train) -> float:
    """The arithmetic mean of all prior observations."""
    x = as_values(train)
    if x.size < 1:
        raise ValidationError("train must be nonempty")
    return float(x.mean())


def _fit_ar(x: np.ndarray, order: int):
    """Least-squares AR(order) fit with intercept.

    Returns (coefficients, fallback) where coefficients[0] is the
    intercept and coefficients[i] multiplies the value i steps back.
    A rank-deficient design (a constant series, say) falls back to the
    mean predictor and is flagged.
    """
    n = x.size
    if order < 1:
        raise ValidationError("AR order must be >= 1")
    if n <= order:
        raise ValidationError(f"AR({order}) needs more than {order} samples")
    rows = n - order
    design = np.ones((rows, order + 1))
    for lag in range(1, order + 1):
        design[:, lag] = x[order - lag : n - lag]
    target = x[order:]
    coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < order + 1:
        fallback = np.zeros(order + 1)
        fallback[0] = x.mean()
        return fallback, True
    return coef, False


def _ar_step(coef: np.ndarray, recent: np.ndarray) -> float:
    # recent[-1] is the newest sample
    order = coef.size - 1
    return float(coef[0] + np.dot(coef[1:], recent[::-1][:order]))


def forecast_ar(train, order: int = 8) -> float:
    """One-step prediction from a least-squares AR(order) fit with intercept."""
    x = as_values(train)
    coef, _ = _fit_ar(x, order)
    return _ar_step(coef, x)


def forecast_lma(train, m: int, tau: int, steps: int = 1,
                 theiler: int = 0) -> np.ndarray:
    """Nearest-neighbor analogue forecast in reconstruction space.

    The final delay vector's nearest neighbor (Euclidean; excluding
    itself, anything inside the Theiler window, and any point with no
    forward image) supplies the prediction: its forward image's leading
    coordinate. Multi-step forecasts append the predicted delay vector to
    the trajectory and repeat. Equidistant neighbors resolve to the
    smallest index so runs are deterministic.

    Raises
    ------
    NoNeighborError
        When every candidate is excluded.
    """
    x = as_values(train)
    if m < 1 or tau < 1:
        raise ValidationError("require m >= 1 and tau >= 1")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if theiler < 0:
        raise ValidationError("theiler window must be >= 0")
    span = (m - 1) * tau
    if span >= x.size:
        raise ValidationError(
            f"train of length {x.size} cannot be reconstructed at (m={m}, tau={tau})"
        )
    work = np.concatenate([x, np.empty(steps)])
    n = x.size
    out = np.empty(steps)
    for s in range(steps):
        end = n + s  # number of known samples
        points = delay_matrix(work[:end], m, tau)
        query_anchor = end - 1
        query = points[-1]
        dist = np.sqrt(np.sum((points - query) ** 2, axis=1))
        anchors = np.arange(span, end)
        # the final anchor has no forward image; the Theiler window
        # additionally drops temporal neighbors of the query
        admissible = query_anchor - anchors > theiler
        if not np.any(admissible):
            raise NoNeighborError(
                f"no admissible analogue at step {s + 1} "
                f"(theiler={theiler}, {points.shape[0]} reconstruction points)"
            )
        dist[~admissible] = np.inf
        j = int(np.argmin(dist))
        pred = work[anchors[j] + 1]
        out[s] = pred
        work[end] = pred
    return out


def _ar_blocks(order: int, refit_every: int, params: dict):
    """Block forecaster for the AR baseline: refits every ``refit_every``
    blocks and counts mean-predictor fallbacks in ``params``."""
    coef = None
    blocks = 0

    def forecast(train: np.ndarray, steps: int) -> np.ndarray:
        nonlocal coef, blocks
        if blocks % refit_every == 0:
            coef, fellback = _fit_ar(train, order)
            if fellback:
                params["fallbacks"] += 1
        blocks += 1
        recent = list(train[-order:])
        out = np.empty(steps)
        for i in range(steps):
            nxt = _ar_step(coef, np.asarray(recent))
            out[i] = nxt
            recent = (recent + [nxt])[-order:]
        return out

    return forecast


def _block_forecaster(method, params: dict, m, tau, theiler: int, order: int,
                      refit_every: int):
    """Resolve ``method`` to ``f(train_values, steps) -> array`` and record
    the settings it uses in ``params``."""
    if callable(method):
        return method
    if method == "random_walk":
        return lambda train, steps: np.full(steps, forecast_random_walk(train))
    if method == "naive":
        return lambda train, steps: np.full(steps, forecast_naive(train))
    if method == "lma":
        if m is None or tau is None:
            raise ValidationError("lma requires m and tau")
        params.update({"m": m, "tau": tau, "theiler": theiler})
        return lambda train, steps: forecast_lma(train, m, tau, steps=steps,
                                                 theiler=theiler)
    if method == "ar":
        if refit_every < 1:
            raise ValidationError("refit_every must be >= 1")
        params.update({"order": order, "refit_every": refit_every, "fallbacks": 0})
        return _ar_blocks(order, refit_every, params)
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
    oracles in tests). The AR baseline refits its coefficients every
    ``refit_every`` blocks; fallbacks to the mean predictor are counted in
    the run's params.
    """
    if h < 1:
        raise ValidationError("horizon h must be >= 1")
    full = series if isinstance(series, ScalarSeries) else ScalarSeries(series)
    parts = split(full, fraction)
    x = full.values
    n = len(parts.train)
    total = len(full)

    name = method if isinstance(method, str) else getattr(method, "__name__", "custom")
    params: dict = {"h": h, "fraction": fraction}
    forecaster = _block_forecaster(method, params, m, tau, theiler, order,
                                   refit_every)
    predictions = []
    for pos in range(n, total, h):
        block = min(h, total - pos)
        block_pred = np.asarray(forecaster(x[:pos], block), dtype=np.float64)
        if block_pred.shape != (block,):
            raise ValidationError(f"method {name!r} returned a wrong-length block")
        predictions.append(block_pred)

    pred = np.concatenate(predictions)
    truth = x[n:]
    score = h_mase(pred, truth, parts.train, h)
    return ForecastRun(method=name, params=params, predictions=pred,
                       truth=truth, train_length=n, score=score)
