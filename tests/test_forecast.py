import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.spatial import cKDTree

import delaykit as dk
from delaykit import _neighbours, forecast
from delaykit.errors import NoNeighborError, ValidationError
from delaykit.forecast import _fit_ar
from delaykit.timeseries import delay_matrix


class TestSimplePredictors:
    # each block is predicted from the training prefix seen so far
    def test_random_walk(self):
        run = dk.rolling_evaluate(np.array([1.0, 2.0, 3.0, 7.0, 5.0]), 0.6,
                                  "random_walk")
        assert run.predictions.tolist() == [3.0, 7.0]
        run = dk.rolling_evaluate(np.array([1.0, 2.0, 3.0, 7.0, 5.0, 6.0]), 0.5,
                                  "random_walk", h=2)
        assert run.predictions.tolist() == [3.0, 3.0, 5.0]

    def test_random_walk_exact_on_constant(self):
        series = np.concatenate([[0.0, 1.0], np.full(48, 4.2)])
        run = dk.rolling_evaluate(series, 0.2, "random_walk")
        assert run.predictions.size == 40
        assert all(p == 4.2 for p in run.predictions)

    @pytest.mark.parametrize("h", [1, 2, 3, 7, 10])
    def test_random_walk_matches_per_block_callable(self, h):
        # 502 test values, so h = 3, 7 and 10 end on a short block
        x = np.cumsum(np.random.default_rng(3).standard_normal(1003))
        run = dk.rolling_evaluate(x, 0.5, "random_walk", h=h)
        per_block = dk.rolling_evaluate(
            x, 0.5, lambda train, steps: np.full(steps, train[-1]), h=h)
        assert run.predictions.tobytes() == per_block.predictions.tobytes()
        assert run.score.value == per_block.score.value
        assert run.params == per_block.params

    def test_naive(self):
        run = dk.rolling_evaluate(np.array([1.0, 2.0, 3.0, 6.0, 0.0]), 0.6, "naive")
        assert run.predictions.tolist() == [2.0, 3.0]
        run = dk.rolling_evaluate(np.array([5.0, 6.0, 7.0, 2.0, 9.0, 0.0]), 0.5,
                                  "naive", h=2)
        assert run.predictions.tolist() == [6.0, 6.0, 5.8]

    def test_naive_noise_concentrates(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10000)
        run = dk.rolling_evaluate(x, 0.99, "naive")
        assert run.predictions[-1] == x[:-1].mean()
        assert np.all(np.abs(run.predictions) < 3.0 / np.sqrt(9900))


class TestAR:
    def test_exact_ar1_recovery(self):
        x = 0.5 ** np.arange(200.0)
        pred = dk.forecast_ar(x, order=1)
        assert pred == pytest.approx(0.5 * x[-1], abs=1e-9)

    def test_constant_falls_back_to_mean(self):
        assert dk.forecast_ar(np.full(100, 3.0), order=2) == pytest.approx(3.0)

    def test_sine_two_term_recurrence(self):
        x = np.sin(0.3 * np.arange(500.0))
        pred = dk.forecast_ar(x, order=2)
        assert abs(pred - np.sin(0.3 * 500)) < 1e-6

    def test_order_bounds(self):
        with pytest.raises(ValidationError):
            dk.forecast_ar(np.arange(3.0), order=3)

    def test_order_no_fit_can_take_rejected(self):
        # 2 * order samples give order design rows, one short of the
        # order + 1 coefficients; every refit would fall back to the mean
        x = np.sin(0.3 * np.arange(500.0))
        with pytest.raises(ValidationError, match="design rows"):
            dk.forecast_ar(x[:16], order=8)
        assert np.isfinite(dk.forecast_ar(x[:17], order=8))
        with pytest.raises(ValidationError, match="the last fit has 499"):
            dk.rolling_evaluate(x, 0.9, "ar", order=250)
        with pytest.raises(ValidationError, match="design rows"):
            _fit_ar(x, np.array([300, 400]), 200)

    def test_non_finite_train_rejected(self):
        x = np.sin(0.3 * np.arange(200.0))
        for bad in (np.nan, np.inf):
            x[50] = bad
            with pytest.raises(ValidationError, match="finite"):
                dk.forecast_ar(x, order=4)

    def test_solver_checks_raw_arrays(self):
        x = np.sin(0.3 * np.arange(200.0))
        x[50] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            _fit_ar(x, np.array([200]), 4)
        # only the prefixes fitted are read
        assert not _fit_ar(x, np.array([40, 50]), 2)[1].any()
        with pytest.raises(ValidationError, match="order"):
            _fit_ar(x[:40], np.array([40]), 0)
        with pytest.raises(ValidationError, match="more than 40 samples"):
            _fit_ar(x[:40], np.array([40]), 40)


class TestLMA:
    def test_exact_recurrence_copies_successor(self):
        # the last vector of a periodic series exactly matches an earlier
        # one, so the prediction is that vector's historical successor
        cycle = np.array([1.0, 2.0, 3.0, 4.0])
        train = np.concatenate([np.tile(cycle, 5), [1.0, 2.0]])
        pred = dk.forecast_lma(train, m=2, tau=1, steps=1)
        assert pred[0] == 3.0

    def test_multi_step_continues_cycle(self):
        cycle = np.array([1.0, 2.0, 3.0, 4.0])
        train = np.concatenate([np.tile(cycle, 6), [1.0]])
        preds = dk.forecast_lma(train, m=2, tau=1, steps=5)
        assert preds.tolist() == [2.0, 3.0, 4.0, 1.0, 2.0]

    def test_single_vector_has_no_neighbor(self):
        with pytest.raises(NoNeighborError):
            dk.forecast_lma(np.array([1.0, 2.0]), m=2, tau=1)

    def test_theiler_window_excludes_recent(self):
        train = np.array([1.0, 2.0, 3.0])
        # one candidate remains at theiler=0; theiler=1 removes it too
        assert dk.forecast_lma(train, m=2, tau=1)[0] == 3.0
        with pytest.raises(NoNeighborError):
            dk.forecast_lma(train, m=2, tau=1, theiler=1)

    def test_non_finite_train_rejected(self):
        x = np.sin(0.3 * np.arange(200.0))
        x[50] = np.nan
        with pytest.raises(ValidationError):
            dk.forecast_lma(x, m=2, tau=1)

    def test_prediction_is_a_training_value(self, logistic_10k):
        values = logistic_10k.values[:2000]
        pred = dk.forecast_lma(values, m=2, tau=1)[0]
        assert pred in values

    def test_affine_invariance_of_neighbor_choice(self):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.standard_normal(400))
        base = dk.forecast_lma(x, m=3, tau=2, steps=4)
        scaled = dk.forecast_lma(2.5 * x + 7.0, m=3, tau=2, steps=4)
        assert np.allclose(scaled, 2.5 * base + 7.0, atol=1e-12)

    def test_logistic_one_step_error_tiny(self, logistic_10k):
        run = dk.rolling_evaluate(logistic_10k, 0.9, "lma", h=1, m=1, tau=1)
        assert run.score.value <= 1e-3


class TestRollingEvaluate:
    def test_oracle_method_scores_zero(self):
        rng = np.random.default_rng(2)
        series = rng.standard_normal(500)

        def oracle(train_values, steps):
            start = len(train_values)
            return series[start : start + steps]

        run = dk.rolling_evaluate(series, 0.8, oracle, h=3)
        assert run.score.value == 0.0
        assert np.array_equal(run.predictions, run.truth)

    def test_random_walk_predictions_shift_truth(self):
        rng = np.random.default_rng(3)
        series = rng.standard_normal(200)
        run = dk.rolling_evaluate(series, 0.9, "random_walk", h=1)
        assert run.predictions[0] == series[179]
        assert np.array_equal(run.predictions[1:], run.truth[:-1])

    def test_block_protocol_lengths(self):
        rng = np.random.default_rng(4)
        series = rng.standard_normal(107)
        run = dk.rolling_evaluate(series, 0.9, "naive", h=4)
        assert run.predictions.size == run.truth.size == 11
        assert run.score.h == 4

    def test_naive_blocks_are_constant(self):
        rng = np.random.default_rng(5)
        series = rng.standard_normal(100)
        run = dk.rolling_evaluate(series, 0.8, "naive", h=5)
        blocks = run.predictions.reshape(4, 5)
        for row in blocks:
            assert np.all(row == row[0])

    def test_ar_refit_cadence_recorded(self):
        rng = np.random.default_rng(6)
        x = np.zeros(300)
        for i in range(1, 300):
            x[i] = 0.7 * x[i - 1] + rng.standard_normal()
        run = dk.rolling_evaluate(x, 0.9, "ar", h=1, order=3, refit_every=10)
        assert run.params["refit_every"] == 10
        assert run.params["order"] == 3
        assert run.score.value > 0

    def test_lma_requires_parameters(self):
        with pytest.raises(ValidationError):
            dk.rolling_evaluate(np.arange(100.0), 0.9, "lma", h=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            dk.rolling_evaluate(np.arange(100.0), 0.9, "arima", h=1)

    @pytest.mark.parametrize("h", [0, -1])
    def test_horizon_below_one_rejected(self, h):
        # h=0 used to loop forever; h=-1 failed inside numpy
        with pytest.raises(ValidationError):
            dk.rolling_evaluate(np.arange(100.0), 0.9, "naive", h=h)

    def test_wrong_length_block_rejected(self):
        asked = []

        def one_too_many(train, steps):
            asked.append((train.size, steps))
            return np.zeros(steps + (train.size == 94))

        # the third block is wrong; no later block is requested
        with pytest.raises(ValidationError, match="wrong-length block"):
            dk.rolling_evaluate(np.arange(100.0), 0.9, one_too_many, h=2)
        assert asked == [(90, 2), (92, 2), (94, 2)]

    def test_lorenz96_optimal_beats_heuristic(self, lorenz96_20k):
        sub = dk.ScalarSeries(lorenz96_20k.values[:6000])
        good = dk.rolling_evaluate(sub, 0.9, "lma", h=1, m=2, tau=1)
        heuristic = dk.rolling_evaluate(sub, 0.9, "lma", h=1, m=8, tau=26)
        assert good.score < heuristic.score


def scan_forecast_lma(train, m, tau, steps=1, theiler=0):
    """Analogue forecast by a full scan of the delay vectors at every step:
    the oracle that ``forecast_lma`` and rolling LMA must match bit for
    bit."""
    x = np.asarray(train, dtype=np.float64)
    span = (m - 1) * tau
    work = np.concatenate([x, np.empty(steps)])
    n = x.size
    out = np.empty(steps)
    for s in range(steps):
        end = n + s  # number of known samples
        # rows in C order, as the library gathers them: numpy sums a row
        # of 8 or more squares pairwise there, but lays the difference of a
        # delay view out column-major at tau >= 2 and sums it left to right
        points = np.ascontiguousarray(delay_matrix(work[:end], m, tau))
        query_anchor = end - 1
        query = points[-1]
        dist = np.sqrt(np.sum((points - query) ** 2, axis=1))
        anchors = np.arange(span, end)
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


def ar_step(coef, recent):
    # recent[-1] is the newest sample
    order = coef.size - 1
    return float(coef[0] + np.dot(coef[1:], recent[::-1][:order]))


def lstsq_fit_ar(x, order):
    """AR(order) fit with intercept by ``np.linalg.lstsq`` on the full
    design: the oracle for the QR fit."""
    n = x.size
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


def rolling_oracle(series, fraction, method, h=1, *, m=None, tau=None,
                   theiler=0, order=8, refit_every=1):
    """The rolling protocol as a per-block if/elif chain over the built-in
    methods, with a full LMA scan and a from-scratch ``lstsq`` AR fit in
    every block."""
    full = dk.ScalarSeries(series)
    parts = dk.split(full, fraction)
    x = full.values
    n = len(parts.train)
    total = len(full)
    params = {"h": h, "fraction": fraction}
    if method == "lma":
        params.update({"m": m, "tau": tau, "theiler": theiler})
    if method == "ar":
        params.update({"order": order, "refit_every": refit_every, "fallbacks": 0})

    predictions = []
    pos = n
    block_index = 0
    ar_coef = None
    while pos < total:
        block = min(h, total - pos)
        train_values = x[:pos]
        if method == "random_walk":
            block_pred = np.full(block, train_values[-1])
        elif method == "naive":
            block_pred = np.full(block, train_values.mean())
        elif method == "lma":
            block_pred = scan_forecast_lma(train_values, m, tau, steps=block,
                                           theiler=theiler)
        elif method == "ar":
            if ar_coef is None or block_index % refit_every == 0:
                ar_coef, fellback = lstsq_fit_ar(train_values, order)
                if fellback:
                    params["fallbacks"] += 1
            recent = list(train_values[-order:])
            block_pred = np.empty(block)
            for i in range(block):
                nxt = ar_step(ar_coef, np.asarray(recent))
                block_pred[i] = nxt
                recent = (recent + [nxt])[-order:]
        else:
            raise AssertionError(method)
        predictions.append(block_pred)
        pos += block
        block_index += 1

    pred = np.concatenate(predictions)
    return pred, dk.h_mase(pred, x[n:], parts.train, h), params


def _noisy_oscillator(n=300, seed=8):
    rng = np.random.default_rng(seed)
    return np.sin(0.4 * np.arange(n)) + 0.3 * rng.standard_normal(n)


def _lattice(n=300, seed=9):
    # small integers: many delay vectors lie at exactly equal distances
    return np.random.default_rng(seed).integers(0, 3, n).astype(np.float64)


def _one_decimal(n=300, seed=8):
    # a sensor's rounding: many delay vectors have copies
    return np.round(_noisy_oscillator(n, seed), 1)


def _two_decimals(n=300, seed=8):
    return np.round(_noisy_oscillator(n, seed), 2)


def assert_ar_close(run, pred, score, pred_tol, mase_rtol):
    assert np.max(np.abs(run.predictions - pred)) <= pred_tol
    assert abs(run.score.value - score.value) <= mase_rtol * abs(score.value)


class TestRollingOracle:
    @pytest.mark.parametrize("refit_every", [1, 3])
    # 60 test samples: h = 7 leaves a last block of 4
    @pytest.mark.parametrize("h", [1, 3, 7])
    @pytest.mark.parametrize("method", ["random_walk", "naive", "lma", "ar"])
    def test_matches_per_block_dispatch(self, method, h, refit_every):
        x = _noisy_oscillator()
        kwargs = {"m": 2, "tau": 2, "theiler": 1, "order": 4,
                  "refit_every": refit_every}
        run = dk.rolling_evaluate(x, 0.8, method, h=h, **kwargs)
        pred, score, params = rolling_oracle(x, 0.8, method, h=h, **kwargs)
        assert run.params == params
        if method == "ar":
            # QR refits agree with lstsq to rounding, not bit for bit
            assert_ar_close(run, pred, score, 1e-12, 1e-12)
        else:
            assert run.predictions.tobytes() == pred.tobytes()
            assert run.score.value == score.value

    def test_ar_fallbacks_counted_like_oracle(self):
        # an alternating series makes every AR(4) design rank-deficient
        x = np.tile([1.0, -1.0], 60)
        run = dk.rolling_evaluate(x, 0.8, "ar", h=3, order=4, refit_every=2)
        pred, score, params = rolling_oracle(x, 0.8, "ar", h=3, order=4,
                                             refit_every=2)
        assert run.params["fallbacks"] == params["fallbacks"] > 0
        assert_ar_close(run, pred, score, 1e-12, 1e-12)

    def test_ar_on_ill_conditioned_lorenz96(self, lorenz96_20k):
        # the AR(8) design of a smooth flow has condition number about 5e8
        x = lorenz96_20k.values[:5000]
        run = dk.rolling_evaluate(x, 0.9, "ar", h=1, order=8)
        pred, score, params = rolling_oracle(x, 0.9, "ar", h=1, order=8)
        assert run.params == params
        assert_ar_close(run, pred, score, 1e-9, 1e-6)

    @pytest.mark.parametrize("amplitude,fallback", [
        (1e-15, True), (3e-14, True), (1e-12, False)])
    def test_rank_cutoff_is_lstsq_cutoff(self, amplitude, fallback):
        # An alternating series plus tiny noise: the AR(4) design's
        # singular-value ratio is about amplitude / 2, so 3e-14 lies
        # between eps * columns and lstsq's eps * rows cutoff.
        rng = np.random.default_rng(0)
        x = np.tile([1.0, -1.0], 500) + amplitude * rng.standard_normal(1000)
        assert lstsq_fit_ar(x, 4)[1] is fallback
        assert _fit_ar(x, np.array([x.size]), 4)[1].tolist() == [fallback]

    def test_forecast_ar_matches_lstsq(self, lorenz96_20k):
        x = lorenz96_20k.values[:5000]
        coef, fellback = lstsq_fit_ar(x, 8)
        assert not fellback
        assert dk.forecast_ar(x, order=8) == pytest.approx(
            ar_step(coef, x), abs=1e-9)


def fold_ar_run(x, n, h, order, refit_every):
    """The rolling AR baseline as one QR fold per refit, the sequential
    path the batched solver replaced: each refit folds the design rows
    added since the last one into the triangular factor of ``[design |
    target]``, checks its rank by SVD with ``lstsq``'s cutoff and solves by
    back substitution. Returns (predictions, fallbacks)."""
    p = order + 1
    r = None
    folded = order
    predictions = []
    fallbacks = 0
    for block, pos in enumerate(range(n, x.size, h)):
        if block % refit_every == 0:
            t = np.arange(folded, pos)
            rows = np.column_stack([np.ones(t.size)]
                                   + [x[t - lag] for lag in range(1, p)] + [x[t]])
            r = np.linalg.qr(rows if r is None else np.vstack([r, rows]), mode="r")
            folded = pos
            coef = np.zeros(p)
            coef[0] = x[:pos].mean()
            fellback = True
            if r.shape[0] >= p:
                tri = r[:p, :p]
                s = np.linalg.svd(tri, compute_uv=False)
                if s[-1] > np.finfo(np.float64).eps * max(pos - order, p) * s[0]:
                    coef = solve_triangular(tri, r[:p, p])
                    fellback = False
            fallbacks += fellback
        recent = list(x[pos - order : pos])
        for _ in range(min(h, x.size - pos)):
            nxt = ar_step(coef, np.asarray(recent))
            predictions.append(nxt)
            recent = (recent + [nxt])[-order:]
    return np.array(predictions), fallbacks


def _flipping_alternation(n=300, seed=0, amplitude=1e-13):
    # The AR design's singular-value ratio is about amplitude / 2, while
    # lstsq's cutoff grows with the row count: early refits keep full rank
    # and later ones fall back.
    rng = np.random.default_rng(seed)
    return np.resize([1.0, -1.0], n) + amplitude * rng.standard_normal(n)


@st.composite
def ar_cases(draw):
    kind = draw(st.sampled_from(["oscillator", "lattice", "alternation"]))
    n = draw(st.integers(60, 360))
    seed = draw(st.integers(0, 2**16))
    if kind == "oscillator":
        x = _noisy_oscillator(n, seed)
    elif kind == "lattice":
        x = _lattice(n, seed)
    else:
        x = _flipping_alternation(n, seed, 10.0 ** draw(st.floats(-14, -12)))
    return (x, draw(st.sampled_from([0.2, 0.5, 0.8, 0.95])),
            draw(st.integers(1, 6)), draw(st.integers(1, 5)),
            draw(st.integers(1, 4)))


class TestBatchedAR:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(ar_cases())
    def test_matches_lstsq_and_fold(self, case):
        x, fraction, order, h, refit_every = case
        run = dk.rolling_evaluate(x, fraction, "ar", h=h, order=order,
                                  refit_every=refit_every)
        pred, _, params = rolling_oracle(x, fraction, "ar", h=h, order=order,
                                         refit_every=refit_every)
        assert run.params == params
        assert np.max(np.abs(run.predictions - pred)) <= 1e-12
        fold_pred, fold_fallbacks = fold_ar_run(x, run.train_length, h, order,
                                                refit_every)
        assert fold_fallbacks == params["fallbacks"]
        assert np.max(np.abs(fold_pred - pred)) <= 1e-12

    def test_fallbacks_flip_mid_run(self):
        x = _flipping_alternation()
        run = dk.rolling_evaluate(x, 0.3, "ar", h=2, order=4)
        _, _, params = rolling_oracle(x, 0.3, "ar", h=2, order=4)
        assert 0 < run.params["fallbacks"] == params["fallbacks"] < 105

    @pytest.mark.parametrize("budget", [1, 400, 2000])
    @pytest.mark.parametrize("make", [_noisy_oscillator, _flipping_alternation])
    def test_batch_boundaries(self, monkeypatch, make, budget):
        x = make()
        kwargs = {"h": 3, "order": 4, "refit_every": 2}
        default = dk.rolling_evaluate(x, 0.3, "ar", **kwargs)
        qr_stacks = []
        qr = np.linalg.qr

        def spy(a, mode="reduced"):
            qr_stacks.append(a.shape[0] if a.ndim == 3 else 1)
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", spy)
        monkeypatch.setattr(forecast, "_BATCH_FLOATS", budget)
        run = dk.rolling_evaluate(x, 0.3, "ar", **kwargs)
        pred, _, params = rolling_oracle(x, 0.3, "ar", **kwargs)
        assert run.params == params == default.params
        assert np.max(np.abs(run.predictions - pred)) <= 1e-12
        assert np.max(np.abs(run.predictions - default.predictions)) <= 1e-12
        # 35 refits; a budget of 400 floats takes them two at a time after
        # the first, whose 86 rows go alone
        assert sum(qr_stacks) == 35
        if budget == 1:
            assert qr_stacks == [1] * 35
        elif budget == 400:
            assert qr_stacks == [1] + [2] * 17

    def test_high_order_completes(self):
        # Designs of fewer rows than columns fall back without a factor;
        # once they have enough rows each refit goes alone, as it exceeds
        # the batch budget.
        x = _noisy_oscillator(1000)
        kwargs = {"h": 5, "order": 300, "refit_every": 2}
        run = dk.rolling_evaluate(x, 0.5, "ar", **kwargs)
        pred, _, params = rolling_oracle(x, 0.5, "ar", **kwargs)
        assert run.params == params
        assert 0 < params["fallbacks"] < 50
        assert np.max(np.abs(run.predictions - pred)) <= 1e-9


@pytest.mark.parametrize("h", [1, 3, 7])
@pytest.mark.parametrize("theiler", [0, 1, 25])
@pytest.mark.parametrize("tau", [1, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 8])
@pytest.mark.parametrize("make", [_noisy_oscillator, _lattice, _one_decimal,
                                  _two_decimals])
def test_lma_matches_scan(make, m, tau, theiler, h):
    x = make()
    kwargs = {"m": m, "tau": tau, "theiler": theiler}
    run = dk.rolling_evaluate(x, 0.8, "lma", h=h, **kwargs)
    pred, score, params = rolling_oracle(x, 0.8, "lma", h=h, **kwargs)
    assert run.predictions.tobytes() == pred.tobytes()
    assert run.score.value == score.value
    assert run.params == params
    train = x[:200]
    assert (dk.forecast_lma(train, m, tau, steps=h, theiler=theiler).tobytes()
            == scan_forecast_lma(train, m, tau, steps=h, theiler=theiler).tobytes())


def test_prediction_vectors_lose_ties_to_earlier_anchors():
    # At the third step the vector anchored at the last known sample (its
    # image is the first prediction, 3) ties at distance 0 with the one
    # anchored a step earlier (image 0); the earlier anchor wins.
    train = np.array([5.0, 6.0, 1.0, 3.0, 0.0, 0.0])
    expected = scan_forecast_lma(train, 1, 1, steps=3, theiler=1)
    assert expected.tolist() == [3.0, 0.0, 0.0]
    assert dk.forecast_lma(train, 1, 1, steps=3, theiler=1).tolist() == [3.0, 0.0, 0.0]


class _CountingTree(cKDTree):
    asked = []

    def query(self, x, k=1, **kwargs):
        type(self).asked.append((k, self.n))
        return super().query(x, k=k, **kwargs)


def test_lma_grows_candidates_to_every_row(monkeypatch):
    # The first 80 samples lie far from the rest, and the Theiler window
    # leaves only them admissible for the first queries: every nearer row
    # is excluded, so the candidate count must grow to the whole index.
    rng = np.random.default_rng(10)
    x = rng.standard_normal(400)
    x[:80] += 1000.0
    monkeypatch.setattr(_CountingTree, "asked", [])
    monkeypatch.setattr(_neighbours, "cKDTree", _CountingTree)
    kwargs = {"m": 2, "tau": 1, "theiler": 120}
    for h in (1, 4):
        run = dk.rolling_evaluate(x, 0.5, "lma", h=h, **kwargs)
        pred, _, _ = rolling_oracle(x, 0.5, "lma", h=h, **kwargs)
        assert run.predictions.tobytes() == pred.tobytes()
    assert any(k == rows > 256 for k, rows in _CountingTree.asked)


@pytest.mark.parametrize("make", [_one_decimal, _lattice])
def test_lma_tree_holds_each_distinct_vector_once(monkeypatch, make):
    # copies lie at equal distances and the first is admissible whenever
    # any copy is, so the tree holds first copies only, and no query asks
    # past its first k to see every copy of a tie
    x = make(2000)
    monkeypatch.setattr(_CountingTree, "asked", [])
    monkeypatch.setattr(_neighbours, "cKDTree", _CountingTree)
    m, tau, h = 2, 1, 3
    train = x[:1600]
    assert (dk.forecast_lma(train, m, tau, steps=h).tobytes()
            == scan_forecast_lma(train, m, tau, steps=h).tobytes())
    run = dk.rolling_evaluate(x, 0.8, "lma", h=h, m=m, tau=tau)
    pred, _, _ = rolling_oracle(x, 0.8, "lma", h=h, m=m, tau=tau)
    assert run.predictions.tobytes() == pred.tobytes()
    # the rolling tree holds the vectors whose image is known before the
    # last block starts
    last_start = np.arange(train.size, x.size, h)[-1]
    distinct = [len(np.unique(delay_matrix(part[:-1], m, tau), axis=0))
                for part in (train, x[:last_start])]
    sizes = [rows for _, rows in _CountingTree.asked]
    assert sorted(set(sizes)) == sorted(set(distinct))
    assert max(k for k, _ in _CountingTree.asked) <= 16


def test_tied_predictions_do_not_depend_on_the_tree_build(monkeypatch):
    x = _lattice(1500)
    cases = [(1, 1, 0, 1), (2, 1, 0, 3), (3, 2, 5, 4), (2, 3, 25, 2)]

    def predictions():
        return [dk.rolling_evaluate(x, 0.8, "lma", h=h, m=m, tau=tau,
                                    theiler=theiler).predictions.tobytes()
                for m, tau, theiler, h in cases]

    default = predictions()
    monkeypatch.setattr(_neighbours, "cKDTree",
                        functools.partial(cKDTree, leafsize=1, balanced_tree=False))
    assert predictions() == default


@pytest.mark.parametrize("h", [1, 5])
@pytest.mark.parametrize("method,kwargs", [
    ("lma", {"m": 3, "tau": 2, "theiler": 0}),
    ("lma", {"m": 2, "tau": 1, "theiler": 3}),
    ("ar", {"order": 3}),
    ("random_walk", {}),
    ("naive", {}),
])
def test_predictions_never_read_the_future(method, kwargs, h):
    x = _noisy_oscillator(400)
    n = 320
    base = dk.rolling_evaluate(x, 0.8, method, h=h, **kwargs).predictions
    for pos in range(n, x.size, 17):
        changed = x.copy()
        changed[pos:] += np.random.default_rng(pos).normal(0.0, 50.0, x.size - pos)
        run = dk.rolling_evaluate(changed, 0.8, method, h=h, **kwargs)
        # blocks starting at or before pos saw only x[:pos]
        seen = min(n + ((pos - n) // h + 1) * h, x.size) - n
        assert run.predictions[:seen].tobytes() == base[:seen].tobytes()


@pytest.mark.parametrize("train_length,m,tau,theiler,steps", [
    (2, 2, 1, 0, 1),
    (3, 2, 1, 1, 1),
    (60, 3, 5, 49, 4),
    (60, 1, 1, 59, 2),
])
def test_no_neighbor_error_like_scan(train_length, m, tau, theiler, steps):
    train = _noisy_oscillator(train_length)
    with pytest.raises(NoNeighborError) as expected:
        scan_forecast_lma(train, m, tau, steps=steps, theiler=theiler)
    with pytest.raises(NoNeighborError) as got:
        dk.forecast_lma(train, m, tau, steps=steps, theiler=theiler)
    assert str(got.value) == str(expected.value)
    x = _noisy_oscillator(train_length + 5)
    fraction = train_length / x.size
    with pytest.raises(NoNeighborError) as rolled:
        dk.rolling_evaluate(x, fraction, "lma", h=steps, m=m, tau=tau,
                            theiler=theiler)
    assert str(rolled.value) == str(expected.value)
