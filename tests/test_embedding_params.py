import numpy as np
import pytest

import delaykit as dk
from delaykit.errors import (
    DegenerateSeriesError,
    NoEmbeddingFoundError,
    NoMinimumError,
    NoZeroCrossingError,
    ValidationError,
)


def ar1_series(coef, n, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros(n)
    for i in range(1, n):
        x[i] = coef * x[i - 1] + rng.standard_normal()
    return x


SINE_12 = np.sin(2 * np.pi * np.arange(12000) / 12.0)


class TestTauFirstMinMI:
    def test_sine_quarter_period(self):
        choice = dk.tau_first_min_mi(SINE_12, 10)
        assert choice.tau == 3
        assert choice.method == "first_min_mi"

    def test_lorenz96_full_scale(self, lorenz96_50k):
        assert dk.tau_first_min_mi(lorenz96_50k, 60).tau == 26

    def test_monotone_decay_has_no_minimum(self):
        series = ar1_series(0.95, 20000, seed=1)
        with pytest.raises(NoMinimumError):
            dk.tau_first_min_mi(series, 10)

    def test_reports_curve_value(self):
        choice = dk.tau_first_min_mi(SINE_12, 10)
        curve = dict(dk.td_mutual_information_curve(SINE_12, 10))
        assert choice.score == pytest.approx(curve[3])


class TestTauFirstZeroAutocorr:
    def test_sine_quarter_period(self):
        choice = dk.tau_first_zero_autocorr(SINE_12, 10)
        assert choice.tau == 3

    def test_constant_series_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            dk.tau_first_zero_autocorr(np.full(100, 5.0), 10)

    def test_ar1_has_no_zero(self):
        series = ar1_series(0.8, 100000, seed=2)
        with pytest.raises(NoZeroCrossingError):
            dk.tau_first_zero_autocorr(series, 10)

    def test_score_is_the_autocorrelation_at_the_chosen_lag(self):
        series = ar1_series(0.97, 20000, seed=3)
        choice = dk.tau_first_zero_autocorr(series, 400)
        assert choice.tau > 10
        assert choice.score == dk.autocorrelation(series, choice.tau)

    def test_tau_max_must_be_below_series_length(self):
        # the zero at lag 3 is found before any out-of-range lag is reached
        series = SINE_12[:40]
        assert dk.tau_first_zero_autocorr(series, 39).tau == 3
        for tau_max in (40, 5000):
            with pytest.raises(ValidationError, match="smaller than the series length"):
                dk.tau_first_zero_autocorr(series, tau_max)


def brute_force_fnn(values, m, tau, r_tol=10.0, a_tol=2.0):
    """O(N^2) reference implementation of the false-neighbor fraction."""
    n = len(values)
    count = n - m * tau
    vec = np.array([[values[i + m * tau - c * tau] for c in range(m + 1)]
                    for i in range(count)])
    base, added = vec[:, :m], vec[:, m]
    r_a = np.std(values)
    flags, used = [], 0
    for i in range(count):
        d = np.sqrt(np.sum((base - base[i]) ** 2, axis=1))
        d[i] = np.inf
        j = int(np.argmin(d))
        if d[j] == 0.0:
            continue
        used += 1
        stretch = abs(added[i] - added[j]) / d[j]
        d_m1 = np.hypot(d[j], abs(added[i] - added[j]))
        flags.append(stretch > r_tol or d_m1 / r_a > a_tol)
    return np.mean(flags) if used else 0.0


class TestFnnFraction:
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=500)
        for m, tau in [(1, 1), (2, 1), (2, 3), (3, 2)]:
            fast = dk.fnn_fraction(values, m, tau)
            slow = brute_force_fnn(values, m, tau)
            assert fast == pytest.approx(slow, abs=1e-12)

    @pytest.mark.parametrize("m, tau", [(3, 100), (3, 120), (5, 100)])
    def test_too_short_series_rejected(self, m, tau):
        # m*tau at or past the series length used to fail inside numpy
        with pytest.raises(ValidationError):
            dk.fnn_fraction(np.random.default_rng(4).uniform(size=300), m, tau)

    def test_line_has_no_false_neighbors(self):
        line = np.linspace(0.0, 10.0, 2000)
        for m in (1, 2, 3):
            assert dk.fnn_fraction(line, m, 2) == pytest.approx(0.0, abs=1e-12)

    def test_noise_flagged_high(self):
        rng = np.random.default_rng(4)
        noise = rng.uniform(size=5000)
        assert dk.fnn_fraction(noise, 1, 1) > 0.2

    def test_lorenz63_m3_below_threshold(self, lorenz63_20k):
        tau = dk.tau_first_min_mi(lorenz63_20k, 200).tau
        assert dk.fnn_fraction(lorenz63_20k, 3, tau) < 0.10

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=800)
        for m in (1, 2):
            a = dk.fnn_fraction(values, m, 2)
            b = dk.fnn_fraction(2.0 * values, m, 2)
            assert a == b


class TestEstimateMFnn:
    def test_lorenz63_gives_three(self, lorenz63_20k):
        tau = dk.tau_first_min_mi(lorenz63_20k, 200).tau
        choice = dk.estimate_m_fnn(lorenz63_20k, tau)
        assert choice.m == 3

    def test_line_gives_one(self):
        line = np.linspace(0.0, 5.0, 1000)
        assert dk.estimate_m_fnn(line, 3).m == 1

    def test_no_embedding_found_carries_curve(self):
        rng = np.random.default_rng(6)
        noise = rng.uniform(size=300)
        config = dk.FnnConfig(fraction_threshold=0.01, m_max=4)
        with pytest.raises(NoEmbeddingFoundError) as exc:
            dk.estimate_m_fnn(noise, 1, config)
        assert set(exc.value.fractions) == {1, 2, 3, 4}

    def test_result_nonincreasing_in_threshold(self, lorenz63_20k):
        tau = dk.tau_first_min_mi(lorenz63_20k, 200).tau
        dims = []
        for threshold in (0.05, 0.10, 0.20, 0.50):
            config = dk.FnnConfig(fraction_threshold=threshold, m_max=12)
            dims.append(dk.estimate_m_fnn(lorenz63_20k, tau, config).m)
        assert dims == sorted(dims, reverse=True)


class TestAtauOptimalParams:
    def test_henon(self, henon_10k):
        choice = dk.atau_optimal_params(henon_10k, range(1, 9), range(1, 11))
        assert (choice.m, choice.tau) == (2, 1)

    def test_logistic(self, logistic_10k):
        choice = dk.atau_optimal_params(logistic_10k, range(1, 5), range(1, 6))
        assert (choice.m, choice.tau) == (1, 1)

    def test_lorenz96(self, lorenz96_20k):
        sub = dk.ScalarSeries(lorenz96_20k.values[:8000])
        choice = dk.atau_optimal_params(sub, range(1, 5), range(1, 8))
        assert (choice.m, choice.tau) == (2, 1)

    def test_score_equals_grid_maximum(self, logistic_10k):
        grid = dk.atau_surface(logistic_10k, range(1, 4), range(1, 4))
        choice = dk.atau_optimal_params(logistic_10k, range(1, 4), range(1, 4))
        assert choice.score == np.nanmax(grid.values)
