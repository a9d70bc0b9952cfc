import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import delaykit as dk
from delaykit import embedding_params
from delaykit.timeseries import delay_matrix
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
    return np.mean(flags) if used else math.nan


def same_fraction(a, b):
    """Equal fractions, NaN (no usable pair) matching NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


def quantised_logistic():
    """A logistic trace as a sensor with two decimals would record it: x0 =
    0.3, r = 3.65, 6,000 iterates with the first 1,000 dropped."""
    x = [0.3]
    for _ in range(5999):
        x.append(3.65 * x[-1] * (1.0 - x[-1]))
    return np.round(np.array(x[1000:]), 2)


@st.composite
def tied_series(draw, samples):
    """(values, m, tau): ``samples(n)`` draws the n values from a lattice,
    so that neighbors tie."""
    m, tau = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = draw(st.integers(m * tau + 2, 90))
    return np.asarray(draw(samples(n)), dtype=np.float64), m, tau


def integers(n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n)


def rounded(n):
    return st.tuples(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                     st.integers(1, 2)).map(lambda drawn: np.round(*drawn))


def lexsort_first_copies(rows):
    """The grouping ``_first_copies`` replaced: every row sorted whole."""
    order = np.lexsort(rows.T)
    same = np.ones(len(rows) - 1, dtype=bool)
    for c in range(rows.shape[1]):
        col = rows[order, c]
        same &= col[1:] == col[:-1]
    starts = np.concatenate(([True], ~same))
    ends = np.concatenate((~same, [True]))
    first = np.zeros(len(rows), dtype=bool)
    first[order[starts]] = True
    alone = np.zeros(len(rows), dtype=bool)
    alone[order[starts & ends]] = True
    return np.flatnonzero(first), alone[first]


@st.composite
def delay_rows(draw):
    """The base rows of a false-neighbor test: a delay matrix of a lattice,
    rounded or continuous series."""
    m, tau = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n = draw(st.integers(m * tau + 1, 120))
    samples = draw(st.sampled_from([
        st.integers(-3, 3).map(float),
        st.floats(-1.0, 1.0).map(lambda v: round(v, 1)),
        st.floats(-1e6, 1e6)]))
    values = np.array(draw(st.lists(samples, min_size=n, max_size=n)))
    return delay_matrix(values, m + 1, tau)[:, :m]


class TestFnnFraction:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(delay_rows())
    def test_first_copies_match_the_whole_sort(self, rows):
        first, alone = embedding_params._first_copies(rows)
        expected_first, expected_alone = lexsort_first_copies(rows)
        assert np.array_equal(first, expected_first)
        assert np.array_equal(alone, expected_alone)
    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=500)
        for m, tau in [(1, 1), (2, 1), (2, 3), (3, 2)]:
            fast = dk.fnn_fraction(values, m, tau)
            slow = brute_force_fnn(values, m, tau)
            assert fast == pytest.approx(slow, abs=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(tied_series(integers))
    def test_ties_on_integer_lattices_go_to_the_smallest_index(self, case):
        values, m, tau = case
        assert same_fraction(dk.fnn_fraction(values, m, tau),
                             brute_force_fnn(values, m, tau))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(tied_series(rounded))
    def test_ties_on_rounded_series_go_to_the_smallest_index(self, case):
        values, m, tau = case
        assert same_fraction(dk.fnn_fraction(values, m, tau),
                             brute_force_fnn(values, m, tau))

    def test_quantised_logistic_matches_the_oracle(self):
        # at m = 1 every point has a copy, so no pair is usable
        values = quantised_logistic()
        fractions = [dk.fnn_fraction(values, m, 1) for m in range(1, 5)]
        oracle = [brute_force_fnn(values, m, 1) for m in range(1, 5)]
        assert all(map(same_fraction, fractions, oracle))
        assert math.isnan(fractions[0])
        assert fractions[1:] == [0.0, 0.0, 0.04]

    def test_no_usable_pair_is_nan(self):
        values = np.tile([0.0, 1.0, 2.0], 50)
        assert math.isnan(dk.fnn_fraction(values, 1, 1))
        assert math.isnan(brute_force_fnn(values, 1, 1))

    def test_tied_fractions_do_not_depend_on_the_tree_build(self, monkeypatch):
        draws = np.random.default_rng(0).integers(0, 20, 1500).astype(np.float64)
        cases = [(quantised_logistic(), m, 1) for m in range(1, 5)]
        cases += [(draws, m, 2) for m in range(1, 4)]
        default = [dk.fnn_fraction(*case) for case in cases]
        monkeypatch.setattr(embedding_params, "cKDTree",
                            functools.partial(cKDTree, leafsize=1, balanced_tree=False))
        rebuilt = [dk.fnn_fraction(*case) for case in cases]
        assert all(map(same_fraction, rebuilt, default))

    def test_memory_is_bounded_on_long_series(self):
        # the neighbors are found in blocks: one query of every point at
        # once peaked at 24.7 times the series, the blocks at 5.4
        values = np.random.default_rng(6).uniform(size=200_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dk.fnn_fraction(values, 1, 1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 7 * values.nbytes

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

    def test_rounded_henon_needs_a_usable_pair(self):
        # at 2 decimals every point of the m = 1 reconstruction has a copy;
        # the fraction there is NaN, so m = 1 is not accepted on no pairs
        x = dk.generate_map_trace(dk.MapSpec("henon", x0=(0.1, 0.1), n=11000,
                                             transient=1000)).values
        assert dk.estimate_m_fnn(x, 1).m == 2
        rounded = np.round(x, 2)
        assert math.isnan(dk.fnn_fraction(rounded, 1, 1))
        choice = dk.estimate_m_fnn(rounded, 1)
        assert choice.m == 2
        assert choice.score == dk.fnn_fraction(rounded, 2, 1) > 0.0

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
