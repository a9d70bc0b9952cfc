import math
import pickle
import threading
import time
import tracemalloc
from functools import partial
from typing import NamedTuple

import numpy as np
import pytest
from conftest import make_map_trace
from scipy.spatial import cKDTree

import delaykit as dk
from delaykit import _neighbours, cli, estimators
from delaykit.errors import CapacityError, DegenerateSeriesError, ValidationError
from delaykit.estimators import (
    _autocorrelation_at,
    _bin_indices,
    _entropy_from_counts,
    _grid_cell,
    _ordinal_ranks,
    _ordinal_windows,
    _pattern_labels,
)
from delaykit.timeseries import as_values


def shannon_entropy_binned(series, bins: int = 64) -> float:
    """Shannon entropy of the binned value distribution, in bits, with the
    binning ``binned_mutual_information`` gives each variable."""
    idx = _bin_indices(as_values(series), bins)
    return _entropy_from_counts(np.bincount(idx, minlength=bins))


def horizon_info_ratio(series, m, tau, h_max, max_samples=None):
    """R(h) = A_tau(h) / H[X_{j+h}] for h = 1..h_max, values unclamped; a
    constant series has zero future entropy, so R(h) is undefined."""
    values = as_values(series)
    out = []
    for h in range(1, h_max + 1):
        a = dk.active_information_storage(values, m, tau, h=h, max_samples=max_samples)
        h_future = shannon_entropy_binned(values[(m - 1) * tau + h :])
        if h_future == 0.0:
            raise DegenerateSeriesError("future observations have zero entropy")
        out.append((h, a / h_future))
    return out


class TripleInfo(NamedTuple):
    interaction: float
    binding: float
    total_correlation: float


def triple_information(x, y, z, bins: int = 8) -> TripleInfo:
    """Interaction, binding and total-correlation measures of three series
    from their binned joint histogram, in bits.

    Interaction information is the signed center of the three-set
    information diagram (positive for three identical variables, negative
    for XOR-style synergy); binding and total correlation are nonnegative.
    """
    ix, iy, iz = (_bin_indices(as_values(v), bins) for v in (x, y, z))
    joint = np.bincount((ix * bins + iy) * bins + iz, minlength=bins**3)
    joint = joint.reshape(bins, bins, bins)

    def h(*summed):
        return _entropy_from_counts(joint.sum(axis=summed).ravel())

    singles = h(1, 2) + h(0, 2) + h(0, 1)
    pairs = h(2) + h(1) + h(0)
    h_xyz = h()
    return TripleInfo(interaction=singles - pairs + h_xyz,
                      binding=pairs - 2.0 * h_xyz,
                      total_correlation=singles - h_xyz)


class TestBinnedEntropy:
    def test_fair_coin_one_bit(self):
        series = np.tile([0.0, 1.0], 5000)
        assert shannon_entropy_binned(series, 2) == pytest.approx(1.0)

    def test_constant_series_zero(self):
        assert shannon_entropy_binned(np.full(100, 3.7)) == 0.0

    def test_uniform_four_bins_two_bits(self):
        series = np.tile([0.5, 1.5, 2.5, 3.5], 1000)
        assert shannon_entropy_binned(series, 4) == pytest.approx(2.0)

    def test_out_of_range_values_clamp(self):
        # the maximum scales to index ``bins``, one past the last bin
        idx = _bin_indices(np.array([0.0, 0.2, 1.0]), 4)
        assert idx.tolist() == [0, 0, 3]
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError):
                _bin_indices(np.array([0.0, bad]), 4)
        with pytest.raises(ValidationError):
            dk.binned_mutual_information(np.arange(5.0), np.arange(5.0), bins=1)

    def test_known_discrete_distribution_oracle(self):
        # binned entropy must match the analytic entropy of a discrete draw
        rng = np.random.default_rng(0)
        probs = np.array([0.5, 0.25, 0.125, 0.125])
        draws = rng.choice(4, size=1_000_000, p=probs).astype(float)
        analytic = -np.sum(probs * np.log2(probs))
        assert shannon_entropy_binned(draws, 4) == pytest.approx(analytic, abs=0.01)


class TestBinnedMI:
    def test_self_information_equals_entropy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=5000)
        assert dk.binned_mutual_information(x, x, bins=16) == pytest.approx(
            shannon_entropy_binned(x, 16), abs=1e-12)

    def test_independent_noise_near_zero(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=100000)
        y = rng.uniform(size=100000)
        assert dk.binned_mutual_information(x, y) < 0.02

    def test_bijection_preserves_information(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=5000)
        mi = dk.binned_mutual_information(x, -x)
        h = shannon_entropy_binned(x, 16)
        assert mi == pytest.approx(h, rel=1e-9)

    def test_exact_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=3000)
        y = 0.5 * x + rng.normal(size=3000)
        assert dk.binned_mutual_information(x, y) == dk.binned_mutual_information(y, x)

    def test_subadditivity_and_nonnegativity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=1000)
            y = rng.normal(size=1000) + rng.uniform(-1, 1) * x
            h_x = shannon_entropy_binned(x, 8)
            h_y = shannon_entropy_binned(y, 8)
            mi = dk.binned_mutual_information(x, y, bins=8)
            assert h_x >= 0 and h_y >= 0
            assert mi >= -1e-12  # H[X,Y] <= H[X] + H[Y]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            dk.binned_mutual_information(np.zeros(5), np.zeros(6))


class TestLaggedMICurve:
    def test_periodic_structure(self):
        # pure two-value alternation: every lag is a bijection, so the lagged
        # MI equals the one-bit entropy at even and odd lags alike
        series = np.tile([1.0, 5.0], 500)
        curve = dict(dk.td_mutual_information_curve(series, 4))
        assert curve[2] == pytest.approx(1.0, abs=0.01)
        assert curve[4] == pytest.approx(1.0, abs=0.01)
        # two interleaved AR(1) chains alternate low/high; only even lags
        # carry chain information beyond the parity bit
        rng = np.random.default_rng(6)
        a = np.zeros(2000)
        b = np.zeros(2000)
        for i in range(1, 2000):
            a[i] = 0.95 * a[i - 1] + rng.standard_normal()
            b[i] = 0.95 * b[i - 1] + rng.standard_normal()
        interleaved = np.empty(4000)
        interleaved[0::2] = a
        interleaved[1::2] = b + 8.0
        curve = dict(dk.td_mutual_information_curve(interleaved, 4))
        assert curve[2] > curve[1]
        assert curve[2] > curve[3]

    def test_iid_noise_flat(self):
        rng = np.random.default_rng(7)
        series = rng.uniform(size=10000)
        curve = dk.td_mutual_information_curve(series, 10)
        assert all(v < 0.05 for _, v in curve)

    def test_lorenz96_first_minimum_at_26(self, lorenz96_50k):
        choice = dk.tau_first_min_mi(lorenz96_50k, 60)
        assert choice.tau == 26

    def test_tau_max_bounds(self):
        with pytest.raises(ValidationError):
            dk.td_mutual_information_curve(np.arange(10.0), 10)


class TestKSG:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=10000)
        y = rng.normal(size=10000)
        assert abs(dk.ksg_mutual_information(x, y, 4)) < 0.05

    def test_gaussian_oracle(self):
        rng = np.random.default_rng(9)
        rho = 0.9
        x = rng.standard_normal(10000)
        y = rho * x + math.sqrt(1 - rho**2) * rng.standard_normal(10000)
        expected = -0.5 * math.log2(1 - rho**2)
        assert dk.ksg_mutual_information(x, y, 4) == pytest.approx(expected, abs=0.05)

    def test_perfect_dependence_is_large(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=1000)
        assert dk.ksg_mutual_information(x, x.copy(), 4) > 3.0

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=10000)
        y = 0.7 * x + rng.normal(size=10000)
        base = dk.ksg_mutual_information(x, y, 4)
        scaled = dk.ksg_mutual_information(3.5 * x - 2.0, 0.25 * y + 11.0, 4)
        assert abs(scaled - base) < 0.05

    def test_k_bounds(self):
        with pytest.raises(ValidationError):
            dk.ksg_mutual_information(np.zeros(5), np.zeros(5), 5)


class TestActiveInformationStorage:
    def test_m1_reduces_to_lagged_ksg(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=2000)
        a = dk.active_information_storage(x, 1, 1, h=3, k=4)
        direct = dk.ksg_mutual_information(x[:-3], x[3:], 4)
        assert a == direct

    def test_tau_unused_when_m1(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=1500)
        values = {tau: dk.active_information_storage(x, 1, tau, h=1)
                  for tau in (1, 4, 9)}
        assert len(set(values.values())) == 1

    def test_henon_optimum(self, henon_10k):
        grid = dk.atau_surface(henon_10k, range(1, 9), range(1, 11), h=1, k=4)
        m, tau, value = grid.argbest("max")
        assert (m, tau) == (2, 1)
        assert value > 5.0

    def test_logistic_optimum(self, logistic_10k):
        grid = dk.atau_surface(logistic_10k, range(1, 5), range(1, 6), h=1, k=4)
        m, tau, value = grid.argbest("max")
        assert (m, tau) == (1, 1)
        assert value > 7.0

    def test_insufficient_length(self):
        with pytest.raises(CapacityError):
            dk.active_information_storage(np.arange(10.0), 4, 3, h=2)

    def test_long_series_cell_never_holds_the_delay_matrix(self):
        # a sweep cell on 10^6 samples at m = 8 keeps 20,000 rows; copying
        # the N x m delay matrix first peaked at 74 MiB
        x = np.cumsum(np.random.default_rng(5).standard_normal(10**6))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dk.active_information_storage(x, 8, 1,
                                          max_samples=estimators.DEFAULT_MAX_SAMPLES)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes * 8 / 4

    def test_long_series_cell_takes_radii_without_neighbor_temporaries(self):
        # the same cell: 20,000 joint samples at m = 8 and k = 4. Gathering
        # each point's neighbors as N x k x m floats to take its box radii
        # peaked at 12.7 MiB; one column at a time, at 5.5 MiB
        x = np.cumsum(np.random.default_rng(5).standard_normal(10**6))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dk.active_information_storage(x, 8, 1, max_samples=20000)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestAtauSurface:
    def test_single_cell_matches_scalar_op(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=1200)
        grid = dk.atau_surface(x, [2], [3], h=1, k=4)
        scalar = dk.active_information_storage(x, 2, 3, h=1, k=4)
        assert grid.values[0, 0] == scalar

    def test_heuristic_cell_below_optimum(self, lorenz96_20k):
        grid = dk.atau_surface(lorenz96_20k, [2, 8], [1, 26], h=1, k=4)
        assert grid.value_at(2, 1) > grid.value_at(8, 26)

    def test_invalid_cells_flagged_not_fatal(self):
        x = np.arange(40.0)
        grid = dk.atau_surface(x, [2, 30], [5], h=1, k=4)
        assert not np.isnan(grid.value_at(2, 5))
        assert np.isnan(grid.value_at(30, 5))
        assert (30, 5) in grid.cell_errors

    def test_csv_rows_schema(self):
        grid = dk.SweepGrid((1, 2), (1,), np.array([[0.5], [np.nan]]))
        rows = list(grid.to_csv_rows())
        assert rows[0] == "m,tau,value"
        assert rows[1] == "1,1,0.5"
        assert rows[2] == "2,1,"

    def test_parallel_jobs_match_serial(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=1500)
        # m=1600 cells cannot be reconstructed and must fail identically
        serial = dk.atau_surface(x, [1, 2, 1600], [1, 2], h=1, k=4, jobs=1)
        parallel = dk.atau_surface(x, [1, 2, 1600], [1, 2], h=1, k=4, jobs=2)
        assert serial.values.tobytes() == parallel.values.tobytes()
        assert serial.cell_errors == parallel.cell_errors
        assert set(serial.cell_errors) == {(1600, 1), (1600, 2)}
        assert serial.metadata == parallel.metadata

    @pytest.mark.parametrize("kwargs", [{"max_samples": 0}, {"max_samples": -5},
                                        {"jobs": 0}, {"h": 0}, {"k": 0}, {"k": -1}])
    def test_bad_sampling_or_jobs_rejected_before_any_cell(self, kwargs, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(estimators, "active_information_storage", no_cell)
        with pytest.raises(ValidationError):
            dk.atau_surface(np.arange(200.0), [1, 2], [1], **kwargs)

    def test_argbest_names_the_first_failed_cell(self):
        grid = dk.atau_surface(np.arange(60.0), [1, 2], [1, 2], k=100)
        with pytest.raises(ValidationError, match=r"^every cell of the grid failed; "
                           r"first at m=1 tau=1: require 1 <= k < N$"):
            grid.argbest("max")
        bare = dk.SweepGrid((1,), (1, 2), np.full((1, 2), np.nan))
        with pytest.raises(ValidationError, match="^grid has no valid cells$"):
            bare.argbest("min")

    def test_argbest_rejects_an_unknown_mode(self):
        grid = dk.SweepGrid((1, 2), (1,), np.array([[0.5], [0.9]]))
        assert grid.argbest("max") == (2, 1, 0.9)
        for mode in ("maximum", "MAX", ""):
            with pytest.raises(ValidationError, match=r"^mode must be 'max' or 'min'"):
                grid.argbest(mode)

    def test_value_at_names_an_absent_m_or_tau(self):
        grid = dk.SweepGrid((1, 2), (3,), np.array([[0.5], [0.9]]))
        assert grid.value_at(2, 3) == 0.9
        with pytest.raises(ValidationError, match=r"^m=5 is not on the grid$"):
            grid.value_at(5, 3)
        with pytest.raises(ValidationError, match=r"^tau=1 is not on the grid$"):
            grid.value_at(1, 1)

    def test_argbest_tie_breaks_to_smallest(self):
        values = np.array([[1.0, 2.0], [2.0, 2.0]])
        grid = dk.SweepGrid((1, 2), (1, 2), values)
        assert grid.argbest("max")[:2] == (1, 2)
        values2 = np.array([[2.0, 2.0], [1.0, 2.0]])
        grid2 = dk.SweepGrid((3, 4), (5, 6), values2)
        assert grid2.argbest("max")[:2] == (3, 5)


def serial_run_grid(cell_fn, series, m_range, tau_range, metadata):
    """The grid runner's former ``jobs=1`` path: every cell in order, in
    the calling thread."""
    values = as_values(series)
    m_values = tuple(int(m) for m in m_range)
    tau_values = tuple(int(t) for t in tau_range)
    cells = [(m, tau) for m in m_values for tau in tau_values]
    results = [_grid_cell(cell_fn, values, m, tau) for m, tau in cells]
    grid = np.array([value for value, _ in results], dtype=np.float64)
    errors = {cell: err for cell, (_, err) in zip(cells, results) if err is not None}
    return dk.SweepGrid(m_values, tau_values,
                        grid.reshape(len(m_values), len(tau_values)),
                        metadata=metadata, cell_errors=errors)


def assert_same_grid(grid, oracle):
    assert (grid.m_values, grid.tau_values) == (oracle.m_values, oracle.tau_values)
    assert grid.values.tobytes() == oracle.values.tobytes()
    assert grid.cell_errors == oracle.cell_errors
    assert grid.metadata == oracle.metadata


def reverse_finishing_cell(values, m, tau):
    """Cells of the 2x3 grid m 2:3, tau 1:3 sleep less the later they
    come, so a pool wide enough finishes them in reverse order."""
    time.sleep(0.08 * (6 - (3 * (m - 2) + tau - 1)))
    return 10.0 * m + tau


def failing_first_cell(values, m, tau, error):
    if (m, tau) == (1, 1):
        raise error("cell failed")
    time.sleep(0.2)
    return 0.0


class WorkersRecordingTree(cKDTree):
    """A ``cKDTree`` that appends each query's ``workers=`` to the list
    ``log``, from whichever thread queries."""

    log = None

    def _record(self, kind, kwargs):
        self.log.append(f"{kind}:{kwargs.get('workers', 1)}")

    def query(self, *args, **kwargs):
        self._record("knn", kwargs)
        return super().query(*args, **kwargs)

    def query_ball_point(self, *args, **kwargs):
        self._record("ball", kwargs)
        return super().query_ball_point(*args, **kwargs)


@pytest.fixture
def workers_log(monkeypatch):
    """Records the ``workers=`` of every KSG tree query; returns a reader
    of the recorded ``kind:workers`` entries."""
    log = []
    monkeypatch.setattr(WorkersRecordingTree, "log", log)
    monkeypatch.setattr(estimators, "cKDTree", WorkersRecordingTree)

    def read():
        entries = log.copy()
        log.clear()
        return entries

    return read


def query_workers(entries):
    """The ``workers=`` values of recorded kNN and ball-count queries; none
    may be missing."""
    assert any(e.startswith("knn:") for e in entries)
    return {int(e.split(":")[1]) for e in entries}


class TestRunGridPools:
    """``run_grid`` runs ``jobs=1`` on one thread per usable core and
    ``jobs=N > 1`` on N threads; both must equal the serial loop."""

    ATAU_M, ATAU_TAU = [1, 2, 1600], [1, 2]

    @pytest.fixture(scope="class")
    def atau_oracle(self):
        x = np.random.default_rng(25).normal(size=1500)
        cell = partial(estimators.active_information_storage, h=1, k=4,
                       max_samples=estimators.DEFAULT_MAX_SAMPLES)
        meta = {"h": 1, "k": 4, "max_samples": estimators.DEFAULT_MAX_SAMPLES,
                "quantity": "atau"}
        oracle = serial_run_grid(cell, x, self.ATAU_M, self.ATAU_TAU, meta)
        # m=1600 cannot be reconstructed, so failing cells are compared too
        assert set(oracle.cell_errors) == {(1600, 1), (1600, 2)}
        return x, oracle

    @pytest.fixture(scope="class")
    def mase_oracle(self):
        x = make_map_trace("henon", seed=3, n=1500, transient=500)
        cell = partial(cli._mase_cell, h=2, fraction=0.9, theiler=0)
        meta = {"quantity": "h_mase", "h": 2}
        oracle = serial_run_grid(cell, x, [1, 2, 1400], [1, 3], meta)
        assert set(oracle.cell_errors) == {(1400, 1), (1400, 3)}
        return x, cell, meta, oracle

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_atau_threads_match_serial(self, monkeypatch, atau_oracle, cores):
        monkeypatch.setattr(estimators, "_usable_cores", lambda: cores)
        x, oracle = atau_oracle
        assert_same_grid(dk.atau_surface(x, self.ATAU_M, self.ATAU_TAU, jobs=1), oracle)

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_atau_jobs_threads_match_serial(self, monkeypatch, atau_oracle, jobs):
        # N threads whatever the core count
        monkeypatch.setattr(estimators, "_usable_cores", lambda: 1)
        x, oracle = atau_oracle
        assert_same_grid(dk.atau_surface(x, self.ATAU_M, self.ATAU_TAU, jobs=jobs),
                         oracle)

    @pytest.mark.parametrize("cores, jobs", [(1, 1), (2, 1), (3, 1), (2, 2), (1, 3)])
    def test_mase_grid_matches_serial(self, monkeypatch, mase_oracle, cores, jobs):
        monkeypatch.setattr(estimators, "_usable_cores", lambda: cores)
        x, cell, meta, oracle = mase_oracle
        grid = estimators.run_grid(cell, x, [1, 2, 1400], [1, 3], jobs, dict(meta))
        assert_same_grid(grid, oracle)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """The ``max_workers`` of every grid pool, in order."""
        sizes = []

        class RecordingPool(estimators.ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(estimators, "ThreadPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("cores, cells, threads", [(1, 6, 1), (2, 6, 2),
                                                       (3, 6, 3), (8, 2, 2)])
    def test_one_thread_per_usable_core(self, monkeypatch, pool_sizes, cores,
                                        cells, threads):
        monkeypatch.setattr(estimators, "_usable_cores", lambda: cores)
        grid = estimators.run_grid(lambda values, m, tau: float(m), np.arange(5.0),
                                   range(1, cells + 1), [1], 1, {})
        assert pool_sizes == [threads]
        assert grid.values.ravel().tolist() == list(range(1, cells + 1))

    @pytest.mark.parametrize("cores, jobs, threads", [(8, 1, 2), (2, 4, 2), (1, 1, 1)])
    def test_no_more_threads_than_distinct_cells(self, monkeypatch, pool_sizes, cores,
                                                 jobs, threads):
        # (1, 0) is one evaluation, m = 1 at tau 1-4 another
        monkeypatch.setattr(estimators, "_usable_cores", lambda: cores)
        grid = estimators.run_grid(lambda values, m, tau: float(tau > 0), np.arange(5.0),
                                   [1], range(5), jobs, {})
        assert pool_sizes == [threads]
        assert grid.values.ravel().tolist() == [0.0, 1.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("cores, jobs, cells, threads", [(1, 2, 6, 2), (2, 3, 6, 3),
                                                             (8, 4, 2, 2), (2, 5, 1, 1)])
    def test_jobs_threads_whatever_the_cores(self, monkeypatch, pool_sizes, cores,
                                             jobs, cells, threads):
        monkeypatch.setattr(estimators, "_usable_cores", lambda: cores)
        grid = estimators.run_grid(lambda values, m, tau: float(m), np.arange(5.0),
                                   range(1, cells + 1), [1], jobs, {})
        assert pool_sizes == [threads]
        assert grid.values.ravel().tolist() == list(range(1, cells + 1))

    def test_closure_cell_runs_at_jobs_2(self):
        x = np.random.default_rng(7).normal(size=50)
        scale = 3.0

        def cell(values, m, tau):
            if m == 3:
                raise ValidationError(f"no cell at tau={tau}")
            return scale * float(values[m * tau])

        # a local function does not pickle, so no process pool could run it
        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(cell)
        meta = {"quantity": "closure"}
        grid = estimators.run_grid(cell, x, [2, 3, 4], [1, 2], 2, dict(meta))
        oracle = serial_run_grid(cell, x, [2, 3, 4], [1, 2], meta)
        assert set(oracle.cell_errors) == {(3, 1), (3, 2)}
        assert_same_grid(grid, oracle)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_results_placed_by_position(self, monkeypatch, jobs):
        monkeypatch.setattr(estimators, "_usable_cores", lambda: 6)
        finished = []

        def recording_cell(values, m, tau):
            value = reverse_finishing_cell(values, m, tau)
            finished.append((m, tau))
            return value

        grid = estimators.run_grid(recording_cell, np.arange(5.0), [2, 3], [1, 2, 3],
                                   jobs, {})
        assert grid.values.tolist() == [[21.0, 22.0, 23.0], [31.0, 32.0, 33.0]]
        # six threads finish every cell in reverse; three threads finish the
        # first row in reverse, then the second row all at once
        first = {1: [(3, 3), (3, 2), (3, 1), (2, 3), (2, 2), (2, 1)],
                 3: [(2, 3), (2, 2), (2, 1)]}[jobs]
        assert finished[:len(first)] == first

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_escaping_error_stops_the_grid(self, monkeypatch, jobs, error):
        monkeypatch.setattr(estimators, "_usable_cores", lambda: 2)
        cell = partial(failing_first_cell, error=error)
        start = time.perf_counter()
        with pytest.raises(error, match="cell failed"):
            estimators.run_grid(cell, np.arange(5.0), range(1, 7), range(1, 6), jobs, {})
        # the 29 sleeping cells would take 2.9 s on two workers
        assert time.perf_counter() - start < 1.5

    def test_interrupt_while_submitting_drops_pending_cells(self, monkeypatch):
        class InterruptedPool(estimators.ThreadPoolExecutor):
            """Queues every cell, then takes an interrupt before any result
            is read."""

            def map(self, fn, *iterables, **kwargs):
                for args in zip(*iterables):
                    self.submit(fn, *args)
                raise KeyboardInterrupt

        started = []

        def cell(values, m, tau):
            started.append((m, tau))
            time.sleep(0.2)
            return 0.0

        monkeypatch.setattr(estimators, "_usable_cores", lambda: 2)
        monkeypatch.setattr(estimators, "ThreadPoolExecutor", InterruptedPool)
        with pytest.raises(KeyboardInterrupt):
            estimators.run_grid(cell, np.arange(5.0), range(1, 7), range(1, 6), 1, {})
        # the cells already running finish; the other queued ones never start
        assert len(started) <= 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grid_cells_query_on_one_thread(self, monkeypatch, workers_log, jobs):
        monkeypatch.setattr(estimators, "_usable_cores", lambda: 2)
        x = np.random.default_rng(3).normal(size=600)
        dk.atau_surface(x, [2, 3], [1, 2], jobs=jobs)
        entries = workers_log()
        # each cell's joint kNN and its x-count's grouped kNN queries, plus
        # a ball count for any query those leave unsettled
        assert entries.count("knn:1") >= 8
        assert set(entries) <= {"knn:1", "ball:1"}

    def test_standalone_calls_query_on_every_core(self, monkeypatch, workers_log):
        monkeypatch.setattr(estimators, "_usable_cores", lambda: 2)
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(500, 3)), rng.normal(size=500)
        threads = threading.active_count()
        dk.ksg_mutual_information(x, y)
        assert query_workers(workers_log()) == {-1}
        # a grid run in between leaves the calling thread unmarked
        dk.atau_surface(y, [2, 3], [1, 2], jobs=1)
        assert query_workers(workers_log()) == {1}
        dk.active_information_storage(y, 3, 2)
        assert query_workers(workers_log()) == {-1}
        # and its pool's threads are gone
        assert threading.active_count() == threads

    def test_single_cell_grid_queries_on_every_core(self, monkeypatch, workers_log):
        # a one-worker pool shares the cores with no other cell
        monkeypatch.setattr(estimators, "_usable_cores", lambda: 2)
        x = np.random.default_rng(5).normal(size=500)
        dk.atau_surface(x, [3], [2], jobs=2)
        assert query_workers(workers_log()) == {-1}


def counting(monkeypatch, module, name):
    """Replaces ``module.name`` with a wrapper that records each call's
    (m, tau); returns the record."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((kwargs["m"], kwargs["tau"]) if "m" in kwargs else args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def grid_of(monkeypatch, module, name):
    """Replaces the runner ``module.name`` with one that keeps each grid
    it returns; returns the kept grids."""
    grids = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        grids.append(original(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(module, name, wrapper)
    return grids


def assert_same_errors_in_order(grid, oracle):
    # argbest names the first failed cell, so the order counts too
    assert list(grid.cell_errors.items()) == list(oracle.cell_errors.items())


class TestSharedCells:
    """Grids evaluate a cell at m = 1 once for every tau >= 1; the grid
    equals the serial loop's, which evaluates each cell on its own, bit
    for bit."""

    M, TAU = [1, 2], list(range(1, 6))
    ATAU_META = {"h": 1, "k": 4, "max_samples": estimators.DEFAULT_MAX_SAMPLES,
                 "quantity": "atau"}

    @staticmethod
    def atau_cell(h=1):
        return partial(estimators.active_information_storage, h=h, k=4,
                       max_samples=estimators.DEFAULT_MAX_SAMPLES)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_atau_evaluates_m1_once(self, monkeypatch, jobs):
        x = make_map_trace("henon", seed=2, n=1200, transient=200)
        oracle = serial_run_grid(self.atau_cell(), x, self.M, self.TAU, self.ATAU_META)
        calls = counting(monkeypatch, estimators, "active_information_storage")
        grid = dk.atau_surface(x, self.M, self.TAU, jobs=jobs)
        assert sorted(calls) == [(1, 1)] + [(2, tau) for tau in self.TAU]
        assert_same_grid(grid, oracle)
        assert len(set(grid.values[0].tolist())) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mase_sweep_evaluates_m1_once(self, monkeypatch, tmp_path, jobs):
        path = tmp_path / "henon.txt"
        dk.save_series(make_map_trace("henon", seed=3, n=1500, transient=500), path)
        x = dk.load_series(path)
        cell = partial(cli._mase_cell, h=1, fraction=0.9, theiler=0)
        meta = {"quantity": "h_mase", "h": 1}
        oracle = serial_run_grid(cell, x, self.M, self.TAU, meta)
        calls = counting(monkeypatch, cli, "rolling_evaluate")
        grids = grid_of(monkeypatch, cli, "run_grid")
        assert cli.main(["sweep", "--mode", "mase", "--m", "1:2", "--tau", "1:5",
                         "--jobs", str(jobs), "-i", str(path),
                         "-o", str(tmp_path / "grid.csv")]) == 0
        assert sorted(calls) == [(1, 1)] + [(2, tau) for tau in self.TAU]
        assert_same_grid(grids[0], oracle)

    def test_tau_zero_cell_fails_alone(self, monkeypatch):
        x = np.random.default_rng(8).normal(size=800)
        oracle = serial_run_grid(self.atau_cell(), x, [1, 2], [0, 1, 2], self.ATAU_META)
        assert set(oracle.cell_errors) == {(1, 0), (2, 0)}
        calls = counting(monkeypatch, estimators, "active_information_storage")
        grid = dk.atau_surface(x, [1, 2], [0, 1, 2], jobs=2)
        assert sorted(calls) == [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        assert_same_grid(grid, oracle)
        assert_same_errors_in_order(grid, oracle)

    def test_mase_tau_zero_cell_fails_alone(self):
        x = make_map_trace("henon", seed=3, n=600, transient=500)
        cell = partial(cli._mase_cell, h=1, fraction=0.9, theiler=0)
        grid = estimators.run_grid(cell, x, [1], [0, 1, 2], 2, {})
        oracle = serial_run_grid(cell, x, [1], [0, 1, 2], {})
        assert set(oracle.cell_errors) == {(1, 0)}
        assert_same_grid(grid, oracle)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_atau_too_short_for_m1_fails_each_cell(self, monkeypatch, jobs):
        x = np.array([0.0, 1.0, 3.0])
        oracle = serial_run_grid(self.atau_cell(h=2), x, self.M, self.TAU,
                                 dict(self.ATAU_META, h=2))
        assert len(oracle.cell_errors) == 10
        calls = counting(monkeypatch, estimators, "active_information_storage")
        grid = dk.atau_surface(x, self.M, self.TAU, h=2, jobs=jobs)
        # the failing m = 1 evaluation is made once, as a passing one is
        assert sorted(calls) == [(1, 1)] + [(2, tau) for tau in self.TAU]
        assert_same_grid(grid, oracle)
        assert_same_errors_in_order(grid, oracle)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mase_too_short_for_m1_fails_each_cell(self, jobs):
        # two training samples: no admissible analogue at m = 1 inside a
        # Theiler window of 5; at m = 2 the message names tau
        x = np.array([0.0, 1.0, 0.5])
        cell = partial(cli._mase_cell, h=1, fraction=0.7, theiler=5)
        grid = estimators.run_grid(cell, x, self.M, self.TAU, jobs, {})
        oracle = serial_run_grid(cell, x, self.M, self.TAU, {})
        assert len(oracle.cell_errors) == 10
        assert "tau=3" in oracle.cell_errors[(2, 3)]
        assert_same_grid(grid, oracle)
        assert_same_errors_in_order(grid, oracle)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_m1_cells_take_the_first_tau_outcome(self, jobs):
        # a cell_fn that depends on tau at m = 1 breaks the runner's rule:
        # it is still evaluated once there, at the first tau, and every
        # m = 1 cell carries that value or that error
        evaluated = []

        def cell(values, m, tau):
            evaluated.append((m, tau))
            if m == 1 and values[-1] < 0:
                raise ValidationError(f"cannot be reconstructed at (m={m}, tau={tau})")
            return float(m * tau)

        grid = estimators.run_grid(cell, np.arange(5.0), self.M, self.TAU, jobs, {})
        assert sorted(evaluated) == [(1, 1)] + [(2, tau) for tau in self.TAU]
        assert grid.values.tolist() == [[1.0] * 5, [2.0, 4.0, 6.0, 8.0, 10.0]]
        evaluated.clear()
        grid = estimators.run_grid(cell, -np.arange(5.0), self.M, self.TAU, jobs, {})
        assert sorted(evaluated) == [(1, 1)] + [(2, tau) for tau in self.TAU]
        assert list(grid.cell_errors.items()) == [
            ((1, tau), "cannot be reconstructed at (m=1, tau=1)") for tau in self.TAU]


class TestNeighbourSearchThreads:
    """Analogue forecasts and false neighbours follow the KSG rule: their
    tree queries run on one thread inside a grid pool of more than one
    worker and on every core otherwise."""

    @pytest.fixture
    def entries(self, monkeypatch):
        log = []
        monkeypatch.setattr(WorkersRecordingTree, "log", log)
        monkeypatch.setattr(_neighbours, "cKDTree", WorkersRecordingTree)
        return log

    def test_standalone_lma_queries_on_every_core(self, entries):
        x = np.random.default_rng(6).normal(size=400)
        dk.rolling_evaluate(x, 0.8, "lma", m=2, tau=1)
        assert entries and set(entries) == {"knn:-1"}

    def test_lma_in_a_mase_sweep_queries_on_one_thread(self, entries, tmp_path, capsys):
        series = tmp_path / "x.txt"
        np.savetxt(series, np.random.default_rng(7).normal(size=300))
        assert cli.main(["sweep", "--mode", "mase", "-i", str(series), "--m", "1:2",
                         "--tau", "1:2", "--jobs", "2",
                         "-o", str(tmp_path / "grid.csv")]) == 0
        assert entries and set(entries) == {"knn:1"}

    def test_false_neighbours_query_on_every_core(self, entries):
        x = np.random.default_rng(8).normal(size=400)
        dk.fnn_fraction(x, 2, 1)
        assert entries and set(entries) == {"knn:-1"}


class TestHorizonInfoRatio:
    def test_constant_series_undefined(self):
        with pytest.raises(DegenerateSeriesError):
            horizon_info_ratio(np.full(500, 2.0), 2, 1, 3)

    def test_iid_noise_near_zero(self):
        rng = np.random.default_rng(15)
        x = rng.uniform(size=4000)
        curve = horizon_info_ratio(x, 2, 1, 5)
        assert all(abs(r) < 0.05 for _, r in curve)

    def test_lorenz96_nonincreasing_trend(self, lorenz96_20k):
        sub = dk.ScalarSeries(lorenz96_20k.values[:10000])
        curve = horizon_info_ratio(sub, 2, 1, 30, max_samples=5000)
        ratios = [r for _, r in curve]
        slope = np.polyfit([h for h, _ in curve], ratios, 1)[0]
        assert slope < 0
        assert ratios[0] > ratios[-1]


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(16)
        assert dk.autocorrelation(rng.normal(size=100), 0) == 1.0

    def test_alternating_is_minus_one(self):
        series = np.tile([1.0, -1.0], 500)
        assert dk.autocorrelation(series, 1) == pytest.approx(-1.0)

    def test_ar1_analytic(self):
        rng = np.random.default_rng(17)
        n = 100000
        x = np.zeros(n)
        for i in range(1, n):
            x[i] = 0.8 * x[i - 1] + rng.standard_normal()
        assert dk.autocorrelation(x, 3) == pytest.approx(0.512, abs=0.02)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateSeriesError):
            dk.autocorrelation(np.full(10, 1.0), 1)
        with pytest.raises(DegenerateSeriesError):
            _autocorrelation_at(np.full(10, 1.0))

    def test_shared_lag_function_is_exact_at_every_lag(self):
        rng = np.random.default_rng(18)
        values = np.cumsum(rng.standard_normal(700)) + 3.0
        at = _autocorrelation_at(values)
        n = values.size
        for tau in range(n):
            # the per-lag expression, recomputing mean and variance each time
            mu = values.mean()
            var = np.mean((values - mu) ** 2)
            dev = values - mu
            direct = 1.0 if tau == 0 else float(
                np.sum(dev[tau:] * dev[:-tau]) / ((n - tau) * var))
            assert at(tau) == direct == dk.autocorrelation(values, tau)


class TestOrdinalPatterns:
    def test_reference_window(self):
        ranks = _ordinal_ranks(_ordinal_windows(np.array([9.0, 1.0, 7.0]), 3))
        # x2 <= x3 <= x1 in one-based labels: time indices (1, 2, 0)
        assert ranks.tolist() == [[1, 2, 0]]

    def test_increasing_is_identity(self):
        ranks = _ordinal_ranks(_ordinal_windows(np.arange(5.0), 3))
        assert ranks.tolist() == [[0, 1, 2]] * 3

    def test_ties_break_temporally(self):
        ranks = _ordinal_ranks(_ordinal_windows(np.array([5.0, 5.0, 5.0]), 3))
        assert ranks.tolist() == [[0, 1, 2]]

    def test_count(self):
        windows = _ordinal_windows(np.arange(10.0), 4)
        assert windows.shape == _ordinal_ranks(windows).shape == (7, 4)


class TestPermutationEntropy:
    def test_monotone_zero(self):
        assert dk.permutation_entropy(np.arange(100.0), 4) == 0.0

    def test_noise_saturates(self):
        rng = np.random.default_rng(18)
        series = rng.uniform(size=100000)
        assert dk.permutation_entropy(series, 4) >= 0.99

    def test_normalized_in_unit_interval(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            series = rng.normal(size=rng.integers(10, 200))
            pe = dk.permutation_entropy(series, 3)
            assert 0.0 <= pe <= 1.0

    def test_reversal_symmetry_on_tie_free_series(self):
        # mirroring patterns is a bijection, so unnormalized PE is invariant
        # under time reversal whenever no window has ties
        rng = np.random.default_rng(20)
        for _ in range(20):
            series = rng.normal(size=50)
            fwd = dk.permutation_entropy(series, 3, normalized=False)
            rev = dk.permutation_entropy(series[::-1], 3, normalized=False)
            assert fwd == pytest.approx(rev, abs=1e-12)


class TestWeightedPermutationEntropy:
    def test_noise_saturates(self):
        rng = np.random.default_rng(21)
        assert dk.weighted_permutation_entropy(rng.uniform(size=100000), 4) >= 0.99

    def test_switcher_wpe_well_below_pe(self):
        # two plateaus joined by smooth ramps; tiny noise dominates the
        # plateaus (driving PE up) while the ramps carry the weight
        rng = np.random.default_rng(22)
        chunks = []
        level = -1.0
        while sum(len(c) for c in chunks) < 20000:
            chunks.append(np.full(100, level))
            t = np.linspace(0, 1, 10)[1:-1]
            chunks.append(level - 2 * level * (3 * t**2 - 2 * t**3))
            level = -level
        series = np.concatenate(chunks)[:20000]
        series = series + 1e-3 * rng.standard_normal(series.size)
        pe = dk.permutation_entropy(series, 4)
        wpe = dk.weighted_permutation_entropy(series, 4)
        assert wpe < pe - 0.2

    def test_constant_series_zero(self):
        assert dk.weighted_permutation_entropy(np.full(100, 2.0), 4) == 0.0


def _packed_code_entropies(values, ell):
    """PE and WPE (normalized) from count tables indexed by the raw packed
    base-ell pattern code, as they were computed before dense labels."""
    windows = np.lib.stride_tricks.sliding_window_view(values, ell)
    codes = np.argsort(windows, axis=1, kind="stable") @ ell ** np.arange(ell)
    counts = np.bincount(codes)
    p = np.sort(counts[counts > 0]) / counts.sum()
    pe = (float(-np.sum(p * np.log2(p))) + 0.0) / math.log2(math.factorial(ell))
    weights = np.var(windows, axis=1)
    mass = np.bincount(codes, weights=weights)
    q = mass[mass > 0] / weights.sum()
    wpe = max(0.0, float(-np.sum(q * np.log2(q)))) / math.log2(math.factorial(ell))
    return pe, wpe


class TestPatternLabels:
    @pytest.mark.parametrize("ell", [2, 3, 5, 7])
    def test_entropies_match_packed_code_oracle(self, ell):
        rng = np.random.default_rng(26)
        # rounding leaves ties inside windows
        x = np.round(rng.normal(size=3000), 1)
        pe, wpe = _packed_code_entropies(x, ell)
        assert dk.permutation_entropy(x, ell) == pe
        assert dk.weighted_permutation_entropy(x, ell) == wpe

    def test_labels_are_dense(self):
        # packed codes at ell=9 reach ~9**9; the labels count distinct patterns
        windows = np.lib.stride_tricks.sliding_window_view(
            np.random.default_rng(27).normal(size=40), 9)
        labels, weights = _pattern_labels(windows)
        assert weights is None
        assert labels.max() < windows.shape[0]

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_blocks_match_one_pass(self, monkeypatch, block):
        # per window, the blocked codes, labels and variances are bit for bit
        # those of one pass over every window
        x = np.round(np.random.default_rng(29).normal(size=3000), 1)
        windows = np.lib.stride_tricks.sliding_window_view(x, 5)
        codes = np.argsort(windows, axis=1, kind="stable") @ 5 ** np.arange(5)
        monkeypatch.setattr(estimators, "_PATTERN_BLOCK", block)
        labels, weights = _pattern_labels(windows, weighted=True)
        assert np.array_equal(labels, np.unique(codes, return_inverse=True)[1])
        assert weights.tobytes() == np.var(windows, axis=1).tobytes()
        pe, wpe = _packed_code_entropies(x, 5)
        assert dk.permutation_entropy(x, 5) == pe
        assert dk.weighted_permutation_entropy(x, 5) == wpe

    @pytest.mark.parametrize("ell", range(2, 16))
    def test_weights_are_the_variances_of_numpy(self, monkeypatch, ell):
        # summed column by column in the order numpy sums a row, the weights
        # are np.var's bit for bit, in blocks of 7 windows too
        rng = np.random.default_rng(31)
        monkeypatch.setattr(estimators, "_PATTERN_BLOCK", 7)
        for x in (np.round(rng.normal(size=400), 1), rng.normal(size=400)):
            windows = np.lib.stride_tricks.sliding_window_view(x, ell)
            _, weights = _pattern_labels(windows, weighted=True)
            assert weights.tobytes() == np.var(windows, axis=1).tobytes()

    def test_long_series_memory_is_bounded(self):
        # one int64 code and one float64 weight per window, plus the sorted
        # copy np.unique takes; ranks and variance temporaries stay within a
        # block. Whole-series ranks peaked at 13x (PE) and 16x (WPE).
        x = np.random.default_rng(30).standard_normal(1_000_000)
        for entropy, bound in [(dk.permutation_entropy, 2.5),
                               (dk.weighted_permutation_entropy, 3.5)]:
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                entropy(x, 7)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= bound * x.nbytes, entropy.__name__

    def test_overflowing_word_length_rejected(self):
        x = np.random.default_rng(28).normal(size=100)
        with pytest.raises(ValidationError):
            dk.permutation_entropy(x, 16)
        with pytest.raises(ValidationError):
            dk.weighted_permutation_entropy(x, 16)


class TestTripleInformation:
    def test_independent_noise_near_zero(self):
        rng = np.random.default_rng(23)
        x, y, z = (rng.uniform(size=100000) for _ in range(3))
        info = triple_information(x, y, z)
        assert abs(info.interaction) < 0.05
        assert info.binding < 0.05
        assert info.total_correlation < 0.05

    def test_identical_fair_bits(self):
        bits = np.tile([0.0, 1.0], 500)
        info = triple_information(bits, bits, bits)
        assert info.total_correlation == pytest.approx(2.0)
        assert info.interaction == pytest.approx(1.0)
        assert info.binding == pytest.approx(1.0)

    def test_xor_interaction_negative(self):
        rng = np.random.default_rng(24)
        x = rng.integers(0, 2, size=100000).astype(float)
        y = rng.integers(0, 2, size=100000).astype(float)
        z = np.logical_xor(x, y).astype(float)
        info = triple_information(x, y, z)
        assert info.interaction == pytest.approx(-1.0, abs=0.01)
        assert info.binding >= 0
        assert info.total_correlation >= 0


NON_FINITE_ENTRY_POINTS = {
    "permutation_entropy": lambda x: dk.permutation_entropy(x, 3),
    "weighted_permutation_entropy": lambda x: dk.weighted_permutation_entropy(x, 3),
    "autocorrelation": lambda x: dk.autocorrelation(x, 1),
    "tau_first_zero_autocorr": lambda x: dk.tau_first_zero_autocorr(x, 10),
    "scaled_epsilon": lambda x: dk.scaled_epsilon(0.1, x),
    "ksg_mutual_information": lambda x: dk.ksg_mutual_information(x, x[::-1]),
    "active_information_storage": lambda x: dk.active_information_storage(x, 2, 1),
    "binned_mutual_information": lambda x: dk.binned_mutual_information(x, x[::-1]),
    "td_mutual_information_curve": lambda x: dk.td_mutual_information_curve(x, 5),
    "fnn_fraction": lambda x: dk.fnn_fraction(x, 2, 1),
    "forecast_ar": lambda x: dk.forecast_ar(x, 4),
    "forecast_lma": lambda x: dk.forecast_lma(x, 2, 1),
    "h_mase_train": lambda x: dk.h_mase([0.0], [1.0], x, 1),
    "edge_lifespan_diagram": lambda x: dk.edge_lifespan_diagram(x, [1, 2], 1, 0.1, 5),
    "delay_reconstruct": lambda x: dk.delay_reconstruct(x, 2, 1),
    "split": lambda x: dk.split(x, 0.5),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", NON_FINITE_ENTRY_POINTS)
def test_non_finite_values_rejected(entry, bad):
    # raw arrays skip ScalarSeries' own check; one bad sample once gave a
    # number (PE 0.866, WPE 0.0, R = nan, eps = nan) or a NoZeroCrossingError
    x = np.sin(np.arange(200.0))
    x[50] = bad
    with pytest.raises(ValidationError, match="finite"):
        NON_FINITE_ENTRY_POINTS[entry](x)


# A noisy sine as a raw array, and its two-dimensional delay cloud.
X = np.sin(0.3 * np.arange(300.0)) + 0.1 * np.random.default_rng(5).normal(size=300)
CLOUD = np.column_stack([X[1:], X[:-1]])
FNN = dk.FnnConfig(fraction_threshold=0.5)


def lorenz_trace(steps=20, transient=0, observed_index=0):
    spec = dk.FlowSpec("lorenz63", dt=0.01, steps=steps, transient=transient,
                       observed_index=observed_index)
    return dk.generate_flow_trace(spec, np.ones(3)).values


def logistic_trace(n=20, transient=0):
    return dk.generate_map_trace(dk.MapSpec("logistic", x0=(0.3,), n=n,
                                            transient=transient)).values


# Every public count parameter, as "entry.parameter": a call taking the
# count, and a valid count. Counts are integers: 1.5, 2.0 and True are
# refused with a message naming the parameter, once truncated or leaked
# as a TypeError or AttributeError.
NON_INTEGER_COUNTS = {
    "delay_reconstruct.m": (lambda v: dk.delay_reconstruct(X, v, 1).points, 2),
    "delay_reconstruct.tau": (lambda v: dk.delay_reconstruct(X, 2, v).points, 2),
    "binned_mutual_information.bins":
        (lambda v: dk.binned_mutual_information(X, X[::-1], v), 8),
    "td_mutual_information_curve.tau_max":
        (lambda v: dk.td_mutual_information_curve(X, v), 3),
    "td_mutual_information_curve.bins":
        (lambda v: dk.td_mutual_information_curve(X, 3, v), 8),
    "ksg_mutual_information.k": (lambda v: dk.ksg_mutual_information(X, X[::-1], v), 4),
    "active_information_storage.m": (lambda v: dk.active_information_storage(X, v, 1), 2),
    "active_information_storage.tau":
        (lambda v: dk.active_information_storage(X, 2, v), 2),
    "active_information_storage.h":
        (lambda v: dk.active_information_storage(X, 2, 1, h=v), 2),
    "active_information_storage.k":
        (lambda v: dk.active_information_storage(X, 2, 1, k=v), 3),
    "active_information_storage.max_samples":
        (lambda v: dk.active_information_storage(X, 2, 1, max_samples=v), 100),
    "atau_surface.m_range": (lambda v: dk.atau_surface(X, [1, v], [2]).values, 2),
    "atau_surface.tau_range": (lambda v: dk.atau_surface(X, [2], [1, v]).values, 2),
    "atau_surface.h": (lambda v: dk.atau_surface(X, [2], [1], h=v).values, 2),
    "atau_surface.k": (lambda v: dk.atau_surface(X, [2], [1], k=v).values, 3),
    "atau_surface.max_samples":
        (lambda v: dk.atau_surface(X, [2], [1], max_samples=v).values, 100),
    "atau_surface.jobs": (lambda v: dk.atau_surface(X, [2], [1, 2], jobs=v).values, 2),
    "autocorrelation.tau": (lambda v: dk.autocorrelation(X, v), 2),
    "permutation_entropy.ell": (lambda v: dk.permutation_entropy(X, v), 3),
    "weighted_permutation_entropy.ell":
        (lambda v: dk.weighted_permutation_entropy(X, v), 3),
    "select_word_length.n": (lambda v: dk.select_word_length(v), 1000),
    "select_word_length.lo": (lambda v: dk.select_word_length(1000, lo=v), 2),
    "select_word_length.hi": (lambda v: dk.select_word_length(1000, hi=v), 8),
    "select_word_length.counts_per_pattern":
        (lambda v: dk.select_word_length(1000, counts_per_pattern=v), 100),
    "FnnConfig.m_max": (lambda v: dk.FnnConfig(m_max=v).m_max, 4),
    "ParamChoice.m": (lambda v: dk.ParamChoice(v, 1, "given", 0.0).m, 2),
    "ParamChoice.tau": (lambda v: dk.ParamChoice(1, v, "given", 0.0).tau, 2),
    "tau_first_min_mi.tau_max": (lambda v: dk.tau_first_min_mi(X, v).tau, 20),
    "tau_first_zero_autocorr.tau_max":
        (lambda v: dk.tau_first_zero_autocorr(X, v).tau, 20),
    "fnn_fraction.m": (lambda v: dk.fnn_fraction(X, v, 2), 2),
    "fnn_fraction.tau": (lambda v: dk.fnn_fraction(X, 2, v), 2),
    "estimate_m_fnn.tau": (lambda v: dk.estimate_m_fnn(X, v, FNN).score, 5),
    "forecast_ar.order": (lambda v: dk.forecast_ar(X, v), 4),
    "forecast_lma.m": (lambda v: dk.forecast_lma(X, v, 1, steps=3), 2),
    "forecast_lma.tau": (lambda v: dk.forecast_lma(X, 2, v, steps=3), 2),
    "forecast_lma.steps": (lambda v: dk.forecast_lma(X, 2, 1, steps=v), 3),
    "forecast_lma.theiler": (lambda v: dk.forecast_lma(X, 2, 1, theiler=v), 3),
    "rolling_evaluate.h":
        (lambda v: dk.rolling_evaluate(X, 0.9, "naive", h=v).predictions, 2),
    "rolling_evaluate.m":
        (lambda v: dk.rolling_evaluate(X, 0.9, "lma", m=v, tau=1).predictions, 2),
    "rolling_evaluate.tau":
        (lambda v: dk.rolling_evaluate(X, 0.9, "lma", m=2, tau=v).predictions, 2),
    "rolling_evaluate.theiler": (lambda v: dk.rolling_evaluate(
        X, 0.9, "lma", m=2, tau=1, theiler=v).predictions, 3),
    "rolling_evaluate.order":
        (lambda v: dk.rolling_evaluate(X, 0.9, "ar", order=v).predictions, 4),
    "rolling_evaluate.refit_every": (lambda v: dk.rolling_evaluate(
        X, 0.9, "ar", h=2, refit_every=v).predictions, 3),
    "h_mase.h": (lambda v: dk.h_mase(X[-5:], X[-6:-1], X[:200], v).value, 2),
    "MaseScore.h": (lambda v: dk.MaseScore(1.0, v, 1.0).h, 2),
    "FlowSpec.steps": (lambda v: lorenz_trace(steps=v), 20),
    "FlowSpec.transient": (lambda v: lorenz_trace(transient=v), 5),
    "FlowSpec.observed_index": (lambda v: lorenz_trace(observed_index=v), 1),
    "MapSpec.n": (lambda v: logistic_trace(n=v), 20),
    "MapSpec.transient": (lambda v: logistic_trace(transient=v), 5),
    "integrate_rk4.steps": (lambda v: dk.integrate_rk4(
        dk.FlowSpec("lorenz63").field_function(), np.ones(3), 0.01, v), 20),
    "select_landmarks.ell":
        (lambda v: dk.select_landmarks(CLOUD, v, "max_min").indices, 5),
    "edge_lifespan_diagram.m_range":
        (lambda v: dk.edge_lifespan_diagram(X, [1, v], 1, 0.1, 5), 2),
    "edge_lifespan_diagram.tau":
        (lambda v: dk.edge_lifespan_diagram(X, [1, 2], v, 0.1, 5), 2),
    "edge_lifespan_diagram.ell":
        (lambda v: dk.edge_lifespan_diagram(X, [1, 2], 1, 0.1, v), 5),
}


def count_name(entry: str) -> str:
    """The name an error message gives the entry's count; a range of
    dimensions or delays names each member."""
    param = entry.rpartition(".")[2]
    return {"m_range": "m", "tau_range": "tau"}.get(param, param)


@pytest.mark.parametrize("bad", [1.5, 2.0, True], ids=["1.5", "2.0", "True"])
@pytest.mark.parametrize("entry", NON_INTEGER_COUNTS)
def test_non_integer_counts_rejected(entry, bad):
    call, _ = NON_INTEGER_COUNTS[entry]
    with pytest.raises(ValidationError, match=rf"^{count_name(entry)} must be an "
                                              rf"integer\b"):
        call(bad)


@pytest.mark.parametrize("entry", NON_INTEGER_COUNTS)
def test_numpy_integer_counts_match_python_ints(entry):
    call, valid = NON_INTEGER_COUNTS[entry]
    np.testing.assert_array_equal(call(np.int64(valid)), call(valid))


def test_select_word_length_sampling_rule():
    assert dk.select_word_length(100000) == 6
    assert dk.select_word_length(10000) == 4
    assert dk.select_word_length(50) == 2
    assert dk.select_word_length(10**9) == 8
