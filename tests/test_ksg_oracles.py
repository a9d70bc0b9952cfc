"""Brute-force oracles for the KSG estimator's neighbor counts.

``_marginal_counts`` counts 1-D marginals with a sorted counter and wider
ones with a wide-leaf tree; both must agree exactly with an O(N^2)
max-norm count. ``tree_ksg_mutual_information`` is the earlier estimator
that counted every marginal with a default ``cKDTree``; the current one
must reproduce it bit for bit, including cells where the k-th joint
neighbor is tied.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree
from scipy.special import digamma

import delaykit as dk
from delaykit import estimators
from delaykit.errors import ValidationError
from delaykit.estimators import _marginal_counts, _sorted_counts
from delaykit.timeseries import as_points, as_values, delay_matrix

from conftest import make_map_trace


def brute_counts(points, radii):
    """Points within and on each point's max-norm radius, self excluded."""
    points = as_points(points)
    dist = np.max(np.abs(points[:, None, :] - points[None, :, :]), axis=2)
    return np.sum(dist <= radii[:, None], axis=1) - 1


def tree_counts(points, radii):
    tree = cKDTree(points)
    return tree.query_ball_point(points, radii, p=np.inf, workers=-1,
                                 return_length=True) - 1


def tree_ksg_mutual_information(x_points, y_points, k=4):
    """The KSG estimate with every marginal counted by a default cKDTree."""
    xp, yp = as_points(x_points), as_points(y_points)
    n = xp.shape[0]
    joint = np.hstack([xp, yp])
    _, idx = cKDTree(joint).query(joint, k=k + 1, p=np.inf, workers=-1)
    nbrs = idx[:, 1:]
    rho_x = np.max(np.abs(xp[:, None, :] - xp[nbrs]), axis=(1, 2))
    rho_y = np.max(np.abs(yp[:, None, :] - yp[nbrs]), axis=(1, 2))
    n_x = tree_counts(xp, rho_x)
    n_y = tree_counts(yp, rho_y)
    nats = (digamma(k) - 1.0 / k
            - float(np.mean(digamma(n_x) + digamma(n_y)))
            + digamma(n))
    return nats / np.log(2.0)


@st.composite
def point_sets(draw, dims):
    """Point sets with ties, duplicates, integer lattices and large
    offsets, and radii that are zero, exact neighbor distances, or
    distances nudged one ulp either way."""
    d = draw(dims)
    n = draw(st.integers(2, 300 if d > 1 else 60))
    kind = draw(st.sampled_from(["lattice", "uniform", "duplicates"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        pts = rng.integers(-3, 4, size=(n, d)).astype(np.float64)
    elif kind == "uniform":
        pts = rng.uniform(-1.0, 1.0, size=(n, d))
    else:
        pts = rng.uniform(-1.0, 1.0, size=(draw(st.integers(1, 5)), d))
        pts = pts[rng.integers(0, pts.shape[0], size=n)]
    offset = draw(st.sampled_from([0.0, 0.1, 1e3, -4.5e5, 1e7]))
    scale = draw(st.sampled_from([1.0, 1e-3, 0.3]))
    pts = pts * scale + offset
    dist = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
    pick = dist[np.arange(n), rng.integers(0, n, size=n)]
    radii = {
        "zero": np.zeros(n),
        "exact": pick,
        "below": np.nextafter(pick, -np.inf).clip(0.0),
        "above": np.nextafter(pick, np.inf),
        "mixed": np.where(rng.random(n) < 0.5, pick, rng.uniform(0, 0.5 * scale, n)),
    }[draw(st.sampled_from(["zero", "exact", "below", "above", "mixed"]))]
    return pts, radii


ORACLE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                           database=None,
                           suppress_health_check=[HealthCheck.too_slow])


class TestMarginalCountOracle:
    @ORACLE_SETTINGS
    @given(point_sets(st.just(1)))
    def test_one_dimensional_counts_match_brute_force(self, case):
        pts, radii = case
        assert np.array_equal(_marginal_counts(pts, radii), brute_counts(pts, radii))

    @ORACLE_SETTINGS
    @given(point_sets(st.integers(2, 4)))
    def test_wide_counts_match_brute_force(self, case):
        pts, radii = case
        assert np.array_equal(_marginal_counts(pts, radii), brute_counts(pts, radii))

    def test_rounded_search_bounds_are_corrected(self):
        # v - r rounds down to s although |s - v| > r: plain searchsorted
        # would count s, the exact predicate does not
        v, s = 1000.6369616873214, 1000.606995371459
        r = np.nextafter(abs(s - v), 0.0)
        values, radii = np.array([v, s]), np.array([r, 0.0])
        sorted_vals = np.sort(values)
        naive = (np.searchsorted(sorted_vals, values + radii, side="right")
                 - np.searchsorted(sorted_vals, values - radii, side="left"))
        assert naive.tolist() == [2, 1]
        assert _sorted_counts(values, radii).tolist() == [1, 1]
        assert brute_counts(values, radii).tolist() == [0, 0]

    def test_long_runs_of_duplicates_at_both_ends(self):
        values = np.repeat([0.0, 1.0, 2.0], 500)
        radii = np.ones(values.size)
        counts = _marginal_counts(values[:, None], radii)
        assert np.array_equal(counts, brute_counts(values, radii))
        assert set(counts.tolist()) == {999, 1499}


def delay_cell(series, m, tau, n):
    """The first ``n`` (state, next value) pairs of an (m, tau) reconstruction."""
    values = as_values(series)
    span = (m - 1) * tau
    states = delay_matrix(values, m, tau)[: values.size - span - 1]
    return states[:n], values[span + 1 :][:n]


def k_th_neighbor_ties(x, y, k=4):
    joint = np.hstack([as_points(x), as_points(y)])
    dist, _ = cKDTree(joint).query(joint, k=k + 2, p=np.inf)
    return int(np.sum(dist[:, k] == dist[:, k + 1]))


@pytest.fixture(scope="module")
def traces(lorenz96_20k):
    return {"henon": make_map_trace("henon", seed=1, n=2200),
            "logistic": make_map_trace("logistic", seed=1, n=2200),
            "l96": lorenz96_20k}


class TestKsgOracle:
    # cells whose joint neighbor sets depend on the tree layout, plus m = 1
    TIE_CELLS = [("henon", 3, 10), ("henon", 8, 6), ("logistic", 7, 3),
                 ("l96", 2, 7), ("l96", 2, 20)]

    @pytest.mark.parametrize("system, m, tau", TIE_CELLS)
    def test_tie_cells_bit_identical(self, traces, system, m, tau):
        x, y = delay_cell(traces[system], m, tau, 1200)
        assert k_th_neighbor_ties(x, y) > 0
        assert dk.ksg_mutual_information(x, y) == tree_ksg_mutual_information(x, y)

    @pytest.mark.parametrize("system, cells", [
        ("henon", [(1, 1), (2, 1), (4, 4), (8, 10)]),
        ("logistic", [(1, 1), (2, 3), (8, 5)]),
        ("l96", [(1, 1), (2, 1), (2, 26), (5, 13)]),
    ])
    def test_delay_cells_bit_identical(self, traces, system, cells):
        for m, tau in cells:
            x, y = delay_cell(traces[system], m, tau, 2000)
            assert dk.ksg_mutual_information(x, y) == tree_ksg_mutual_information(x, y)

    def test_marginal_counts_match_default_tree(self, traces):
        x, y = delay_cell(traces["henon"], 8, 10, 3000)
        rng = np.random.default_rng(0)
        for pts in (x, y[:, None]):
            radii = rng.uniform(0.0, 0.05, size=pts.shape[0])
            assert np.array_equal(_marginal_counts(pts, radii), tree_counts(pts, radii))

    def test_joint_tree_uses_scipy_defaults(self, monkeypatch):
        built = []

        class RecordingTree(cKDTree):
            def __init__(self, data, *args, **kwargs):
                built.append((np.shape(data), args, kwargs))
                super().__init__(data, *args, **kwargs)

        monkeypatch.setattr(estimators, "cKDTree", RecordingTree)
        rng = np.random.default_rng(1)
        dk.ksg_mutual_information(rng.normal(size=(300, 3)), rng.normal(size=300))
        assert built[0] == ((300, 4), (), {})


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ksg_rejects_before_any_count(self, monkeypatch, bad):
        def fail(*args, **kwargs):
            raise AssertionError("a tree or counter saw non-finite input")

        monkeypatch.setattr(estimators, "cKDTree", fail)
        monkeypatch.setattr(estimators, "_sorted_counts", fail)
        x = np.linspace(0.0, 1.0, 50)
        wide = x[:, None] * [1.0, 2.0]
        for xs, ys, target in ((x.copy(), x, 0), (x, x.copy(), 1), (wide, x, 0)):
            (xs, ys)[target][7] = bad
            with pytest.raises(ValidationError, match="finite"):
                dk.ksg_mutual_information(xs, ys)

    def test_atau_cell_records_reason(self, monkeypatch):
        # the series is checked once, before any cell runs
        def fail(*args, **kwargs):
            raise AssertionError("a cell ran on non-finite input")

        monkeypatch.setattr(estimators, "active_information_storage", fail)
        values = np.sin(0.3 * np.arange(400))
        values[123] = np.nan
        with pytest.raises(ValidationError) as err:
            dk.atau_surface(values, [1, 2], [1, 2])
        assert str(err.value) == "series must hold only finite values"

    def test_fnn_rejects(self):
        values = np.sin(0.3 * np.arange(400))
        values[5] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            dk.fnn_fraction(values, 2, 3)
        with pytest.raises(ValidationError, match="finite"):
            dk.estimate_m_fnn(values, 3)
