"""Brute-force oracles for the KSG estimator's neighbor counts.

``_marginal_counts`` counts 1-D marginals with a sorted counter and wider
ones with grouped kNN queries, falling back to ball counts; every route
must agree exactly with an O(N^2) max-norm count. ``ball_counts`` is the
earlier counter that took a ball count for every wider query.
``tree_ksg_mutual_information`` is the earlier estimator that counted
every marginal with a default ``cKDTree``; the current one must reproduce
it bit for bit, including cells where the k-th joint neighbor is tied.
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
    """Points within and on each point's max-norm radius, self excluded;
    256 query rows at a time."""
    points = as_points(points)
    counts = []
    for start in range(0, points.shape[0], 256):
        block = points[start : start + 256]
        dist = np.max(np.abs(block[:, None, :] - points[None, :, :]), axis=2)
        counts.append(np.sum(dist <= radii[start : start + 256, None], axis=1))
    return np.concatenate(counts) - 1


def ball_counts(points, radii):
    """The earlier marginal counter: the sorted counter for 1-D marginals
    and, for wider ones, a ball count of every query on a tree with
    unbalanced leaves of 128."""
    if points.shape[1] == 1:
        return _sorted_counts(points[:, 0], radii) - 1
    tree = cKDTree(points, leafsize=128, balanced_tree=False)
    return tree.query_ball_point(points, radii, p=np.inf, workers=-1,
                                 return_length=True) - 1


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


def routed_counts(points, radii, workers):
    """``_marginal_counts`` as called with ``workers``, and its tree calls
    in order: ("knn", queries, k) or ("ball", queries, None)."""
    calls = []

    class RecordingTree(cKDTree):
        def query(self, x, k=1, **kwargs):
            assert kwargs["workers"] == workers
            calls.append(("knn", len(x), k))
            return super().query(x, k=k, **kwargs)

        def query_ball_point(self, x, r, **kwargs):
            assert kwargs["workers"] == workers
            calls.append(("ball", len(x), None))
            return super().query_ball_point(x, r, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "cKDTree", RecordingTree)
        mp.setattr(estimators, "_query_workers", lambda: workers)
        counts = _marginal_counts(points, radii)
    return counts, calls


def expected_calls(counts, radii, workers):
    """The tree calls of a grouped count, derived from the brute-force
    counts: kNN queries in ascending-radius groups, where a query is
    settled when fewer than k points, itself included, lie within its
    radius; then one ball count of the rest, which takes every later
    query once a group leaves more than half of its own unsettled."""
    group = estimators._COUNT_GROUP[workers]
    k = min(estimators._COUNT_FIRST_K, counts.size)
    unsettled = counts[np.argsort(radii, kind="stable")] + 1 >= k
    calls, balls = [], 0
    for start in range(0, unsettled.size, group):
        part = unsettled[start : start + group]
        calls.append(("knn", part.size, k))
        balls += int(part.sum())
        if 2 * part.sum() > part.size:
            balls += unsettled.size - start - part.size
            break
    return calls + [("ball", balls, None)] * (balls > 0)


def check_routes(points, radii, workers):
    """The grouped count equals the brute-force one and takes the routes
    those counts imply; returns its tree calls."""
    counts, calls = routed_counts(points, radii, workers)
    expected = brute_counts(points, radii)
    assert np.array_equal(counts, expected)
    assert np.array_equal(counts, ball_counts(points, radii))
    assert calls == expected_calls(expected, radii, workers)
    return calls


def rank_radii(pts, rng, top):
    """Per point, its max-norm distance to the neighbor of a random rank
    below ``top`` (rank 0 is the point itself)."""
    n = pts.shape[0]
    dist = np.sort(np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2), axis=1)
    return dist[np.arange(n), rng.integers(0, min(top, n), size=n)]


@st.composite
def settled_clouds(draw):
    """Uniform clouds, no ties, and radii that take in fewer than 16
    points, so every kNN query settles; N < 16 caps k at N."""
    d, n = draw(st.integers(2, 4)), draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, size=(n, d)) * draw(st.sampled_from([1.0, 1e-3]))
    radii = rank_radii(pts, rng, min(15, n - 1))
    if draw(st.booleans()):
        radii[rng.random(n) < 0.3] = 0.0
    return pts, radii


@st.composite
def tripping_clouds(draw):
    """Duplicate-heavy clouds (a few points) or lattices ({-1, 0, 1}^d),
    each point repeated at least 16 times, so that every query has 16 or
    more points within any radius and the first group trips the switch."""
    d = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.sampled_from(["duplicates", "lattice"])) == "duplicates":
        distinct = rng.uniform(-1.0, 1.0, size=(draw(st.integers(1, 5)), d))
    else:
        distinct = np.stack(np.meshgrid(*[[-1.0, 0.0, 1.0]] * d), -1).reshape(-1, d)
    n = distinct.shape[0] * draw(st.integers(16, 40)) + draw(st.integers(0, 5))
    pts = distinct[rng.permutation(np.arange(n) % distinct.shape[0])]
    pts = pts * draw(st.sampled_from([1.0, 0.3])) + draw(st.sampled_from([0.0, 1e3]))
    dist = np.max(np.abs(pts[:, None, :] - pts[None, :, :]), axis=2)
    radii = {
        "zero": np.zeros(n),
        "pick": dist[np.arange(n), rng.integers(0, n, size=n)],
    }[draw(st.sampled_from(["zero", "pick"]))]
    return pts, radii


@st.composite
def mixed_clouds(draw, sizes):
    """A uniform cloud with a duplicate-heavy cluster, and radii that are
    zero, neighbor distances of low or high rank, or a mix of these."""
    d, n = draw(st.integers(2, 4)), draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, size=(n, d))
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    pts[dup] = pts[0]
    top = draw(st.sampled_from([2, 16, 40, n]))
    radii = rank_radii(pts, rng, top)
    radii[rng.random(n) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    return pts, radii


ROUTE_SETTINGS = settings(ORACLE_SETTINGS, max_examples=60)


@pytest.mark.parametrize("workers", [1, -1])
class TestGroupedCountRoutes:
    """``_marginal_counts`` on clouds wider than one coordinate: each route
    of the grouped count, at both group sizes (one thread and every
    core), equals the brute-force and the all-ball-count counters."""

    @ROUTE_SETTINGS
    @given(settled_clouds())
    def test_every_query_settled(self, workers, case):
        calls = check_routes(*case, workers)
        assert {kind for kind, _, _ in calls} == {"knn"}

    @ROUTE_SETTINGS
    @given(tripping_clouds())
    def test_first_group_trips_the_switch(self, workers, case):
        pts, radii = case
        calls = check_routes(pts, radii, workers)
        assert [kind for kind, _, _ in calls] == ["knn", "ball"]
        assert calls[1][1] == pts.shape[0]

    @ROUTE_SETTINGS
    @given(mixed_clouds(st.integers(2, 400)))
    def test_mixed_clouds(self, workers, case):
        check_routes(*case, workers)

    @settings(ROUTE_SETTINGS, max_examples=12)
    @given(mixed_clouds(st.integers(1100, 2600)))
    def test_several_large_groups(self, workers, case):
        calls = check_routes(*case, workers)
        assert calls[0][1] == estimators._COUNT_GROUP[workers]

    @ROUTE_SETTINGS
    @given(point_sets(st.integers(2, 4)))
    def test_ties_offsets_and_rounded_radii(self, workers, case):
        check_routes(*case, workers)

    def test_later_group_trips_the_switch(self, workers):
        # 500 queries settle; 500 with radius 2 hold every point
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.0, 1.0, size=(1000, 2))
        radii = rank_radii(pts, rng, 8)
        radii[rng.permutation(1000)[:500]] = 2.0
        calls = check_routes(pts, radii, workers)
        # groups of 128: the 4th settles 116 queries, the 5th trips the
        # switch; one group of 1,024: half its queries settle
        groups = {1: [("knn", 128, 16)] * 5, -1: [("knn", 1000, 16)]}[workers]
        assert calls == groups + [("ball", 500, None)]

    def test_fewer_points_than_first_k(self, workers):
        rng = np.random.default_rng(2)
        pts = rng.uniform(size=(9, 3))
        radii = rank_radii(pts, rng, 8)
        radii[:3] = [0.0, 1.0, 1.0]  # two queries hold every point
        calls = check_routes(pts, radii, workers)
        assert calls == [("knn", 9, 9), ("ball", 2, None)]


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

    def test_quantised_logistic_cells_bit_identical(self, monkeypatch):
        # rounded to two decimals, as a quantising sensor records it: most
        # x-counts are 16 or more, so the ball count takes them
        values = np.round(make_map_trace("logistic", seed=1, n=7000).values, 2)
        ball_queries = []

        class RecordingTree(cKDTree):
            def query_ball_point(self, x, *args, **kwargs):
                ball_queries.append(len(x))
                return super().query_ball_point(x, *args, **kwargs)

        monkeypatch.setattr(estimators, "cKDTree", RecordingTree)
        for m, tau in [(2, 1), (2, 3), (3, 2), (4, 1)]:
            ball_queries.clear()
            x, y = delay_cell(values, m, tau, values.size)
            assert (dk.active_information_storage(values, m, tau)
                    == tree_ksg_mutual_information(x, y))
            assert ball_queries[0] > 0.9 * x.shape[0]

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
