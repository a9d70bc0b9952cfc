import gc
import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaykit as dk
from delaykit import topology
from delaykit.errors import ValidationError
from delaykit.timeseries import delay_matrix
from delaykit.topology import WitnessComplexSnapshot


def snapshot_from_edges(vertices, edges):
    """Build a snapshot directly from an edge list (clique-filled)."""
    pairs = {tuple(sorted(e)) for e in edges}
    triangles = [(a, b, c) for a, b, c in itertools.combinations(range(vertices), 3)
                 if {(a, b), (a, c), (b, c)} <= pairs]
    edges_arr = (np.array(sorted(pairs), dtype=np.int64)
                 if pairs else np.empty((0, 2), dtype=np.int64))
    tri_arr = (np.array(triangles, dtype=np.int64)
               if triangles else np.empty((0, 3), dtype=np.int64))
    return WitnessComplexSnapshot(epsilon=0.0, vertices=vertices,
                                  edges=edges_arr, triangles=tri_arr)


def fuzzy_witness_sets(cloud, landmarks, eps):
    """The whole landmark-by-witness membership matrix at one scale."""
    return np.concatenate([sq <= topology._root_bound(nearest + eps)[None, :]
                           for sq, nearest in topology._witness_blocks(cloud, landmarks)],
                          axis=1)


def edge_set(snapshot):
    return {tuple(e) for e in snapshot.edges.tolist()}


def triangle_set(snapshot):
    return {tuple(t) for t in snapshot.triangles.tolist()}


def clique_property_holds(snapshot):
    edges = edge_set(snapshot)
    return all({(a, b), (a, c), (b, c)} <= edges for a, b, c in triangle_set(snapshot))


def dense_gf2_rank(matrix):
    """Row-reduction rank over GF(2) on a dense 0/1 matrix."""
    m = [row.copy() for row in matrix.astype(np.int64) % 2]
    rank = 0
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, rows) if m[r][col]), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        for r in range(rows):
            if r != pivot_row and m[r][col]:
                m[r] = (m[r] + m[pivot_row]) % 2
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


def brute_force_homology(snapshot):
    """(beta_0, beta_1, rank d2) from full dense boundary matrices."""
    v = snapshot.vertices
    edges = [tuple(e) for e in snapshot.edges]
    tris = [tuple(t) for t in snapshot.triangles]
    if edges:
        d1 = np.zeros((v, len(edges)), dtype=np.int64)
        for col, (a, b) in enumerate(edges):
            d1[a, col] = d1[b, col] = 1
        rank1 = dense_gf2_rank(d1)
    else:
        rank1 = 0
    if tris:
        index = {e: i for i, e in enumerate(edges)}
        d2 = np.zeros((len(edges), len(tris)), dtype=np.int64)
        for col, (a, b, c) in enumerate(tris):
            d2[index[(a, b)], col] = 1
            d2[index[(a, c)], col] = 1
            d2[index[(b, c)], col] = 1
        rank2 = dense_gf2_rank(d2)
    else:
        rank2 = 0
    beta0 = v - rank1
    beta1 = len(edges) - rank1 - rank2
    return beta0, beta1, rank2


class DenseWitnessGeometry:
    """Oracle: the dense landmark-by-witness geometry the chunked pass
    replaced. All distances are held at once, in the same arithmetic
    (centred on the landmark mean), and membership and adjacency are
    rebuilt per scale."""

    def __init__(self, cloud, landmarks):
        cloud = np.asarray(cloud, dtype=np.float64)
        cloud = cloud[:, None] if cloud.ndim == 1 else cloud
        lm = cloud[list(landmarks.indices)]
        centre = lm.mean(axis=0)
        lm, cloud = lm - centre, cloud - centre
        sq = (np.sum(lm**2, axis=1)[:, None]
              + np.sum(cloud**2, axis=1)[None, :]
              - 2.0 * (lm @ cloud.T))
        self.dist = np.sqrt(np.clip(sq, 0.0, None))
        self.nearest = self.dist.min(axis=0)

    def membership(self, eps):
        return self.dist <= self.nearest[None, :] + eps

    def adjacency(self, eps):
        member = self.membership(eps).astype(np.float32)
        adj = (member @ member.T) > 0.0
        np.fill_diagonal(adj, False)
        return adj


def membership_scales(dist, nearest):
    """Oracle: elementwise smallest float eps >= 0 with ``dist <= nearest +
    eps``, the scale at which the single-scale predicate first admits a
    witness to a landmark's set. ``dist - nearest`` can miss that float by
    rounding in either direction, so it only seeds the search: it is nudged
    up with ``nextafter`` until the predicate holds, then bisected down
    over the float lattice (non-negative floats order like their int64 bit
    patterns) towards a bound at which the predicate fails."""
    scale = dist - nearest
    short = dist > nearest + scale
    while short.any():
        scale[short] = np.nextafter(scale[short], np.inf)
        short = dist > nearest + scale
    hi = scale.view(np.int64)
    # eps at or below this bound gives nearest + eps <= nextafter(dist,
    # -inf) < dist; a negative bound's bit pattern is negative, clipped to -1
    lo = np.nextafter(np.nextafter(dist, -np.inf) - nearest, -np.inf)
    lo = np.maximum(lo.view(np.int64), -1)
    pending = np.flatnonzero(hi - lo > 1)
    while pending.size:
        mid = lo[pending] + (hi[pending] - lo[pending]) // 2
        holds = dist[pending] <= nearest[pending] + mid.view(np.float64)
        hi[pending[holds]] = mid[holds]
        lo[pending[~holds]] = mid[~holds]
        pending = pending[hi[pending] - lo[pending] > 1]
    return scale


def float_edge_births(cloud, landmarks, eps_max):
    """Oracle: the edge filtration on float scales that grid levels
    replaced. Entry (i, j), i < j, is the smallest scale at which landmarks
    i and j share a witness, min over witnesses w of max(a_iw, a_jw) with a
    the membership scale. Entries above ``eps_max``, the diagonal and the
    lower triangle are inf."""
    geom = DenseWitnessGeometry(cloud, landmarks)
    nearest = np.broadcast_to(geom.nearest, geom.dist.shape)
    scales = membership_scales(geom.dist.ravel(), nearest.ravel())
    a = np.where(geom.membership(eps_max), scales.reshape(geom.dist.shape), np.inf)
    births = np.full((a.shape[0], a.shape[0]), np.inf)
    for start in range(0, a.shape[1], 64):
        block = a[:, start:start + 64]
        births = np.minimum(births, np.maximum(block[:, None], block[None]).min(axis=2))
    births[np.tril_indices(a.shape[0])] = np.inf
    return births


def pair_scatter_levels(cloud, landmarks, grid):
    """Oracle: the edge filtration by the per-witness pair scatter that the
    landmark rows replaced. Each block's memberships are grouped by
    witness; every pair of a witness's k landmarks takes the later of its
    two levels, and ``np.minimum.at`` keeps each pair's earliest, so the
    work grows as k^2 per witness."""
    grid = np.asarray(grid, dtype=np.float64)
    ell = len(landmarks)
    levels = np.full((ell, ell), grid.size, dtype=np.int64)
    flat = levels.reshape(-1)
    for sq, nearest in topology._witness_blocks(cloud, landmarks):
        member = sq <= topology._root_bound(nearest + grid[-1])[None, :]
        # grouped by witness, landmarks ascending
        w, lm = np.nonzero(member.T)
        level = topology._membership_levels(np.sqrt(np.maximum(sq[lm, w], 0.0)),
                                            nearest[w], grid)
        counts = np.bincount(w, minlength=sq.shape[1])
        starts = np.cumsum(counts) - counts
        for k in np.unique(counts[counts > 1]).tolist():
            rows = starts[counts == k][:, None] + np.arange(k)
            iu, ju = np.triu_indices(k, 1)
            pl, pv = lm[rows], level[rows]
            np.minimum.at(flat, pl[:, iu] * ell + pl[:, ju],
                          np.maximum(pv[:, iu], pv[:, ju]))
    return levels


def gram_levels(cloud, landmarks, eps):
    """Oracle: the one-level edge filtration by the block Gram products
    that the landmark rows replaced. A pair is at level 0 where some
    block's float32 product of the two landmarks' membership rows is
    nonzero, which is exact: a sum of at most _CHUNK ones."""
    ell = len(landmarks)
    shared = np.zeros((ell, ell), dtype=bool)
    for sq, nearest in topology._witness_blocks(cloud, landmarks):
        member = sq <= topology._root_bound(nearest + eps)[None, :]
        member = member.astype(np.float32)
        shared |= (member @ member.T) > 0.0
    return np.where(np.triu(shared, 1), 0, 1)


def assert_levels_match_the_pair_scatter(cloud, lm, grid):
    levels = topology._edge_levels(cloud, lm, grid)
    assert levels.dtype == np.int64
    assert np.array_equal(levels, pair_scatter_levels(cloud, lm, grid))
    return levels


def assert_levels_threshold_to_the_dense_adjacency(cloud, lm, grid):
    levels = topology._edge_levels(cloud, lm, np.asarray(grid))
    geom = DenseWitnessGeometry(cloud, lm)
    for g, eps in enumerate(grid):
        assert np.array_equal(levels <= g, np.triu(geom.adjacency(eps), 1))


def assert_one_level_grids_match_the_filtration(cloud, lm, grid):
    """Each grid value alone connects the pairs the whole grid connects by
    its level, and the pairs of the Gram oracle."""
    levels = topology._edge_levels(cloud, lm, grid)
    upper = np.triu(np.ones(levels.shape, dtype=bool), 1)
    for g, eps in enumerate(grid):
        one_level = topology._edge_levels(cloud, lm, [eps])
        assert np.array_equal(one_level == 0, (levels <= g) & upper)
        assert np.array_equal(one_level, gram_levels(cloud, lm, eps))


def snapshot_from_adjacency(adj, eps=0.0):
    """Clique complex of an adjacency matrix, edges and triangles in
    lexicographic order."""
    upper = np.triu(adj, 1)
    cliques = upper[:, :, None] & upper[None, :, :] & upper[:, None, :]
    return WitnessComplexSnapshot(
        epsilon=eps, vertices=adj.shape[0],
        edges=np.argwhere(upper).astype(np.int64).reshape(-1, 2),
        triangles=np.argwhere(cliques).astype(np.int64).reshape(-1, 3))


def count_barcode(grid, counts, dimension):
    """Oracle: count-matched intervals (newest feature dies first) that
    reproduce a Betti count at every grid value."""
    open_births, intervals, prev = [], [], 0
    for s, c in zip(grid, counts):
        if c > prev:
            open_births.extend([s] * (c - prev))
        elif c < prev:
            for _ in range(prev - c):
                intervals.append((open_births.pop(), s))
        prev = c
    intervals.extend((b, None) for b in reversed(open_births))
    return dk.Barcode(dimension=dimension, intervals=tuple(sorted(
        intervals, key=lambda iv: (iv[0], np.inf if iv[1] is None else iv[1]))))


def dense_barcode(cloud, landmarks, grid):
    """Oracle: a complex rebuilt from the dense geometry at every scale."""
    geom = DenseWitnessGeometry(cloud, landmarks)
    counts = [dk.betti_numbers(snapshot_from_adjacency(geom.adjacency(eps), eps))
              for eps in grid]
    return tuple(count_barcode(grid, [c[d] for c in counts], d) for d in (0, 1))


def dense_lifespans(values, m_values, tau, xi, ell):
    """Oracle: the per-dimension lifespan loop over the dense geometry."""
    stride = (values.size - (max(m_values) - 1) * tau) // ell
    landmarks = dk.LandmarkSet(indices=tuple(i * stride for i in range(ell)),
                               strategy="equally_spaced")
    best = run = np.zeros((ell, ell), dtype=np.int64)
    for m in sorted(m_values):
        cloud = delay_matrix(values, m, tau)
        adj = DenseWitnessGeometry(cloud, landmarks).adjacency(
            dk.scaled_epsilon(xi, cloud))
        run = np.where(adj, run + 1, 0)
        best = np.maximum(best, run)
    return best


def boundary_reduction_barcode(births, grid):
    """Oracle: persistence of the edge filtration by the standard boundary
    reduction — union-find for components, triangle columns (bitsets over
    edge positions, triangles ordered by youngest edge) for cycles — with
    both ends snapped up to the grid."""
    ell = births.shape[0]
    i, j = np.nonzero(np.isfinite(births))
    order = np.lexsort((j, i, births[i, j]))
    edges = list(zip(i[order].tolist(), j[order].tolist()))
    birth = births[i[order], j[order]].tolist()
    pos = {e: n for n, e in enumerate(edges)}
    parent = list(range(ell))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    h0, h1 = [], {}
    for n, (a, b) in enumerate(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            h0.append((0.0, birth[n]))
        else:
            h1[n] = np.inf  # opens a cycle, until a triangle closes it
    h0 += [(0.0, np.inf)] * (ell - len(h0))
    faces = sorted((max(pos[(a, b)], pos[(a, c)], pos[(b, c)]),
                    pos[(a, b)], pos[(a, c)], pos[(b, c)])
                   for a, b, c in itertools.combinations(range(ell), 3)
                   if {(a, b), (a, c), (b, c)} <= pos.keys())
    lows = {}
    for youngest, x, y, z in faces:
        col = (1 << x) | (1 << y) | (1 << z)
        while col and col.bit_length() - 1 in lows:
            col ^= lows[col.bit_length() - 1]
        if col:
            lows[col.bit_length() - 1] = col
            h1[col.bit_length() - 1] = birth[youngest]
    bars = []
    for pairs in (h0, [(birth[n], d) for n, d in h1.items()]):
        snapped = []
        for b, d in pairs:
            sb = next(g for g in grid if g >= b)
            sd = next((g for g in grid if g >= d), None)
            if sb != sd:
                snapped.append((sb, sd))
        bars.append(sorted(snapped, key=lambda iv: (iv[0], iv[1] or np.inf)))
    return bars


def triangle_faces(vertices, edges, triangles):
    """(T, 3) positions in ``edges`` of each triangle's three edges."""
    pos = np.full((vertices, vertices), -1, dtype=np.int64)
    pos[edges[:, 0], edges[:, 1]] = np.arange(edges.shape[0])
    a, b, c = triangles.T
    return np.column_stack([pos[a, b], pos[a, c], pos[b, c]])


def reduce_coboundaries(faces, edge_count, columns):
    """Persistent cohomology reduction over GF(2) of edge coboundaries
    grouped from a listed face array: ``faces`` holds each triangle's
    three edge positions, triangles in filtration order; ``columns`` the
    cycle-opening edges, youngest first. Yields (edge, pivot triangle)
    for every column left nonzero."""
    flat = faces.reshape(-1)
    order = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[order], np.arange(edge_count + 1)).tolist()
    cofaces = order // 3  # grouped by edge, triangles ascending
    pivots = {}
    for e in columns:
        col = cofaces[bounds[e]:bounds[e + 1]]
        while col.size:
            p = int(col[0])
            other = pivots.get(p)
            if other is None:
                pivots[p] = col
                yield e, p
                break
            col = np.setxor1d(col, other, assume_unique=True)


def triangle_list_barcode(cloud, landmarks, grid):
    """Oracle: barcodes of the edge filtration whose cycles are reduced
    over a list of every clique triangle, each born with its youngest
    edge and sorted stably by it."""
    grid = [float(e) for e in grid]
    ell, top = len(landmarks), len(grid)
    levels = topology._edge_levels(cloud, landmarks, grid)
    edges, level = topology._edges_by_level(levels, top)
    merges = topology._merging_edges(ell, edges)
    h0_deaths = np.concatenate([level[merges], np.full(ell - merges.sum(), top)])
    cycles = np.flatnonzero(~merges)
    deaths = np.full(edges.shape[0], top)
    triangles = topology._triangles_from_adjacency(levels < top, edges)
    faces = triangle_faces(ell, edges, triangles)
    youngest = faces.max(axis=1)
    order = np.argsort(youngest, kind="stable")
    faces, youngest = faces[order], youngest[order]
    for e, t in reduce_coboundaries(faces, edges.shape[0], cycles[::-1].tolist()):
        deaths[e] = level[youngest[t]]
    return (topology._level_barcode(grid, np.zeros(ell, dtype=np.int64), h0_deaths, 0),
            topology._level_barcode(grid, level[cycles], deaths[cycles], 1))


@pytest.fixture()
def small_chunks(monkeypatch):
    """Several witness blocks per cloud, the last one ragged."""
    monkeypatch.setattr(topology, "_CHUNK", 7)


def bench_grid(cloud, n=100, lo=2e-4, hi=5e-2):
    return [dk.scaled_epsilon(xi, cloud) for xi in np.geomspace(lo, hi, n)]


def random_cases():
    rng = np.random.default_rng(16)
    for n, d, ell in ((61, 1, 9), (90, 2, 14), (150, 2, 25), (120, 3, 20)):
        cloud = rng.normal(size=(n, d))
        lm = dk.select_landmarks(cloud, ell, "max_min")
        yield cloud, lm, bench_grid(cloud, 40, 1e-3, 0.3)


def lorenz_cases(traj):
    cloud_3d = traj[:2000]
    cloud_2d = delay_matrix(traj[:2000, 0], 2, 3)
    for cloud in (cloud_2d, cloud_3d):
        yield cloud, dk.select_landmarks(cloud, 60, "max_min"), bench_grid(cloud)


def random_clique_snapshot(rng):
    v = int(rng.integers(1, 13))
    p = rng.uniform(0.05, 0.9)
    edges = [(a, b) for a, b in itertools.combinations(range(v), 2)
             if rng.uniform() < p]
    return snapshot_from_edges(v, edges)


class TestSelectLandmarks:
    def test_equally_spaced_stride(self):
        cloud = np.arange(10.0)[:, None]
        lm = dk.select_landmarks(cloud, 5, "equally_spaced")
        assert lm.indices == (0, 2, 4, 6, 8)

    def test_full_set_identity(self):
        cloud = np.random.default_rng(0).normal(size=(7, 2))
        for strategy in ("equally_spaced", "max_min", "random"):
            lm = dk.select_landmarks(cloud, 7, strategy, seed=3)
            assert sorted(lm.indices) == list(range(7))

    def test_max_min_greedy_on_collinear_points(self):
        cloud = np.arange(10.0)[:, None]
        lm = dk.select_landmarks(cloud, 3, "max_min")
        assert lm.indices == (0, 9, 4)

    def test_too_many_landmarks_rejected(self):
        with pytest.raises(ValidationError):
            dk.select_landmarks(np.zeros((5, 2)), 6)

    def test_random_needs_seed(self):
        with pytest.raises(ValidationError):
            dk.select_landmarks(np.zeros((5, 2)), 2, "random")

    @pytest.mark.parametrize("seed", [-3, 1.5, 2.0, True, "1"])
    def test_random_seed_must_be_an_integer_of_at_least_zero(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            dk.select_landmarks(np.arange(50.0), 5, "random", seed=seed)

    def test_max_min_matches_the_summed_formula(self):
        rng = np.random.default_rng(22)
        for d in range(1, 11):
            lattice = rng.integers(-3, 4, size=(300, d)).astype(np.float64)
            scaled = rng.normal(size=(300, d)) * 10.0 ** rng.integers(-3, 4, size=d)
            for cloud in (lattice, lattice * 0.1 + 7.0, scaled):
                ell = min(40, np.unique(cloud, axis=0).shape[0])
                want = oracle_max_min(cloud, ell)
                assert dk.select_landmarks(cloud, ell, "max_min").indices == want

    def test_max_min_names_both_counts_when_points_repeat(self):
        cloud = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        assert dk.select_landmarks(cloud, 2, "max_min").indices == (0, 1)
        with pytest.raises(ValidationError,
                           match="max_min needs 3 distinct points, the cloud has 2"):
            dk.select_landmarks(cloud, 3, "max_min")
        # points without coordinates all coincide
        assert dk.select_landmarks(np.zeros((4, 0)), 1, "max_min").indices == (0,)
        with pytest.raises(ValidationError, match="the cloud has 1"):
            dk.select_landmarks(np.zeros((4, 0)), 2, "max_min")


def oracle_max_min(cloud, ell):
    """Oracle: greedy max-min selection with distances summed by ``np.sum``
    along each row, as before the column loop."""
    chosen = [0]
    dist = np.sqrt(np.sum((cloud - cloud[0]) ** 2, axis=1))
    for _ in range(ell - 1):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.sqrt(np.sum((cloud - cloud[nxt]) ** 2, axis=1)))
    return tuple(chosen)


class TestNonFiniteClouds:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_entry_point_rejects(self, bad):
        cloud = np.random.default_rng(23).normal(size=(30, 2))
        lm = dk.select_landmarks(cloud, 5)
        cloud[17, 1] = bad
        message = "point cloud must hold only finite values"
        for strategy in ("equally_spaced", "max_min", "random"):
            with pytest.raises(ValidationError, match=message):
                dk.select_landmarks(cloud, 5, strategy, seed=1)
        with pytest.raises(ValidationError, match=message):
            dk.build_complex(cloud, lm, 0.1)
        with pytest.raises(ValidationError, match=message):
            dk.epsilon_barcode(cloud, lm, [0.1, 0.2])
        values = np.sin(0.2 * np.arange(200.0))
        values[150] = bad
        with pytest.raises(ValidationError, match="series must hold only finite"):
            dk.edge_lifespan_diagram(values, range(1, 3), tau=2, xi=0.1, ell=5)


class TestLandmarkIndices:
    def test_indices_beyond_the_cloud_rejected(self):
        cloud = np.random.default_rng(24).normal(size=(100, 2))
        for indices in ((0, 500), (-1, 0), (0, 100)):
            lm = dk.LandmarkSet(indices=indices, strategy="equally_spaced")
            with pytest.raises(ValidationError, match="must lie in 0..N-1"):
                dk.build_complex(cloud, lm, 0.1)
            with pytest.raises(ValidationError, match="N = 100 points"):
                dk.epsilon_barcode(cloud, lm, [0.1, 0.2])
        with pytest.raises(ValidationError, match="must lie in 0..N-1"):
            dk.build_complex(np.zeros((0, 2)), dk.LandmarkSet((0,), "random"), 0.1)

    def test_non_integer_indices_rejected(self):
        for indices in ((1.5, 2), (0, 2.0), ("0", 1), (True, 2), (0, np.bool_(False))):
            with pytest.raises(ValidationError, match="landmark index must be an integer"):
                dk.LandmarkSet(indices=indices, strategy="equally_spaced")
        lm = dk.LandmarkSet(indices=(np.int64(0), np.int32(5)), strategy="random")
        cloud = np.arange(10.0)[:, None]
        assert dk.build_complex(cloud, lm, 5.0).edges.tolist() == [[0, 1]]

    def test_scales_checked_before_the_cloud(self):
        cloud = np.random.default_rng(25).normal(size=(30, 2))
        lm = dk.LandmarkSet(indices=(0, 40), strategy="equally_spaced")
        cloud[3, 0] = np.nan
        with pytest.raises(ValidationError, match="epsilon must be >= 0"):
            dk.build_complex(cloud, lm, -0.1)
        with pytest.raises(ValidationError, match="epsilon must be finite, got inf"):
            dk.build_complex(cloud, lm, np.inf)
        with pytest.raises(ValidationError, match="strictly ascending"):
            dk.epsilon_barcode(cloud, lm, [0.5, 0.1])
        with pytest.raises(ValidationError, match="nonempty"):
            dk.epsilon_barcode(cloud, lm, [])
        with pytest.raises(ValidationError, match="finite values"):
            dk.epsilon_barcode(cloud, lm, [0.1, 0.5])


class TestFuzzyWitnessSets:
    def test_zero_eps_unique_membership(self):
        rng = np.random.default_rng(1)
        cloud = rng.normal(size=(40, 3))
        lm = dk.select_landmarks(cloud, 8, "max_min")
        member = fuzzy_witness_sets(cloud, lm, 0.0)
        assert np.array_equal(member.sum(axis=0), np.ones(40))

    def test_saturating_eps_all_members(self):
        rng = np.random.default_rng(2)
        cloud = rng.normal(size=(30, 2))
        lm = dk.select_landmarks(cloud, 5)
        diameter = dk.scaled_epsilon(1.0, cloud)
        assert fuzzy_witness_sets(cloud, lm, diameter).all()

    def test_two_landmark_sketch(self):
        # witness nearest l1; l2 within its nearest distance plus eps,
        # so the pair shares the witness and the edge appears
        cloud = np.array([[0.5, 0.0], [0.0, 0.0], [2.0, 0.0]])
        lm = dk.LandmarkSet(indices=(1, 2), strategy="equally_spaced")
        member = fuzzy_witness_sets(cloud, lm, 1.2)
        assert member[0, 0] and member[1, 0]
        snap = dk.build_complex(cloud, lm, 1.2)
        assert (0, 1) in edge_set(snap)
        assert dk.build_complex(cloud, lm, 0.5).edges.shape[0] == 0

    def test_every_witness_has_a_home(self):
        rng = np.random.default_rng(3)
        cloud = rng.normal(size=(100, 2))
        lm = dk.select_landmarks(cloud, 12)
        member = fuzzy_witness_sets(cloud, lm, 0.0)
        assert member.any(axis=0).all()


class TestBuildComplex:
    def test_single_landmark(self):
        cloud = np.random.default_rng(4).normal(size=(10, 2))
        snap = dk.build_complex(cloud, dk.select_landmarks(cloud, 1), 1.0)
        assert snap.vertices == 1
        assert snap.edges.shape[0] == 0
        assert snap.triangles.shape[0] == 0

    def test_three_mutual_landmarks_form_triangle(self):
        cloud = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8], [0.5, 0.3]])
        lm = dk.LandmarkSet(indices=(0, 1, 2), strategy="equally_spaced")
        snap = dk.build_complex(cloud, lm, 5.0)
        assert triangle_set(snap) == {(0, 1, 2)}

    def test_clique_property_on_random_complexes(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            cloud = rng.normal(size=(60, 2))
            lm = dk.select_landmarks(cloud, 10)
            snap = dk.build_complex(cloud, lm, rng.uniform(0.05, 1.0))
            assert clique_property_holds(snap)

    def test_edge_monotonicity_in_eps(self):
        rng = np.random.default_rng(6)
        cloud = rng.normal(size=(80, 2))
        lm = dk.select_landmarks(cloud, 12)
        prev_edges = set()
        prev_b0 = 13
        for eps in (0.0, 0.1, 0.3, 0.8, 2.0):
            snap = dk.build_complex(cloud, lm, eps)
            edges = edge_set(snap)
            assert prev_edges <= edges
            b0, _ = dk.betti_numbers(snap)
            assert b0 <= prev_b0
            prev_edges, prev_b0 = edges, b0


class TestBettiNumbers:
    def test_isolated_vertices(self):
        snap = snapshot_from_edges(6, [])
        assert dk.betti_numbers(snap) == (6, 0)

    def test_four_cycle_has_one_hole(self):
        snap = snapshot_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert dk.betti_numbers(snap) == (1, 1)

    def test_filled_triangle_is_trivial(self):
        snap = snapshot_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert dk.betti_numbers(snap) == (1, 0)

    def test_matches_brute_force_on_random_complexes(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            snap = random_clique_snapshot(rng)
            b0, b1, _ = brute_force_homology(snap)
            assert dk.betti_numbers(snap) == (b0, b1)

    def test_reads_the_clique_complex_of_the_edges(self):
        # triangles are reported, not read: a snapshot that lists none or
        # only some of its 3-cliques has the Betti numbers of all of them
        for v, edges in ((3, [(0, 1), (1, 2), (0, 2)]),
                         (4, list(itertools.combinations(range(4), 2)))):
            filled = snapshot_from_edges(v, edges)
            for keep in (0, 2):
                snap = WitnessComplexSnapshot(epsilon=0.0, vertices=v, edges=filled.edges,
                                              triangles=filled.triangles[:keep])
                assert dk.betti_numbers(snap) == brute_force_homology(filled)[:2] == (1, 0)

    def test_euler_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            snap = random_clique_snapshot(rng)
            b0, b1, rank2 = brute_force_homology(snap)
            v, e, t = snap.vertices, snap.edges.shape[0], snap.triangles.shape[0]
            assert v - e + t == b0 - b1 + (t - rank2)


class TestEpsilonBarcode:
    def test_single_grid_value_counts_bettis(self):
        rng = np.random.default_rng(9)
        cloud = rng.normal(size=(60, 2))
        lm = dk.select_landmarks(cloud, 10)
        bc0, bc1 = dk.epsilon_barcode(cloud, lm, [0.2])
        snap = dk.build_complex(cloud, lm, 0.2)
        b0, b1 = dk.betti_numbers(snap)
        assert all(death is None for _, death in bc0.intervals)
        assert bc0.count_at(0.2) == b0
        assert bc1.count_at(0.2) == b1

    def test_counts_recovered_at_every_grid_point(self):
        rng = np.random.default_rng(10)
        cloud = rng.normal(size=(120, 2))
        lm = dk.select_landmarks(cloud, 15)
        grid = [0.01, 0.05, 0.1, 0.2, 0.4, 0.8, 1.5]
        bc0, bc1 = dk.epsilon_barcode(cloud, lm, grid)
        for eps in grid:
            b0, b1 = dk.betti_numbers(dk.build_complex(cloud, lm, eps))
            assert bc0.count_at(eps) == b0
            assert bc1.count_at(eps) == b1

    def test_saturating_endpoint_is_acyclic(self):
        rng = np.random.default_rng(11)
        cloud = rng.normal(size=(80, 3))
        lm = dk.select_landmarks(cloud, 12)
        big = dk.scaled_epsilon(2.0, cloud)
        bc0, bc1 = dk.epsilon_barcode(cloud, lm, [0.01, big])
        assert bc0.count_at(big) == 1
        assert bc1.count_at(big) == 0

    def test_grid_must_ascend(self):
        cloud = np.random.default_rng(12).normal(size=(30, 2))
        lm = dk.select_landmarks(cloud, 5)
        with pytest.raises(ValidationError):
            dk.epsilon_barcode(cloud, lm, [0.5, 0.1])

    def test_csv_rows(self):
        bc = dk.Barcode(dimension=1, intervals=((0.1, 0.5), (0.2, None)))
        rows = list(bc.to_csv_rows())
        assert rows[0] == "dim,birth,death"
        assert rows[1] == "1,0.1,0.5"
        assert rows[2] == "1,0.2,inf"


class TestScaledEpsilon:
    def test_reconstruction_diameter_is_sqrt_m_times_range(self):
        rng = np.random.default_rng(13)
        values = rng.uniform(-3.0, 5.0, size=500)
        for m in (1, 2, 4):
            cloud = delay_matrix(values, m, 3)
            got = dk.scaled_epsilon(1.0, cloud)
            spread = cloud[:, 0].max() - cloud[:, 0].min()
            # each axis spans nearly the full data range
            assert got == pytest.approx(np.sqrt(m) * spread, rel=0.01)

    def test_zero_fraction(self):
        assert dk.scaled_epsilon(0.0, np.ones((4, 2))) == 0.0

    def test_lorenz63_cloud_diameter(self, lorenz63_traj_20k):
        diam = dk.scaled_epsilon(1.0, lorenz63_traj_20k)
        assert 70.0 < diam < 80.0  # bounding-box diagonal of the attractor


class TestEdgeLifespan:
    def test_saturated_scale_gives_full_span(self):
        rng = np.random.default_rng(14)
        values = rng.normal(size=400)
        spans = dk.edge_lifespan_diagram(values, range(1, 5), tau=2, xi=2.0, ell=6)
        off_diag = spans[~np.eye(6, dtype=bool)]
        assert np.all(off_diag == 4)

    def test_single_dimension_range(self):
        rng = np.random.default_rng(15)
        values = rng.normal(size=300)
        spans = dk.edge_lifespan_diagram(values, [1], tau=1, xi=0.05, ell=8)
        assert set(np.unique(spans)) <= {0, 1}

    def test_lorenz_most_short_lived_edges_exist_only_at_m1(self, lorenz63_20k):
        values = lorenz63_20k.values
        tau, ell, dims = 3, 198, range(1, 9)
        spans = dk.edge_lifespan_diagram(values, dims, tau=tau,
                                         xi=0.0054, ell=ell)
        # recompute per-dimension adjacency to locate the lifespan-1 edges
        shortest = values.size - 7 * tau
        stride = shortest // ell
        lm = dk.LandmarkSet(indices=tuple(i * stride for i in range(ell)),
                            strategy="equally_spaced")
        present = {}
        for m in dims:
            cloud = delay_matrix(values, m, tau)
            eps = dk.scaled_epsilon(0.0054, cloud)
            present[m] = edge_set(dk.build_complex(cloud, lm, eps))
        one_lived = [(i, j) for i in range(ell) for j in range(i + 1, ell)
                     if spans[i, j] == 1]
        assert len(one_lived) > 300  # a large short-lived population
        only_m1 = [e for e in one_lived
                   if e in present[1]
                   and all(e not in present[m] for m in list(dims)[1:])]
        assert len(only_m1) > len(one_lived) / 2

    def test_repeated_dimension_rejected(self):
        values = np.random.default_rng(26).normal(size=300)
        for m_range in ([2, 2, 2, 2], [1, 1, 2], (3, 1, 3)):
            with pytest.raises(ValidationError, match="repeat a dimension"):
                dk.edge_lifespan_diagram(values, m_range, tau=1, xi=2.0, ell=5)
        spans = dk.edge_lifespan_diagram(values, [2, 1], tau=1, xi=2.0, ell=5)
        assert spans[~np.eye(5, dtype=bool)].tolist() == [2] * 20

    def test_too_short_reconstruction_rejected(self):
        with pytest.raises(ValidationError):
            dk.edge_lifespan_diagram(np.arange(50.0), range(1, 9), tau=10,
                                     xi=0.01, ell=10)


class TestLorenzHomology:
    def test_reduced_reconstruction_snapshot_size(self, lorenz63_20k):
        # 2D reconstruction at the sampling-scaled delay; the useful scale
        # band resolves both holes with a complex of modest size
        cloud = delay_matrix(lorenz63_20k.values, 2, 3)
        lm = dk.select_landmarks(cloud, 198)
        eps = dk.scaled_epsilon(0.0054, cloud)
        snap = dk.build_complex(cloud, lm, eps)
        total = snap.vertices + snap.edges.shape[0] + snap.triangles.shape[0]
        assert 500 <= total <= 20000
        assert dk.betti_numbers(snap) == (1, 2)


class TestChunkedPassMatchesDenseOracle:
    def test_births_threshold_to_the_dense_adjacency(self, small_chunks,
                                                     lorenz63_traj_20k):
        cases = list(random_cases()) + list(lorenz_cases(lorenz63_traj_20k))
        for cloud, lm, grid in cases:
            births = float_edge_births(cloud, lm, grid[-1])
            geom = DenseWitnessGeometry(cloud, lm)
            for eps in grid:
                assert np.array_equal(births <= eps, np.triu(geom.adjacency(eps), 1))
            assert_levels_threshold_to_the_dense_adjacency(cloud, lm, grid)

    def test_barcode_intervals_match_the_boundary_reduction(self, small_chunks,
                                                           lorenz63_traj_20k):
        cases = list(random_cases()) + list(lorenz_cases(lorenz63_traj_20k))
        for cloud, lm, grid in cases:
            want = boundary_reduction_barcode(
                float_edge_births(cloud, lm, grid[-1]), grid)
            got = dk.epsilon_barcode(cloud, lm, grid)
            assert [list(bc.intervals) for bc in got] == want

    def test_barcode_counts_on_random_clouds(self, small_chunks):
        for cloud, lm, grid in random_cases():
            got = dk.epsilon_barcode(cloud, lm, grid)
            want = dense_barcode(cloud, lm, grid)
            for eps in grid:
                assert [bc.count_at(eps) for bc in got] == \
                    [bc.count_at(eps) for bc in want]

    def test_barcode_counts_on_lorenz63(self, small_chunks, lorenz63_traj_20k):
        for cloud, lm, grid in lorenz_cases(lorenz63_traj_20k):
            got = dk.epsilon_barcode(cloud, lm, grid)
            want = dense_barcode(cloud, lm, grid)
            assert max(want[1].count_at(eps) for eps in grid) > 0
            for eps in grid:
                assert [bc.count_at(eps) for bc in got] == \
                    [bc.count_at(eps) for bc in want]

    def test_build_complex_and_memberships(self, small_chunks, lorenz63_traj_20k):
        cases = list(random_cases()) + list(lorenz_cases(lorenz63_traj_20k))
        for cloud, lm, grid in cases:
            geom = DenseWitnessGeometry(cloud, lm)
            for eps in grid[::9]:
                snap = dk.build_complex(cloud, lm, eps)
                want = snapshot_from_adjacency(geom.adjacency(eps))
                assert np.array_equal(snap.edges, want.edges)
                assert np.array_equal(snap.triangles, want.triangles)
                assert np.array_equal(fuzzy_witness_sets(cloud, lm, eps),
                                      geom.membership(eps))

    def test_edge_lifespan_matrix(self, small_chunks, lorenz63_20k):
        values = lorenz63_20k.values[:3000]
        for xi in (0.003, 0.0054, 0.02):
            got = dk.edge_lifespan_diagram(values, range(1, 6), tau=3, xi=xi, ell=40)
            assert np.array_equal(got, dense_lifespans(values, range(1, 6), 3, xi, 40))


def float_neighbours(values, steps=2):
    """Each value and the ``steps`` floats on either side of it."""
    out = [values]
    up = down = values
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def root_holds(c, t):
    """The membership predicate on a squared distance c at threshold t."""
    return np.sqrt(np.maximum(c, 0.0)) <= t


def step_floats(x, k):
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


thresholds = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1.3407807929942596e154,
                     1.7976931348623157e308, np.inf]),
    st.floats(5e-324, 2.2250738585072014e-308),  # subnormal: t * t underflows
    st.floats(2.2250738585072014e-308, 1e150),
    st.floats(1e150, 1.7976931348623157e308),    # huge: t * t overflows
)


class TestRootBound:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(thresholds, st.integers(-3, 3),
                              st.floats(allow_nan=False)), min_size=1, max_size=8))
    def test_largest_square_whose_root_stays_within(self, cases):
        t = np.array([case[0] for case in cases])
        bound = topology._root_bound(t)
        assert np.all(root_holds(bound, t))
        with np.errstate(over="ignore"):
            above = np.nextafter(bound, np.inf)
            squares = t * t
            # squares near t * t and arbitrary floats, negatives and inf included
            near = np.array([step_floats(sq, k) for sq, (_, k, _) in zip(squares, cases)])
        assert np.all((bound == np.inf) | ~root_holds(above, t))
        for c in (near, np.array([case[2] for case in cases]), bound, above,
                  np.nextafter(bound, -np.inf)):
            assert np.array_equal(c <= bound, root_holds(c, t))

    def test_known_bounds(self):
        t = np.array([np.nan, 0.0, 5e-324, 1.0, 1e300, np.inf])
        bound = topology._root_bound(t)
        assert np.isnan(bound[0])
        # sqrt(1 + 2**-52) rounds down to 1; every positive float's root
        # exceeds a subnormal; the largest float's root is about 1.3e154
        assert bound[1:].tolist() == [0.0, 0.0, np.nextafter(1.0, 2.0),
                                      np.finfo(float).max, np.inf]


class TestExactThresholds:
    def test_scales_follow_the_float_predicate(self):
        rng = np.random.default_rng(17)
        nearest = rng.uniform(0.1, 10.0, 20000) * 10.0 ** rng.integers(-3, 4, 20000)
        gap = nearest * 10.0 ** rng.uniform(-15, 1, 20000)
        dist = nearest + gap
        naive = dist - nearest
        # the subtraction misjudges the predicate at some of these scales
        eps = float_neighbours(naive).reshape(-1, naive.size)
        assert np.any((naive <= eps) != (dist <= nearest + eps))
        scale = membership_scales(dist, nearest)
        for e in float_neighbours(scale).reshape(-1, scale.size):
            assert np.array_equal(scale <= e, dist <= nearest + e)
        for e in eps:
            assert np.array_equal(scale <= e, dist <= nearest + e)

    def test_levels_follow_the_float_predicate(self):
        rng = np.random.default_rng(20)
        nearest = rng.uniform(0.1, 10.0, 500) * 10.0 ** rng.integers(-3, 4, 500)
        dist = nearest + nearest * 10.0 ** rng.uniform(-15, 1, 500)
        naive = dist - nearest
        # every seed and its float neighbours are grid values, so the
        # searchsorted seed lands next to the answer as often as on it
        grid = np.unique(float_neighbours(naive))
        grid = grid[grid <= np.quantile(naive, 0.9)]
        keep = dist <= nearest + grid[-1]
        dist, nearest = dist[keep], nearest[keep]
        level = topology._membership_levels(dist, nearest, grid)
        holds = dist[:, None] <= nearest[:, None] + grid[None, :]
        assert np.array_equal(level, holds.argmax(axis=1))
        assert np.any(level != np.searchsorted(grid, dist - nearest))

    def test_clouds_where_subtraction_disagrees(self):
        rng = np.random.default_rng(18)
        found = 0
        for _ in range(40):
            cloud = rng.uniform(-1.0, 1.0, size=(24, 2)) * 10.0 ** rng.integers(-2, 3)
            lm = dk.select_landmarks(cloud, 6, "random", seed=1)
            geom = DenseWitnessGeometry(cloud, lm)
            naive = geom.dist - geom.nearest[None, :]
            candidates = np.unique(float_neighbours(naive.ravel(), steps=1))
            candidates = candidates[candidates >= 0]
            bad = [e for e in candidates
                   if np.any((naive <= e) != geom.membership(e))]
            if not bad:
                continue
            found += 1
            births = float_edge_births(cloud, lm, max(bad))
            for e in bad:
                assert np.array_equal(births <= e, np.triu(geom.adjacency(e), 1))
            assert_levels_threshold_to_the_dense_adjacency(cloud, lm, bad)
            got = dk.epsilon_barcode(cloud, lm, bad)
            want = dense_barcode(cloud, lm, bad)
            for e in bad:
                assert [bc.count_at(e) for bc in got] == [bc.count_at(e) for bc in want]
        assert found > 0

    def test_lattice_ties_at_grid_values(self, small_chunks):
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(7.0))
        for cloud in (np.column_stack([xs.ravel(), ys.ravel()]),
                      np.column_stack([xs.ravel(), ys.ravel()]) * 0.1 + 3.0):
            lm = dk.select_landmarks(cloud, 12, "equally_spaced")
            geom = DenseWitnessGeometry(cloud, lm)
            # exact tie values: every witness's membership scale
            grid = np.unique(geom.dist - geom.nearest[None, :]).tolist()
            births = float_edge_births(cloud, lm, grid[-1])
            for e in np.unique(float_neighbours(np.array(grid), steps=1)):
                if 0 <= e <= grid[-1]:
                    assert np.array_equal(births <= e, np.triu(geom.adjacency(e), 1))
            assert_levels_threshold_to_the_dense_adjacency(cloud, lm, grid)
            got = dk.epsilon_barcode(cloud, lm, grid)
            want = dense_barcode(cloud, lm, grid)
            for e in grid:
                assert [bc.count_at(e) for bc in got] == [bc.count_at(e) for bc in want]


def lattice_clouds():
    """A 9-by-7 lattice, scaled and shifted, and shifted by 10^7, with
    twelve landmarks and a grid of every membership scale: exact ties."""
    xs, ys = np.meshgrid(np.arange(9.0), np.arange(7.0))
    lattice = np.column_stack([xs.ravel(), ys.ravel()])
    for cloud in (lattice, lattice * 0.1 + 3.0, lattice + 1e7):
        lm = dk.select_landmarks(cloud, 12, "equally_spaced")
        geom = DenseWitnessGeometry(cloud, lm)
        yield cloud, lm, np.unique(geom.dist - geom.nearest[None, :]).tolist()


class TestOneLevelKernel:
    def test_lattice_ties(self, small_chunks):
        for cloud, lm, grid in lattice_clouds():
            assert_one_level_grids_match_the_filtration(cloud, lm, grid)

    def test_cloud_translated_by_ten_million(self, small_chunks):
        cloud = np.random.default_rng(27).uniform(-10.0, 10.0, size=(80, 3))
        lm = dk.select_landmarks(cloud, 14, "max_min")
        moved = cloud + 1e7
        grid = bench_grid(moved, 30, 1e-3, 0.5)
        assert_one_level_grids_match_the_filtration(moved, lm, grid)


class TestLandmarkRowsMatchThePairScatter:
    def test_lattice_ties(self, small_chunks):
        sizes = []
        for cloud, lm, grid in lattice_clouds():
            sizes.append(len(grid))
            assert_levels_match_the_pair_scatter(cloud, lm, grid)
        # level matrices of uint8 and uint16
        assert sizes[:2] == [254, 298]

    def test_cloud_translated_by_ten_million(self, small_chunks):
        cloud = np.random.default_rng(27).uniform(-10.0, 10.0, size=(80, 3))
        lm = dk.select_landmarks(cloud, 14, "max_min")
        moved = cloud + 1e7
        for hi in (0.5, 1.0):
            assert_levels_match_the_pair_scatter(moved, lm, bench_grid(moved, 30, 1e-3, hi))

    def test_random_clouds(self, small_chunks):
        for cloud, lm, grid in random_cases():
            assert_levels_match_the_pair_scatter(cloud, lm, grid)
            # up to the diameter every witness holds every landmark
            levels = assert_levels_match_the_pair_scatter(
                cloud, lm, bench_grid(cloud, 40, 1e-3, 1.0))
            assert np.all(levels[np.triu_indices(len(lm), 1)] < 40)

    def test_lorenz_clouds_up_to_the_diameter(self, lorenz63_traj_20k):
        for cloud, lm, _ in lorenz_cases(lorenz63_traj_20k):
            for hi in (0.05, 0.2, 1.0):
                assert_levels_match_the_pair_scatter(cloud, lm, bench_grid(cloud, 100, 2e-4, hi))

    @pytest.mark.parametrize("size, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_level_matrix_dtype_boundary(self, small_chunks, size, dtype):
        cloud = np.random.default_rng(31).normal(size=(200, 2))
        lm = dk.select_landmarks(cloud, 30, "max_min")
        births = float_edge_births(cloud, lm, np.inf)
        # every grid value is some pair's birth, so every level is used
        grid = np.unique(births[np.isfinite(births)])[:size]
        assert grid.size == size and np.min_scalar_type(size) == dtype
        levels = assert_levels_match_the_pair_scatter(cloud, lm, grid)
        assert np.array_equal(np.unique(levels), np.arange(size + 1))


class TestCofaceReductionMatchesTheTriangleList:
    def test_lattice_ties(self, small_chunks):
        for cloud, lm, grid in lattice_clouds():
            assert dk.epsilon_barcode(cloud, lm, grid) == \
                triangle_list_barcode(cloud, lm, grid)

    def test_cloud_translated_by_ten_million(self, small_chunks):
        cloud = np.random.default_rng(27).uniform(-10.0, 10.0, size=(80, 3))
        lm = dk.select_landmarks(cloud, 14, "max_min")
        moved = cloud + 1e7
        for hi in (0.5, 1.0):
            grid = bench_grid(moved, 30, 1e-3, hi)
            assert dk.epsilon_barcode(moved, lm, grid) == \
                triangle_list_barcode(moved, lm, grid)

    def test_lorenz_clouds_up_to_the_diameter(self, lorenz63_traj_20k):
        for cloud, lm, _ in lorenz_cases(lorenz63_traj_20k):
            for hi in (0.05, 0.2, 1.0):
                grid = bench_grid(cloud, 100, 2e-4, hi)
                got = dk.epsilon_barcode(cloud, lm, grid)
                assert got == triangle_list_barcode(cloud, lm, grid)
                assert got[1].intervals


@st.composite
def clouds_and_grids(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 3))
    # quarter-lattice coordinates and grid values give exact ties
    coords = draw(st.lists(st.integers(-12, 12), min_size=n * d, max_size=n * d))
    cloud = np.array(coords, dtype=np.float64).reshape(n, d) / 4
    ell = draw(st.integers(1, n))
    scales = st.one_of(st.integers(0, 40).map(lambda k: k / 4),
                       st.floats(0.0, 10.0, allow_nan=False))
    grid = sorted(set(draw(st.lists(scales, min_size=1, max_size=10))))
    extra = draw(st.lists(scales, max_size=6))
    return cloud, dk.select_landmarks(cloud, ell), grid, sorted(set(grid) | set(extra))


class TestBarcodeProperties:
    def test_barcode_properties(self, monkeypatch):
        monkeypatch.setattr(topology, "_CHUNK", 7)

        @settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @given(clouds_and_grids())
        def run(case):
            cloud, lm, grid, finer = case
            bars = dk.epsilon_barcode(cloud, lm, grid)
            finer_bars = dk.epsilon_barcode(cloud, lm, finer)
            assert bars == triangle_list_barcode(cloud, lm, grid)
            assert finer_bars == triangle_list_barcode(cloud, lm, finer)
            for eps in grid:
                counts = [bc.count_at(eps) for bc in bars]
                snap = dk.build_complex(cloud, lm, eps)
                assert tuple(counts) == dk.betti_numbers(snap)
                assert counts == [bc.count_at(eps) for bc in finer_bars]
            for barcodes, scales in ((bars, grid), (finer_bars, finer)):
                for birth, death in (iv for bc in barcodes for iv in bc.intervals):
                    assert birth in scales
                    assert death is None or (death in scales and birth < death)

        run()


class TestBatchedLandmarkRows:
    """Memberships are reduced in batches, flushed once they hold 8 blocks
    of witnesses or ell * _CHUNK memberships, and at the end of the pass."""

    def test_batches_match_the_gram_and_pair_scatter_oracles(self, monkeypatch):
        chunk = 2
        monkeypatch.setattr(topology, "_CHUNK", chunk)
        reduce_batch, flushes = topology._reduce_batch, []

        def recording(levels, batch, rows, top):
            flushes.append((rows, [lm.size for lm, _, _ in batch]))
            reduce_batch(levels, batch, rows, top)

        monkeypatch.setattr(topology, "_reduce_batch", recording)
        kinds = set()

        @settings(max_examples=120, deadline=None, derandomize=True, database=None)
        @given(clouds_and_grids())
        def run(case):
            cloud, lm, grid, finer = case
            for eps in grid:
                flushes.clear()
                assert np.array_equal(topology._edge_levels(cloud, lm, [eps]),
                                      gram_levels(cloud, lm, eps))
                assert sum(rows for rows, _ in flushes) == cloud.shape[0]
                for pos, (rows, counts) in enumerate(flushes):
                    last, count = pos == len(flushes) - 1, sum(counts)
                    # a batch takes blocks until it reaches a bound
                    assert rows <= 8 * chunk and count - counts[-1] < len(lm) * chunk
                    if count >= len(lm) * chunk:
                        kinds.add("memberships")
                    elif rows == 8 * chunk and not last:
                        kinds.add("witnesses")
                    else:
                        # only the batch at the end of the pass is short
                        assert last
                        kinds.add("ragged")
            assert np.array_equal(topology._edge_levels(cloud, lm, finer),
                                  pair_scatter_levels(cloud, lm, finer))

        run()
        assert kinds == {"witnesses", "memberships", "ragged"}


# Witness distances after any translation of the cloud agree with direct
# differences of the untranslated points within this many units of
# 1 + max |coordinate|; the |l|^2 + |w|^2 - 2 l.w rounding reaches about
# sqrt(machine epsilon) times the cloud's extent when two points nearly meet.
DISTANCE_TOLERANCE = 1e-6


def translated_distance_error(cloud, lm, offset):
    """Largest gap between the witness-pass distances of ``cloud + offset``
    and direct-difference distances ``|l - w|`` of the untranslated cloud,
    in units of 1 + max |coordinate|."""
    direct = np.linalg.norm(cloud[list(lm.indices)][:, None, :] - cloud[None, :, :],
                            axis=2)
    # the blocks are squared distances in a reused buffer: root each in turn
    got = np.concatenate([np.sqrt(np.maximum(sq, 0.0)) for sq, _ in
                          topology._witness_blocks(cloud + offset, lm)], axis=1)
    return np.abs(got - direct).max() / (1.0 + np.abs(cloud).max())


@st.composite
def translated_clouds(draw):
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 3))
    coords = st.lists(st.floats(-10.0, 10.0), min_size=n * d, max_size=n * d)
    cloud = np.array(draw(coords)).reshape(n, d)
    offset = st.lists(st.floats(-1e7, 1e7), min_size=d, max_size=d)
    return cloud, dk.select_landmarks(cloud, draw(st.integers(1, n))), np.array(draw(offset))


class TestTranslationInvariance:
    def test_distances_match_direct_differences(self, monkeypatch):
        monkeypatch.setattr(topology, "_CHUNK", 7)

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(translated_clouds())
        def run(case):
            assert translated_distance_error(*case) <= DISTANCE_TOLERANCE

        run()

    def test_offset_of_ten_million(self, monkeypatch):
        monkeypatch.setattr(topology, "_CHUNK", 7)
        cloud = np.random.default_rng(21).uniform(-10.0, 10.0, size=(60, 3))
        lm = dk.select_landmarks(cloud, 12, "max_min")
        for offset in (1e7, -1e7, np.array([1e7, -3e6, 0.5])):
            assert translated_distance_error(cloud, lm, offset) <= DISTANCE_TOLERANCE

    def test_barcode_and_complex_ignore_translation(self, lorenz63_traj_20k):
        cloud = lorenz63_traj_20k[:2000]
        lm = dk.select_landmarks(cloud, 60, "max_min")
        grid = bench_grid(cloud)
        moved = cloud + 1e6
        assert dk.epsilon_barcode(moved, lm, grid) == dk.epsilon_barcode(cloud, lm, grid)
        for eps in grid[::20]:
            assert np.array_equal(dk.build_complex(moved, lm, eps).edges,
                                  dk.build_complex(cloud, lm, eps).edges)


def blocks_and_levels(cloud, lm, grid):
    """Copies of every (sq, nearest) block of one pass, then the edge
    levels on ``grid`` and on its first value alone."""
    blocks = [(sq.tobytes(), nearest.tobytes())
              for sq, nearest in topology._witness_blocks(cloud, lm)]
    return (blocks, topology._edge_levels(cloud, lm, grid).tobytes(),
            topology._edge_levels(cloud, lm, grid[:1]).tobytes())


def assert_pipeline_matches_inline(monkeypatch, cloud, lm, grid):
    """The pass one block ahead on a helper thread gives the bytes of the
    pass that computes each block when it is asked for."""
    monkeypatch.setattr(topology, "_usable_cores", lambda: 1)
    inline = blocks_and_levels(cloud, lm, grid)
    monkeypatch.setattr(topology, "_usable_cores", lambda: 2)
    assert blocks_and_levels(cloud, lm, grid) == inline


def many_block_cloud():
    """A Henon cloud of 10 full blocks and a ragged one."""
    x = dk.generate_map_trace(dk.MapSpec("henon", x0=(0.1, 0.1), n=10_501,
                                         transient=100))
    return delay_matrix(x.values, 2, 1)


class TestPipelinedPass:
    def test_hypothesis_clouds(self, monkeypatch):
        monkeypatch.setattr(topology, "_CHUNK", 7)

        @settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @given(clouds_and_grids())
        def run(case):
            cloud, lm, grid, _ = case
            assert_pipeline_matches_inline(monkeypatch, cloud, lm, grid)

        run()

    def test_lattice_ties(self, monkeypatch, small_chunks):
        for cloud, lm, grid in lattice_clouds():
            assert_pipeline_matches_inline(monkeypatch, cloud, lm, grid)

    def test_many_blocks(self, monkeypatch):
        cloud = many_block_cloud()
        lm = dk.select_landmarks(cloud, 60, "max_min")
        assert_pipeline_matches_inline(monkeypatch, cloud, lm, bench_grid(cloud, 20))

    @pytest.mark.parametrize("cores, n, helpers", [(2, 2049, 1), (8, 1025, 1),
                                                   (1, 2049, 0), (2, 1024, 0)])
    def test_helper_only_with_two_cores_and_two_blocks(self, monkeypatch, cores,
                                                       n, helpers):
        monkeypatch.setattr(topology, "_usable_cores", lambda: cores)
        cloud = np.random.default_rng(30).normal(size=(n, 2))
        lm = dk.select_landmarks(cloud, 10)
        threads = threading.active_count()
        running = [threading.active_count() - threads
                   for _ in topology._witness_blocks(cloud, lm)]
        assert running == [helpers] * len(running)
        assert threading.active_count() == threads

    def test_early_close_joins_the_helper(self, monkeypatch):
        monkeypatch.setattr(topology, "_usable_cores", lambda: 2)
        cloud = many_block_cloud()
        lm = dk.select_landmarks(cloud, 40)
        threads = threading.active_count()
        blocks = topology._witness_blocks(cloud, lm)
        next(blocks)
        assert threading.active_count() == threads + 1
        blocks.close()
        assert threading.active_count() == threads

    def test_helper_error_reaches_the_caller_and_joins_the_helper(self, monkeypatch):
        monkeypatch.setattr(topology, "_usable_cores", lambda: 2)
        cloud = many_block_cloud()
        lm = dk.select_landmarks(cloud, 40)
        matmul, calls = np.matmul, []

        def failing_on_the_third_block(*args, **kwargs):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise MemoryError("third block")
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", failing_on_the_third_block)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="third block"):
            topology._edge_levels(cloud, lm, [0.01, 0.02])
        assert threading.active_count() == threads
        # every block was computed off the calling thread
        assert threading.current_thread() not in calls

    def test_caller_error_joins_the_helper_once_the_pass_is_collected(self,
                                                                      monkeypatch):
        monkeypatch.setattr(topology, "_usable_cores", lambda: 2)
        cloud = many_block_cloud()
        lm = dk.select_landmarks(cloud, 40)
        threads = threading.active_count()

        def reduce_first_block():
            for _ in topology._witness_blocks(cloud, lm):
                raise ArithmeticError

        try:
            reduce_first_block()
        except ArithmeticError:
            pass
        gc.collect()
        assert threading.active_count() == threads


def test_build_complex_memory_is_bounded():
    # the dense geometry would hold 13 B per landmark-witness pair: 520 MB.
    # A pass holds three 200-by-_CHUNK float64 block buffers (4.7 MiB at
    # _CHUNK = 1024), two of them filled in turn, and a batch's 8 * _CHUNK
    # by 200 level matrix (1.6 MiB); it peaks at ~7.3 MiB.
    cloud = np.random.default_rng(19).uniform(size=(200_000, 2))
    lm = dk.select_landmarks(cloud, 200)
    eps = dk.scaled_epsilon(0.01, cloud)
    tracemalloc.start()
    try:
        snap = dk.build_complex(cloud, lm, eps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert snap.edges.shape[0] > 0
    assert peak < 8 * 2**20


def test_edge_levels_memory_does_not_grow_with_the_cloud():
    # Up to the diameter every witness holds every landmark, so a batch is
    # one block of 100-by-_CHUNK memberships, and the pass peaks at ~84
    # bytes per membership whatever the cloud size; the dense geometry
    # would hold 13 B per landmark-witness pair, 104 MB at N = 8*10^4.
    peaks = []
    for n in (20_000, 80_000):
        cloud = np.random.default_rng(19).uniform(size=(n, 2))
        lm = dk.select_landmarks(cloud, 100)
        grid = bench_grid(cloud, 100, 1e-3, 1.0)
        tracemalloc.start()
        try:
            levels = topology._edge_levels(cloud, lm, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(levels[np.triu_indices(100, 1)] < 100)
        peaks.append(peak)
    assert max(peaks) < 128 * 100 * topology._CHUNK
    assert abs(peaks[1] - peaks[0]) < 0.05 * peaks[0]


def test_saturated_barcode_memory_grows_as_ell_squared(lorenz63_traj_20k):
    # a list of every clique triangle grows as ell^3 (14.2 -> 112.8 MiB
    # here); the pass's block buffers, the level and position matrices and
    # a block of columns' position rows grow as ell * _CHUNK and ell^2
    cloud = lorenz63_traj_20k[:2000]
    grid = bench_grid(cloud, 100, 2e-4, 1.0)
    peaks = []
    for ell in (100, 200):
        lm = dk.select_landmarks(cloud, ell, "max_min")
        tracemalloc.start()
        try:
            bc0, _ = dk.epsilon_barcode(cloud, lm, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bc0.count_at(grid[-1]) == 1
        peaks.append(peak)
    assert peaks[1] <= 4 * peaks[0]
