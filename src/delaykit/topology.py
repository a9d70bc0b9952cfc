"""Fuzzy witness complexes of point clouds, their low homology over GF(2),
scale-sweep persistence barcodes, and dimension-sweep edge lifespans.

A witness complex takes its vertices from a small landmark subset of the
cloud; connectivity comes from the remaining points (the witnesses). Two
landmarks join when some witness lies within epsilon of its nearest-landmark
distance from both; triangles fill every 3-clique of the edge graph. Only
components (beta_0) and independent loops (beta_1) are computed, with exact
GF(2) arithmetic throughout.

Each complex or filtration is built in one pass over the witnesses in
fixed-size blocks, so no landmark-by-witness matrix is held for the whole
cloud (except the one ``fuzzy_witness_sets`` returns). A single scale ORs
each block's shared-witness test into the adjacency. A scale sweep instead
records each landmark pair's birth scale once, an edge filtration, and
reads the persistence pairs of the clique complexes off it, snapped to the
sweep's grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .timeseries import as_points, as_values, delay_matrix

__all__ = [
    "LandmarkSet",
    "WitnessComplexSnapshot",
    "Barcode",
    "select_landmarks",
    "fuzzy_witness_sets",
    "build_complex",
    "betti_numbers",
    "epsilon_barcode",
    "scaled_epsilon",
    "edge_lifespan_diagram",
]

LANDMARK_STRATEGIES = ("equally_spaced", "max_min", "random")


@dataclass(frozen=True)
class LandmarkSet:
    """Positions of the landmark points within the witness cloud."""

    indices: tuple
    strategy: str

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValidationError("landmark indices must be distinct")
        if len(self.indices) < 1:
            raise ValidationError("need at least one landmark")

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class WitnessComplexSnapshot:
    """The complex at one scale: vertex count, edges, clique triangles."""

    epsilon: float
    vertices: int
    edges: np.ndarray      # (E, 2) int, each row i < j
    triangles: np.ndarray  # (T, 3) int, each row i < j < k

    @property
    def edge_set(self) -> set:
        return {tuple(e) for e in self.edges}

    @property
    def triangle_set(self) -> set:
        return {tuple(t) for t in self.triangles}

    def clique_property_holds(self) -> bool:
        edges = self.edge_set
        return all(
            (t[0], t[1]) in edges and (t[0], t[2]) in edges and (t[1], t[2]) in edges
            for t in self.triangles
        )


@dataclass(frozen=True)
class Barcode:
    """Persistence intervals over a scale grid for one homology dimension.
    Both ends are grid values with birth < death; ``death`` is None for
    intervals still open at the grid's end."""

    dimension: int
    intervals: tuple

    def count_at(self, s: float) -> int:
        return sum(
            1
            for birth, death in self.intervals
            if birth <= s and (death is None or s < death)
        )

    def to_csv_rows(self):
        yield "dim,birth,death"
        for birth, death in self.intervals:
            d = "inf" if death is None else repr(death)
            yield f"{self.dimension},{birth!r},{d}"


def select_landmarks(cloud: np.ndarray, ell: int, strategy: str = "equally_spaced",
                     seed: int | None = None) -> LandmarkSet:
    """Choose ``ell`` landmark indices from the cloud.

    equally_spaced strides the cloud in temporal order (every
    floor(N/ell)-th point); max_min greedily adds the point farthest from
    the landmarks so far, seeded at index 0; random draws with the given
    seed. Everything is deterministic; distance ties resolve to the
    smallest index.
    """
    cloud = as_points(cloud)
    n = cloud.shape[0]
    if not 1 <= ell <= n:
        raise ValidationError(f"need 1 <= ell <= {n}, got {ell}")
    if strategy == "equally_spaced":
        stride = n // ell
        indices = tuple(i * stride for i in range(ell))
    elif strategy == "max_min":
        chosen = [0]
        dist = np.sqrt(np.sum((cloud - cloud[0]) ** 2, axis=1))
        for _ in range(ell - 1):
            nxt = int(np.argmax(dist))
            chosen.append(nxt)
            d_new = np.sqrt(np.sum((cloud - cloud[nxt]) ** 2, axis=1))
            dist = np.minimum(dist, d_new)
        indices = tuple(chosen)
    elif strategy == "random":
        if seed is None:
            raise ValidationError("random landmark selection requires a seed")
        rng = np.random.default_rng(seed)
        indices = tuple(sorted(int(i) for i in rng.choice(n, size=ell, replace=False)))
    else:
        raise ValidationError(f"unknown landmark strategy {strategy!r}")
    return LandmarkSet(indices=indices, strategy=strategy)


# Witnesses per block of the landmark-witness pass. A block holds ell-by-
# _CHUNK float64 distances and their temporaries, so memory is
# O(ell * _CHUNK + ell^2) whatever the cloud size.
_CHUNK = 4096


def _witness_blocks(cloud: np.ndarray, landmarks: LandmarkSet):
    """Yield (dist, nearest) for consecutive blocks of witnesses: the
    ell-by-c landmark-witness distances and each witness's distance to its
    nearest landmark."""
    cloud = as_points(cloud)
    lm = cloud[list(landmarks.indices)]
    lm_sq = np.sum(lm**2, axis=1)[:, None]
    for start in range(0, cloud.shape[0], _CHUNK):
        block = cloud[start:start + _CHUNK]
        # |l - w|^2 = |l|^2 + |w|^2 - 2 l.w via BLAS; cancellation can
        # leave tiny negatives, clipped before the root
        sq = lm_sq + np.sum(block**2, axis=1)[None, :] - 2.0 * (lm @ block.T)
        dist = np.sqrt(np.clip(sq, 0.0, None))
        yield dist, dist.min(axis=0)


def _check_epsilon(eps: float) -> None:
    if not np.isfinite(eps):
        raise ValidationError(f"epsilon must be finite, got {eps!r}")
    if eps < 0:
        raise ValidationError("epsilon must be >= 0")


def _memberships(cloud: np.ndarray, landmarks: LandmarkSet, eps: float):
    """Yield the fuzzy witness sets at one scale, one witness block at a
    time: entry (l, w) is True when witness w lies within ``eps`` of its
    nearest-landmark distance from landmark l."""
    _check_epsilon(eps)
    for dist, nearest in _witness_blocks(cloud, landmarks):
        yield dist <= nearest[None, :] + eps


def _adjacency(cloud: np.ndarray, landmarks: LandmarkSet, eps: float) -> np.ndarray:
    """Landmark pairs whose fuzzy witness sets intersect at one scale."""
    ell = len(landmarks)
    adj = np.zeros((ell, ell), dtype=bool)
    for member in _memberships(cloud, landmarks, eps):
        member = member.astype(np.float32)
        adj |= (member @ member.T) > 0.0
    np.fill_diagonal(adj, False)
    return adj


def fuzzy_witness_sets(cloud: np.ndarray, landmarks: LandmarkSet,
                       eps: float) -> np.ndarray:
    """Boolean membership matrix: entry (l, w) is True when witness w lies
    within ``eps`` of its nearest-landmark distance from landmark l.

    Every witness belongs at least to its nearest landmark's set.
    """
    return np.concatenate(list(_memberships(cloud, landmarks, eps)), axis=1)


def _membership_scales(dist: np.ndarray, nearest: np.ndarray) -> np.ndarray:
    """Elementwise smallest float eps >= 0 with ``dist <= nearest + eps``.

    This is the scale at which the single-scale predicate first admits a
    witness to a landmark's set. The predicate is monotone in eps, so
    thresholding these scales reproduces it at every float eps.
    ``dist - nearest`` can miss that float by rounding in either
    direction, so it only seeds the search: it is nudged up with
    ``nextafter`` until the predicate holds, then bisected down over the
    float lattice (non-negative floats order like their int64 bit
    patterns) towards a bound at which the predicate fails.
    """
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


def _edge_births(cloud: np.ndarray, landmarks: LandmarkSet,
                 eps_max: float) -> np.ndarray:
    """Edge filtration: entry (i, j), i < j, is the smallest scale at which
    landmarks i and j share a witness, min over witnesses w of
    max(a_iw, a_jw) with a the membership scale. Entries above
    ``eps_max``, the diagonal and the lower triangle are inf."""
    ell = len(landmarks)
    births = np.full((ell, ell), np.inf)
    flat = births.reshape(-1)
    for dist, nearest in _witness_blocks(cloud, landmarks):
        # memberships at eps_max, grouped by witness, landmarks ascending
        w, lm = np.nonzero((dist <= nearest[None, :] + eps_max).T)
        scale = _membership_scales(dist[lm, w], nearest[w])
        counts = np.bincount(w, minlength=dist.shape[1])
        starts = np.cumsum(counts) - counts
        for k in np.unique(counts[counts > 1]).tolist():
            first = starts[counts == k]
            iu, ju = np.triu_indices(k, 1)
            # batches of about ell * _CHUNK landmark pairs, like a distance block
            step = max(1, ell * _CHUNK // iu.size)
            for s in range(0, first.size, step):
                rows = first[s:s + step, None] + np.arange(k)
                pl, ps = lm[rows], scale[rows]
                np.minimum.at(flat, pl[:, iu] * ell + pl[:, ju],
                              np.maximum(ps[:, iu], ps[:, ju]))
    return births


def _edges_from_adjacency(adj: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(adj.shape[0], k=1)
    mask = adj[iu]
    return np.column_stack([iu[0][mask], iu[1][mask]]).astype(np.int64)


def _triangles_from_adjacency(adj: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Every 3-clique (i, j, k), i < j < k, grouped by edge (i, j) in the
    order of ``edges``, k ascending."""
    upper = np.triu(adj, 1)
    tris = [np.empty((0, 3), dtype=np.int64)]
    # common neighbours above j, for blocks of edges (ell * _CHUNK flags)
    for start in range(0, edges.shape[0], _CHUNK):
        block = edges[start:start + _CHUNK]
        rows, k = np.nonzero(upper[block[:, 0]] & upper[block[:, 1]])
        tris.append(np.column_stack([block[rows], k]))
    return np.concatenate(tris).astype(np.int64)


def build_complex(cloud: np.ndarray, landmarks: LandmarkSet,
                  eps: float) -> WitnessComplexSnapshot:
    """Lazy (clique) fuzzy witness complex at one scale.

    An edge joins two landmarks whose fuzzy witness sets intersect;
    triangles are exactly the 3-cliques of that graph. Higher simplices
    are never materialized, and the witnesses are visited in blocks, so
    no landmark-by-witness matrix is held for the whole cloud.
    """
    adj = _adjacency(cloud, landmarks, eps)
    edges = _edges_from_adjacency(adj)
    return WitnessComplexSnapshot(epsilon=eps, vertices=adj.shape[0], edges=edges,
                                  triangles=_triangles_from_adjacency(adj, edges))


def _merging_edges(vertices: int, edges: np.ndarray) -> np.ndarray:
    """Union-find over the edges in order: True where an edge joins two
    components; every other edge closes an independent cycle."""
    parent = list(range(vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    merges = np.zeros(edges.shape[0], dtype=bool)
    for pos, (i, j) in enumerate(edges.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            merges[pos] = True
    return merges


def _triangle_faces(vertices: int, edges: np.ndarray,
                    triangles: np.ndarray) -> np.ndarray:
    """(T, 3) positions in ``edges`` of each triangle's three edges."""
    pos = np.full((vertices, vertices), -1, dtype=np.int64)
    pos[edges[:, 0], edges[:, 1]] = np.arange(edges.shape[0])
    a, b, c = triangles.T
    return np.column_stack([pos[a, b], pos[a, c], pos[b, c]])


def _reduce_coboundaries(faces: np.ndarray, edge_count: int, columns: list):
    """Persistent cohomology reduction over GF(2) of edge coboundaries.

    ``faces`` holds each triangle's three edge positions, triangles in
    filtration order; ``columns`` lists the cycle-opening edges, youngest
    first (merging edges would reduce to zero, so they are cleared). A
    column is the set of triangles on its edge, its pivot the oldest; a
    column whose pivot is taken gets the owner's column added until its
    pivot is free or it is empty. Yields (edge, pivot triangle) for every
    column left nonzero: their number is the rank of the triangle boundary
    matrix, and they are its persistence pairs (the edge's cycle dies at
    the triangle). Most pivots are free at once, so this does far less
    work than reducing the boundary matrix's triangle columns.
    """
    flat = faces.reshape(-1)
    order = np.argsort(flat, kind="stable")
    bounds = np.searchsorted(flat[order], np.arange(edge_count + 1)).tolist()
    cofaces = order // 3  # grouped by edge, triangles ascending
    del order  # the generator's locals live until its last column
    pivots: dict = {}
    for e in columns:
        col = cofaces[bounds[e]:bounds[e + 1]]
        while col.size:
            p = int(col[0])  # columns stay sorted: the pivot is the oldest
            other = pivots.get(p)
            if other is None:
                pivots[p] = col
                yield e, p
                break
            col = np.setxor1d(col, other, assume_unique=True)


def betti_numbers(snapshot: WitnessComplexSnapshot) -> tuple[int, int]:
    """(beta_0, beta_1): components of the edge graph, and independent
    1-cycles after the GF(2) triangle boundaries are quotiented out."""
    v = snapshot.vertices
    edges = snapshot.edges
    cycles = np.flatnonzero(~_merging_edges(v, edges))
    faces = _triangle_faces(v, edges, snapshot.triangles)
    rank = sum(1 for _ in _reduce_coboundaries(faces, edges.shape[0],
                                               cycles[::-1].tolist()))
    return v - (edges.shape[0] - cycles.size), cycles.size - rank


def _snapped_barcode(grid: list, births: np.ndarray, deaths: np.ndarray,
                     dimension: int) -> Barcode:
    """Persistence pairs with each end moved up to the first grid value at
    or above it; a death past the grid's end leaves the interval open.
    Snapping keeps the count at every grid value; pairs whose ends meet
    are invisible on the grid and dropped."""
    g = np.asarray(grid)
    b = np.searchsorted(g, births).tolist()
    d = np.searchsorted(g, deaths).tolist()
    intervals = [(grid[x], None if y == len(grid) else grid[y])
                 for x, y in zip(b, d) if x < y]
    intervals.sort(key=lambda iv: (iv[0], np.inf if iv[1] is None else iv[1]))
    return Barcode(dimension=dimension, intervals=tuple(intervals))


def epsilon_barcode(cloud: np.ndarray, landmarks: LandmarkSet,
                    eps_grid) -> tuple[Barcode, Barcode]:
    """Persistence barcodes of the witness complexes over an ascending
    scale grid, for dimensions 0 and 1.

    The edge filtration (each landmark pair's smallest connecting scale)
    is computed once in one pass over the witnesses. Components come from
    union-find over the edges in birth order; cycles from a cohomology
    reduction of the cycle-opening edges, each triangle born with its
    youngest edge, whose pairs are the homology persistence pairs. Each
    persistence pair is then snapped to the grid (both ends up to the
    first grid value at or above them), so ``count_at`` at every grid
    value equals the Betti numbers of ``build_complex`` there.
    """
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValidationError("eps_grid must be nonempty")
    if any(b >= a for a, b in zip(grid[1:], grid[:-1])):
        raise ValidationError("eps_grid must be strictly ascending")
    for eps in grid:
        _check_epsilon(eps)
    ell = len(landmarks)
    births = _edge_births(cloud, landmarks, grid[-1])
    i, j = np.nonzero(np.isfinite(births))
    birth = births[i, j]
    order = np.lexsort((j, i, birth))
    edges = np.column_stack([i[order], j[order]])
    birth = birth[order]
    merges = _merging_edges(ell, edges)
    # every vertex is born at scale 0; each merging edge kills a component
    h0_deaths = np.concatenate([birth[merges], np.full(ell - merges.sum(), np.inf)])

    cycles = np.flatnonzero(~merges)
    deaths = np.full(edges.shape[0], np.inf)
    if cycles.size:
        adj = np.isfinite(births)
        adj |= adj.T
        faces = _triangle_faces(ell, edges, _triangles_from_adjacency(adj, edges))
        # a triangle is born with its youngest edge
        faces = faces[np.argsort(faces.max(axis=1), kind="stable")]
        for e, t in _reduce_coboundaries(faces, edges.shape[0], cycles[::-1].tolist()):
            deaths[e] = birth[faces[t].max()]
    return (_snapped_barcode(grid, np.zeros(ell), h0_deaths, 0),
            _snapped_barcode(grid, birth[cycles], deaths[cycles], 1))


def scaled_epsilon(xi: float, cloud: np.ndarray) -> float:
    """Scale parameter as a fixed fraction of the cloud diameter, taken as
    the bounding-box diagonal. For an m-dimensional delay reconstruction
    of scalar data this is exactly sqrt(m) * (x_max - x_min)."""
    if not np.isfinite(xi) or xi < 0:
        raise ValidationError(f"xi must be a finite number >= 0, got {xi!r}")
    cloud = as_points(cloud)
    if cloud.size == 0:
        raise ValidationError("cloud must be nonempty")
    extents = cloud.max(axis=0) - cloud.min(axis=0)
    return xi * float(np.sqrt(np.sum(extents**2)))


def edge_lifespan_diagram(series, m_range, tau: int, xi: float,
                          ell: int) -> np.ndarray:
    """Longest consecutive run of reconstruction dimensions in which each
    landmark pair stays connected.

    One landmark index schedule, equally spaced in time and valid for the
    shortest (largest-m) reconstruction, is reused at every dimension; the
    scale is re-derived at each m as ``xi`` times that reconstruction's
    diameter. Cell (i, j) of the returned ell-by-ell matrix is the edge's
    maximal lifespan in dimensions; 0 means the edge never appears.
    """
    values = as_values(series)
    m_values = sorted(int(m) for m in m_range)
    if not m_values or m_values[0] < 1:
        raise ValidationError("m_range must contain dimensions >= 1")
    if tau < 1:
        raise ValidationError("tau must be >= 1")
    if ell < 1:
        raise ValidationError("need at least one landmark")
    shortest = values.size - (m_values[-1] - 1) * tau
    if shortest < ell:
        raise ValidationError(
            f"reconstruction at m={m_values[-1]} has {shortest} points; "
            f"cannot place {ell} landmarks"
        )
    stride = shortest // ell
    landmarks = LandmarkSet(indices=tuple(i * stride for i in range(ell)),
                            strategy="equally_spaced")

    best = np.zeros((ell, ell), dtype=np.int64)
    run = np.zeros((ell, ell), dtype=np.int64)
    for m in m_values:
        cloud = delay_matrix(values, m, tau)
        eps = scaled_epsilon(xi, cloud)
        adj = _adjacency(cloud, landmarks, eps)
        run = np.where(adj, run + 1, 0)
        best = np.maximum(best, run)
    return best
