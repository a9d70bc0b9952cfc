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
cloud; each pass reuses the same three block buffers. With two usable
cores the pass runs one block ahead: a helper thread computes the next
block's distances while the caller reduces this one. Squared
distances are taken on coordinates centred on the landmark mean, so a
translated cloud gives the same distances to rounding. Only each witness's
nearest distance is a square root: a test ``sqrt(sq) <= t`` becomes the
exact test ``sq <= c``, c the largest float whose root is at most t.
Every analysis reads one kernel: the pass records, for each landmark pair,
the first grid level at which the pair shares a witness, an edge
filtration on a grid of scales, in ell steps per batch of blocks and ell
work per membership. A scale sweep reads the persistence pairs of the
clique complexes off it; a single scale is a grid of one level, whose
edges are the pairs at level 0. Clouds must be finite.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .timeseries import _usable_cores, as_count, as_points, as_values, delay_matrix

__all__ = [
    "LandmarkSet",
    "WitnessComplexSnapshot",
    "Barcode",
    "select_landmarks",
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
        for i in self.indices:
            as_count(i, "landmark index", low=None)
        if len(set(self.indices)) != len(self.indices):
            raise ValidationError("landmark indices must be distinct")
        if len(self.indices) < 1:
            raise ValidationError("need at least one landmark")

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class WitnessComplexSnapshot:
    """The complex at one scale: vertex count, edges, clique triangles.
    Betti numbers are those of the clique complex of ``edges``;
    ``triangles`` is reported, not read."""

    epsilon: float
    vertices: int
    edges: np.ndarray      # (E, 2) int, each row i < j
    triangles: np.ndarray  # (T, 3) int, each row i < j < k


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
    seed, an integer >= 0. Everything is deterministic; distance ties
    resolve to the smallest index. max_min needs ``ell`` distinct points
    (points closer than about 1e-162 count as one, their squared distance
    being 0).
    """
    cloud = as_points(cloud)
    n = cloud.shape[0]
    ell = as_count(ell, "ell")
    if ell > n:
        raise ValidationError(f"need 1 <= ell <= {n}, got {ell}")
    if strategy == "equally_spaced":
        stride = n // ell
        indices = tuple(i * stride for i in range(ell))
    elif strategy == "max_min":
        chosen = [0]
        dist = _distances_to(cloud, cloud[0])
        for _ in range(ell - 1):
            nxt = int(np.argmax(dist))
            if dist[nxt] == 0.0:
                # every point coincides with a landmark: chosen holds one
                # point of each distinct value
                raise ValidationError(f"max_min needs {ell} distinct points, "
                                      f"the cloud has {len(chosen)}")
            chosen.append(nxt)
            np.minimum(dist, _distances_to(cloud, cloud[nxt]), out=dist)
        indices = tuple(chosen)
    elif strategy == "random":
        if seed is None:
            raise ValidationError("random landmark selection requires a seed")
        rng = np.random.default_rng(as_count(seed, "seed", low=0))
        indices = tuple(sorted(int(i) for i in rng.choice(n, size=ell, replace=False)))
    else:
        raise ValidationError(f"unknown landmark strategy {strategy!r}")
    return LandmarkSet(indices=indices, strategy=strategy)


def _distances_to(cloud: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Euclidean distances from every row of the cloud to ``point``, equal
    bit for bit to ``np.sqrt(np.sum((cloud - point) ** 2, axis=1))``. Below
    8 columns numpy sums a row left to right, as the column loop does; the
    column loop avoids a reduction along the short axis."""
    if not 0 < cloud.shape[1] < 8:
        return np.sqrt(np.sum((cloud - point) ** 2, axis=1))
    sq = (cloud[:, 0] - point[0]) ** 2
    for k in range(1, cloud.shape[1]):
        sq += (cloud[:, k] - point[k]) ** 2
    return np.sqrt(sq, out=sq)


# Witnesses per block of the landmark-witness pass. A pass fills two
# ell-by-_CHUNK float64 buffers of squared distances in turn and one of
# products, so memory is O(ell * _CHUNK + ell^2) whatever the cloud size;
# at ell = 200 a buffer is 1.6 MB, which stays in cache across the steps
# of a block. BLAS rounds differently at another block width, so the
# outputs depend on _CHUNK bit for bit.
_CHUNK = 1024


def _witness_blocks(cloud: np.ndarray, landmarks: LandmarkSet):
    """Yield (sq, nearest) for consecutive blocks of witnesses: the ell-by-c
    squared landmark-witness distances and each witness's distance to its
    nearest landmark, ``sqrt(max(min sq, 0))``. ``sq`` is a view of one of
    two buffers, which the block after next overwrites.

    With at least two usable cores and two blocks, a helper thread
    computes the next block while the caller reduces this one; otherwise
    each block is computed when it is asked for. Both ways run the same
    arithmetic on the same blocks, so the values are identical. Closing
    the generator (as collecting it does) or an error in the helper
    cancels the block ahead and joins the helper."""
    cloud = as_points(cloud)
    n = cloud.shape[0]
    if not all(0 <= i < n for i in landmarks.indices):
        raise ValidationError(f"landmark indices must lie in 0..N-1 for the "
                              f"cloud's N = {n} points")
    lm = cloud[list(landmarks.indices)]
    # centring keeps |l|^2 and |w|^2 at the cloud's extent, not its offset
    centre = lm.mean(axis=0)
    lm = lm - centre
    lm_sq = np.sum(lm**2, axis=1)[:, None]
    ell = lm.shape[0]
    size = min(_CHUNK, n)
    block_buf = np.empty((size, cloud.shape[1]))
    w_sq_buf = np.empty(size)
    # one allocation for all three: glibc keeps a freed block of a few MB
    # on its heap, so the next pass reuses it without page faults
    *sq_bufs, dot_buf = np.empty((3, ell * size))

    def geometry(start, sq_buf):
        # the block, w_sq and dot buffers are used only here, so only by
        # the thread that computes blocks
        c = min(size, n - start)
        block = np.subtract(cloud[start:start + c], centre, out=block_buf[:c])
        # |l - w|^2 = (|l|^2 + |w|^2) - 2 l.w via BLAS, in that order;
        # cancellation can leave tiny negatives, which stay
        w_sq = np.sum(block**2, axis=1, out=w_sq_buf[:c])
        dot = np.matmul(lm, block.T, out=dot_buf[:ell * c].reshape(ell, c))
        dot *= 2.0
        sq = sq_buf[:ell * c].reshape(ell, c)
        # fill, then add along rows: faster than numpy's outer broadcast
        np.copyto(sq, lm_sq)
        sq += w_sq
        sq -= dot
        nearest = sq.min(axis=0)
        return sq, np.sqrt(np.maximum(nearest, 0.0, out=nearest), out=nearest)

    starts = range(0, n, size)
    if len(starts) < 2 or _usable_cores() < 2:
        for start in starts:
            yield geometry(start, sq_bufs[0])
        return
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        ahead = helper.submit(geometry, starts[0], sq_bufs[0])
        for b in range(1, len(starts) + 1):
            sq, nearest = ahead.result()
            if b < len(starts):
                # into the buffer of the block the caller reduced last
                ahead = helper.submit(geometry, starts[b], sq_bufs[b % 2])
            yield sq, nearest
    finally:
        helper.shutdown(cancel_futures=True)


def _root_bound(t: np.ndarray) -> np.ndarray:
    """Elementwise largest float c with ``sqrt(max(c, 0)) <= t``, for t >= 0
    (inf included): since sqrt and max are monotone, ``sq <= c`` holds
    exactly when ``sqrt(max(sq, 0)) <= t``. ``t * t`` lands within a few
    floats of c and seeds it, which then steps with the predicate itself.
    NaN gives NaN, which no comparison admits."""
    # t * t and the float above the largest finite one overflow to inf
    with np.errstate(over="ignore"):
        c = t * t
        while True:
            # down where the predicate fails, up where it holds a float higher
            above = np.nextafter(c, np.inf)
            fails = np.sqrt(np.maximum(c, 0.0)) > t
            holds_above = (c < np.inf) & (np.sqrt(np.maximum(above, 0.0)) <= t)
            if not (fails.any() or holds_above.any()):
                return c
            c = np.where(fails, np.nextafter(c, -np.inf),
                         np.where(holds_above, above, c))


def _membership_levels(dist: np.ndarray, nearest: np.ndarray,
                       grid: np.ndarray) -> np.ndarray:
    """Elementwise first grid index g with ``dist <= nearest + grid[g]``,
    for memberships that hold at ``grid[-1]``: the level at which the
    single-scale predicate first admits the witness. ``dist - nearest``
    can round either way, so its ``searchsorted`` position only seeds the
    index, which then steps with the predicate itself."""
    level = np.minimum(np.searchsorted(grid, dist - nearest), grid.size - 1)
    while True:
        # up where the predicate fails, down where it holds a level lower
        step = (dist > nearest + grid[level]).astype(np.int64)
        step -= (level > 0) & (dist <= nearest + grid[level - 1])
        if not step.any():
            return level
        level += step


def _edge_levels(cloud: np.ndarray, landmarks: LandmarkSet, grid) -> np.ndarray:
    """Edge filtration on the levels of a nonempty, strictly ascending grid
    of finite scales >= 0: entry (i, j), i < j, is the first grid index at
    which landmarks i and j share a witness, min over witnesses w of
    max(a_iw, a_jw) with a the membership level. Pairs that never connect
    on the grid, the diagonal and the lower triangle hold ``len(grid)``.
    Memberships are gathered over batches of blocks; row i is the min-max
    over the level rows of landmark i's witnesses in each batch."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0:
        raise ValidationError("eps_grid must be nonempty")
    if np.any(grid[1:] <= grid[:-1]):
        raise ValidationError("eps_grid must be strictly ascending")
    for eps in grid.tolist():
        if not np.isfinite(eps):
            raise ValidationError(f"epsilon must be finite, got {eps!r}")
        if eps < 0:
            raise ValidationError("epsilon must be >= 0")
    ell, top = len(landmarks), grid.size
    levels = np.full((ell, ell), top, dtype=np.min_scalar_type(top))
    batch, rows, count = [], 0, 0
    for sq, nearest in _witness_blocks(cloud, landmarks):
        # the landmark loop takes ell Python steps per batch, and one block
        # of ell * _CHUNK memberships bounds its memory. Eight blocks took a
        # 100-level filtration of 10^5 Henon points (ell = 200, 2 cores) from
        # 182-219 to 101-130 ms; build_complex's memory test peaks at 7.1 MiB.
        if rows >= 8 * _CHUNK or count >= ell * _CHUNK:
            _reduce_batch(levels, batch, rows, top)
            batch, rows, count = [], 0, 0
        # memberships at the grid's end
        member = sq <= _root_bound(nearest + grid[-1])[None, :]
        # np.nonzero's arrays, grouped by landmark, witnesses ascending, at
        # under a quarter of its cost; int32 halves a batch's index arrays
        lm, w = np.divmod(np.flatnonzero(member).astype(np.int32), member.shape[1])
        dist = np.sqrt(np.maximum(sq[lm, w], 0.0))
        level = _membership_levels(dist, nearest[w], grid).astype(levels.dtype)
        batch.append((lm, w + rows, level))
        rows, count = rows + member.shape[1], count + lm.size
    _reduce_batch(levels, batch, rows, top)
    return levels.astype(np.int64)


def _reduce_batch(levels: np.ndarray, batch: list, rows: int, top: int):
    """Lower each pair's level in ``levels`` to its min-max over a batch of
    ``rows`` witnesses, given as (landmark, witness, level) memberships."""
    ell = levels.shape[0]
    # grouped by landmark, witnesses ascending
    order = np.argsort(np.concatenate([lm for lm, _, _ in batch]), kind="stable")
    lm, w, level = (np.concatenate(parts)[order] for parts in zip(*batch))
    # witness by landmark, non-members at top
    a = np.full((rows, ell), top, dtype=levels.dtype)
    a[w, lm] = level
    starts = np.flatnonzero(np.diff(lm, prepend=-1)).tolist() + [lm.size]
    for i, lo, hi in zip(lm[starts[:-1]].tolist(), starts, starts[1:]):
        # a pair (i, j) in a witness of i is born at the later level
        row = np.maximum(a[w[lo:hi], i + 1:], level[lo:hi, None])
        dst = levels[i, i + 1:]
        np.minimum(dst, np.minimum.reduce(row, axis=0), out=dst)


def _edges_by_level(levels: np.ndarray, top: int):
    """(E, 2) edges with a level below ``top`` in (level, i, j) order, and
    their levels."""
    i, j = np.nonzero(levels < top)  # in (i, j) order
    level = levels[i, j]
    order = np.argsort(level, kind="stable")
    return np.column_stack([i[order], j[order]]), level[order]


def _triangles_from_adjacency(upper: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Every 3-clique (i, j, k), i < j < k, grouped by edge (i, j) in the
    order of ``edges``, k ascending; ``upper`` flags the edges, i < j only."""
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
    triangles are exactly the 3-cliques of that graph. The scale is a
    one-level edge filtration from the same pass over the witnesses as a
    barcode; its edges are the pairs at level 0, in (i, j) order. Higher
    simplices are never materialized, and the witnesses are visited in
    blocks, so no landmark-by-witness matrix is held for the whole cloud.
    """
    levels = _edge_levels(cloud, landmarks, [eps])
    edges, _ = _edges_by_level(levels, 1)
    return WitnessComplexSnapshot(epsilon=eps, vertices=len(landmarks), edges=edges,
                                  triangles=_triangles_from_adjacency(levels == 0, edges))


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


def _reduce_cofaces(vertices: int, edges: np.ndarray, columns: np.ndarray):
    """Persistent cohomology reduction over GF(2) of the coboundaries of
    ``columns``, the cycle-opening edges youngest first (merging edges
    reduce to zero, so they are cleared), in the clique complex of
    ``edges``, which are in filtration order. A triangle is keyed
    ``youngest * E + second`` by the positions of its two youngest edges
    among E, refining "born with its youngest edge"; a diagram's levels do
    not depend on the refinement. While a column's pivot, its oldest key,
    is taken, the owner's column is added. Yields (edge, youngest edge of
    the pivot triangle) for each column left nonzero: the persistence
    pairs, as many as the triangle boundary rank. Columns are read off two
    rows of the edge positions, and most are apparent pairs: the oldest
    coface's youngest edge is the column's, so no younger column holds it.
    A test over a block of columns settles them, and such a column is built
    only if an older one meets its pivot."""
    count = edges.shape[0]
    # absent pairs and the diagonal hold count; int32 halves a block's rows
    pos = np.full((vertices, vertices), count, dtype=np.int32)
    pos[edges[:, 0], edges[:, 1]] = pos[edges[:, 1], edges[:, 0]] = np.arange(count)

    def coboundary(e):
        # triangle (i, j, k) has edges e, pos[i, k] and pos[j, k]
        a, b = pos[edges[e]]
        lo, hi = np.minimum(a, b).astype(np.int64), np.maximum(a, b).astype(np.int64)
        keys = np.maximum(hi, e) * count + np.maximum(lo, np.minimum(hi, e))
        return np.sort(keys[hi < count])

    owner, built = {}, {}  # pivot key -> edge; edge -> its column, once built
    for start in range(0, len(columns), _CHUNK):
        block = columns[start:start + _CHUNK]
        # min over k of the younger of edges (i, k) and (j, k): where it is
        # below the column's edge, the oldest coface is keyed e * E + it
        second = np.maximum(pos[edges[block, 0]], pos[edges[block, 1]]).min(axis=1)
        apparent = second < block
        settled = block[apparent].tolist()
        owner.update(zip((block[apparent] * count + second[apparent]).tolist(), settled))
        yield from ((e, e) for e in settled)
        for e in block[~apparent].tolist():
            col = coboundary(e)
            while col.size:
                p = int(col[0])  # columns stay sorted: the pivot is the oldest
                other = owner.get(p)
                if other is None:
                    owner[p], built[e] = e, col
                    yield e, p // count
                    break
                if other not in built:
                    built[other] = coboundary(other)
                col = np.setxor1d(col, built[other], assume_unique=True)


def betti_numbers(snapshot: WitnessComplexSnapshot) -> tuple[int, int]:
    """(beta_0, beta_1) of the clique complex of ``snapshot.edges``:
    components of the edge graph, and independent 1-cycles after the GF(2)
    boundaries of its 3-cliques are quotiented out. ``snapshot.triangles``
    is reported, not read."""
    v, edges = snapshot.vertices, snapshot.edges
    cycles = np.flatnonzero(~_merging_edges(v, edges))
    rank = sum(1 for _ in _reduce_cofaces(v, edges, cycles[::-1]))
    return v - (edges.shape[0] - cycles.size), cycles.size - rank


def _level_barcode(grid: list, births: np.ndarray, deaths: np.ndarray,
                   dimension: int) -> Barcode:
    """Persistence pairs on grid levels as grid values; level ``len(grid)``
    leaves an interval open. Pairs whose ends meet are invisible on the
    grid and dropped."""
    pairs = sorted(zip(births.tolist(), deaths.tolist()))
    return Barcode(dimension=dimension, intervals=tuple(
        (grid[b], None if d == len(grid) else grid[d]) for b, d in pairs if b < d))


def epsilon_barcode(cloud: np.ndarray, landmarks: LandmarkSet,
                    eps_grid) -> tuple[Barcode, Barcode]:
    """Persistence barcodes of the witness complexes over an ascending
    scale grid, for dimensions 0 and 1.

    The edge filtration, each landmark pair's first grid index at which
    it shares a witness by the single-scale predicate itself, is computed
    once in one pass over the witnesses centred on the landmark mean.
    Components come from union-find over the edges in (level, i, j) order;
    cycles from a cohomology reduction of the cycle-opening edges, each
    triangle born with its youngest edge. Levels become grid values only
    at the end, so ``count_at`` at every grid value equals the Betti
    numbers of ``build_complex`` there.
    """
    grid = [float(e) for e in eps_grid]
    ell, top = len(landmarks), len(grid)
    levels = _edge_levels(cloud, landmarks, grid)
    edges, level = _edges_by_level(levels, top)
    merges = _merging_edges(ell, edges)
    # every vertex is born at level 0; each merging edge kills a component
    h0_deaths = np.concatenate([level[merges], np.full(ell - merges.sum(), top)])

    cycles = np.flatnonzero(~merges)
    deaths = np.full(edges.shape[0], top)
    for e, youngest in _reduce_cofaces(ell, edges, cycles[::-1]):
        deaths[e] = level[youngest]
    return (_level_barcode(grid, np.zeros(ell, dtype=np.int64), h0_deaths, 0),
            _level_barcode(grid, level[cycles], deaths[cycles], 1))


def scaled_epsilon(xi: float, cloud: np.ndarray) -> float:
    """Scale parameter as a fixed fraction of the cloud diameter, taken as
    the bounding-box diagonal. For an m-dimensional delay reconstruction
    of scalar data this is exactly sqrt(m) * (x_max - x_min)."""
    if not np.isfinite(xi) or xi < 0:
        raise ValidationError(f"xi must be a finite number >= 0, got {xi!r}")
    cloud = as_points(cloud)
    if cloud.size == 0:
        raise ValidationError("cloud must be nonempty")
    # column by column: a reduction along the long axis of a tall, narrow
    # cloud is about 10x faster than cloud.max(axis=0)
    extents = np.array([col.max() - col.min() for col in cloud.T])
    return xi * float(np.sqrt(np.sum(extents**2)))


def edge_lifespan_diagram(series, m_range, tau: int, xi: float,
                          ell: int) -> np.ndarray:
    """Longest consecutive run of reconstruction dimensions in which each
    landmark pair stays connected; ``m_range`` lists distinct dimensions,
    taken in ascending order.

    One landmark index schedule, equally spaced in time and valid for the
    shortest (largest-m) reconstruction, is reused at every dimension; the
    scale is re-derived at each m as ``xi`` times that reconstruction's
    diameter. Cell (i, j) of the returned ell-by-ell matrix is the edge's
    maximal lifespan in dimensions; 0 means the edge never appears.
    """
    values = as_values(series)
    m_values = sorted(as_count(m, "m") for m in m_range)
    if not m_values:
        raise ValidationError("m_range must contain dimensions >= 1")
    if len(set(m_values)) != len(m_values):
        raise ValidationError("m_range must not repeat a dimension")
    tau, ell = as_count(tau, "tau"), as_count(ell, "ell")
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
        shared = _edge_levels(cloud, landmarks, [scaled_epsilon(xi, cloud)]) == 0
        run = np.where(shared, run + 1, 0)
        best = np.maximum(best, run)
    return best + best.T
