"""Fuzzy witness complexes of point clouds, their low homology over GF(2),
scale-sweep barcodes, and dimension-sweep edge lifespans.

A witness complex takes its vertices from a small landmark subset of the
cloud; connectivity comes from the remaining points (the witnesses). Two
landmarks join when some witness lies within epsilon of its nearest-landmark
distance from both; triangles fill every 3-clique of the edge graph. Only
components (beta_0) and independent loops (beta_1) are computed, with exact
GF(2) arithmetic throughout.
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
    """Feature-count intervals over a sweep parameter for one homology
    dimension. ``death`` is None for intervals still open at the sweep end."""

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


class _WitnessGeometry:
    """Cached landmark-witness distances so scale sweeps pay for the
    distance matrix once."""

    def __init__(self, cloud: np.ndarray, landmarks: LandmarkSet):
        cloud = as_points(cloud)
        self.cloud = cloud
        self.landmarks = landmarks
        lm = cloud[list(landmarks.indices)]
        # |l - w|^2 = |l|^2 + |w|^2 - 2 l.w, computed blockwise via BLAS;
        # cancellation can leave tiny negatives, clipped before the root
        sq = (np.sum(lm**2, axis=1)[:, None]
              + np.sum(cloud**2, axis=1)[None, :]
              - 2.0 * (lm @ cloud.T))
        self.dist = np.sqrt(np.clip(sq, 0.0, None))  # (ell, N)
        self.nearest = self.dist.min(axis=0)         # (N,)

    def membership(self, eps: float) -> np.ndarray:
        if eps < 0:
            raise ValidationError("epsilon must be >= 0")
        return self.dist <= self.nearest[None, :] + eps

    def adjacency(self, eps: float) -> np.ndarray:
        member = self.membership(eps).astype(np.float32)
        shared = member @ member.T
        adj = shared > 0.0
        np.fill_diagonal(adj, False)
        return adj


def fuzzy_witness_sets(cloud: np.ndarray, landmarks: LandmarkSet,
                       eps: float) -> np.ndarray:
    """Boolean membership matrix: entry (l, w) is True when witness w lies
    within ``eps`` of its nearest-landmark distance from landmark l.

    Every witness belongs at least to its nearest landmark's set.
    """
    return _WitnessGeometry(cloud, landmarks).membership(eps)


def _edges_from_adjacency(adj: np.ndarray) -> np.ndarray:
    iu = np.triu_indices(adj.shape[0], k=1)
    mask = adj[iu]
    return np.column_stack([iu[0][mask], iu[1][mask]]).astype(np.int64)


def _triangles_from_adjacency(adj: np.ndarray, edges: np.ndarray) -> np.ndarray:
    tris = []
    for i, j in edges:
        common = np.nonzero(adj[i, j + 1 :] & adj[j, j + 1 :])[0]
        for k in common:
            tris.append((i, j, j + 1 + k))
    if not tris:
        return np.empty((0, 3), dtype=np.int64)
    return np.array(tris, dtype=np.int64)


def build_complex(cloud: np.ndarray, landmarks: LandmarkSet,
                  eps: float) -> WitnessComplexSnapshot:
    """Lazy (clique) fuzzy witness complex at one scale.

    An edge joins two landmarks whose fuzzy witness sets intersect;
    triangles are exactly the 3-cliques of that graph. Higher simplices
    are never materialized.
    """
    geom = _WitnessGeometry(cloud, landmarks)
    return _complex_from_adjacency(geom.adjacency(eps), eps)


def _complex_from_adjacency(adj: np.ndarray, eps: float) -> WitnessComplexSnapshot:
    edges = _edges_from_adjacency(adj)
    triangles = _triangles_from_adjacency(adj, edges)
    return WitnessComplexSnapshot(epsilon=eps, vertices=adj.shape[0],
                                  edges=edges, triangles=triangles)


def _component_count(vertices: int, edges: np.ndarray) -> int:
    parent = list(range(vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    count = vertices
    for i, j in edges:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[ri] = rj
            count -= 1
    return count


def _gf2_rank_triangles(edges: np.ndarray, triangles: np.ndarray,
                        max_rank: int | None = None) -> int:
    """Rank of the triangle boundary matrix over GF(2).

    Columns are triangles, stored as 3-bit integers over edge indices and
    reduced by bitset Gaussian elimination — exact arithmetic, no
    tolerances. Stops early once ``max_rank`` is reached (the rank cannot
    exceed the cycle-space dimension).
    """
    index = {(int(i), int(j)): pos for pos, (i, j) in enumerate(edges)}
    pivots: dict[int, int] = {}
    rank = 0
    for a, b, c in triangles:
        col = (
            (1 << index[(int(a), int(b))])
            | (1 << index[(int(a), int(c))])
            | (1 << index[(int(b), int(c))])
        )
        while col:
            p = col.bit_length() - 1
            other = pivots.get(p)
            if other is None:
                pivots[p] = col
                rank += 1
                break
            col ^= other
        if max_rank is not None and rank >= max_rank:
            break
    return rank


def betti_numbers(snapshot: WitnessComplexSnapshot) -> tuple[int, int]:
    """(beta_0, beta_1): components of the edge graph, and independent
    1-cycles after the GF(2) triangle boundaries are quotiented out."""
    v = snapshot.vertices
    e = snapshot.edges.shape[0]
    b0 = _component_count(v, snapshot.edges)
    cycle_dim = e - v + b0
    if cycle_dim == 0:
        return b0, 0
    rank = _gf2_rank_triangles(snapshot.edges, snapshot.triangles,
                               max_rank=cycle_dim)
    return b0, cycle_dim - rank


def _count_barcode(grid, counts, dimension: int) -> Barcode:
    """Count-based intervals: births and deaths matched greedily (newest
    feature dies first) so the count at every grid value is reproduced
    exactly."""
    open_births: list[float] = []
    intervals: list[tuple[float, float | None]] = []
    prev = 0
    for s, c in zip(grid, counts):
        if c > prev:
            open_births.extend([s] * (c - prev))
        elif c < prev:
            for _ in range(prev - c):
                intervals.append((open_births.pop(), s))
        prev = c
    intervals.extend((b, None) for b in reversed(open_births))
    intervals.sort(key=lambda iv: (iv[0], np.inf if iv[1] is None else iv[1]))
    return Barcode(dimension=dimension, intervals=tuple(intervals))


def epsilon_barcode(cloud: np.ndarray, landmarks: LandmarkSet,
                    eps_grid) -> tuple[Barcode, Barcode]:
    """Betti counts across an ascending scale grid, folded into barcodes.

    The returned intervals reproduce (beta_0, beta_1) exactly at every
    grid value; they are count-matched, not cycle-tracked.
    """
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValidationError("eps_grid must be nonempty")
    if any(b >= a for a, b in zip(grid[1:], grid[:-1])):
        raise ValidationError("eps_grid must be strictly ascending")
    geom = _WitnessGeometry(cloud, landmarks)
    b0s, b1s = [], []
    for eps in grid:
        snapshot = _complex_from_adjacency(geom.adjacency(eps), eps)
        b0, b1 = betti_numbers(snapshot)
        b0s.append(b0)
        b1s.append(b1)
    return _count_barcode(grid, b0s, 0), _count_barcode(grid, b1s, 1)


def scaled_epsilon(xi: float, cloud: np.ndarray) -> float:
    """Scale parameter as a fixed fraction of the cloud diameter, taken as
    the bounding-box diagonal. For an m-dimensional delay reconstruction
    of scalar data this is exactly sqrt(m) * (x_max - x_min)."""
    if xi < 0:
        raise ValidationError("xi must be >= 0")
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
        adj = _WitnessGeometry(cloud, landmarks).adjacency(eps)
        run = np.where(adj, run + 1, 0)
        best = np.maximum(best, run)
    return best
