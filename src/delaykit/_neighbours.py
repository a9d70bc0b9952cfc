"""Exact nearest neighbours of delay vectors for analogue forecasts and
false neighbours, and the thread rule of every tree query. The tree holds
each distinct row once, as its first copy, so a quantised series costs
what its distinct vectors cost."""

from __future__ import annotations

import threading

import numpy as np
from scipy.spatial import cKDTree

# Set in the threads of a grid pool of more than one worker. Those already
# spread the cells over the cores, so their tree queries run on one thread
# each; every other call splits its queries over all cores.
_cell_worker = threading.local()


def _mark_cell_worker():
    _cell_worker.active = True


def _query_workers() -> int:
    return 1 if getattr(_cell_worker, "active", False) else -1


def _scan_distances(vectors: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Euclidean distances of (q, k, m) vectors to their (q, m) queries, as
    (q, k), with the ties and rounding of the full scan
    ``np.sqrt(np.sum((points - query) ** 2, axis=1))`` over C-ordered
    points, such as ``np.ascontiguousarray(delay_reconstruct(...).points)``
    (numpy sums a C row of 8 or more columns pairwise). Over the raw
    strided ``points`` at m >= 8 and tau >= 2 numpy sums in another order,
    so that scan can send a tie to another anchor."""
    q, k, m = vectors.shape
    diff = (vectors - queries[:, None, :]).reshape(q * k, m)
    return np.sqrt(np.sum(diff ** 2, axis=1)).reshape(q, k)


def _first_copies(rows: np.ndarray):
    """Indices of the first copy of each distinct row, ascending, and a
    mask over them of the rows that have no other copy.

    Only a row whose first value repeats can have a copy, so only those
    rows are sorted whole: the cost follows the copies. On a 10^6-sample
    Henon series at m = 1 (medians of 11 interleaved calls): 35 ms against
    211 ms sorting every row; rounded to 2 decimals, 231 against 123 ms,
    where the search that follows holds a few hundred distinct points."""
    lead = np.sort(rows[:, 0])
    # the values that repeat, then the largest value, so that every search
    # lands on an entry; rows that match only the largest are sorted idly
    repeated = np.append(np.unique(lead[1:][lead[1:] == lead[:-1]]), lead[-1:])
    maybe = np.flatnonzero(repeated[np.searchsorted(repeated, rows[:, 0])]
                           == rows[:, 0])
    order = maybe[np.lexsort(rows[maybe].T)]  # stable: copies in index order
    same = True
    for c in range(rows.shape[1]):
        col = rows[order, c]
        same = same & (col[1:] == col[:-1])
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = ~same
    ends = np.ones(order.size, dtype=bool)
    ends[:-1] = ~same
    first = np.ones(len(rows), dtype=bool)
    first[maybe] = False
    first[order[starts]] = True
    alone = first.copy()
    alone[order[starts & ~ends]] = False
    return np.flatnonzero(first), alone[first]


class _ExactIndex:
    """A KD-tree over the first copies of the rows of ``points``: ``first``
    holds their indices, ascending, and the boolean ``alone`` flags those
    with no other copy."""

    def __init__(self, points: np.ndarray):
        self.first, self.alone = _first_copies(points)
        self.distinct = points[self.first]
        self.tree = cKDTree(self.distinct)

    def nearest(self, queries: np.ndarray, excluded, k: int):
        """For each query, the nearest admissible row of ``points`` and its
        distance, the smallest row winning ties.

        ``excluded(idx, part)`` flags the inadmissible rows among the
        candidate rows ``idx``, shape (len(part), k'), of the queries
        ``queries[part]``. It must admit a first copy whenever it admits a
        copy: copies tie, and the first wins. Every query must have at
        least one admissible row. The tree proposes the k nearest first
        copies by its own distance; admissible ones are re-ranked by the
        scan formula. A query is settled once its k-th proposal lies
        farther than the best exact distance by a relative margin far
        above rounding, so no unproposed row can be closer or tied;
        unsettled queries ask again with k four times larger, up to every
        distinct row. Queries go in chunks of at most 2**19 candidate
        coordinates, so memory stays bounded however far k grows, and on
        one thread in a grid's cells.
        """
        total, m = self.distinct.shape
        best = np.empty(queries.shape[0])
        rows = np.empty(queries.shape[0], dtype=np.intp)
        todo = np.arange(queries.shape[0])
        while todo.size:
            k = min(k, total)
            chunk = max(1, 2**19 // (k * m))
            unsettled = []
            for at in range(0, todo.size, chunk):
                part = todo[at : at + chunk]
                tree_d, idx = self.tree.query(queries[part], k=k,
                                              workers=_query_workers())
                tree_d = tree_d.reshape(part.size, k)
                idx = idx.reshape(part.size, k)
                d = _scan_distances(self.distinct[idx], queries[part])
                idx = self.first[idx]  # tree positions to rows
                d[excluded(idx, part)] = np.inf
                d_min = d.min(axis=1)
                settled = (k == total) | (tree_d[:, -1] > d_min * (1.0 + 1e-9))
                best[part[settled]] = d_min[settled]
                rows[part[settled]] = np.where(d == d_min[:, None], idx,
                                               self.first[-1] + 1).min(axis=1)[settled]
                unsettled.append(part[~settled])
            todo = np.concatenate(unsettled)
            k *= 4
        return best, rows
