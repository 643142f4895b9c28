"""Sequential-scan k-NN — the paper's fallback for very high dimensions.

Section 7.4: "For extremely high-dimensional data, we need to use a
sequential scan or some variant of it ... with a complexity of O(n),
leading to a complexity of O(n^2) for the materialization step."

Two scans share one distance kernel, the metric's row kernel:

* The per-row queries (``_query``, ``_query_with_ties``,
  ``_query_radius``) scan all ``n`` points with
  ``Metric.pairwise_to_point``. They are the reference oracle the test
  suite compares every other index, and the batch path below, against.
* The batch path (``query_batch_with_ties``, which builds step 1 for the
  whole dataset in one call when ``fast_batch``) is the "variant": a
  box-pruned scan. Its first call builds the median kd tree of
  :mod:`repro.index.kdtree` (the ``kdtree`` backend's, walked here for
  many rows at once); a row first evaluates a small tree node around
  it and its nearest leaves, which bounds its k-distance from
  above, then every leaf whose box lower bound does not exceed that
  bound. Candidate pairs go through ``Metric.paired_distances``, which
  computes each distance with the same subtraction and row kernel as
  ``pairwise_to_point``, so the batch answer equals the per-row answer
  bit for bit, ties included. When the tree is too shallow for the
  dimension to prune well, or the batch has fewer than ``PRUNE_ROWS``
  rows, the batch runs the per-row scan instead.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .base import Neighborhood, NNIndex, register_index
from .batch import pack_padded, tie_threshold
from .kdtree import LEAF_SIZE, KDTree

#: Byte budget of the pruned batch scan's temporaries: the first-pass
#: candidates of one block of rows, and the coordinates of the candidate
#: pairs of one kernel call.
BLOCK_BYTES = 1 << 20
#: Nearest listed leaves a row of the pruned batch scan evaluates before
#: it tightens its k-distance bound.
REFINE = 4
#: Tree levels beyond one per axis the pruned scan needs to pay off: it
#: runs when there are at least 2**(d + PRUNE_DEPTH) leaves. Timed on
#: Gaussian, uniform and clustered data at n = 512, 2000 and 8192, it won
#: at every such (n, d) but one (Gaussian, d = 6, n = 8192: 0.9x) and
#: lost on spread-out data below (docs/performance.md).
PRUNE_DEPTH = 3
#: Fewest rows a batch needs for the pruned scan: below it the batch
#: runs the per-row scan, whose single rows pay no tree walk. Timed on
#: the bench mixture at d = 3, k = 20: at n = 8192 one pruned row costs
#: about 4 per-row scans and eight cost less than eight scans; at
#: n = 2000 the pruned batch breaks even near 18 rows
#: (docs/performance.md, "Served queries through the step-1 index").
PRUNE_ROWS = 8


def _flat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + counts[i])``."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


@register_index
class BruteForceIndex(NNIndex):
    """Exact k-NN by a sequential scan; batches skip boxes of points
    that cannot hold a neighbor."""

    name = "brute"

    def _build(self, X: np.ndarray) -> None:
        # The per-row scans touch raw vectors directly; the kd tree of
        # the pruned batch scan is built on its first use.
        self._kd: Optional[KDTree] = None

    @property
    def _tree(self) -> KDTree:
        if self._kd is None:
            self._kd = KDTree(self._X)
        return self._kd

    @property
    def fast_batch(self) -> bool:
        """Whether the batch runs the pruned scan: with at least
        ``2**(d + PRUNE_DEPTH)`` kd leaves. Count splits keep every node
        of a tree level within one point of the others, so that holds
        exactly when each node at depth ``d + PRUNE_DEPTH - 1`` still
        has more than LEAF_SIZE points, and needs no tree."""
        n, d = self.data.shape
        return n // 2 ** (d + PRUNE_DEPTH - 1) > LEAF_SIZE

    def _distances_to(self, q: np.ndarray, exclude: Optional[int]) -> np.ndarray:
        dists = self.metric.pairwise_to_point(self._X, q)
        self.stats.distance_evaluations += self._X.shape[0]
        if exclude is not None:
            dists = dists.copy()
            dists[exclude] = np.inf
        return dists

    def _query(self, q, k, exclude):
        dists = self._distances_to(q, exclude)
        if k < len(dists):
            # Partial selection of every point within the k-th distance
            # (ties included), then an exact (distance, id) sort and a
            # truncation to k — so equal-distance candidates always
            # resolve to the lowest ids, deterministically.
            idx = np.flatnonzero(dists <= tie_threshold(dists, k))
        else:
            idx = np.arange(len(dists))
            if exclude is not None:
                idx = idx[idx != exclude]
        result = self._sort_result(idx, dists[idx])
        return Neighborhood(ids=result.ids[:k], distances=result.distances[:k])

    def _query_with_ties(self, q, k, exclude):
        dists = self._distances_to(q, exclude)
        if k < len(dists):
            idx = np.flatnonzero(dists <= tie_threshold(dists, k))
        else:
            # k = n leaves no id to exclude: every point is a neighbor.
            idx = np.arange(len(dists))
        return self._sort_result(idx, dists[idx])

    def _query_radius(self, q, radius, exclude):
        dists = self._distances_to(q, exclude)
        idx = np.flatnonzero(dists <= radius)
        return self._sort_result(idx, dists[idx])

    # -- batched scan: box-pruned, bit-identical to the per-row scan ---------

    def _query_batch_with_ties(self, Q, k, exclude) -> Tuple[np.ndarray, np.ndarray]:
        if not self.fast_batch or Q.shape[0] < PRUNE_ROWS:
            # Too few leaves to cut every axis several times, so the
            # boxes would leave too much to evaluate (Section 7.4's
            # sequential scan for high dimensions), or too few rows to
            # pay for the walk: scan every point per row.
            return super()._query_batch_with_ties(Q, k, exclude)
        return self._pruned_query(Q, k, exclude)

    def _pruned_query(self, Q, k, exclude) -> Tuple[np.ndarray, np.ndarray]:
        """The box-pruned batch scan, in blocks of rows."""
        # A block's rows hold about BLOCK_BYTES of first-pass candidates,
        # and number fewer than 2**15 (see _row_order).
        step = max(1, BLOCK_BYTES // (8 * (2 * k + REFINE * LEAF_SIZE)))
        blocks = [
            self._pruned_block(Q[s : s + step], k, exclude[s : s + step])
            for s in range(0, Q.shape[0], step)
        ]
        return pack_padded(*(np.concatenate(parts) for parts in zip(*blocks)))

    def _pruned_block(self, Q, k, exclude):
        """Tie-inclusive neighborhoods of the rows of ``Q`` in CSR form.

        Each row's k-distance is bounded from above by the k-th smallest
        distance over any subset of the points holding k candidates. The
        first subset is the smallest tree node on the row's descent path
        with more than k points (more than k, so the row's own excluded
        id still leaves k). A walk from the root then lists every leaf
        whose box bound does not exceed that bound. The row evaluates its
        REFINE nearest listed leaves, tightens the bound with them, and
        evaluates the rest of the listed leaves still within it. A box is
        dropped only when its bound is strictly above, so every point at
        distance <= the k-distance is evaluated (Definition 4's ties
        too). Which pairs a row evaluates depends on that row alone.
        """
        m = Q.shape[0]
        first = self._tree.descend(Q, k)
        found = [self._evaluate(Q, exclude, np.arange(m), first)]
        ub = _kth_per_row(found, k, m)
        rows, leaves, bounds = self._walk(Q, first, ub)
        near = _rank_in_row(rows, m) < REFINE
        found.append(self._evaluate(Q, exclude, rows[near], leaves[near]))
        ub = _kth_per_row(found, k, m)
        rest = ~near & (bounds <= ub[rows])
        found.append(self._evaluate(Q, exclude, rows[rest], leaves[rest], ub))
        rows, ids, dists = (np.concatenate(parts) for parts in zip(*found))
        # Only candidates within the bound can be neighbors; order them
        # by (row, distance, id) and cut each row at its k-th distance.
        keep = dists <= ub[rows]
        rows, ids, dists = rows[keep], ids[keep], dists[keep]
        order = _row_order(rows, dists, ids)
        rows, ids, dists = rows[order], ids[order], dists[order]
        counts = np.bincount(rows, minlength=m)
        kth = dists[np.cumsum(counts) - counts + k - 1]
        keep = dists <= kth[rows]
        return ids[keep], dists[keep], np.bincount(rows[keep], minlength=m)

    def _walk(self, Q, first, ub):
        """Every ``(row, leaf, bound)`` with the leaf outside the row's
        ``first`` node and its box bound at most ``ub[row]``, ordered by
        ``(row, bound, leaf)``."""
        tree = self._tree
        rows, nodes = np.arange(Q.shape[0]), np.zeros(Q.shape[0], dtype=np.int64)
        hits = []
        while len(rows):
            keep = nodes != first[rows]
            rows, nodes = rows[keep], nodes[keep]
            bounds = self._box_bounds(Q[rows], nodes)
            keep = bounds <= ub[rows]
            rows, nodes, bounds = rows[keep], nodes[keep], bounds[keep]
            leaf = tree.left[nodes] < 0
            hits.append((rows[leaf], nodes[leaf], bounds[leaf]))
            inner = nodes[~leaf]
            rows = np.repeat(rows[~leaf], 2)
            nodes = np.stack([tree.left[inner], tree.right[inner]], axis=1).ravel()
        rows, leaves, bounds = (np.concatenate(parts) for parts in zip(*hits))
        order = _row_order(rows, bounds, leaves)
        return rows[order], leaves[order], bounds[order]

    def _box_bounds(self, Qr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Lower bound from each row of ``Qr`` to the box of its node.

        Per axis the gap is ``max(0, lo - q, q - hi)``; the metric's row
        kernel reduces the gaps, so a bound never exceeds a distance the
        same kernel computes between the row and a point of the box.
        """
        gaps = np.maximum(self._tree.lo[nodes] - Qr, Qr - self._tree.hi[nodes])
        return self.metric.gap_norms(np.maximum(gaps, 0.0, out=gaps))

    def _evaluate(self, Q, exclude, rows, nodes, ub=None):
        """Distances from ``Q[rows[i]]`` to every point of ``nodes[i]``.

        Returns flat ``(row, id, distance)`` arrays in pair order (so
        ascending ``rows`` stay ascending); a row's own excluded id gets
        distance ``inf``. With ``ub``, only the pairs within their row's
        bound are returned.
        """
        tree = self._tree
        counts = tree.size[nodes]
        pos = _flat_ranges(tree.start[nodes], counts)
        row_of = np.repeat(rows, counts)
        self.stats.distance_evaluations += len(pos)
        out = [(row_of[:0], pos[:0], np.empty(0))]
        # Bounded blocks of pairs keep the temporaries small.
        step = max(1, BLOCK_BYTES // (8 * Q.shape[1]))
        for a in range(0, len(pos), step):
            p, r = pos[a : a + step], row_of[a : a + step]
            dist = self.metric.paired_distances(tree.points[p], Q[r])
            gid = tree.order[p]
            dist[gid == exclude[r]] = np.inf
            if ub is not None:
                near = dist <= ub[r]
                r, gid, dist = r[near], gid[near], dist[near]
            out.append((r, gid, dist))
        return tuple(np.concatenate(parts) for parts in zip(*out))


def _row_order(rows: np.ndarray, keys: np.ndarray, ties: np.ndarray) -> np.ndarray:
    """The permutation ordering entries by ``(row, key, tie)``; no two
    entries of a row may share a tie value. Same result as
    ``np.lexsort((ties, keys, rows))``, in three cheaper passes: any
    sort on ``ties``, then stable sorts on ``keys`` and on ``rows``, a
    radix sort as int16 (a block has under 2**15 rows)."""
    order = np.argsort(ties)
    order = order[np.argsort(keys[order], kind="stable")]
    return order[np.argsort(rows[order].astype(np.int16), kind="stable")]


def _rank_in_row(rows: np.ndarray, m: int) -> np.ndarray:
    """Position of each entry within its row, for ascending ``rows``."""
    counts = np.bincount(rows, minlength=m)
    return np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)


def _kth_per_row(found, k: int, m: int) -> np.ndarray:
    """The k-th smallest distance of each row over the ``(row, id,
    distance)`` parts in ``found``, each with ascending rows."""
    counts = [np.bincount(rows, minlength=m) for rows, _, _ in found]
    block = np.full((m, int(sum(counts).max())), np.inf)
    offset = np.zeros(m, dtype=np.int64)
    for (rows, _, dists), c in zip(found, counts):
        block[rows, offset[rows] + _rank_in_row(rows, m)] = dists
        offset += c
    return tie_threshold(block, k)
