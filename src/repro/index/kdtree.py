"""A kd-tree with best-first k-NN search.

Section 7.4 uses "an index, which provides an average complexity of
O(log n) for k-nn queries" for medium dimensionality. A kd-tree is the
classic main-memory instance of that class; we build it by recursive
median splits on the widest-spread dimension and answer queries with a
branch-and-bound descent that prunes subtrees whose bounding rectangle is
farther than the current k-th candidate distance.

:class:`KDTree` is the one kd-tree builder of the package: the
``kdtree`` backend searches it one row at a time, and the ``brute``
backend's box-pruned batch scan walks it for many rows at once.
"""

from __future__ import annotations

import heapq
from typing import List

import numpy as np

from .base import KBestHeap, NNIndex, register_index

#: Most points per leaf, unless a backend asks for another leaf size.
LEAF_SIZE = 16


class KDTree:
    """Median kd tree over the rows of ``X``, as flat per-node arrays.

    Each internal node cuts its points at the median along its widest
    axis; a node of at most ``leaf_size`` points is a leaf. Node ``i``
    owns ``order[start[i]:stop[i]]``, a contiguous range, and its tight
    bounding box ``[lo[i], hi[i]]``. Leaves have ``left == right == -1``.
    Node 0 is the root; children follow their parents (breadth first).
    Splits go by count, so the shape depends only on ``len(X)`` and
    ``leaf_size``, and identical points are split like any others.
    """

    def __init__(self, X: np.ndarray, leaf_size: int = LEAF_SIZE):
        self.order = np.arange(X.shape[0], dtype=np.int64)
        ranges = [(0, X.shape[0])]
        left: List[int] = []
        axis: List[int] = []
        pivot: List[float] = []
        lo: List[np.ndarray] = []
        hi: List[np.ndarray] = []
        for a, b in ranges:  # grows while it is walked
            ids = self.order[a:b]
            pts = X[ids]
            lo.append(pts.min(axis=0))
            hi.append(pts.max(axis=0))
            if b - a <= leaf_size:
                left.append(-1)
                axis.append(0)
                pivot.append(0.0)
                continue
            ax = int(np.argmax(hi[-1] - lo[-1]))
            mid = (b - a) // 2
            part = np.argpartition(pts[:, ax], mid)
            self.order[a:b] = ids[part]
            left.append(len(ranges))
            axis.append(ax)
            pivot.append(float(pts[part[mid], ax]))
            ranges += [(a, a + mid), (a + mid, b)]
        bounds = np.asarray(ranges, dtype=np.int64)
        self.start, self.stop = bounds[:, 0], bounds[:, 1]
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.where(self.left >= 0, self.left + 1, -1)
        self.axis = np.asarray(axis, dtype=np.int64)
        self.pivot = np.asarray(pivot)
        self.lo, self.hi = np.asarray(lo), np.asarray(hi)
        self.points = X[self.order]

    @property
    def size(self) -> np.ndarray:
        return self.stop - self.start

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.left < 0))

    def descend(self, Q: np.ndarray, k: int) -> np.ndarray:
        """For each row of ``Q``, the smallest node on its root-to-leaf
        path that still holds more than ``k`` points (the root if none)."""
        node = np.zeros(Q.shape[0], dtype=np.int64)
        rows = np.arange(Q.shape[0])
        size = self.size
        while True:
            below = Q[rows, self.axis[node]] < self.pivot[node]
            child = np.where(below, self.left[node], self.right[node])
            step = (child >= 0) & (size[child] > k)
            if not step.any():
                return node
            node = np.where(step, child, node)


@register_index
class KDTreeIndex(NNIndex):
    """Exact k-NN via a median-split kd-tree.

    Parameters
    ----------
    leaf_size : points per leaf before splitting stops. Smaller leaves
        prune harder but cost more node visits; 16 is a robust default.
    """

    name = "kdtree"

    def __init__(self, metric="euclidean", leaf_size: int = LEAF_SIZE):
        super().__init__(metric=metric)
        self.leaf_size = max(1, int(leaf_size))

    def _build(self, X: np.ndarray) -> None:
        self._tree = KDTree(X, self.leaf_size)

    # -- search --------------------------------------------------------

    def _bound(self, q: np.ndarray, node: int) -> float:
        return self.metric.min_distance_to_rect(q, self._tree.lo[node], self._tree.hi[node])

    def _leaf_scan(self, node: int, q: np.ndarray, exclude):
        tree = self._tree
        a, b = tree.start[node], tree.stop[node]
        ids, pts = tree.order[a:b], tree.points[a:b]
        if exclude is not None:
            keep = ids != exclude
            ids, pts = ids[keep], pts[keep]
        if len(ids) == 0:
            return ids, np.empty(0)
        dists = self.metric.pairwise_to_point(pts, q)
        self.stats.distance_evaluations += len(ids)
        return ids, dists

    def _query(self, q, k, exclude):
        # Best-first search: a frontier heap ordered by the minimum
        # possible distance from q to each pending subtree, and a
        # bounded candidate heap of the k best points found so far.
        tree = self._tree
        frontier = [(self._bound(q, 0), 0)]
        best = KBestHeap(k)
        while frontier:
            bound, node = heapq.heappop(frontier)
            if bound > best.worst_distance:
                break
            self._visit_node()
            if tree.left[node] < 0:
                ids, dists = self._leaf_scan(node, q, exclude)
                best.consider_many(dists, ids)
            else:
                for child in (int(tree.left[node]), int(tree.right[node])):
                    child_bound = self._bound(q, child)
                    if child_bound <= best.worst_distance:
                        heapq.heappush(frontier, (child_bound, child))
        return self._sort_result(*best.result())

    def _query_radius(self, q, radius, exclude):
        tree = self._tree
        out_ids = [np.empty(0, dtype=np.int64)]
        out_dists = [np.empty(0)]
        stack = [0]
        while stack:
            node = stack.pop()
            if self._bound(q, node) > radius:
                continue
            self._visit_node()
            if tree.left[node] < 0:
                ids, dists = self._leaf_scan(node, q, exclude)
                mask = dists <= radius
                out_ids.append(ids[mask])
                out_dists.append(dists[mask])
            else:
                stack += [int(tree.left[node]), int(tree.right[node])]
        return self._sort_result(np.concatenate(out_ids), np.concatenate(out_dists))
