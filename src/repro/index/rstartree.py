"""R*-tree with forced reinsertion and topological split.

The paper's performance experiments (Section 7.4) run k-NN queries
against "a variant of the X-tree" [4], which is itself an R*-tree
descendant. This module implements the full dynamic R*-tree of
Beckmann et al.:

* ``ChooseSubtree`` — minimal overlap enlargement at the leaf level,
  minimal area enlargement above it;
* ``OverflowTreatment`` — forced reinsertion of the 30% of entries
  farthest from the node centroid, once per level per insertion;
* topological split — split axis chosen by minimal margin sum, split
  index by minimal overlap (area as tie-break).

k-NN queries run best-first over MBR lower bounds (Hjaltason &
Samet), which is exact for any metric providing rectangle bounds.

:class:`repro.index.xtree.XTreeIndex` subclasses this tree and swaps the
overflow policy for supernode creation.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import SpatialIndexError, ValidationError
from .base import KBestHeap, Neighborhood, NNIndex, register_index


# ---------------------------------------------------------------------------
# MBR helpers (axis-aligned minimum bounding rectangles as (lo, hi) pairs)


def mbr_union(a_lo, a_hi, b_lo, b_hi) -> Tuple[np.ndarray, np.ndarray]:
    return np.minimum(a_lo, b_lo), np.maximum(a_hi, b_hi)


def mbr_area(lo: np.ndarray, hi: np.ndarray) -> float:
    return float(np.prod(hi - lo))


def mbr_margin(lo: np.ndarray, hi: np.ndarray) -> float:
    """Sum of edge lengths (the R* 'margin' criterion)."""
    return float(np.sum(hi - lo))


def mbr_overlap(a_lo, a_hi, b_lo, b_hi) -> float:
    """Area of the intersection of two MBRs (0 if disjoint)."""
    lo = np.maximum(a_lo, b_lo)
    hi = np.minimum(a_hi, b_hi)
    edge = hi - lo
    if np.any(edge < 0):
        return 0.0
    return float(np.prod(edge))


def mbr_enlargement(lo, hi, add_lo, add_hi) -> float:
    """Area increase of (lo, hi) when it must also cover (add_lo, add_hi)."""
    u_lo, u_hi = mbr_union(lo, hi, add_lo, add_hi)
    return mbr_area(u_lo, u_hi) - mbr_area(lo, hi)


# ---------------------------------------------------------------------------
# tree nodes


class _Entry:
    """A node slot: either a data point (leaf) or a child node (internal)."""

    __slots__ = ("lo", "hi", "point_id", "child")

    def __init__(self, lo, hi, point_id: Optional[int] = None, child=None):
        self.lo = lo
        self.hi = hi
        self.point_id = point_id
        self.child: Optional[_RNode] = child

    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0


class _RNode:
    __slots__ = ("is_leaf", "entries", "is_super")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.entries: List[_Entry] = []
        self.is_super = False  # used by the X-tree subclass

    def mbr(self) -> Tuple[np.ndarray, np.ndarray]:
        if not self.entries:
            raise SpatialIndexError("empty node has no MBR")
        lo = self.entries[0].lo
        hi = self.entries[0].hi
        for entry in self.entries[1:]:
            lo, hi = mbr_union(lo, hi, entry.lo, entry.hi)
        return lo, hi


@register_index
class RStarTreeIndex(NNIndex):
    """Dynamic R*-tree supporting exact k-NN and radius queries.

    Parameters
    ----------
    max_entries : node capacity M (default 16).
    min_fill : minimum fill fraction m/M (default 0.4, the R* choice).
    reinsert_fraction : share of entries force-reinserted on first
        overflow at a level (default 0.3).
    """

    name = "rstar"

    def __init__(
        self,
        metric="euclidean",
        max_entries: int = 16,
        min_fill: float = 0.4,
        reinsert_fraction: float = 0.3,
    ):
        super().__init__(metric=metric)
        if max_entries < 4:
            raise ValidationError("max_entries must be >= 4")
        if not 0.0 < min_fill <= 0.5:
            raise ValidationError("min_fill must be in (0, 0.5]")
        if not 0.0 < reinsert_fraction < 1.0:
            raise ValidationError("reinsert_fraction must be in (0, 1)")
        self.max_entries = int(max_entries)
        self.min_entries = max(2, int(np.floor(max_entries * min_fill)))
        self.reinsert_count = max(1, int(np.floor(max_entries * reinsert_fraction)))
        self._root: Optional[_RNode] = None
        self._height = 1

    # -- construction ------------------------------------------------------

    def _build(self, X: np.ndarray) -> None:
        self._root = _RNode(is_leaf=True)
        self._height = 1
        for i in range(X.shape[0]):
            self._insert_point(i)

    def _insert_point(self, point_id: int) -> None:
        pt = self._X[point_id]
        entry = _Entry(lo=pt.copy(), hi=pt.copy(), point_id=point_id)
        # One forced-reinsert pass per level per insertion (R* rule);
        # reinsertion indices are levels counted from the leaves.
        self._reinserted_levels = set()
        self._insert_entry(entry, target_level=0)

    def _insert_entry(self, entry: _Entry, target_level: int) -> None:
        path = self._choose_path(entry, target_level)
        node = path[-1]
        node.entries.append(entry)
        self._handle_overflow(path, target_level)
        self._adjust_path_mbrs(path)

    def _choose_path(self, entry: _Entry, target_level: int) -> List[_RNode]:
        """Descend from the root to the node at ``target_level`` that
        should receive ``entry`` (level 0 = leaves)."""
        path = [self._root]
        level = self._height - 1
        node = self._root
        while level > target_level:
            node = self._choose_subtree(node, entry, leaf_children=(level == target_level + 1))
            path.append(node)
            level -= 1
        return path

    def _choose_subtree(self, node: _RNode, entry: _Entry, leaf_children: bool) -> _RNode:
        best = None
        best_key = None
        for candidate in node.entries:
            enlargement = mbr_enlargement(candidate.lo, candidate.hi, entry.lo, entry.hi)
            area = mbr_area(candidate.lo, candidate.hi)
            if leaf_children:
                # R*: minimize overlap enlargement among leaf children.
                u_lo, u_hi = mbr_union(candidate.lo, candidate.hi, entry.lo, entry.hi)
                overlap_before = 0.0
                overlap_after = 0.0
                for other in node.entries:
                    if other is candidate:
                        continue
                    overlap_before += mbr_overlap(candidate.lo, candidate.hi, other.lo, other.hi)
                    overlap_after += mbr_overlap(u_lo, u_hi, other.lo, other.hi)
                key = (overlap_after - overlap_before, enlargement, area)
            else:
                key = (enlargement, area)
            if best_key is None or key < best_key:
                best_key = key
                best = candidate
        return best.child

    def _handle_overflow(self, path: List[_RNode], level: int) -> None:
        node = path[-1]
        if len(node.entries) <= self._capacity(node):
            return
        if level not in self._reinserted_levels and node is not self._root:
            self._reinserted_levels.add(level)
            self._reinsert(path, level)
        else:
            self._split_upward(path, level)

    def _capacity(self, node: _RNode) -> int:
        return self.max_entries

    def _reinsert(self, path: List[_RNode], level: int) -> None:
        """Forced reinsertion: evict the entries farthest from the node
        centroid and re-insert them at the same level."""
        node = path[-1]
        lo, hi = node.mbr()
        center = (lo + hi) / 2.0
        dists = [
            (float(np.linalg.norm(entry.center() - center)), i)
            for i, entry in enumerate(node.entries)
        ]
        dists.sort(reverse=True)
        evict_idx = {i for _, i in dists[: self.reinsert_count]}
        evicted = [e for i, e in enumerate(node.entries) if i in evict_idx]
        node.entries = [e for i, e in enumerate(node.entries) if i not in evict_idx]
        self._adjust_path_mbrs(path)
        # "Close reinsert": nearest-evicted first.
        for entry in reversed(evicted):
            self._insert_entry(entry, target_level=level)

    def _split_upward(self, path: List[_RNode], level: int) -> None:
        node = path[-1]
        new_node = self._split_node(node)
        if new_node is None:  # X-tree supernode absorbed the overflow
            return
        if node is self._root:
            new_root = _RNode(is_leaf=False)
            for child in (node, new_node):
                lo, hi = child.mbr()
                new_root.entries.append(_Entry(lo=lo, hi=hi, child=child))
            self._root = new_root
            self._height += 1
            return
        parent = path[-2]
        lo, hi = new_node.mbr()
        parent.entries.append(_Entry(lo=lo, hi=hi, child=new_node))
        self._refresh_child_entry(parent, node)
        if len(parent.entries) > self._capacity(parent):
            self._handle_overflow(path[:-1], level + 1)

    @staticmethod
    def _refresh_child_entry(parent: _RNode, child: _RNode) -> None:
        for entry in parent.entries:
            if entry.child is child:
                entry.lo, entry.hi = child.mbr()
                return
        raise SpatialIndexError("child entry missing from parent")

    def _adjust_path_mbrs(self, path: List[_RNode]) -> None:
        # A forced reinsertion triggered below may have split (and thus
        # re-parented) nodes on the saved path; moved children received
        # fresh MBRs from the split code, so stale links are skipped.
        for parent, child in zip(path[:-1][::-1], path[1:][::-1]):
            if parent.is_leaf:
                continue
            for entry in parent.entries:
                if entry.child is child:
                    if child.entries:
                        entry.lo, entry.hi = child.mbr()
                    break

    # -- topological split ---------------------------------------------------

    def _split_node(self, node: _RNode) -> Optional[_RNode]:
        """R* topological split; returns the newly created sibling."""
        distribution = self._choose_split(node.entries)
        left_entries, right_entries = distribution
        node.entries = left_entries
        sibling = _RNode(is_leaf=node.is_leaf)
        sibling.entries = right_entries
        return sibling

    def _choose_split(
        self, entries: List[_Entry]
    ) -> Tuple[List[_Entry], List[_Entry]]:
        d = len(entries[0].lo)
        m = self.min_entries
        best = None
        best_key = None
        for axis in range(d):
            for sort_key in ("lo", "hi"):
                order = sorted(
                    range(len(entries)),
                    key=lambda i: (
                        getattr(entries[i], sort_key)[axis],
                        getattr(entries[i], "hi" if sort_key == "lo" else "lo")[axis],
                    ),
                )
                margin_sum = 0.0
                candidates = []
                for split_at in range(m, len(entries) - m + 1):
                    left = [entries[i] for i in order[:split_at]]
                    right = [entries[i] for i in order[split_at:]]
                    l_lo, l_hi = self._entries_mbr(left)
                    r_lo, r_hi = self._entries_mbr(right)
                    margin_sum += mbr_margin(l_lo, l_hi) + mbr_margin(r_lo, r_hi)
                    overlap = mbr_overlap(l_lo, l_hi, r_lo, r_hi)
                    area = mbr_area(l_lo, l_hi) + mbr_area(r_lo, r_hi)
                    candidates.append((overlap, area, left, right))
                # Axis chosen by minimal total margin; distribution within
                # the axis by minimal overlap then minimal area.
                candidates.sort(key=lambda c: (c[0], c[1]))
                overlap, area, left, right = candidates[0]
                key = (margin_sum, overlap, area)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (left, right)
        return best

    @staticmethod
    def _entries_mbr(entries: List[_Entry]) -> Tuple[np.ndarray, np.ndarray]:
        lo = entries[0].lo
        hi = entries[0].hi
        for entry in entries[1:]:
            lo, hi = mbr_union(lo, hi, entry.lo, entry.hi)
        return lo, hi

    # -- queries -------------------------------------------------------------

    def _query(self, q, k, exclude):
        root_lo, root_hi = self._root.mbr()
        frontier: List = [(self.metric.min_distance_to_rect(q, root_lo, root_hi), 0, self._root)]
        best = KBestHeap(k)
        counter = 1
        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if bound > best.worst_distance:
                break
            self._visit_node()
            if node.is_leaf:
                for entry in node.entries:
                    if exclude is not None and entry.point_id == exclude:
                        continue
                    dist = self.metric.distance(q, self._X[entry.point_id])
                    self.stats.distance_evaluations += 1
                    best.consider(dist, entry.point_id)
            else:
                for entry in node.entries:
                    child_bound = self.metric.min_distance_to_rect(q, entry.lo, entry.hi)
                    if child_bound <= best.worst_distance:
                        heapq.heappush(frontier, (child_bound, counter, entry.child))
                        counter += 1
        return self._sort_result(*best.result())

    def _query_radius(self, q, radius, exclude):
        out_ids: List[int] = []
        out_dists: List[float] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            self._visit_node()
            if node.is_leaf:
                for entry in node.entries:
                    if exclude is not None and entry.point_id == exclude:
                        continue
                    dist = self.metric.distance(q, self._X[entry.point_id])
                    self.stats.distance_evaluations += 1
                    if dist <= radius:
                        out_ids.append(entry.point_id)
                        out_dists.append(dist)
            else:
                for entry in node.entries:
                    if self.metric.min_distance_to_rect(q, entry.lo, entry.hi) <= radius:
                        stack.append(entry.child)
        return self._sort_result(np.array(out_ids, dtype=int), np.array(out_dists))

    # -- diagnostics -----------------------------------------------------------

    def node_count(self) -> int:
        """Total number of nodes (used in structural tests)."""
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(entry.child for entry in node.entries)
        return count

    def leaf_point_ids(self) -> np.ndarray:
        """All point ids stored in leaves (used to assert no loss)."""
        ids: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                ids.extend(entry.point_id for entry in node.entries)
            else:
                stack.extend(entry.child for entry in node.entries)
        return np.sort(np.array(ids, dtype=int))

    def check_invariants(self) -> None:
        """Validate MBR containment and fill factors; raises on violation."""
        self._check_node(self._root, is_root=True)

    def _check_node(self, node: _RNode, is_root: bool) -> Tuple[np.ndarray, np.ndarray]:
        if not node.entries:
            raise SpatialIndexError("empty node")
        if not is_root and not node.is_super and len(node.entries) < self.min_entries:
            raise SpatialIndexError(
                f"underfull node: {len(node.entries)} < {self.min_entries}"
            )
        if node.is_leaf:
            return node.mbr()
        lo = hi = None
        for entry in node.entries:
            c_lo, c_hi = self._check_node(entry.child, is_root=False)
            if np.any(c_lo < entry.lo - 1e-12) or np.any(c_hi > entry.hi + 1e-12):
                raise SpatialIndexError("child MBR exceeds parent entry MBR")
            if lo is None:
                lo, hi = entry.lo, entry.hi
            else:
                lo, hi = mbr_union(lo, hi, entry.lo, entry.hi)
        return lo, hi
