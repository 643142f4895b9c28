"""Incremental LOF maintenance under insertions and deletions.

The paper closes (Section 8) by calling for cheaper LOF computation.
The now-standard answer (Pokrajac et al., "Incremental local outlier
detection for data streams") exploits LOF's locality: inserting or
removing one object only changes

* the k-distance of objects that gain/lose the object among their
  MinPts nearest neighbors (its *reverse* neighbors),
* the lrd of those objects and of objects having one of them in their
  neighborhood,
* the LOF of objects whose own lrd changed or that have such an object
  in their neighborhood.

:class:`IncrementalLOF` maintains exactly those dependency layers in a
:class:`~repro.core.graph.DynamicNeighborhoodGraph` and recomputes only
the affected objects — each layer as ONE vectorized pass through the
dirty-subset kernels :func:`repro.core.scoring.lrd_of` /
:func:`~repro.core.scoring.lof_of`, not per-object Python math. Because
those are the same ``np.add.reduceat`` kernels the batch surfaces use,
maintained scores match :meth:`MaterializationDB.lof` bit-for-bit
(including the inf/inf := 1 convention on duplicate-heavy data), and the
tracked :class:`UpdateReport` lets tests and benchmarks verify the
update stays local.

Ties are honored the same way as the batch path (Definition 4, via the
shared :func:`repro.index.batch.tie_inclusive_row` selection), and all
three batch duplicate conventions are supported: ``'inf'`` (the paper's
plain definition), ``'distinct'`` (neighborhoods grown to the
k-distinct-distance, maintained via exact-coordinate group keys so
radii match :meth:`MaterializationDB.k_distances` bit-for-bit) and
``'error'`` (an update that would produce an infinite lrd raises
:class:`~repro.exceptions.DuplicatePointsError`; the engine state is
then stale and must be discarded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

import numpy as np

from .._validation import check_data, check_min_pts
from ..exceptions import NotFittedError, ValidationError
from ..index import get_metric
from ..index.batch import tie_inclusive_row
from . import scoring
from .duplicates import k_distinct_ball
from .graph import DynamicNeighborhoodGraph


@dataclass
class UpdateReport:
    """What one insert/delete actually recomputed."""

    changed_neighborhoods: int
    changed_lrd: int
    changed_lof: int


class IncrementalLOF:
    """Maintain LOF_MinPts for a dynamic dataset.

    Parameters
    ----------
    min_pts : the MinPts parameter (fixed for the stream's lifetime).
    metric : distance metric name or instance.
    duplicate_mode : the batch duplicate policy ('inf', 'distinct' or
        'error'); under 'distinct' neighborhoods are grown to the
        k-distinct-distance exactly as the materialization does.

    Point handles returned by :meth:`insert` are stable integer keys;
    :attr:`scores` maps handle -> current LOF.
    """

    def __init__(self, min_pts: int, metric="euclidean", duplicate_mode: str = "inf"):
        from .materialization import _check_duplicate_mode

        if min_pts < 1:
            raise ValidationError(f"min_pts must be >= 1, got {min_pts}")
        self.min_pts = int(min_pts)
        self.metric = get_metric(metric)
        self.duplicate_mode = _check_duplicate_mode(duplicate_mode)
        self._points: Dict[int, np.ndarray] = {}
        self._next_handle = 0
        self._graph = DynamicNeighborhoodGraph(self.min_pts)
        self._lrd = np.full(0, np.nan, dtype=np.float64)  # dense, by handle
        self._lof: Dict[int, float] = {}
        self._reverse: Dict[int, Set[int]] = {}           # handle -> who lists it
        # Exact-coordinate group keys for the 'distinct' policy: the same
        # grouping np.unique(X, axis=0) induces batch-side, maintained as
        # a dict over normalized coordinate bytes (+0.0 folds -0.0 so
        # signed zeros land in one group, matching numpy equality).
        self._coord_key: Dict[int, int] = {}              # handle -> group key
        self._key_by_coord: Dict[bytes, int] = {}

    # -- bulk ---------------------------------------------------------------

    @classmethod
    def from_dataset(
        cls, X, min_pts: int, metric="euclidean", duplicate_mode: str = "inf"
    ) -> "IncrementalLOF":
        """Build the maintained state for an initial dataset."""
        X = check_data(X, min_rows=2)
        check_min_pts(min_pts, X.shape[0])
        inc = cls(min_pts, metric=metric, duplicate_mode=duplicate_mode)
        for row in X:
            h = inc._next_handle
            inc._points[h] = row.copy()
            inc._register_coord(h, row)
            inc._next_handle += 1
        inc._rebuild_all()
        return inc

    def _register_coord(self, handle: int, point: np.ndarray) -> None:
        coord = np.asarray(point, dtype=np.float64) + 0.0
        self._coord_key[handle] = self._key_by_coord.setdefault(
            coord.tobytes(), len(self._key_by_coord)
        )

    def _rebuild_all(self) -> None:
        handles = list(self._points)
        if len(handles) <= self.min_pts:
            # Not enough points for any neighborhood yet; scores undefined.
            self._graph.clear()
            self._lof.clear()
            self._reverse = {h: set() for h in handles}
            return
        self._reverse = {h: set() for h in handles}
        for h in handles:
            self._refresh_neighborhood(h)
        self._refresh_lrd(handles)
        self._refresh_lof(handles)

    # -- public state ---------------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self._points)

    @property
    def handles(self) -> List[int]:
        return sorted(self._points)

    @property
    def scores(self) -> Dict[int, float]:
        """Current LOF per handle (empty until > min_pts points exist)."""
        return dict(self._lof)

    def score_of(self, handle: int) -> float:
        self._require_ready()
        if handle not in self._lof:
            raise KeyError(f"unknown handle {handle}")
        return self._lof[handle]

    def _require_ready(self) -> None:
        if len(self._points) <= self.min_pts:
            raise NotFittedError(
                f"need more than min_pts={self.min_pts} points before LOF "
                f"is defined; have {len(self._points)}"
            )

    # -- primitive recomputations ----------------------------------------------

    def _all_matrix(self):
        handles = sorted(self._points)
        return handles, np.vstack([self._points[h] for h in handles])

    def _refresh_neighborhood(self, h: int) -> None:
        handles, X = self._all_matrix()
        pos = handles.index(h)
        dists = self.metric.pairwise_to_point(X, self._points[h])
        dists[pos] = np.inf
        # Shared Definition-4 selection: closed k-distance ball, ties
        # included, deterministic (distance, id) order. Positional order
        # equals handle order because ``handles`` is sorted.
        if self.duplicate_mode == "distinct":
            members, kth = self._distinct_row(handles, dists)
        else:
            members, kth = tie_inclusive_row(dists, self.min_pts)
        old_ids = self._graph.row(h)[0] if h in self._graph else ()
        for o in old_ids:
            self._reverse.get(int(o), set()).discard(h)
        neighbor_handles = np.array([handles[m] for m in members], dtype=np.int64)
        self._graph.set_row(h, neighbor_handles, dists[members], kth)
        for o in neighbor_handles:
            self._reverse.setdefault(int(o), set()).add(h)

    def _distinct_row(self, handles, dists):
        """The k-distinct-distance neighborhood row (closed ball at the
        smallest radius covering ``min_pts`` distinct coordinate
        locations, duplicates of the query inside it included) — the
        same :func:`~repro.core.duplicates.k_distinct_ball` the
        materialization uses, so radii and membership match
        bit-for-bit."""
        keys = np.array([self._coord_key[h] for h in handles], dtype=np.int64)
        ball = k_distinct_ball(dists, keys, self.min_pts)
        if ball is None:
            raise ValidationError(
                f"fewer than k={self.min_pts} distinct coordinate "
                "locations exist among the maintained points"
            )
        members, _, kth = ball
        return members, float(kth)

    def _ensure_lrd_capacity(self, max_handle: int) -> None:
        if max_handle >= len(self._lrd):
            grown = np.full(max(max_handle + 1, 2 * len(self._lrd) + 1), np.nan)
            grown[: len(self._lrd)] = self._lrd
            self._lrd = grown

    def _refresh_lrd(self, dirty) -> np.ndarray:
        """One vectorized kernel pass over the dirty rows."""
        rows = np.array(sorted(dirty), dtype=np.int64)
        if len(rows):
            self._ensure_lrd_capacity(int(rows.max()))
            self._lrd[rows] = scoring.lrd_of(
                self._graph, rows, duplicate_mode=self.duplicate_mode
            )
        return rows

    def _refresh_lof(self, dirty) -> np.ndarray:
        """One vectorized kernel pass over the dirty rows."""
        rows = np.array(sorted(dirty), dtype=np.int64)
        if len(rows):
            values = scoring.lof_of(self._graph, rows, self._lrd)
            for h, v in zip(rows, values):
                self._lof[int(h)] = float(v)
        return rows

    # -- updates -----------------------------------------------------------------

    def insert(self, point) -> int:
        """Insert one point; returns its handle.

        Only the affected dependency layers are recomputed; the returned
        handle's score is available via :attr:`scores` once the dataset
        exceeds ``min_pts`` points.
        """
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        if self._points and point.shape[0] != next(iter(self._points.values())).shape[0]:
            raise ValidationError("point dimensionality mismatch")
        if not np.all(np.isfinite(point)):
            raise ValidationError("point contains NaN or infinite values")
        h = self._next_handle
        self._next_handle += 1
        self._points[h] = point
        self._register_coord(h, point)
        self._reverse.setdefault(h, set())
        if len(self._points) == self.min_pts + 1:
            # First moment LOF becomes defined: full build, all points new.
            self._rebuild_all()
            self.last_report = UpdateReport(
                changed_neighborhoods=len(self._points),
                changed_lrd=len(self._points),
                changed_lof=len(self._points),
            )
            return h
        if len(self._points) <= self.min_pts:
            self.last_report = UpdateReport(0, 0, 0)
            return h
        # Objects whose MinPts-neighborhood may change: those for which
        # the new point is at distance <= their current k-distance.
        # Distances are computed with the same vectorized kernel used by
        # _refresh_neighborhood so boundary ties compare bit-for-bit.
        handles, X = self._all_matrix()
        dists = self.metric.pairwise_to_point(X, point)
        affected = {h}
        for pos, other in enumerate(handles):
            if other == h:
                continue
            if dists[pos] <= self._graph.kdist_of(other):
                affected.add(other)
        self._propagate(affected)
        return h

    def delete(self, handle: int) -> None:
        """Remove one point by handle, updating only affected objects."""
        if handle not in self._points:
            raise KeyError(f"unknown handle {handle}")
        # Objects that listed the deleted point must re-query.
        affected = set(self._reverse.get(handle, set()))
        if handle in self._graph:
            for o in self._graph.row(handle)[0]:
                self._reverse.get(int(o), set()).discard(handle)
        self._points.pop(handle)
        self._graph.drop_row(handle)
        if handle < len(self._lrd):
            self._lrd[handle] = np.nan
        self._lof.pop(handle, None)
        self._reverse.pop(handle, None)
        self._coord_key.pop(handle, None)
        if len(self._points) <= self.min_pts:
            self._rebuild_all()
            self.last_report = UpdateReport(0, 0, 0)
            return
        affected &= set(self._points)
        self._propagate(affected)

    def _propagate(self, changed_hoods: Set[int]) -> None:
        """Recompute the three dependency layers outward from the objects
        whose neighborhoods changed — each density layer one batched
        kernel call over exactly the dirty subset."""
        for h in sorted(changed_hoods):
            self._refresh_neighborhood(h)
        # lrd(p) depends on p's neighborhood and on kdist of its members.
        lrd_dirty = set(changed_hoods)
        for h in changed_hoods:
            lrd_dirty |= self._reverse.get(h, set())
        lrd_dirty &= set(self._points)
        self._refresh_lrd(lrd_dirty)
        # LOF(p) depends on lrd(p) and on lrd of p's neighbors.
        lof_dirty = set(lrd_dirty)
        for h in lrd_dirty:
            lof_dirty |= self._reverse.get(h, set())
        lof_dirty &= set(self._points)
        self._refresh_lof(lof_dirty)
        self.last_report = UpdateReport(
            changed_neighborhoods=len(changed_hoods),
            changed_lrd=len(lrd_dirty),
            changed_lof=len(lof_dirty),
        )
