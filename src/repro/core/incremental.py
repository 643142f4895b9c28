"""Incremental LOF maintenance under insertions and deletions.

The paper closes (Section 8) by calling for cheaper LOF computation.
The now-standard answer (Pokrajac et al., "Incremental local outlier
detection for data streams") exploits LOF's locality: inserting or
removing one object only changes the k-distance of its *reverse*
neighbors (objects that gain or lose it among their MinPts nearest),
the lrd of those and of objects listing one of them, and the LOF of
objects whose lrd changed or that list such an object.

:class:`IncrementalLOF` keeps those layers in a
:class:`~repro.core.graph.DynamicNeighborhoodGraph` and recomputes each
density layer as ONE pass of the batch kernels
(:func:`repro.core.scoring.lrd_of` / :func:`~repro.core.scoring.lof_of`),
so maintained scores match :meth:`MaterializationDB.lof` bit-for-bit.

The live points sit in one ``(capacity, d)`` array, one *slot* each. A
deleted object's slot goes to the next insert and the capacity doubles
only when every slot is taken, so a bounded window keeps every
per-object structure bounded; rows, k-distances, lrd, LOF and group keys
are all indexed by slot. A push costs one distance row against the live
points per changed neighborhood (one stacked block), plus one on an
insert to find them. Rows are selected over the live slots in handle (arrival) order, so
ties keep the batch path's (distance, id) order (Definition 4, via
:func:`repro.index.batch.select_tie_inclusive`, the fit's selection).

All three batch duplicate conventions are supported: ``'inf'``,
``'distinct'`` (k-distinct-distance neighborhoods over reference-counted
exact-coordinate group keys, cut and grown by the fit's own
:func:`~repro.core.duplicates.ensure_distinct_coverage`, so the radii
equal :meth:`MaterializationDB.k_distances`) and ``'error'`` (an update that
would give an infinite lrd raises
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
from ..index.batch import pack_padded, select_tie_inclusive
from ..index.brute import BLOCK_BYTES
from . import scoring
from .duplicates import ensure_distinct_coverage
from .graph import DynamicNeighborhoodGraph


@dataclass
class UpdateReport:
    """What one insert/delete actually recomputed."""

    changed_neighborhoods: int
    changed_lrd: int
    changed_lof: int


def _grown(a: np.ndarray, n: int, fill) -> np.ndarray:
    return np.concatenate([a, np.full((n - len(a),) + a.shape[1:], fill, a.dtype)])


class IncrementalLOF:
    """Maintain LOF_MinPts for a dynamic dataset.

    Parameters
    ----------
    min_pts : the MinPts parameter (fixed for the stream's lifetime).
    metric : distance metric name or instance.
    duplicate_mode : the batch duplicate policy ('inf', 'distinct' or
        'error'); under 'distinct' neighborhoods are grown to the
        k-distinct-distance exactly as the materialization does.

    Point handles returned by :meth:`insert` are stable, increasing
    integer keys; :attr:`scores` maps handle -> current LOF.
    """

    def __init__(self, min_pts: int, metric="euclidean", duplicate_mode: str = "inf"):
        from .materialization import _check_duplicate_mode

        if min_pts < 1:
            raise ValidationError(f"min_pts must be >= 1, got {min_pts}")
        self.min_pts = int(min_pts)
        self.metric = get_metric(metric)
        self.duplicate_mode = _check_duplicate_mode(duplicate_mode)
        self._next_handle = 0
        self._X = np.empty((0, 0))                        # slot -> point
        self._handle = np.empty(0, dtype=np.int64)        # slot -> handle, -1 free
        self._lrd = np.empty(0)                           # slot -> lrd
        self._lof = np.empty(0)                           # slot -> LOF
        self._key = np.empty(0, dtype=np.int64)           # slot -> group key
        self._reverse: List[Set[int]] = []                # slot -> slots listing it
        self._slot: Dict[int, int] = {}                   # live handle -> slot
        self._free: List[int] = []
        self._order = np.empty(0, dtype=np.int64)         # live slots by handle
        self._graph = DynamicNeighborhoodGraph(self.min_pts)  # rows by slot
        # 'distinct' groups as np.unique(X, axis=0) forms them batch-side:
        # coordinate bytes (+0.0 folds -0.0) -> [key, live holders]; a
        # group leaves with its last holder.
        self._key_by_coord: Dict[bytes, List[int]] = {}
        self._next_key = 0

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
            inc._claim(row)
        inc._rebuild_all()
        return inc

    def _claim(self, point: np.ndarray) -> int:
        """Give ``point`` the next handle and a free slot; returns the slot."""
        if self._X.shape[1] != point.shape[0]:
            if self._slot:
                raise ValidationError("point dimensionality mismatch")
            self._X = np.empty((len(self._handle), point.shape[0]))
        if not self._free:
            cap = len(self._handle)
            new = max(2 * cap, self.min_pts + 1)
            self._X = _grown(self._X, new, 0.0)
            self._handle = _grown(self._handle, new, -1)
            self._key = _grown(self._key, new, -1)
            self._lrd = _grown(self._lrd, new, np.nan)
            self._lof = _grown(self._lof, new, np.nan)
            self._reverse += [set() for _ in range(new - cap)]
            self._free = list(range(new - 1, cap - 1, -1))
        s = self._free.pop()
        self._X[s], self._handle[s] = point, self._next_handle
        self._slot[self._next_handle] = s
        self._next_handle += 1
        self._order = np.append(self._order, s)
        coord = (point + 0.0).tobytes()
        if coord not in self._key_by_coord:
            self._key_by_coord[coord] = [self._next_key, 0]
            self._next_key += 1
        self._key_by_coord[coord][1] += 1
        self._key[s] = self._key_by_coord[coord][0]
        return s

    def _release(self, s: int) -> None:
        """Free slot ``s``, whose row has already left the graph."""
        coord = (self._X[s] + 0.0).tobytes()
        self._key_by_coord[coord][1] -= 1
        if not self._key_by_coord[coord][1]:
            del self._key_by_coord[coord]
        del self._slot[int(self._handle[s])]
        self._handle[s] = self._key[s] = -1
        self._lrd[s] = self._lof[s] = np.nan
        self._reverse[s] = set()
        self._order = self._order[self._order != s]
        self._free.append(s)

    def _rebuild_all(self) -> None:
        self._reverse = [set() for _ in self._reverse]
        self._graph.clear()
        self._lof[:] = np.nan
        if len(self._order) > self.min_pts:
            self._refresh_neighborhoods(self._order)
            self._refresh_scores(self._order, self._order)

    # -- public state ---------------------------------------------------------

    @property
    def n_points(self) -> int:
        return len(self._slot)

    @property
    def handles(self) -> List[int]:
        return self._handle[self._order].tolist()

    @property
    def scores(self) -> Dict[int, float]:
        """Current LOF per handle (empty until > min_pts points exist)."""
        if len(self._slot) <= self.min_pts:
            return {}
        return dict(zip(self.handles, self._lof[self._order].tolist()))

    def score_of(self, handle: int) -> float:
        self._require_ready()
        if handle not in self._slot:
            raise KeyError(f"unknown handle {handle}")
        return float(self._lof[self._slot[handle]])

    def points(self) -> np.ndarray:
        """The live points, one row per handle of :attr:`handles`
        (arrival order) — the row order of the batch oracle."""
        return self._X[self._order]

    def _require_ready(self) -> None:
        if len(self._slot) <= self.min_pts:
            raise NotFittedError(
                f"need more than min_pts={self.min_pts} points before LOF "
                f"is defined; have {len(self._slot)}"
            )

    # -- primitive recomputations ----------------------------------------------

    def _refresh_neighborhoods(self, slots: np.ndarray) -> None:
        """Re-select the rows of ``slots``: one stacked distance block
        per block of rows against the live points, gathered once in
        handle order so positional ties break by handle exactly as in
        the batch path."""
        order = self._order
        Xw = self._X[order]
        n, d = Xw.shape
        positions = np.searchsorted(self._handle[order], self._handle[slots])
        step = max(1, BLOCK_BYTES // (8 * n * d))
        for a in range(0, len(slots), step):
            pos = positions[a : a + step]
            D = self.metric.paired_distances(Xw[None], Xw[pos, None])
            D[np.arange(len(pos)), pos] = np.inf
            flat_ids, flat_dists, counts = self._select(D)
            neighbors = order[flat_ids]
            stops = np.cumsum(counts)
            rows = zip(slots[a : a + step].tolist(), (stops - counts).tolist(), stops.tolist())
            for s, lo, hi in rows:
                if s in self._graph:
                    for o in self._graph.row(s)[0].tolist():
                        self._reverse[o].discard(s)
                row = neighbors[lo:hi].copy()
                self._graph.set_row(s, row, flat_dists[lo:hi].copy(), flat_dists[hi - 1])
                for o in row.tolist():
                    self._reverse[o].add(s)

    def _select(self, D: np.ndarray):
        """The CSR neighborhood rows of a distance block (own entries
        inf), selected as the materialization selects them; each row's
        last entry is its radius."""
        k = self.min_pts
        if self.duplicate_mode != "distinct":
            return select_tie_inclusive(D, k)
        ids, dists, short = ensure_distinct_coverage(
            lambda rows, probe: pack_padded(*select_tie_inclusive(D[rows], probe)),
            *pack_padded(*select_tie_inclusive(D, k)),
            self._key[self._order], k, limit=D.shape[1] - 1,
        )
        if len(short):
            raise ValidationError(
                f"fewer than k={k} distinct coordinate "
                "locations exist among the maintained points"
            )
        kept = ids >= 0
        return ids[kept], dists[kept], kept.sum(axis=1)

    def _refresh_scores(self, lrd_dirty, lof_dirty) -> None:
        """One vectorized kernel pass per density layer over its dirty rows."""
        rows = np.array(sorted(lrd_dirty), dtype=np.int64)
        self._lrd[rows] = scoring.lrd_of(
            self._graph, rows, duplicate_mode=self.duplicate_mode
        )
        rows = np.array(sorted(lof_dirty), dtype=np.int64)
        self._lof[rows] = scoring.lof_of(self._graph, rows, self._lrd)

    # -- updates -----------------------------------------------------------------

    def insert(self, point) -> int:
        """Insert one point; returns its handle.

        Only the affected dependency layers are recomputed; the returned
        handle's score is available via :attr:`scores` once the dataset
        exceeds ``min_pts`` points.
        """
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        if not np.all(np.isfinite(point)):
            raise ValidationError("point contains NaN or infinite values")
        s = self._claim(point)
        h = self._next_handle - 1
        n = len(self._slot)
        if n <= self.min_pts:
            self.last_report = UpdateReport(0, 0, 0)
            return h
        if n == self.min_pts + 1:
            # First moment LOF becomes defined: full build, all points new.
            self._rebuild_all()
            self.last_report = UpdateReport(n, n, n)
            return h
        # Objects whose MinPts-neighborhood may change: those for which
        # the new point (the last live slot in handle order) is at
        # distance <= their current k-distance, compared bit-for-bit
        # with the row kernel _refresh_neighborhoods uses.
        old = self._order[:-1]
        dists = self.metric.pairwise_to_point(self._X[self._order], point)
        affected = old[dists[:-1] <= self._graph.kdist_values(old)]
        self._propagate({s, *affected.tolist()})
        return h

    def delete(self, handle: int) -> None:
        """Remove one point by handle, updating only affected objects."""
        if handle not in self._slot:
            raise KeyError(f"unknown handle {handle}")
        s = self._slot[handle]
        # Objects that listed the deleted point must re-query.
        affected = self._reverse[s]
        if s in self._graph:
            for o in self._graph.row(s)[0].tolist():
                self._reverse[o].discard(s)
        self._graph.drop_row(s)
        self._release(s)
        if len(self._slot) <= self.min_pts:
            self._rebuild_all()
            self.last_report = UpdateReport(0, 0, 0)
            return
        self._propagate(affected)

    def _propagate(self, changed_hoods: Set[int]) -> None:
        """Recompute the three dependency layers outward from the objects
        whose neighborhoods changed — each density layer one batched
        kernel call over exactly the dirty subset."""
        self._refresh_neighborhoods(np.array(sorted(changed_hoods), dtype=np.int64))
        # lrd(p) depends on p's neighborhood and on kdist of its members.
        lrd_dirty = set(changed_hoods)
        for s in changed_hoods:
            lrd_dirty |= self._reverse[s]
        # LOF(p) depends on lrd(p) and on lrd of p's neighbors.
        lof_dirty = set(lrd_dirty)
        for s in lrd_dirty:
            lof_dirty |= self._reverse[s]
        self._refresh_scores(lrd_dirty, lof_dirty)
        self.last_report = UpdateReport(
            changed_neighborhoods=len(changed_hoods),
            changed_lrd=len(lrd_dirty),
            changed_lof=len(lof_dirty),
        )
