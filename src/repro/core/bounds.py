"""Section 5: formal bounds on LOF (Lemma 1, Theorem 1, Theorem 2).

Everything here computes the *actual* bound quantities on a concrete
dataset, so the theorems can be checked empirically (see
``repro.analysis.validation``) and used to explain a LOF value:

* :func:`direct_bounds` / :func:`indirect_bounds` — the
  direct_min/direct_max and indirect_min/indirect_max reachability
  statistics of an object's direct and indirect neighborhoods;
* :func:`theorem1_bounds` — direct_min/indirect_max <= LOF(p) <=
  direct_max/indirect_min, valid for any object;
* :func:`theorem2_bounds` — the sharper partition-aware bounds when the
  neighborhood straddles several clusters, with Corollary 1 (a single
  partition collapses to Theorem 1) falling out of the formula;
* :func:`lemma1_epsilon` / :func:`deep_members` — the cluster-level
  epsilon guarantee 1/(1+eps) <= LOF(p) <= 1+eps for objects deep inside
  a cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_data, check_min_pts
from ..exceptions import ValidationError
from .graph import RowPrefixes
from .materialization import MaterializationDB
from .reachability import reachability_matrix
from .scoring import reach_dist_values, segment_bounds


@dataclass
class NeighborhoodBounds:
    """The four reachability statistics of Theorem 1 for one object."""

    direct_min: float
    direct_max: float
    indirect_min: float
    indirect_max: float

    @property
    def lof_lower(self) -> float:
        """Theorem 1 lower bound: direct_min / indirect_max."""
        return self.direct_min / self.indirect_max

    @property
    def lof_upper(self) -> float:
        """Theorem 1 upper bound: direct_max / indirect_min."""
        return self.direct_max / self.indirect_min

    @property
    def direct_mean(self) -> float:
        """direct(p): mean of direct_min and direct_max (Section 5.3)."""
        return (self.direct_min + self.direct_max) / 2.0

    @property
    def indirect_mean(self) -> float:
        """indirect(p): mean of indirect_min and indirect_max."""
        return (self.indirect_min + self.indirect_max) / 2.0


def _reach_from(mat: MaterializationDB, i: int, min_pts: int) -> np.ndarray:
    """reach-dist(i, o) for every o in N_MinPts(i)."""
    ids, dists = mat.neighborhood_of(i, min_pts)
    kdist = mat.k_distances(min_pts)
    return reach_dist_values(dists, kdist[ids])


def direct_bounds(
    mat: MaterializationDB, i: int, min_pts: int
) -> Tuple[float, float]:
    """direct_min(p) and direct_max(p): extreme reachability distances
    between p and its MinPts-nearest neighbors."""
    reach = _reach_from(mat, int(i), min_pts)
    return float(reach.min()), float(reach.max())


def indirect_bounds(
    mat: MaterializationDB, i: int, min_pts: int
) -> Tuple[float, float]:
    """indirect_min(p) and indirect_max(p): extreme reachability
    distances between p's neighbors q and *their* MinPts-nearest
    neighbors."""
    ids, _ = mat.neighborhood_of(int(i), min_pts)
    lo = np.inf
    hi = -np.inf
    for q in ids:
        reach = _reach_from(mat, int(q), min_pts)
        lo = min(lo, float(reach.min()))
        hi = max(hi, float(reach.max()))
    return lo, hi


def _segment_extrema(lo_values, hi_values, starts, stops):
    """Per-segment min of ``lo_values`` and max of ``hi_values``."""
    bounds = segment_bounds(starts, stops, lo_values.size)
    return (
        np.minimum.reduceat(lo_values.reshape(-1), bounds)[0::2],
        np.maximum.reduceat(hi_values.reshape(-1), bounds)[0::2],
    )


def theorem1_ratios(
    reach: np.ndarray, hoods: RowPrefixes, extrema=None
) -> Tuple[np.ndarray, np.ndarray]:
    """Theorem 1's ``direct_min / indirect_max`` and ``direct_max /
    indirect_min`` for every row of ``hoods``, vectorized.

    ``reach`` holds the rows' reach-dists in the block shape of
    ``hoods``. The indirect bounds gather per-object ``(reach-min,
    reach-max)`` ``extrema`` (:func:`reach_extrema`) over each row's
    neighbor ids; ``None`` means the rows are the objects themselves,
    so their own direct extrema serve. The ratios are IEEE results:
    each caller maps the NaN/inf of duplicate-heavy data its own way.
    """
    direct_min, direct_max = _segment_extrema(reach, reach, hoods.starts, hoods.stops)
    rmin, rmax = (direct_min, direct_max) if extrema is None else extrema
    indirect_min, indirect_max = _segment_extrema(
        rmin[hoods.ids], rmax[hoods.ids], hoods.starts, hoods.stops
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return direct_min / indirect_max, direct_max / indirect_min


def reach_extrema(
    mat: MaterializationDB, min_pts: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-object (reach-min, reach-max) over every object at once.

    One vectorized pass instead of n calls to :func:`direct_bounds`:
    row i of M's MinPts prefixes contributes
    ``min/max reach-dist(i, o) for o in N_MinPts(i)`` via segmented
    reductions. These are the direct_min/direct_max of Theorem 1 for
    every object — and, gathered over a neighborhood's member ids, the
    ingredients of its indirect bounds (:func:`theorem1_ratios`). The
    online scoring service (:mod:`repro.serve`) uses them to bracket a
    query's LOF without running the lrd/LOF kernels.
    """
    hoods = mat.prefixes(min_pts)
    reach = reach_dist_values(hoods.dists, mat.k_distances(min_pts)[hoods.ids])
    return _segment_extrema(reach, reach, hoods.starts, hoods.stops)


def theorem1_bounds(
    mat_or_X,
    i: int,
    min_pts: int,
    metric="euclidean",
) -> NeighborhoodBounds:
    """Theorem 1's bound ingredients for object ``i``.

    Accepts either a prebuilt :class:`MaterializationDB` (covering at
    least ``min_pts``) or a raw dataset.
    """
    mat = _as_materialization(mat_or_X, min_pts, metric)
    d_lo, d_hi = direct_bounds(mat, i, min_pts)
    i_lo, i_hi = indirect_bounds(mat, i, min_pts)
    return NeighborhoodBounds(
        direct_min=d_lo, direct_max=d_hi, indirect_min=i_lo, indirect_max=i_hi
    )


@dataclass
class PartitionBounds:
    """Theorem 2's bound ingredients for one object and one partition."""

    xi: np.ndarray               # (n_parts,) neighborhood shares
    direct_min: np.ndarray       # per-partition direct minima
    direct_max: np.ndarray
    indirect_min: np.ndarray
    indirect_max: np.ndarray

    @property
    def lof_lower(self) -> float:
        """(sum xi_i * direct^i_min) * (sum xi_i / indirect^i_max)."""
        return float(
            np.sum(self.xi * self.direct_min)
            * np.sum(self.xi / self.indirect_max)
        )

    @property
    def lof_upper(self) -> float:
        """(sum xi_i * direct^i_max) * (sum xi_i / indirect^i_min)."""
        return float(
            np.sum(self.xi * self.direct_max)
            * np.sum(self.xi / self.indirect_min)
        )


def theorem2_bounds(
    mat_or_X,
    i: int,
    min_pts: int,
    partition_labels: Dict[int, int] = None,
    metric="euclidean",
) -> PartitionBounds:
    """Theorem 2's partition-aware bounds for object ``i``.

    ``partition_labels`` maps each neighbor id in N_MinPts(i) to a
    partition label (e.g. a cluster id). Every neighbor must be labeled;
    partitions must be non-empty by construction.

    With a single partition the result equals Theorem 1 (Corollary 1).
    """
    mat = _as_materialization(mat_or_X, min_pts, metric)
    i = int(i)
    ids, dists = mat.neighborhood_of(i, min_pts)
    if partition_labels is None:
        partition_labels = {int(q): 0 for q in ids}
    missing = [int(q) for q in ids if int(q) not in partition_labels]
    if missing:
        raise ValidationError(
            f"partition_labels misses neighbors of object {i}: {missing[:5]}"
        )
    kdist = mat.k_distances(min_pts)
    reach_direct = reach_dist_values(dists, kdist[ids])
    labels = np.array([partition_labels[int(q)] for q in ids])
    unique_labels = np.unique(labels)
    n_hood = len(ids)
    xi = np.empty(len(unique_labels))
    d_lo = np.empty(len(unique_labels))
    d_hi = np.empty(len(unique_labels))
    i_lo = np.empty(len(unique_labels))
    i_hi = np.empty(len(unique_labels))
    for j, lab in enumerate(unique_labels):
        members = ids[labels == lab]
        xi[j] = len(members) / n_hood
        reach_here = reach_direct[labels == lab]
        d_lo[j] = float(reach_here.min())
        d_hi[j] = float(reach_here.max())
        lo = np.inf
        hi = -np.inf
        for q in members:
            reach_q = _reach_from(mat, int(q), min_pts)
            lo = min(lo, float(reach_q.min()))
            hi = max(hi, float(reach_q.max()))
        i_lo[j] = lo
        i_hi[j] = hi
    return PartitionBounds(
        xi=xi, direct_min=d_lo, direct_max=d_hi,
        indirect_min=i_lo, indirect_max=i_hi,
    )


def lemma1_epsilon(
    X,
    cluster_ids: Sequence[int],
    min_pts: int,
    metric="euclidean",
) -> float:
    """The epsilon of Lemma 1 for a collection C of objects.

    epsilon = reach-dist-max / reach-dist-min - 1, where the min and max
    range over reach-dist_MinPts(p, q) for all ordered pairs p != q in C.
    For objects deep in C, 1/(1+eps) <= LOF <= 1+eps.
    """
    X = check_data(X, min_rows=2)
    min_pts = check_min_pts(min_pts, X.shape[0])
    cluster_ids = np.asarray(list(cluster_ids), dtype=int)
    if len(cluster_ids) < 2:
        raise ValidationError("cluster must contain at least 2 objects")
    reach = reachability_matrix(X, min_pts, metric=metric)
    sub = reach[np.ix_(cluster_ids, cluster_ids)]
    off_diag = sub[~np.eye(len(cluster_ids), dtype=bool)]
    rd_min = float(off_diag.min())
    rd_max = float(off_diag.max())
    if rd_min <= 0:
        raise ValidationError(
            "cluster contains duplicate points; reach-dist-min is 0 and "
            "Lemma 1's epsilon is undefined"
        )
    return rd_max / rd_min - 1.0


def deep_members(
    mat_or_X,
    cluster_ids: Sequence[int],
    min_pts: int,
    metric="euclidean",
) -> np.ndarray:
    """Objects 'deep' in C per Lemma 1: all their MinPts-nearest
    neighbors are in C, and all *those* objects' MinPts-nearest
    neighbors are also in C."""
    mat = _as_materialization(mat_or_X, min_pts, metric)
    cluster = set(int(c) for c in cluster_ids)
    deep = []
    for p in cluster:
        ids_p, _ = mat.neighborhood_of(p, min_pts)
        if not all(int(q) in cluster for q in ids_p):
            continue
        ok = True
        for q in ids_p:
            ids_q, _ = mat.neighborhood_of(int(q), min_pts)
            if not all(int(o) in cluster for o in ids_q):
                ok = False
                break
        if ok:
            deep.append(p)
    return np.array(sorted(deep), dtype=int)


def _as_materialization(mat_or_X, min_pts: int, metric) -> MaterializationDB:
    if isinstance(mat_or_X, MaterializationDB):
        return mat_or_X
    return MaterializationDB.materialize(mat_or_X, min_pts, metric=metric)
