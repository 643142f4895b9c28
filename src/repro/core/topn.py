"""Top-n LOF mining with Theorem-1 bound pruning.

The paper's Section 8 asks for faster LOF computation; one classic
answer (later formalized by Jin, Tung & Han, KDD 2001) is to observe
that most applications only need the *top-n* outliers, and that upper
bounds on LOF can prune the bulk of the data before any exact LOF is
computed.

This module implements that idea using the paper's own machinery:
Theorem 1 gives, for every object p,

    LOF(p) <= direct_max(p) / indirect_min(p)

computable from the materialization database M alone. The mining loop:

1. compute every object's Theorem-1 upper and lower bound (two passes
   over the row prefixes of M — same cost class as one LOF evaluation);
2. seed the answer set with the n largest *lower* bounds;
3. visit objects in decreasing upper-bound order, computing exact LOF
   only while an object's upper bound still exceeds the running n-th
   best exact score; stop at the crossover.

The result is exact (asserted against the full computation in the test
suite); the pruning statistics are reported so benchmarks can show the
fraction of objects that never needed an exact evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .._validation import check_data, check_min_pts
from ..exceptions import ValidationError
from . import scoring
from .bounds import theorem1_ratios
from .materialization import MaterializationDB


@dataclass
class TopNResult:
    """Outcome of a pruned top-n LOF search.

    ``ids``/``scores`` are the exact top-n by LOF (descending; ties by
    ascending id). ``exact_evaluations`` counts objects whose exact LOF
    was computed; ``pruned`` counts objects dismissed on bounds alone.
    """

    ids: np.ndarray
    scores: np.ndarray
    exact_evaluations: int
    pruned: int

    @property
    def prune_fraction(self) -> float:
        total = self.exact_evaluations + self.pruned
        return self.pruned / total if total else 0.0


def _bound_vectors(mat: MaterializationDB, min_pts: int) -> Tuple[np.ndarray, np.ndarray]:
    """Theorem 1's lower/upper LOF bounds for every object, vectorized.

    direct_min/max are the extreme reachability distances within each
    object's neighborhood; indirect_min/max take the min/max of those
    same per-object extremes over the neighbors.
    """
    hoods = mat.prefixes(min_pts)
    kdist = mat.k_distances(min_pts)
    reach = scoring.reach_dist_values(hoods.dists, kdist[hoods.ids])
    lower, upper = theorem1_ratios(reach, hoods)
    # Degenerate zero reach-dists (duplicate-heavy data): fall back to
    # conservative bounds so the search stays exact.
    lower[~np.isfinite(lower)] = 0.0
    upper[~np.isfinite(upper)] = np.inf
    return lower, upper


def _exact_lof_of(mat: MaterializationDB, lrd: np.ndarray, i: int, min_pts: int) -> float:
    # One single-row pass through the shared kernel — same reduceat sum
    # as MaterializationDB.lof(), so near-tied LOF values compare
    # bit-for-bit with the batch path.
    ids, _ = mat.neighborhood_of(i, min_pts)
    return float(
        scoring.lof_values(
            lrd[[i]], lrd[ids][None, :], np.array([0]), np.array([len(ids)])
        )[0]
    )


def top_n_lof(
    X=None,
    n_outliers: int = 10,
    min_pts: int = 20,
    metric="euclidean",
    index="brute",
    materialization: Optional[MaterializationDB] = None,
) -> TopNResult:
    """Exact top-n objects by LOF_MinPts, with bound pruning.

    Either pass the dataset ``X`` or a prebuilt ``materialization``
    covering ``min_pts``. The returned ranking is identical to sorting
    the full LOF vector; only the amount of exact work differs.

    Note: the lrd vector is computed for all objects (it is one O(n)
    pass and every candidate's LOF needs its neighbors' lrd); the
    pruning saves the per-object LOF evaluations and, more importantly,
    gives the early-termination order a scan-based pipeline would use.
    """
    if n_outliers < 1:
        raise ValidationError(f"n_outliers must be >= 1, got {n_outliers}")
    if materialization is None:
        if X is None:
            raise ValidationError("provide either X or a materialization")
        X = check_data(X, min_rows=2)
        min_pts = check_min_pts(min_pts, X.shape[0])
        materialization = MaterializationDB.materialize(
            X, min_pts, index=index, metric=metric
        )
    mat = materialization
    n = mat.n_points
    n_outliers = min(n_outliers, n)

    lower, upper = _bound_vectors(mat, min_pts)
    lrd = mat.lrd(min_pts)

    # Candidate order: decreasing upper bound (ties by id for
    # determinism).
    order = np.lexsort((np.arange(n), -upper))

    exact: list = []  # (score, id), kept sorted descending
    evaluations = 0

    def nth_best() -> float:
        if len(exact) < n_outliers:
            return -np.inf
        return exact[n_outliers - 1][0]

    for i in order:
        if upper[i] < nth_best():
            # Nothing later can displace the current top-n. (Strict
            # comparison: an object whose upper bound equals the n-th
            # best could still tie exactly and win the ascending-id
            # tie-break, so it must be evaluated.)
            break
        score = _exact_lof_of(mat, lrd, int(i), min_pts)
        evaluations += 1
        exact.append((score, int(i)))
        exact.sort(key=lambda t: (-t[0], t[1]))
        del exact[n_outliers + 1 :]  # keep a small buffer for ties
    top = exact[:n_outliers]
    return TopNResult(
        ids=np.array([i for _, i in top], dtype=int),
        scores=np.array([s for s, _ in top]),
        exact_evaluations=evaluations,
        pruned=n - evaluations,
    )
