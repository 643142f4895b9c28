"""Section 6.2: LOF over a range of MinPts values.

LOF is *not* monotonic in MinPts (Section 6.1, figures 7 and 8), so the
paper proposes computing LOF for every MinPts in a range
``[MinPtsLB, MinPtsUB]`` and ranking objects by an aggregate — the
*maximum* by default, "to highlight the instance at which the object is
the most outlying". The minimum could erase the outlying nature of an
object entirely and the mean may dilute it; both are still offered for
the ablation study.

Guidelines from the paper, encoded in :func:`suggest_min_pts_range`:

* MinPtsLB >= 10, to suppress statistical fluctuation of reach-dists;
* MinPtsLB ~ the smallest cluster size relative to which objects should
  be considered local outliers (10-20 works well in practice);
* MinPtsUB ~ the largest number of "close by" objects that can jointly
  be local outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .._validation import check_data, check_min_pts_range
from ..exceptions import ValidationError
from .materialization import MaterializationDB

_AGGREGATES: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "max": lambda m: m.max(axis=0),
    "min": lambda m: m.min(axis=0),
    "mean": lambda m: m.mean(axis=0),
    "median": lambda m: np.median(m, axis=0),
}


@dataclass
class RangeLOFResult:
    """Scores across a MinPts range.

    Attributes
    ----------
    min_pts_values : (m,) ints, the sweep grid (lb..ub inclusive).
    lof_matrix : (m, n) score_MinPts(p) for each grid value and object
        (named for the default scorer; holds whatever ``scorer`` was).
    scores : (n,) aggregated score per object (the ranking key).
    aggregate : name of the aggregation used for ``scores``.
    scorer : registry name of the scorer that produced the matrix.
    """

    min_pts_values: np.ndarray
    lof_matrix: np.ndarray
    scores: np.ndarray
    aggregate: str
    scorer: str = "lof"

    def aggregate_as(self, aggregate: str) -> np.ndarray:
        """Re-aggregate the stored per-MinPts matrix without recomputing."""
        if aggregate not in _AGGREGATES:
            raise ValidationError(
                f"aggregate must be one of {sorted(_AGGREGATES)}, got {aggregate!r}"
            )
        return _AGGREGATES[aggregate](self.lof_matrix)

    def argmax_min_pts(self) -> np.ndarray:
        """For each object, the MinPts value at which its LOF peaks."""
        return self.min_pts_values[np.argmax(self.lof_matrix, axis=0)]

    def profile(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """(min_pts_values, LOF values) for object ``i`` — the per-object
        curves of Figure 8."""
        return self.min_pts_values, self.lof_matrix[:, int(i)]


def score_range(
    X=None,
    min_pts_lb: int = 10,
    min_pts_ub: int = 50,
    aggregate: str = "max",
    metric="euclidean",
    index="brute",
    duplicate_mode: str = "inf",
    materialization: Optional[MaterializationDB] = None,
    scorer: str = "lof",
) -> RangeLOFResult:
    """Compute any registered scorer for every MinPts in [lb, ub] and
    aggregate (Section 6.2's sweep, generalized over the scorer zoo).

    Either pass the dataset ``X`` (a materialization database is built
    with ``min_pts_ub`` as the bound) or a prebuilt ``materialization``
    covering at least ``min_pts_ub``. A scorer with ``requires_data``
    (LDOF) needs ``X`` even when a materialization is supplied.
    """
    from ..scorers import get_scorer

    scorer_obj = get_scorer(scorer)
    if aggregate not in _AGGREGATES:
        raise ValidationError(
            f"aggregate must be one of {sorted(_AGGREGATES)}, got {aggregate!r}"
        )
    if materialization is None:
        if X is None:
            raise ValidationError("provide either X or a materialization")
        X = check_data(X, min_rows=2)
        lb, ub = check_min_pts_range(min_pts_lb, min_pts_ub, X.shape[0])
        materialization = MaterializationDB.materialize(
            X, ub, index=index, metric=metric, duplicate_mode=duplicate_mode
        )
    else:
        lb, ub = check_min_pts_range(
            min_pts_lb, min_pts_ub, materialization.n_points
        )
        if ub > materialization.min_pts_ub:
            raise ValidationError(
                f"min_pts_ub={ub} exceeds the materialized bound "
                f"{materialization.min_pts_ub}"
            )
    grid = np.arange(lb, ub + 1)
    matrix = scorer_obj.fit_grid(materialization, grid, X=X, metric=metric)
    scores = _AGGREGATES[aggregate](matrix)
    return RangeLOFResult(
        min_pts_values=grid,
        lof_matrix=matrix,
        scores=scores,
        aggregate=aggregate,
        scorer=scorer_obj.name,
    )


def lof_range(
    X=None,
    min_pts_lb: int = 10,
    min_pts_ub: int = 50,
    aggregate: str = "max",
    metric="euclidean",
    index="brute",
    duplicate_mode: str = "inf",
    materialization: Optional[MaterializationDB] = None,
) -> RangeLOFResult:
    """Compute LOF for every MinPts in [lb, ub] and aggregate — the
    paper's original sweep; :func:`score_range` with ``scorer='lof'``."""
    return score_range(
        X=X,
        min_pts_lb=min_pts_lb,
        min_pts_ub=min_pts_ub,
        aggregate=aggregate,
        metric=metric,
        index=index,
        duplicate_mode=duplicate_mode,
        materialization=materialization,
        scorer="lof",
    )


def suggest_min_pts_range(
    n_samples: int,
    smallest_outlier_cluster: Optional[int] = None,
    largest_outlier_group: Optional[int] = None,
) -> Tuple[int, int]:
    """Heuristic [MinPtsLB, MinPtsUB] following Section 6.2.

    Parameters
    ----------
    n_samples : dataset size (the range is clipped to n_samples - 1).
    smallest_outlier_cluster : the minimum number of objects a cluster
        must contain for other objects to be local outliers relative to
        it; sets MinPtsLB (floored at the paper's 10).
    largest_outlier_group : the maximum number of "close by" objects
        that can jointly be local outliers; sets MinPtsUB.
    """
    if n_samples < 3:
        raise ValidationError("need at least 3 samples for a MinPts range")
    lb = 10 if smallest_outlier_cluster is None else max(10, int(smallest_outlier_cluster))
    ub = (
        max(lb, min(50, n_samples - 1))
        if largest_outlier_group is None
        else max(lb, int(largest_outlier_group))
    )
    lb = min(lb, n_samples - 1)
    ub = min(ub, n_samples - 1)
    return lb, ub
