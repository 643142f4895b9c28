"""Section 6.1: how LOF varies with MinPts (figures 7 and 8).

LOF is non-monotonic in MinPts. Figure 7 quantifies the fluctuation on a
pure Gaussian cloud by tracking the minimum, maximum, mean and standard
deviation of all LOF values as MinPts grows from 2 to 50; Figure 8 shows
per-object LOF-vs-MinPts curves for representatives of three clusters of
very different sizes (10, 35, 500 objects).

Both artifacts reduce to a *sweep*: one materialization at the range's
upper bound, then per-MinPts LOF vectors (cheap, step 2 of the two-step
algorithm) and summary statistics over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .._validation import check_data, check_min_pts_range
from ..core.materialization import MaterializationDB


@dataclass
class MinPtsSweep:
    """LOF summary statistics across a MinPts grid (Figure 7's series)."""

    min_pts_values: np.ndarray
    lof_matrix: np.ndarray  # (len(grid), n_objects)

    @property
    def lof_min(self) -> np.ndarray:
        return self.lof_matrix.min(axis=1)

    @property
    def lof_max(self) -> np.ndarray:
        return self.lof_matrix.max(axis=1)

    @property
    def lof_mean(self) -> np.ndarray:
        return self.lof_matrix.mean(axis=1)

    @property
    def lof_std(self) -> np.ndarray:
        return self.lof_matrix.std(axis=1)

    def profile(self, i: int) -> np.ndarray:
        """LOF-vs-MinPts curve of one object (Figure 8 style)."""
        return self.lof_matrix[:, int(i)]

    def profiles(self, ids: Sequence[int]) -> Dict[int, np.ndarray]:
        return {int(i): self.profile(i) for i in ids}

    def stabilization_min_pts(self, tolerance: float = 0.05) -> int:
        """Smallest MinPts from which the std-dev of LOF stays within
        ``tolerance`` of its final value — the paper's 'standard
        deviation of LOF only stabilizes when MinPtsLB is at least 10'
        observation, made checkable."""
        stds = self.lof_std
        final = stds[-1]
        stable = np.abs(stds - final) <= tolerance
        # Find the first index from which stability holds throughout.
        for idx in range(len(stable)):
            if stable[idx:].all():
                return int(self.min_pts_values[idx])
        return int(self.min_pts_values[-1])


def sweep_min_pts(
    X=None,
    min_pts_lb: int = 2,
    min_pts_ub: int = 50,
    metric="euclidean",
    index="brute",
    materialization: Optional[MaterializationDB] = None,
) -> MinPtsSweep:
    """Compute LOF for every MinPts in [lb, ub] and package the sweep."""
    if materialization is None:
        X = check_data(X, min_rows=3)
        lb, ub = check_min_pts_range(min_pts_lb, min_pts_ub, X.shape[0])
        materialization = MaterializationDB.materialize(
            X, ub, index=index, metric=metric
        )
    else:
        lb, ub = check_min_pts_range(
            min_pts_lb, min_pts_ub, materialization.n_points
        )
    grid = np.arange(lb, ub + 1)
    matrix = materialization.lof_table(grid).copy()
    return MinPtsSweep(min_pts_values=grid, lof_matrix=matrix)


def outlier_onset(
    sweep: MinPtsSweep, i: int, threshold: float = 1.5
) -> Optional[int]:
    """First MinPts value at which object ``i`` scores above
    ``threshold`` — e.g. Figure 8's 'objects in S2 are outliers starting
    at MinPts = 45'. Returns None if the object never crosses it."""
    curve = sweep.profile(i)
    above = np.flatnonzero(curve > threshold)
    if len(above) == 0:
        return None
    return int(sweep.min_pts_values[above[0]])
