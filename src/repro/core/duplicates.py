"""Duplicate-point utilities (the remark after Definition 6).

The local reachability density of p becomes infinite when at least
MinPts objects share p's spatial coordinates: every reachability
distance in its neighborhood is 0. The paper proposes basing the
neighborhood on a *k-distinct-distance* instead. These helpers let users
inspect a dataset for that hazard and compute the k-distinct-distance
directly; the policy itself is applied through the ``duplicate_mode``
argument of the LOF entry points.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_data, check_min_pts
from ..exceptions import ValidationError
from ..index import get_metric


def duplicate_groups(X) -> Tuple[np.ndarray, np.ndarray]:
    """Group identical rows of ``X``.

    Returns ``(keys, counts)``: ``keys[i]`` is the group id of row i and
    ``counts[g]`` the multiplicity of group g. Rows compare exactly
    (bitwise float equality), matching "same spatial coordinates" in the
    paper.
    """
    X = check_data(X, min_rows=1)
    _, keys, counts = np.unique(X, axis=0, return_inverse=True, return_counts=True)
    return keys.astype(np.int64), counts


def has_min_pts_duplicates(X, min_pts: int) -> bool:
    """True if some object has >= MinPts duplicates — i.e. plain
    Definition 6 would produce an infinite lrd somewhere."""
    X = check_data(X, min_rows=2)
    min_pts = check_min_pts(min_pts, X.shape[0])
    _, counts = duplicate_groups(X)
    # An object needs MinPts duplicates *besides itself*.
    return bool(np.any(counts >= min_pts + 1))


def k_distinct_radii(
    ids: np.ndarray, dists: np.ndarray, coord_keys: np.ndarray, ks: Sequence[int]
) -> List[Optional[float]]:
    """The k-distinct-distance of one neighbor row for every k of ``ks``.

    ``ids`` / ``dists`` are one query's candidates sorted by (distance,
    id). Walking the row, skip candidates at distance <= 0 (co-located
    duplicates of the query) or at a non-finite distance (an excluded
    id); the radius for k is the distance at which the ``k``-th new
    coordinate group key of ``coord_keys`` is reached, or None when the
    row holds fewer than ``k`` groups. The groups are found once for all
    of ``ks``. Every k-distinct-distance in the package is computed
    here, so the batch, incremental and online paths agree bit for bit.
    """
    keep = (dists > 0.0) & np.isfinite(dists)
    kept = dists[keep]
    _, first = np.unique(coord_keys[ids[keep]], return_index=True)
    first = np.sort(first)
    return [kept[first[k - 1]] if k <= len(first) else None for k in ks]


def distinct_steps(
    ids: np.ndarray, dists: np.ndarray, coord_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where every row of a padded block reaches each new location.

    ``ids`` / ``dists`` are ``(n, w)`` rows sorted by (distance, id),
    padded with -1 / inf. Returns ``(steps, offsets)``:
    ``steps[offsets[i] + j]`` is the distance at which row i reaches its
    ``(j+1)``-th distinct coordinate group, so its k-distinct-distance
    is ``steps[offsets[i] + k - 1]`` when ``offsets[i+1] - offsets[i]
    >= k``. One pass over the block, with the candidates and the
    first-occurrence rule of :func:`k_distinct_radii`, so it picks the
    same element bit for bit.
    """
    keep = (dists > 0.0) & np.isfinite(dists)
    rows, cols = np.nonzero(keep)
    groups = rows * (int(coord_keys.max()) + 1) + coord_keys[ids[rows, cols]]
    _, first = np.unique(groups, return_index=True)
    first.sort()
    offsets = np.zeros(len(dists) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[first], minlength=len(dists)), out=offsets[1:])
    return dists[rows[first], cols[first]], offsets


def k_distinct_radius(
    ids: np.ndarray, dists: np.ndarray, coord_keys: np.ndarray, k: int
) -> Optional[float]:
    """The k-distinct-distance of one neighbor row, or None if it falls
    short: :func:`k_distinct_radii` at the single ``k``."""
    return k_distinct_radii(ids, dists, coord_keys, (k,))[0]


def k_distinct_balls(drow: np.ndarray, coord_keys: np.ndarray, ks: Sequence[int]):
    """The closed ball at the k-distinct-distance over one distance row,
    for every k of ``ks``.

    ``drow[j]`` is the query's distance to object ``j`` (inf for an
    excluded id). The row is sorted by (distance, id) once; entry ``i``
    of the result is ``(ids, dists, radius)`` for ``ks[i]`` — the
    members in that order, duplicates of the query inside the ball
    included (the analog of Definition 4) — or None when fewer than
    ``ks[i]`` distinct locations are reachable. Each ball is a prefix of
    the sorted row: every entry up to the last one ``<= radius``.
    """
    order = np.lexsort((np.arange(len(drow)), drow))
    sorted_d = drow[order]
    balls = []
    for radius in k_distinct_radii(order, sorted_d, coord_keys, ks):
        if radius is None:
            balls.append(None)
            continue
        count = np.searchsorted(sorted_d, radius, side="right")
        # Copies: a ball kept by the caller must not pin the whole row.
        balls.append((order[:count].copy(), sorted_d[:count].copy(), radius))
    return balls


def k_distinct_ball(drow: np.ndarray, coord_keys: np.ndarray, k: int):
    """:func:`k_distinct_balls` at the single ``k``: ``(ids, dists,
    radius)``, or None when fewer than ``k`` distinct locations are
    reachable."""
    return k_distinct_balls(drow, coord_keys, (k,))[0]


def k_distinct_distance(X, i: int, k: int, metric="euclidean") -> float:
    """The k-distinct-distance of object ``i``: the smallest radius
    containing at least ``k`` neighbors whose spatial coordinates are
    mutually different (and, being at positive distance, different from
    object i's own).

    Defined analogously to Definition 3 with the additional distinctness
    requirement; always strictly positive.
    """
    X = check_data(X, min_rows=2)
    i = int(i)
    if not 0 <= i < X.shape[0]:
        raise IndexError(f"point index {i} out of range for n={X.shape[0]}")
    keys, _ = duplicate_groups(X)
    distinct_available = len(np.unique(keys)) - 1  # all locations but i's own
    if k > distinct_available:
        raise ValidationError(
            f"k={k} exceeds the {distinct_available} distinct locations "
            f"other than object {i}'s own"
        )
    metric_obj = get_metric(metric)
    dists = metric_obj.pairwise_to_point(X, X[i])
    order = np.argsort(dists, kind="stable")
    return float(k_distinct_radius(order, dists[order], keys, k))
