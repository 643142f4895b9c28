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

from typing import Callable, Tuple

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


def distinct_steps(
    ids: np.ndarray, dists: np.ndarray, coord_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where every row of a padded block reaches each new location.

    ``ids`` / ``dists`` are ``(n, w)`` rows sorted by (distance, id),
    padded with -1 / inf. Returns ``(steps, offsets)``:
    ``steps[offsets[i] + j]`` is the distance at which row i reaches its
    ``(j+1)``-th distinct coordinate group, so its k-distinct-distance
    is ``steps[offsets[i] + k - 1]`` when ``offsets[i+1] - offsets[i]
    >= k``. The candidates are the entries at a positive, finite
    distance (co-located duplicates of the query and excluded ids do
    not count), and a location is reached at its first candidate in
    row order. Every k-distinct-distance in the package is read from
    here, in one pass over the block.
    """
    keep = (dists > 0.0) & np.isfinite(dists)
    rows, cols = np.nonzero(keep)
    groups = rows * (int(coord_keys.max()) + 1) + coord_keys[ids[rows, cols]]
    _, first = np.unique(groups, return_index=True)
    first.sort()
    offsets = np.zeros(len(dists) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[first], minlength=len(dists)), out=offsets[1:])
    return dists[rows[first], cols[first]], offsets


def ensure_distinct_coverage(
    query: Callable[[np.ndarray, int], Tuple[np.ndarray, np.ndarray]],
    ids: np.ndarray,
    dists: np.ndarray,
    coord_keys: np.ndarray,
    k: int,
    limit: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k-distinct-distance neighborhoods, from plain k-NN rows.

    ``ids`` / ``dists`` are padded rows sorted by (distance, id), row i
    the tie-inclusive k-NN row of query i (Definition 4). A row that
    reaches ``k`` distinct (positive-distance) locations holds its whole
    k-distinct-distance ball, since tie inclusion puts every point
    within the row's radius in the row; it is cut at that radius. The
    rows that fall short (duplicate-saturated ones) are re-queried
    together: ``query(rows, probe)`` returns the padded tie-inclusive
    ``probe``-NN rows of those queries, the probe doubling from ``k``
    up to ``limit`` neighbors until each row reaches ``k`` locations.
    Each kept row is the closed ball, duplicates of the query inside
    it included (the analog of Definition 4).

    Returns ``(ids, dists, short)``: the rows, padded to the longest,
    and the rows still short of ``k`` locations at ``limit``, or once
    their row holds an overflowed (inf) distance and hence every point;
    they are kept whole. When no row is cut or re-queried, the input arrays come
    back unchanged. The fit, served queries and the stream window all
    select their k-distinct neighborhoods here.
    """
    lengths, covered, growing = _distinct_cut(ids, dists, coord_keys, k)
    parts = [(np.arange(len(ids)), ids, dists)]
    short, todo = np.flatnonzero(~covered), np.flatnonzero(growing)
    probe = k
    while len(todo) and probe < limit:
        probe = min(2 * probe, limit)
        found_ids, found_dists = query(todo, probe)
        lengths[todo], covered, growing = _distinct_cut(
            found_ids, found_dists, coord_keys, k
        )
        parts.append((todo, found_ids, found_dists))
        short = np.setdiff1d(short, todo[covered])
        todo = todo[growing]
    if len(parts) == 1 and np.array_equal(lengths, (ids >= 0).sum(axis=1)):
        return ids, dists, short
    width = int(lengths.max())
    out_ids = np.full((len(ids), width), -1, dtype=np.int64)
    out_dists = np.full((len(ids), width), np.inf)
    # A later probe's rows replace the earlier ones; every cell past a
    # row's length is padding.
    for rows, part_ids, part_dists in parts:
        w = min(width, part_ids.shape[1])
        out_ids[rows, :w], out_dists[rows, :w] = part_ids[:, :w], part_dists[:, :w]
    pad = np.arange(width) >= lengths[:, None]
    out_ids[pad], out_dists[pad] = -1, np.inf
    return out_ids, out_dists, short


def _distinct_cut(
    ids: np.ndarray, dists: np.ndarray, coord_keys: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For padded (distance, id)-sorted rows: each row's prefix length up
    to its k-distinct-distance (its whole length for a row short of
    ``k`` locations), which rows reach ``k`` locations, and which short
    rows a wider probe can still grow: a tie-inclusive row with an inf
    entry already holds every point."""
    steps, offsets = distinct_steps(ids, dists, coord_keys)
    covered = np.diff(offsets) >= k
    radii = np.full(len(ids), np.inf)
    radii[covered] = steps[offsets[:-1][covered] + (k - 1)]
    held = ids >= 0
    growing = ~covered & ~np.any(np.isinf(dists) & held, axis=1)
    return ((dists <= radii[:, None]) & held).sum(axis=1), covered, growing


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
    dists = get_metric(metric).pairwise_to_point(X, X[i])
    order = np.argsort(dists, kind="stable")
    steps, _ = distinct_steps(order[None, :], dists[order][None, :], keys)
    return float(steps[k - 1])
