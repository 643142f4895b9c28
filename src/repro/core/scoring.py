"""THE scoring kernel: reach-dist, lrd and LOF over neighborhood segments.

This module is the single vectorized implementation of Definitions 5-7
and of the duplicate conventions (the remark after Definition 6). Every
scoring surface in the repository — the materialization database, the
blocked fast path, top-n mining, the incremental/streaming engines, the
LOF/OPTICS handshake — routes its density and ratio arithmetic through
the four kernels below; no other module is allowed to re-implement them
(enforced by ``tests/test_layering.py`` and the CI layering lint). The
one deliberate exception is :mod:`repro.core.reference`, the naive
oracle kept independent for differential testing.

Kernel contract
---------------
All kernels are pure array transforms over *segments* of a flat array:
segment i is ``values[starts[i]:stops[i]]``, and every row sum is one
``np.add.reduceat`` over the interleaved indices
``[starts[0], stops[0], starts[1], stops[1], ...]``
(:func:`segment_bounds`) keeping the even outputs. There is one
layout: :class:`~repro.core.graph.RowPrefixes`, a padded ``(r, w)``
block whose rows are sorted by ``(distance, id)``. Over the raveled
block segment i is ``i*w .. i*w + counts[i]``, the Definition-4
neighborhood that prefixes row i; values between segments (the rest
of a row, and its -1 / inf pads) are ignored. The rows are every
object of M (the step-2 sweep and the scorers' fits), query points
(online scoring), a dirty subset (the dynamic engines) or one object
(top-n's exact evaluations).

``reduceat`` reduces each segment on its own, sequentially, so the
same neighborhood gives the same bits whatever block carries it —
batch, subset or single object. The kernels also take a ``(K, m)`` grid
of segments over a stacked ``(K, m, w)`` block
(:class:`~repro.core.graph.GridPrefixes`: one request's rows at every
MinPts of a grid) and reduce all of them in the same one pass, with the
bits of K separate calls.

Conventions (duplicate-heavy data, ``'inf'`` mode):

* ``lrd = inf`` when every reachability distance in the neighborhood
  is 0 (at least MinPts duplicates);
* LOF ratios use ``inf / inf := 1`` (co-located points are ordinary
  relative to each other) and ``finite / inf := 0``.

The *dirty-subset* API — :func:`lrd_of` / :func:`lof_of` — is the same
kernel applied to the padded rows of a subset: dynamic callers (incremental inserts and
deletes, sliding windows) recompute exactly the rows they marked dirty,
vectorized, instead of looping per-object Python math.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import DuplicatePointsError

__all__ = [
    "reach_dist_values",
    "lrd_values",
    "lof_values",
    "lrd_of",
    "lof_of",
    "row_sums",
    "row_means",
    "segment_bounds",
    "first_row",
    "check_finite_lrd",
]


# -- generic segment reductions -----------------------------------------------
#
# ``np.add.reduceat`` lives only in this module; every scorer that needs
# a per-neighborhood sum or mean (LOF's lrd, LDOF's mean neighbor
# distance, LoOP's squared-distance averages) routes through these two
# helpers so each segment is reduced by the same sequential kernel —
# the invariant behind batch/prefix/subset/single-row bit-identity.


def segment_bounds(starts: np.ndarray, stops: np.ndarray, size: int) -> np.ndarray:
    """``reduceat`` indices for the segments ``starts[i]:stops[i]`` of a
    flat array of ``size`` values; keep the even outputs. Segments are
    never empty and ``starts`` is non-empty."""
    bounds = np.empty(2 * len(starts), dtype=np.intp)
    bounds[0::2] = starts
    bounds[1::2] = stops
    if bounds[-1] == size:
        # reduceat's last segment runs to the end of the array anyway.
        bounds = bounds[:-1]
    return bounds


def row_sums(
    flat_values: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """Per-segment sums of ``flat_values[starts[i]:stops[i]]`` (one
    reduceat pass; segments are never empty), shaped like ``starts``:
    a ``(K, m)`` grid of segments is reduced in the same one pass."""
    if starts.size == 0:
        return np.empty(starts.shape, dtype=np.float64)
    bounds = segment_bounds(starts.reshape(-1), stops.reshape(-1), len(flat_values))
    return np.add.reduceat(flat_values, bounds)[0::2].reshape(starts.shape)


def row_means(
    flat_values: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> np.ndarray:
    """Per-segment means of ``flat_values``.

    Segments are Definition-4 neighborhoods (never empty), so the
    division is always well-defined.
    """
    counts = (stops - starts).astype(np.float64)
    return row_sums(flat_values, starts, stops) / counts


def first_row(flags: np.ndarray) -> int:
    """The row of the first set flag of a ``(m,)`` or ``(K, m)`` array,
    in MinPts order: the row a per-MinPts loop would report first."""
    return int(np.argwhere(flags)[0][-1])


def reach_dist_values(
    flat_dists: np.ndarray,
    neighbor_kdist: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Definition 5, elementwise: ``reach-dist(p, o) = max(k-distance(o), d(p, o))``.

    ``flat_dists`` holds d(p, o) for every neighborhood pair (an
    ``(r, w)`` prefix block or one row); ``neighbor_kdist`` the k-distance
    of each pair's *neighbor* o (i.e. ``kdist[ids]``), in the same
    shape. ``out`` (which may be ``neighbor_kdist``) receives the
    result instead of a new array.
    """
    return np.maximum(neighbor_kdist, flat_dists, out=out)


def lrd_values(
    flat_reach: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    duplicate_mode: str = "inf",
) -> np.ndarray:
    """Definition 6, one pass: ``lrd(p) = |N(p)| / sum reach-dist``.

    Row p's reach-dists are ``flat_reach[starts[p]:stops[p]]``; a
    ``(K, m)`` grid of segments gives a ``(K, m)`` result. The
    only division producing local reachability densities in the
    repository. ``duplicate_mode='inf'`` keeps the paper's plain
    definition (MinPts-fold duplicates give ``lrd = inf``);
    ``'error'`` raises :class:`DuplicatePointsError` instead;
    ``'distinct'`` neighborhoods never produce a zero sum, so the mode
    needs no special handling here.
    """
    counts = (stops - starts).astype(np.float64)
    if counts.size == 0:
        return np.empty(counts.shape, dtype=np.float64)
    sums = row_sums(flat_reach, starts, stops)
    with np.errstate(divide="ignore"):
        lrd = counts / sums
    if duplicate_mode == "error":
        check_finite_lrd(lrd)
    return lrd


def check_finite_lrd(lrd: np.ndarray) -> None:
    """``duplicate_mode='error'``: raise :class:`DuplicatePointsError`
    naming the first infinite lrd of a ``(m,)`` or ``(K, m)`` array, in
    MinPts order (:func:`first_row`)."""
    if np.any(np.isinf(lrd)):
        bad = first_row(np.isinf(lrd))
        raise DuplicatePointsError(
            f"object {bad} has at least MinPts duplicates; its local "
            f"reachability density is infinite "
            f"(use duplicate_mode='distinct' or 'inf')"
        )


def lof_values(
    lrd_self: np.ndarray,
    neighbor_lrd: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    ratio_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Definition 7, one pass: the mean lrd(o)/lrd(p) ratio.

    The only division producing LOF ratios in the repository.
    ``lrd_self`` is per row; ``neighbor_lrd`` is ``lrd[ids]`` over the
    ``(r, w)`` prefix block, whose row i holds segment i (for a
    ``(K, m)`` grid of segments they are ``(K, m)`` and ``(K, m, w)``).
    ``ratio_out`` (shaped like ``neighbor_lrd``, and which may be
    ``neighbor_lrd`` itself) receives the ratios instead of a new
    array. Ratio conventions:
    ``inf/inf := 1``; ``finite/inf`` is 0 by IEEE arithmetic;
    ``inf/finite`` stays inf (a finite-density point whose neighbors
    are infinitely dense).
    """
    counts = stops - starts
    if counts.size == 0:
        return np.empty(counts.shape, dtype=np.float64)
    lrd_rep = lrd_self[..., None]
    # inf/inf produces NaN; the convention for co-located points is 1.
    both_inf = None
    if np.isinf(lrd_self).any():
        both_inf = np.isinf(neighbor_lrd) & np.isinf(lrd_rep)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.divide(neighbor_lrd, lrd_rep, out=ratio_out)
    if both_inf is not None:
        ratios[both_inf] = 1.0
    return row_sums(ratios.reshape(-1), starts, stops) / counts.astype(np.float64)


# -- dirty-subset API ---------------------------------------------------------
#
# ``graph`` below is anything with ``subview(rows)`` (returning
# :class:`~repro.core.graph.RowPrefixes`) and ``kdist_values(ids)`` —
# :class:`~repro.core.graph.DynamicNeighborhoodGraph` qualifies.


def lrd_of(graph, rows, duplicate_mode: str = "inf") -> np.ndarray:
    """lrd of exactly the objects in ``rows``, vectorized.

    One :func:`reach_dist_values` + :func:`lrd_values` pass over the
    padded rows of ``rows`` — the recompute primitive for dynamic
    callers whose k-distances are already current.
    """
    hoods = graph.subview(rows)
    if hoods.n_rows == 0:
        return np.empty(0, dtype=np.float64)
    reach = reach_dist_values(hoods.dists, graph.kdist_values(hoods.ids))
    return lrd_values(
        reach.reshape(-1), hoods.starts, hoods.stops, duplicate_mode=duplicate_mode
    )


def lof_of(
    graph,
    rows,
    lrd_by_id: np.ndarray,
    lrd_self: Optional[np.ndarray] = None,
) -> np.ndarray:
    """LOF of exactly the objects in ``rows``, vectorized.

    ``lrd_by_id`` is a dense lookup (indexed by neighbor id) that must
    already be current for every neighbor of every row; ``lrd_self``
    defaults to ``lrd_by_id[rows]``.
    """
    hoods = graph.subview(rows)
    if hoods.n_rows == 0:
        return np.empty(0, dtype=np.float64)
    if lrd_self is None:
        lrd_self = lrd_by_id[np.asarray(rows, dtype=np.int64)]
    return lof_values(lrd_self, lrd_by_id[hoods.ids], hoods.starts, hoods.stops)
