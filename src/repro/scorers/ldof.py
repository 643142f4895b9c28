"""LDOF — local distance-based outlier factor (Zhang, Hutter & Jin).

``LDOF(p) = dbar(p) / Dbar(p)`` where ``dbar`` is the mean distance
from p to its k neighbors and ``Dbar`` the mean *inner* distance of the
neighborhood — the average over all ordered pairs of distinct neighbors
``(o, o')`` of ``d(o, o')``. Scores near 1 mean p sits inside its
neighborhood's own spread; larger means p lies outside it.

This is the one registered scorer with ``requires_data``: the
neighborhood graph stores query-to-neighbor distances but not
neighbor-to-neighbor distances, so the inner mean reads the dataset
snapshot through the metric's row kernel, like every other d(p, q) of
the package. A row's inner sums are accumulated in one fixed order, so
the sum over a c-member prefix does not depend on the row's width
(:class:`_InnerSums`): a fit keeps one set over M's rows, cached on
the materialization and sliced per tile, a served request one over its
own block, and all of them agree to the last bit. LDOF has no phase.

Duplicate conventions mirror LOF's (remark after Definition 6):
``Dbar = 0`` (every neighbor co-located, or a single-neighbor row)
plays the role of infinite density — mode ``'error'`` raises
:class:`~repro.exceptions.DuplicatePointsError`, mode ``'inf'`` keeps
the IEEE result (``dbar/0 = inf``) with ``0/0 := 1`` (a point
co-located with its co-located neighbors is ordinary), and mode
``'distinct'`` avoids zero inner means by construction for k >= 2.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core import scoring
from ..exceptions import DuplicatePointsError
from .base import Scorer, ScorerContext, register


class _InnerSums:
    """Prefix inner sums of padded neighborhood rows, extended on demand.

    ``half[i, c - 1]`` sums d(o, o') over the unordered pairs among the
    first ``c`` members of row ``i``, in the row-major lower triangle's
    order (whose first c(c-1)/2 pairs are those of the c-prefix), added
    strictly left to right by ``np.cumsum``. So an entry depends neither
    on the row's width nor on how many steps extended it.
    """

    def __init__(self, ids: np.ndarray, lengths: np.ndarray):
        self.ids = ids
        self.lengths = lengths
        self.half = np.zeros(ids.shape, dtype=np.float64)
        self.done = np.ones(len(ids), dtype=np.int64)  # a 1-prefix sums to 0

    def __getitem__(self, rows: slice) -> "_InnerSums":
        """The sums of ``rows`` as views: extending them extends these."""
        part = _InnerSums.__new__(_InnerSums)
        part.ids, part.lengths = self.ids[rows], self.lengths[rows]
        part.half, part.done = self.half[rows], self.done[rows]
        return part

    def inner_means(self, counts: np.ndarray, X: np.ndarray, metric) -> np.ndarray:
        """Dbar of every row's ``counts``-prefix (0 below two members);
        ``counts`` is ``(r,)``, or ``(K, r)`` for K prefixes of each row.
        A row short of its count grows to at least twice what it had, so
        a sweep extends it O(log width) times and evaluates each pair once."""
        pairs = {}
        need = np.atleast_2d(counts).max(axis=0)
        for i in np.flatnonzero(need > self.done):
            done = int(self.done[i])
            target = int(min(self.lengths[i], max(need[i], 2 * done)))
            if (done, target) not in pairs:
                pairs[done, target] = _triangle_rows(done, target)
            P = X[self.ids[i, :target]]
            r, j, ends = pairs[done, target]
            d = metric.paired_distances(P[r], P[j])
            # Continue the row's running sum where the last call left it.
            d[0] += self.half[i, done - 1]
            self.half[i, done:target] = np.cumsum(d)[ends]
            self.done[i] = target
        c = counts.astype(np.float64)
        half = self.half[np.arange(len(self.ids)), counts - 1]
        with np.errstate(invalid="ignore"):
            return np.where(counts < 2, 0.0, 2.0 * half / (c * (c - 1.0)))


def _triangle_rows(done: int, target: int):
    """The lower-triangle pairs (r, j), j < r, of rows ``done..target-1``
    in row-major order, and the position of each row's last pair among
    them (where the sum over a (r+1)-prefix is complete)."""
    rows = np.arange(done, target)
    r = np.repeat(rows, rows)
    lo = done * (done - 1) // 2
    j = np.arange(lo, lo + len(r)) - r * (r - 1) // 2
    return r, j, (rows + 1) * rows // 2 - lo - 1


def _check_inner(inner: np.ndarray) -> None:
    """Mode 'error': raise on the first zero inner mean, in MinPts order."""
    if np.any(inner == 0.0):
        bad = scoring.first_row(inner == 0.0)
        raise DuplicatePointsError(
            f"object {bad}'s neighborhood has zero inner distance (all "
            f"neighbors co-located); its LDOF is undefined "
            f"(use duplicate_mode='distinct' or 'inf')"
        )


def _ldof_values(dbar: np.ndarray, inner: np.ndarray, duplicate_mode: str) -> np.ndarray:
    if duplicate_mode == "error":
        _check_inner(inner)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = dbar / inner
    # 0/0: the query is co-located with its co-located neighbors —
    # ordinary relative to them, same convention as LOF's inf/inf := 1.
    out[(dbar == 0.0) & (inner == 0.0)] = 1.0
    return out


def _inner_means(ctx, grid) -> np.ndarray:
    """Dbar at every (MinPts, row) of ``grid``: from a fit's sums over
    M's rows, or from a request's own over its block."""
    X, metric = ctx.require_data(LDOFScorer.name)
    if ctx.rows is None:
        sums = _InnerSums(grid.ids, grid.counts.max(axis=0))
    else:
        mat = ctx.mat
        sums = mat.scorer_state(
            LDOFScorer.name, lambda: _InnerSums(mat.padded_ids, mat.graph.row_lengths)
        )[ctx.rows]
    return sums.inner_means(grid.counts, X, metric)


class LDOFScorer(Scorer):
    name = "ldof"
    requires_data = True
    supports_bounds = False
    description = (
        "local distance-based outlier factor (Zhang et al.): mean "
        "neighbor distance over mean inner neighborhood distance"
    )

    def score_query(self, ctx: ScorerContext, grid) -> np.ndarray:
        inner = _inner_means(ctx, grid)
        # One MinPts at a time over the (m, w) block: no (K, m, w) copy.
        flat, starts = grid.dists.reshape(-1), np.arange(len(grid.ids)) * grid.ids.shape[1]
        dbar = np.stack([scoring.row_means(flat, starts, starts + c) for c in grid.counts])
        obs.incr("scorer.ldof.points", int(grid.counts.size))
        return _ldof_values(dbar, inner, ctx.duplicate_mode)

    def check(self, ctx: ScorerContext, grid) -> None:
        # The run's sums are already extended: no distance is evaluated.
        _check_inner(_inner_means(ctx, grid))


register(LDOFScorer())
