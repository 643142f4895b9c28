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
(:class:`_InnerSums`): a fit computes them once per row of M, cached on
the materialization for every MinPts of a sweep, and a served request
once over its own block for every MinPts of its grid, and all of them
agree to the last bit.

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


def _ldof_values(dbar: np.ndarray, inner: np.ndarray, duplicate_mode: str) -> np.ndarray:
    if duplicate_mode == "error" and np.any(inner == 0.0):
        bad = scoring.first_row(inner == 0.0)
        raise DuplicatePointsError(
            f"object {bad}'s neighborhood has zero inner distance (all "
            f"neighbors co-located); its LDOF is undefined "
            f"(use duplicate_mode='distinct' or 'inf')"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        out = dbar / inner
    # 0/0: the query is co-located with its co-located neighbors —
    # ordinary relative to them, same convention as LOF's inf/inf := 1.
    out[(dbar == 0.0) & (inner == 0.0)] = 1.0
    return out


class LDOFScorer(Scorer):
    name = "ldof"
    requires_data = True
    supports_bounds = False
    description = (
        "local distance-based outlier factor (Zhang et al.): mean "
        "neighbor distance over mean inner neighborhood distance"
    )

    def fit(self, ctx: ScorerContext):
        X, metric = ctx.require_data(self.name)
        obs.incr("scorer.ldof.points", int(ctx.mat.n_points))
        # One set of inner sums over M's rows serves every MinPts.
        sums = ctx.mat.scorer_state(
            self.name, lambda: _InnerSums(ctx.mat.padded_ids, ctx.mat.graph.row_lengths)
        )
        rows = ctx.mat.prefixes(ctx.k)
        dbar = scoring.row_means(rows.dists.reshape(-1), rows.starts, rows.stops)
        inner = sums.inner_means(rows.counts, X, metric)
        return _ldof_values(dbar, inner, ctx.duplicate_mode), {}

    def score_query(self, ctx: ScorerContext, grid) -> np.ndarray:
        X, metric = ctx.require_data(self.name)
        # One set of inner sums over the request's block serves every
        # MinPts: each row evaluates the pairs of its widest prefix once.
        sums = _InnerSums(grid.ids, grid.counts.max(axis=0))
        inner = sums.inner_means(grid.counts, X, metric)
        dbar = np.empty(grid.counts.shape)
        for span in grid.spans():
            starts, stops = grid.segments(span)
            dbar[span] = scoring.row_means(grid.stacked(grid.dists, span), starts, stops)
        obs.incr("scorer.ldof.points", int(grid.counts.size))
        return _ldof_values(dbar, inner, ctx.duplicate_mode)


register(LDOFScorer())
