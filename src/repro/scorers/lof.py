"""The paper's LOF (Definitions 5-7) as the first registered scorer.

This module adds **no** arithmetic of its own: fitting delegates to the
materialization database's k-distance/lrd/LOF tables and the query
path is the exact kernel sequence online scoring has always run —
:func:`~repro.core.scoring.reach_dist_values` against the stored
k-distances, :func:`~repro.core.scoring.lrd_values` under the
database's duplicate mode, :func:`~repro.core.scoring.lof_values`
against the stored training lrd vector. A served request runs that
sequence once for its whole MinPts grid: the grid's rows of the stored
k-distance and lrd tables (views for a run of consecutive MinPts) are
gathered at the request's neighbor ids once, and every (MinPts, query)
segment is reduced in one pass. Registry-routed LOF is therefore
bit-identical to the pre-registry scores by construction (and by the
cross-path agreement tests).
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core import scoring
from .base import Scorer, ScorerContext, register


class LOFScorer(Scorer):
    name = "lof"
    requires_data = False
    supports_bounds = True
    description = (
        "local outlier factor (Breunig et al.): mean lrd ratio over the "
        "MinPts neighborhood"
    )

    def fit(self, ctx: ScorerContext):
        obs.incr("scorer.lof.points", int(ctx.mat.n_points))
        return ctx.mat.lof(ctx.k), {}

    def fit_grid(self, mat, ks, X=None, metric=None):
        # Step 2 for the whole grid in one tiled sweep of M; the matrix
        # is a read-only view of the LOF table's rows, not a copy.
        matrix = mat.lof_table(ks).view()
        matrix.flags.writeable = False
        obs.incr("scorer.lof.points", int(matrix.size))
        return matrix

    def tables(self, contexts):
        mat, ks = contexts[0].mat, [ctx.k for ctx in contexts]
        return {"kdist": mat.k_distance_table(ks), "lrd": mat.lrd_table(ks)}

    def score_query(self, ctx: ScorerContext, grid) -> np.ndarray:
        kdist, lrd_train = ctx.tables["kdist"], ctx.tables["lrd"]
        out = np.empty(grid.counts.shape)
        for span in grid.spans():
            starts, stops = grid.segments(span)
            reach = kdist[span][:, grid.ids]
            scoring.reach_dist_values(grid.dists, reach, out=reach)
            lrd_q = scoring.lrd_values(
                reach.reshape(-1), starts, stops, duplicate_mode=ctx.duplicate_mode
            )
            ratios = lrd_train[span][:, grid.ids]
            out[span] = scoring.lof_values(lrd_q, ratios, starts, stops, ratio_out=ratios)
        obs.incr("scorer.lof.points", int(grid.counts.size))
        return out


register(LOFScorer())
