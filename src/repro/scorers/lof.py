"""The paper's LOF (Definitions 5-7) as the first registered scorer.

This module adds **no** arithmetic of its own: fitting delegates to the
materialization database's cached reach-dist/lrd/LOF pipeline and the
query path is the exact kernel sequence online scoring has always run —
:func:`~repro.core.scoring.reach_dist_values` against the stored
k-distances, :func:`~repro.core.scoring.lrd_values` under the
database's duplicate mode, :func:`~repro.core.scoring.lof_values`
against the stored training lrd vector. Registry-routed LOF is
therefore bit-identical to the pre-registry scores by construction
(and by the cross-path agreement tests).
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

    def score_query(self, ctx: ScorerContext, rows, qkdist: np.ndarray) -> np.ndarray:
        mat = ctx.mat
        k = ctx.k
        lrd_train = mat.lrd(k)
        starts, stops = rows.starts, rows.stops
        reach = scoring.reach_dist_values(rows.dists, mat.k_distances(k)[rows.ids])
        lrd_q = scoring.lrd_values(
            reach.reshape(-1), starts, stops, duplicate_mode=mat.duplicate_mode
        )
        obs.incr("scorer.lof.points", int(rows.n_rows))
        return scoring.lof_values(lrd_q, lrd_train[rows.ids], starts, stops)

    def warm(self, ctx: ScorerContext) -> None:
        super().warm(ctx)
        ctx.mat.lrd(ctx.k)


register(LOFScorer())
