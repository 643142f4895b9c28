"""The paper's LOF (Definitions 5-7) as the first registered scorer.

This module adds **no** arithmetic of its own: it runs the kernels of
:mod:`~repro.core.scoring` as Section 7.4's two scans. Its phase lrd
(scan 1) is :func:`~repro.core.scoring.reach_dist_values` against the
k-distance table, then :func:`~repro.core.scoring.lrd_values`; its score
(scan 2) is :func:`~repro.core.scoring.lof_values` against the lrd
table, with a fit's rows' own lrd read from that table and a request's
computed by the phase. Each run of MinPts is one gather of table rows
at the neighbor ids (in a fit, into one reused tile buffer).
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core import scoring
from .base import Phase, Scorer, ScorerContext, register


class LOFScorer(Scorer):
    name = "lof"
    requires_data = False
    supports_bounds = True
    description = (
        "local outlier factor (Breunig et al.): mean lrd ratio over the "
        "MinPts neighborhood"
    )

    def _lrd(self, ctx: ScorerContext, grid) -> np.ndarray:
        kdist = ctx.tables["kdist"]
        out = np.empty(grid.counts.shape)
        for span in grid.spans():
            starts, stops = grid.segments(span)
            reach = ctx.gather(kdist[span], grid.ids)
            scoring.reach_dist_values(grid.dists, reach, out=reach)
            out[span] = scoring.lrd_values(
                reach.reshape(-1), starts, stops, duplicate_mode=ctx.duplicate_mode
            )
        return out

    phases = (Phase("lrd", _lrd),)

    def score_query(self, ctx: ScorerContext, grid) -> np.ndarray:
        lrd_q, lrd_train = self.own("lrd", ctx, grid), ctx.tables["lrd"]
        out = np.empty(grid.counts.shape)
        for span in grid.spans():
            starts, stops = grid.segments(span)
            ratios = ctx.gather(lrd_train[span], grid.ids)
            out[span] = scoring.lof_values(
                lrd_q[span], ratios, starts, stops, ratio_out=ratios
            )
        obs.incr("scorer.lof.points", int(grid.counts.size))
        return out

    def check(self, ctx: ScorerContext, grid) -> None:
        scoring.check_finite_lrd(ctx.tables["lrd"])


register(LOFScorer())
