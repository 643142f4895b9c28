"""LDOF — local distance-based outlier factor (Zhang, Hutter & Jin).

``LDOF(p) = dbar(p) / Dbar(p)`` where ``dbar`` is the mean distance
from p to its k neighbors and ``Dbar`` the mean *inner* distance of the
neighborhood — the average over all ordered pairs of distinct neighbors
``(o, o')`` of ``d(o, o')``. Scores near 1 mean p sits inside its
neighborhood's own spread; larger means p lies outside it.

This is the one registered scorer with ``requires_data``: the
neighborhood graph stores query-to-neighbor distances but not
neighbor-to-neighbor distances, so the inner mean reads the dataset
snapshot through the model's metric. The per-row pairwise block has the
same shape for a row whether it is scored in a batch or alone, so
results are shape-independent and the serve-vs-batch bit-identity
invariant holds.

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


def _inner_means(rows, X: np.ndarray, metric) -> np.ndarray:
    """Mean pairwise distance among each row's neighbors (Dbar).

    One metric.pairwise block per row — per-row rather than one stacked
    kernel so a row's result never depends on its batchmates' shapes.
    """
    out = np.empty(rows.n_rows, dtype=np.float64)
    for i in range(rows.n_rows):
        ids, _ = rows.row(i)
        c = len(ids)
        if c < 2:
            out[i] = 0.0
            continue
        block = metric.pairwise(X[ids], X[ids])
        out[i] = float(block.sum()) / (c * (c - 1))
    return out


def _ldof_values(dbar: np.ndarray, inner: np.ndarray, duplicate_mode: str) -> np.ndarray:
    if duplicate_mode == "error" and np.any(inner == 0.0):
        bad = int(np.flatnonzero(inner == 0.0)[0])
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
        return self._score(ctx, ctx.mat.prefixes(ctx.k), X, metric), {}

    def score_query(self, ctx: ScorerContext, rows, qkdist: np.ndarray) -> np.ndarray:
        X, metric = ctx.require_data(self.name)
        obs.incr("scorer.ldof.points", int(rows.n_rows))
        return self._score(ctx, rows, X, metric)

    @staticmethod
    def _score(ctx: ScorerContext, rows, X: np.ndarray, metric) -> np.ndarray:
        dbar = scoring.row_means(rows.dists.reshape(-1), rows.starts, rows.stops)
        return _ldof_values(dbar, _inner_means(rows, X, metric), ctx.duplicate_mode)


register(LDOFScorer())
