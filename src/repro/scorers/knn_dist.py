"""kth-NN-distance scores (Ramaswamy, Rastogi & Shim's D^k).

The distance-based comparator of the paper's Section 2: score each
object by the distance to its k-th nearest neighbor. Through the
registry it reads the same Definition-3 k-distances the LOF pipeline
uses (k-*distinct*-distances under ``duplicate_mode='distinct'``), so
:mod:`repro.baselines.knn_distance` now delegates here and the D^k
definition exists once.

The score measures *absolute* sparsity — on multi-density data it
shares the DB-outlier failure mode (a point sparse relative to its own
dense cluster scores below uniformly-sparse cluster members), which is
exactly the contrast the gallery comparison page documents.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .base import Scorer, ScorerContext, register


class KNNDistScorer(Scorer):
    name = "knn_dist"
    requires_data = False
    supports_bounds = False
    description = (
        "kth-NN distance D^k (Ramaswamy et al.): absolute sparsity, "
        "the distance-based baseline"
    )

    def fit(self, ctx: ScorerContext):
        obs.incr("scorer.knn_dist.points", int(ctx.mat.n_points))
        return np.array(ctx.mat.k_distances(ctx.k), dtype=np.float64, copy=True), {}

    def score_query(self, ctx: ScorerContext, grid) -> np.ndarray:
        obs.incr("scorer.knn_dist.points", int(grid.radii.size))
        return np.array(grid.radii, dtype=np.float64, copy=True)


register(KNNDistScorer())
