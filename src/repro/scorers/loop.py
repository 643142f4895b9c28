"""LoOP — local outlier probabilities (Kriegel, Kroeger, Schubert, Zimek).

LoOP recasts the LOF idea as a probability in [0, 1]:

* ``sigma(p) = sqrt(mean of d(p, o)^2 over o in N(p))`` — the standard
  distance of p to its neighborhood;
* ``pdist(p) = lambda * sigma(p)`` — the probabilistic set distance
  (``lambda = 3`` here, the reference choice);
* ``PLOF(p) = pdist(p) / E[pdist(o), o in N(p)] - 1`` — the same
  density-ratio shape as LOF, shifted so 0 means "as dense as the
  neighbors";
* ``nPLOF = lambda * sqrt(E[PLOF^2])`` — a scale estimate over the
  dataset;
* ``LoOP(p) = max(0, erf(PLOF / (nPLOF * sqrt(2))))``.

The fitted per-object ``pdist`` vector and the scalar ``nPLOF`` are the
scorer's aux state: persisted in the store and reused verbatim on the
query path, so scoring a stored object's own neighborhood reproduces
its fitted probability bit-for-bit.

Duplicate conventions mirror LOF's: ``pdist = 0`` (a neighborhood of
co-located points) is the infinite-density analog — mode ``'error'``
raises, mode ``'inf'`` uses ``0/0 := 1`` (PLOF 0, probability 0) and
lets a positive ``pdist`` over a zero expectation go to infinity
(probability 1). Non-finite PLOF values are excluded from the nPLOF
aggregate so one duplicate cluster cannot wash out every other score.
``erf`` comes from :mod:`math` (vectorized) — no SciPy dependency.
"""

from __future__ import annotations

import math

import numpy as np

from .. import obs
from ..core import scoring
from ..exceptions import DuplicatePointsError
from .base import Scorer, ScorerContext, register

_LAMBDA = 3.0
_SQRT2 = math.sqrt(2.0)
_erf = np.vectorize(math.erf, otypes=[np.float64])


def _prob_set_dists(flat_squared: np.ndarray, starts, stops) -> np.ndarray:
    """pdist per segment: lambda * sqrt(mean squared neighbor distance)."""
    return _LAMBDA * np.sqrt(scoring.row_means(flat_squared, starts, stops))


def _plof_values(
    pdist_self: np.ndarray, expected_pdist: np.ndarray, duplicate_mode: str
) -> np.ndarray:
    if duplicate_mode == "error" and np.any(pdist_self == 0.0):
        bad = scoring.first_row(pdist_self == 0.0)
        raise DuplicatePointsError(
            f"object {bad}'s neighborhood is entirely co-located "
            f"(pdist = 0); its PLOF is undefined "
            f"(use duplicate_mode='distinct' or 'inf')"
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = pdist_self / expected_pdist
    # 0/0: a zero-spread point among zero-spread neighbors is ordinary.
    ratio[(pdist_self == 0.0) & (expected_pdist == 0.0)] = 1.0
    return ratio - 1.0


def _probabilities(plof: np.ndarray, nplof) -> np.ndarray:
    """max(0, erf(PLOF / (nPLOF * sqrt(2)))), elementwise.

    ``nplof`` is a scalar, or one value per row of a ``(K, m)`` ``plof``
    (shaped ``(K, 1)``). Non-finite PLOF (positive pdist over a zero
    expectation) maps to probability 1; a zero nPLOF (no finite
    variation at all) maps every finite PLOF to 0.
    """
    finite = np.isfinite(plof)
    out = np.where(finite, 0.0, 1.0)
    scaled = finite & (nplof > 0.0)
    if np.any(scaled):
        scale = np.broadcast_to(nplof, plof.shape)[scaled] * _SQRT2
        out[scaled] = np.maximum(0.0, _erf(plof[scaled] / scale))
    return out


class LoOPScorer(Scorer):
    name = "loop"
    requires_data = False
    supports_bounds = False
    description = (
        "local outlier probability (Kriegel et al.): erf-normalized "
        "PLOF in [0, 1], lambda = 3"
    )

    def fit(self, ctx: ScorerContext):
        rows = ctx.mat.prefixes(ctx.k)
        squared = rows.dists * rows.dists
        pdist = _prob_set_dists(squared.reshape(-1), rows.starts, rows.stops)
        expected = scoring.row_means(
            pdist[rows.ids].reshape(-1), rows.starts, rows.stops
        )
        plof = _plof_values(pdist, expected, ctx.duplicate_mode)
        finite = np.isfinite(plof)
        if np.any(finite):
            nplof = _LAMBDA * float(np.sqrt(np.mean(np.square(plof[finite]))))
        else:
            nplof = 0.0
        obs.incr("scorer.loop.points", int(ctx.mat.n_points))
        aux = {
            "pdist": pdist,
            "nplof": np.array([nplof], dtype=np.float64),
        }
        return _probabilities(plof, nplof), aux

    def tables(self, contexts):
        # Rows of the aux tables: pdist (K, n), nplof (K, 1).
        ctx, ks = contexts[0], [c.k for c in contexts]
        return {
            name: ctx.mat.score_table(ks, self, X=ctx.X, metric=ctx.metric, aux=name)
            for name in ("pdist", "nplof")
        }

    def score_query(self, ctx: ScorerContext, grid) -> np.ndarray:
        pdist_train, nplof = ctx.tables["pdist"], ctx.tables["nplof"]
        squared = grid.dists * grid.dists
        plof = np.empty(grid.counts.shape)
        for span in grid.spans():
            starts, stops = grid.segments(span)
            pdist_q = _prob_set_dists(grid.stacked(squared, span), starts, stops)
            expected = scoring.row_means(
                pdist_train[span][:, grid.ids].reshape(-1), starts, stops
            )
            plof[span] = _plof_values(pdist_q, expected, ctx.duplicate_mode)
        obs.incr("scorer.loop.points", int(grid.counts.size))
        return _probabilities(plof, nplof)


register(LoOPScorer())
