"""LDOF does not depend on how it was computed.

LDOF's inner mean Dbar reads neighbor-to-neighbor distances that M does
not store. They come from the metric's row kernel, and each row's inner
sums are accumulated in one fixed order, one pass per row of M, so the
sum over a c-member prefix does not depend on how wide the row is. A
row's LDOF at MinPts k is therefore the same float whether it is fitted
alone at k, read from a 10..60 sweep, or served from a store.
"""

import numpy as np
import pytest

from repro import LocalOutlierFactor
from repro.core import MaterializationDB
from repro.index import get_metric
from repro.serve import OnlineScorer

SWEEP = (10, 60)
KS = (10, 33, 60)


def _fit_wide_shaped():
    """The ``fit_wide`` shape (n=2000, d=16) on a 0.1 grid, with ten
    sites holding two copies each."""
    X = np.round(np.random.default_rng(41).normal(size=(2000, 16)) * 3.0, 1)
    X[1990:] = X[:10]
    return X


@pytest.mark.parametrize("mode", ("inf", "distinct", "error"))
def test_alone_sweep_and_served_agree(mode, tmp_path):
    X = _fit_wide_shaped()
    n = len(X)
    swept = LocalOutlierFactor(min_pts=SWEEP, scorer="ldof", duplicate_mode=mode).fit(X)
    path = tmp_path / "ldof.rlof"
    swept.save(path)
    served = OnlineScorer.from_path(path, scorer="ldof", cache_size=0)
    for k in KS:
        alone = LocalOutlierFactor(min_pts=k, scorer="ldof", duplicate_mode=mode).fit(X)
        want = alone.materialization_.scores(k, "ldof", X=X, metric="euclidean")
        from_sweep = swept.materialization_.scores(k, "ldof", X=X, metric="euclidean")
        got = served.score_new(X, min_pts=k, exclude=np.arange(n))
        assert np.isfinite(want).all()
        assert from_sweep.tobytes() == want.tobytes(), k
        assert got.tobytes() == want.tobytes(), k


def test_matches_the_definition():
    # The inner sums are accumulated in a new order, so the oracle is a
    # plain loop over Definition-4 neighborhoods and ordered pairs, to a
    # tolerance fixed from float64 rounding over ~100 terms.
    X = np.random.default_rng(43).normal(size=(120, 3)) * 10
    metric = get_metric("euclidean")
    mat = MaterializationDB.materialize(X, 12)
    for k in (2, 7, 12):
        got = mat.scores(k, "ldof", X=X, metric=metric)
        for p in range(len(X)):
            ids, dists = mat.neighborhood_of(p, k)
            inner = sum(
                metric.distance(X[a], X[b]) for a in ids for b in ids if a != b
            ) / (len(ids) * (len(ids) - 1))
            assert got[p] == pytest.approx(np.mean(dists) / inner, rel=1e-12, abs=0)
