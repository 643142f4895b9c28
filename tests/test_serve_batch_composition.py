"""Served novel queries go through the fit's k-NN engine, whatever the batch.

:meth:`~repro.serve.OnlineScorer._query_view` sends a request's novel
rows through one ``query_batch_with_ties`` call of a brute index on the
stored points: single rows take its per-row scan, larger batches its
box-pruned scan. Both compute each distance with the metric's row
kernel, so a row's score must not depend on the batch it arrived in.
These walls pin that on a store large enough for the pruned scan
(n = 4096, d = 2), for every scorer and duplicate mode, and pin the
exact errors for coordinates whose distances all overflow.
"""

import numpy as np
import pytest

from repro import LocalOutlierFactor, obs
from repro.exceptions import ValidationError
from repro.serve import OnlineScorer

N, D = 4096, 2
MIN_PTS = (5, 8)
MODES = ("inf", "distinct", "error")
SCORERS = ("lof", "ldof", "loop", "knn_dist")
#: Rows of the batched calls: above the brute index's PRUNE_ROWS (at
#: most 10), so these calls run the pruned scan.
BATCH = 32


def _data():
    rng = np.random.default_rng(23)
    X = np.round(rng.normal(size=(N, D)), 3)
    # A pile of three copies: too few for 'error' to refuse the fit, but
    # a novel query on it has co-located duplicates.
    X[:3] = X[3]
    return X


@pytest.fixture(scope="module", params=MODES)
def scorer(request, tmp_path_factory):
    X = _data()
    est = LocalOutlierFactor(min_pts=MIN_PTS, duplicate_mode=request.param).fit(X)
    path = tmp_path_factory.mktemp(request.param) / "m.rlof"
    est.save(path)
    return OnlineScorer.from_path(path, cache_size=0), X


def _novel_batch(X):
    rng = np.random.default_rng(29)
    Q = np.round(rng.normal(size=(BATCH, D)), 3)
    Q[5] = X[3]                      # on the pile, no exclusion
    Q[9] = X[100]                    # on a stored point, no exclusion
    Q[17] = (X[200] + X[201]) / 2    # between two stored points
    Q[30] = X[3] + 1e-3              # one grid step off the pile
    return Q


@pytest.mark.parametrize("name", SCORERS)
def test_each_row_scores_as_it_would_alone(scorer, name):
    sc, X = scorer
    Q = _novel_batch(X)
    batched = sc.score_new(Q, use_cache=False, scorer=name)
    for i in range(BATCH):
        alone = sc.score_new(Q[i : i + 1], use_cache=False, scorer=name)
        assert alone.tobytes() == batched[i : i + 1].tobytes(), i


def test_a_row_costs_n_and_a_batch_prunes(scorer):
    sc, X = scorer
    Q = _novel_batch(X)
    sc.score_new(Q[:1], use_cache=False)  # warm the per-MinPts caches
    with obs.collect() as one:
        sc.score_new(Q[:1], use_cache=False)
    assert one["counters"]["distance.evaluations"] == N
    with obs.collect() as batch:
        sc.score_new(Q, use_cache=False)
    assert batch["counters"]["distance.evaluations"] < BATCH * N / 4


@pytest.mark.parametrize("m", [1, 16])
def test_hostile_coordinates_keep_the_exact_error(scorer, m):
    """Coordinates of 1e200 overflow every distance to inf: the query has
    no candidate neighbor at all, and the error names the first short
    row and the smallest MinPts of the grid, at any batch size. Such a
    row costs one scan in every mode."""
    sc, X = scorer
    Q = np.round(np.random.default_rng(31).normal(size=(m, D)), 3)
    hostile = [0] if m == 1 else [3, 7]
    Q[hostile] = 1e200
    if sc.mat.duplicate_mode == "distinct":
        message = (
            "fewer than k=5 distinct coordinate locations are reachable "
            "from the query point"
        )
    else:
        message = f"query row {hostile[0]} has only 0 candidate neighbors but MinPts=5"
    with obs.collect() as snap, pytest.raises(ValidationError) as err:
        sc.score_new(Q, use_cache=False)
    assert str(err.value) == message
    if m == 1:
        # One scan finds nothing, and no wider probe is tried.
        assert snap["counters"]["distance.evaluations"] == N
