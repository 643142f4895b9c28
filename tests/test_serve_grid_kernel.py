"""Serving scores the whole MinPts grid in one kernel pass per batch.

A served request reads every MinPts of its grid as a prefix of one
query row (``tests/test_serve_query_prefixes.py`` pins the bits), and
the active scorer's ``score_query`` takes all of them at once: one call
per scored batch whatever the size of the grid, and one count per
(point, MinPts) on the ``scorer.<name>.points`` counters. For LDOF the
inner distances of a row's widest prefix serve every narrower one, so a
served point costs its k-NN plus that prefix's pairs, once.

Everything here is counters and call counts; nothing is timed.
"""

import numpy as np
import pytest

from repro import LocalOutlierFactor, obs
from repro.scorers import get_scorer
from repro.serve import OnlineScorer

SCORERS = ("lof", "ldof", "loop", "knn_dist")


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Stores whose grids have 11 and 51 MinPts values."""
    X = np.random.default_rng(11).normal(size=(300, 3))
    paths = {}
    for lb, ub in ((10, 20), (10, 60)):
        path = tmp_path_factory.mktemp("grid") / f"m{ub}.rlof"
        LocalOutlierFactor(min_pts=(lb, ub)).fit(X).save(path)
        paths[ub - lb + 1] = path
    return paths


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count ``score_query`` calls on every registered scorer class."""
    calls = []
    for name in SCORERS:
        cls = type(get_scorer(name))
        real = cls.score_query

        def spy(self, ctx, grid, _real=real):
            calls.append((self.name, grid.counts.shape))
            return _real(self, ctx, grid)

        monkeypatch.setattr(cls, "score_query", spy)
    return calls


def _scorer_and_min_pts(stores, grid_size):
    """An OnlineScorer and the ``min_pts`` selector that give a grid of
    ``grid_size`` MinPts values."""
    if grid_size == 1:
        return OnlineScorer.from_path(stores[11], cache_size=64), 12
    return OnlineScorer.from_path(stores[grid_size], cache_size=64), None


@pytest.mark.parametrize("grid_size", (1, 11, 51))
@pytest.mark.parametrize("name", SCORERS)
class TestOneKernelPassPerBatch:
    def test_one_call_per_scored_batch(self, stores, kernel_calls, name, grid_size):
        sc, min_pts = _scorer_and_min_pts(stores, grid_size)
        Q = np.random.default_rng(12).normal(size=(6, 3))
        # Warm the grid first: LoOP fits its per-MinPts aux state (and
        # counts those points) on first use.
        sc.score_new(Q[5:], min_pts=min_pts, scorer=name, use_cache=False)
        kernel_calls.clear()
        Q = Q[:5]
        with obs.collect() as snap:
            sc.score_new(Q[:3], min_pts=min_pts, scorer=name)
            sc.score_new(Q, min_pts=min_pts, scorer=name)
            sc.score_new(Q, min_pts=min_pts, scorer=name, use_cache=False)
        # The second batch scores its two new rows and reads three from
        # the cache: one more pass, over the misses only.
        assert kernel_calls == [
            (name, (grid_size, 3)), (name, (grid_size, 2)), (name, (grid_size, 5))
        ]
        counters = snap["counters"]
        assert counters[f"scorer.{name}.points"] == 10 * grid_size
        assert counters["serve.points_scored"] == 13

    def test_a_batch_of_cache_hits_runs_no_pass(self, stores, kernel_calls, name, grid_size):
        sc, min_pts = _scorer_and_min_pts(stores, grid_size)
        Q = np.random.default_rng(13).normal(size=(4, 3))
        first = sc.score_new(Q, min_pts=min_pts, scorer=name)
        again = sc.score_new(Q, min_pts=min_pts, scorer=name)
        assert np.array_equal(first, again)
        assert kernel_calls == [(name, (grid_size, 4))]

    def test_classify_scores_undecided_rows_in_one_pass(
        self, stores, kernel_calls, name, grid_size
    ):
        sc, min_pts = _scorer_and_min_pts(stores, grid_size)
        Q = np.random.default_rng(14).normal(scale=2.0, size=(6, 3))
        res = sc.classify_new(Q, min_pts=min_pts, scorer=name)
        want = [(name, (grid_size, res.exact))] if res.exact else []
        assert kernel_calls == want


def test_ldof_point_evaluates_its_widest_prefix_once(tmp_path):
    """One served LDOF point on an n=2000, d=16 store with grid 10..60
    costs its k-NN (one distance per stored point) plus the pairs among
    its 60 nearest neighbors, each once, not once per MinPts."""
    n, d = 2000, 16
    rng = np.random.default_rng(15)
    X = rng.normal(size=(n, d))
    LocalOutlierFactor(min_pts=(10, 60)).fit(X).save(tmp_path / "m.rlof")
    sc = OnlineScorer.from_path(tmp_path / "m.rlof", cache_size=0, scorer="ldof")
    assert len(sc.min_pts_grid) == 51
    sc.score_new(rng.normal(size=(1, d)))  # fit the query index
    q = rng.normal(size=(1, d))
    nearest = np.sort(np.linalg.norm(X - q, axis=1))
    assert nearest[59] < nearest[60]  # no tie at the 60-distance
    with obs.collect() as snap:
        sc.score_new(q)
    assert snap["counters"]["distance.evaluations"] == n + 60 * 59 // 2
