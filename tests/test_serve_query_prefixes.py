"""Serving reads every MinPts from one query row: the per-k oracle wall.

:meth:`~repro.serve.OnlineScorer._query_view` runs one k-NN per novel
query, at the largest MinPts of the request, and reads every smaller
MinPts as a prefix of that (distance, id)-sorted row. This wall pins
the result to the per-k pipeline it replaced, byte for byte: for each
MinPts k, a fresh distance row, a tie-inclusive selection at k (or the
k-distinct ball under ``duplicate_mode='distinct'``), the rows padded
into a one-MinPts :class:`~repro.core.graph.GridPrefixes` of that k
alone (every row its whole neighborhood) and the scorer's
``score_query`` on it. Stored rows (``exclude=i`` with equal
coordinates) read their graph prefix, as before. ``classify_new`` is
compared against a scorer whose request views are assembled from the
same per-k selections.

The corpora are tie-heavy on purpose (a 1e-3 grid, duplicate blocks of
at least MinPts points, integer tie rings, the smallest legal n), since
ties at the k-distance are where a prefix read could go wrong. Each
batch mixes novel points, stored points with and without their
exclusion, novel points that exclude a neighbor, and repeated rows.
Errors (the 'error' mode's duplicate errors, the 'distinct' mode's
short rows) compare by type and message.

The counter tests pin the cost: one distance row per novel query per
request, whatever the size of the MinPts grid, and none for stored rows.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import LocalOutlierFactor, obs
from repro.core.graph import GridPrefixes
from repro.core.range_lof import _AGGREGATES
from repro.exceptions import ReproError, ValidationError
from repro.index.batch import select_tie_inclusive, tie_threshold
from repro.scorers import ScorerContext, get_scorer
from repro.serve import OnlineScorer
from repro.store import load_model

from oracles import loop_k_distinct_radius

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

MODES = ("inf", "distinct", "error")
SCORERS = ("lof", "ldof", "loop", "knn_dist")


# ---------------------------------------------------------------------------
# the per-k oracle


def _oracle_ball(drow, coord_keys, k):
    """The k-distinct ball of one distance row, by a full sort and a
    boolean mask (the membership rule, not a prefix read)."""
    order = np.lexsort((np.arange(len(drow)), drow))
    radius = loop_k_distinct_radius(order, drow[order], coord_keys, k)
    if radius is None:
        raise ValidationError(
            f"fewer than k={k} distinct coordinate locations are "
            "reachable from the query point"
        )
    members = order[drow[order] <= radius]
    return members, drow[members], float(radius)


def oracle_view(sc, Xq, exclude, k):
    """One MinPts's query view, built from scratch for that k alone."""
    mat = sc.mat
    rows_ids, rows_dists = [], []
    kdist_q = np.empty(len(Xq))
    for i, q in enumerate(Xq):
        j = int(exclude[i])
        if j >= 0 and q.tobytes() == sc.X[j].tobytes():
            ids, dists = mat.neighborhood_of(j, k)
            kdist_q[i] = mat.k_distances(k)[j]
        else:
            drow = sc.metric.pairwise_to_point(sc.X, q)
            if j >= 0:
                drow[j] = np.inf
            if mat.duplicate_mode == "distinct":
                ids, dists, kdist_q[i] = _oracle_ball(drow, mat.coord_keys, k)
            else:
                finite = int(np.isfinite(drow).sum())
                if finite < k:
                    raise ValidationError(
                        f"query row {i} has only {finite} candidate "
                        f"neighbors but MinPts={k}"
                    )
                ids, dists, _ = select_tie_inclusive(drow[None, :], k)
                kdist_q[i] = tie_threshold(drow, k)
        rows_ids.append(ids)
        rows_dists.append(dists)
    counts = np.array([len(r) for r in rows_ids])
    ids = np.full((len(Xq), counts.max()), -1, dtype=np.int64)
    dists = np.full((len(Xq), counts.max()), np.inf)
    for i, c in enumerate(counts):
        ids[i, :c] = rows_ids[i]
        dists[i, :c] = rows_dists[i]
    return GridPrefixes(ids, dists, kdist_q[None], counts[None])


def oracle_scores(sc, Xq, exclude, min_pts, scorer):
    """``score_new`` as one k-NN and one kernel per MinPts, in order."""
    active = get_scorer(scorer)
    ks = sc.min_pts_grid if min_pts is None else (min_pts,)
    matrix = np.empty((len(ks), len(Xq)))
    for row_k, k in enumerate(ks):
        view = oracle_view(sc, Xq, exclude, k)
        ctx = ScorerContext(mat=sc.mat, k=k, X=sc.X, metric=sc.metric)
        ctx.tables = active.tables([ctx])
        matrix[row_k] = active.score_query(ctx, view)[0]
    if len(ks) == 1:
        return matrix[0]
    return _AGGREGATES[sc.aggregate](matrix)


def oracle_grid(sc, Xq, exclude, ks):
    """A request's view at every k of ``ks``, assembled from one oracle
    view per k: every k's own selection must be a prefix of the widest
    k's rows, and brings its own radii and neighborhood sizes."""
    views = [oracle_view(sc, Xq, exclude, k) for k in ks]
    widest = views[int(np.argmax(ks))]
    for view in views:
        for i, c in enumerate(view.counts[0]):
            assert view.ids[i, :c].tobytes() == widest.ids[i, :c].tobytes()
            assert view.dists[i, :c].tobytes() == widest.dists[i, :c].tobytes()
    return GridPrefixes(
        widest.ids,
        widest.dists,
        np.vstack([view.radii for view in views]),
        np.vstack([view.counts for view in views]),
    )


def oracle_scorer(model):
    """An OnlineScorer whose query views come from the per-k oracle, so
    ``classify_new``'s brackets and exact fallbacks read oracle views."""
    sc = OnlineScorer(model, cache_size=0)
    sc._query_view = lambda Xq, exclude, ks: oracle_grid(sc, Xq, exclude, ks)
    return sc


def outcome(fn):
    """The value of ``fn()``, or the type and message of its error."""
    try:
        return fn()
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def score_bytes(sc, Xq, exclude, min_pts, scorer):
    return sc.score_new(
        Xq, min_pts=min_pts, exclude=exclude, use_cache=False, scorer=scorer
    ).tobytes()


def classify_bytes(sc, Xq, exclude, min_pts, scorer):
    with obs.collect() as snap:
        res = sc.classify_new(Xq, min_pts=min_pts, exclude=exclude, scorer=scorer)
    bounds = {
        name: value
        for name, value in snap["counters"].items()
        if name.startswith("serve.bounds.")
    }
    return (
        res.labels.tobytes(),
        res.lower.tobytes(),
        res.upper.tobytes(),
        res.scores.tobytes(),
        res.pruned,
        res.exact,
        bounds,
    )


# ---------------------------------------------------------------------------
# tie-heavy corpora and mixed batches


def _unique_rows(X):
    _, first = np.unique(X, axis=0, return_index=True)
    return X[np.sort(first)]


@st.composite
def corpora(draw, mode):
    """``(X, lb, ub)``: a tie-heavy corpus the ``mode`` fit accepts.

    Under 'error', no location holds more than ``lb`` copies, so no
    object has MinPts duplicates besides itself; under 'distinct', every
    object sees at least ``ub`` other locations.
    """
    lb = draw(st.integers(min_value=2, max_value=4))
    ub = lb + draw(st.integers(min_value=0, max_value=3))
    kind = draw(st.sampled_from(("grid", "blocks", "rings", "minimal")))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**16)))
    if kind == "grid":
        # Integer multiples of 1e-3: many equal differences, and
        # duplicates where two draws share a cell.
        n = draw(st.integers(min_value=ub + 6, max_value=36))
        X = rng.integers(-6, 7, size=(n, 2)) * 1e-3
        if mode == "error":
            X = _unique_rows(X)
    elif kind == "blocks":
        # Blocks of at least lb copies of one location, among unique
        # half-integer points away from every block.
        n_blocks = draw(st.integers(min_value=1, max_value=3))
        sizes = [
            lb if mode == "error" else draw(st.integers(lb, ub + 2))
            for _ in range(n_blocks)
        ]
        sites = np.array([[10.0 * b, -7.0] for b in range(n_blocks)])
        rest = _unique_rows(rng.integers(-8, 9, size=(ub + 10, 2)) * 0.5)
        X = np.vstack([np.repeat(sites, sizes, axis=0), rest])
        X = X[rng.permutation(len(X))]
    elif kind == "rings":
        # Integer tie rings: 4 points at radius r around each center.
        rows = []
        for c in rng.integers(-4, 5, size=(draw(st.integers(1, 3)), 2)):
            rows.append(c)
            for r in range(1, draw(st.integers(2, 4)) + 1):
                rows += [c + (r, 0), c - (r, 0), c + (0, r), c - (0, r)]
        X = _unique_rows(np.array(rows, dtype=np.float64))
        assume(len(X) >= ub + 2)
    else:
        # The smallest corpus a fit at ub accepts.
        X = _unique_rows(rng.integers(-3, 4, size=(4 * ub, 2)).astype(np.float64))
        assume(len(X) >= ub + 1)
        X = X[: ub + 1]
    return X.astype(np.float64), lb, ub


def mixed_batch(X, seed):
    """``(Xq, exclude)`` mixing every kind of row the scorer tells apart."""
    rng = np.random.default_rng(seed)
    n = len(X)
    i, j, s, t = rng.integers(0, n, size=4)
    novel = X[i] + X[j] - X[t]  # a translate: on the data's lattice
    nudge = np.zeros(X.shape[1])
    nudge[0] = 1e-4 * (np.abs(X).max() + 1.0)
    rows = [
        (novel, -1),                   # novel point
        ((X[i] + X[j]) / 2, -1),       # novel point between two objects
        (X[s], s),                     # stored object, excluded: graph row
        (X[t], -1),                    # stored coordinates, no exclusion
        (X[j] + nudge, j),             # novel point excluding its neighbor
        (novel, -1),                   # repeats of rows already in the batch
        (X[s], s),
    ]
    order = rng.permutation(len(rows))
    Xq = np.array([rows[o][0] for o in order], dtype=np.float64)
    exclude = np.array([rows[o][1] for o in order], dtype=np.int64)
    return Xq, exclude


def _fit_model(X, lb, ub, mode, tmpdir):
    try:
        est = LocalOutlierFactor(min_pts=(lb, ub), duplicate_mode=mode).fit(X)
    except ReproError:
        assume(False)
    path = Path(tmpdir) / "m.rlof"
    est.save(path)
    return load_model(path)


@pytest.mark.parametrize("mode", MODES)
@settings(**SETTINGS)
@given(data=st.data())
def test_every_min_pts_matches_the_per_k_oracle(mode, data):
    X, lb, ub = data.draw(corpora(mode))
    Xq, exclude = mixed_batch(X, data.draw(st.integers(0, 2**16)))
    with tempfile.TemporaryDirectory() as tmpdir:
        model = _fit_model(X, lb, ub, mode, tmpdir)
        sc = OnlineScorer(model, cache_size=0)
        oracle = oracle_scorer(model)
        for scorer in SCORERS:
            for min_pts in (None, *range(lb, ub + 1)):
                got = outcome(lambda: score_bytes(sc, Xq, exclude, min_pts, scorer))
                want = outcome(
                    lambda: oracle_scores(sc, Xq, exclude, min_pts, scorer).tobytes()
                )
                assert got == want, (scorer, min_pts)
                got = outcome(lambda: classify_bytes(sc, Xq, exclude, min_pts, scorer))
                want = outcome(
                    lambda: classify_bytes(oracle, Xq, exclude, min_pts, scorer)
                )
                assert got == want, (scorer, min_pts)


def test_error_mode_errors_match_the_oracle(tmp_path):
    """A query on a block of lb copies has a zero-spread neighborhood at
    MinPts=lb: LDOF and LoOP raise in 'error' mode, on both paths alike."""
    X = np.vstack([np.zeros((3, 2)), np.arange(16.0).reshape(8, 2)])
    est = LocalOutlierFactor(min_pts=(3, 5), duplicate_mode="error").fit(X)
    est.save(tmp_path / "m.rlof")
    sc = OnlineScorer.from_path(tmp_path / "m.rlof", cache_size=0)
    Xq = np.array([[0.0, 0.0], [4.0, 4.0]])
    exclude = np.array([-1, -1])
    for scorer in ("ldof", "loop"):
        got = outcome(lambda: score_bytes(sc, Xq, exclude, None, scorer))
        want = outcome(
            lambda: oracle_scores(sc, Xq, exclude, None, scorer).tobytes()
        )
        assert got == want
        assert got[0] == "DuplicatePointsError"


def test_distinct_mode_short_rows_match_the_oracle(tmp_path):
    """Excluding the only object at one location can leave a query
    fewer than MinPts distinct locations: the first failing MinPts, and
    its message, are the per-k pipeline's."""
    X = np.array([[float(i), float(i * i % 7)] for i in range(8)])
    est = LocalOutlierFactor(min_pts=(5, 7), duplicate_mode="distinct").fit(X)
    est.save(tmp_path / "m.rlof")
    sc = OnlineScorer.from_path(tmp_path / "m.rlof", cache_size=0)
    Xq = np.array([[4.0, 2.0], [1.0, 1.5]])  # on object 4, excluding 3
    exclude = np.array([3, 1])
    got = outcome(lambda: score_bytes(sc, Xq, exclude, None, "lof"))
    want = outcome(lambda: oracle_scores(sc, Xq, exclude, None, "lof").tobytes())
    assert got == want
    assert got[0] == "ValidationError" and "k=7" in got[1]


# ---------------------------------------------------------------------------
# distance evaluations per request


class TestOneRowPerQuery:
    @pytest.fixture
    def grid_scorer(self, tmp_path):
        X = np.random.default_rng(5).normal(size=(200, 3))
        est = LocalOutlierFactor(min_pts=(10, 20)).fit(X)
        est.save(tmp_path / "m.rlof")
        sc = OnlineScorer.from_path(tmp_path / "m.rlof", cache_size=0)
        sc.score_new(X[:1], use_cache=False)  # warm every per-k cache
        return sc, X

    def test_novel_rows_cost_one_row_each_over_the_grid(self, grid_scorer):
        sc, X = grid_scorer
        assert len(sc.min_pts_grid) == 11
        m, n = 3, len(X)
        Xq = np.random.default_rng(6).normal(size=(m, 3))
        with obs.collect() as snap:
            sc.score_new(Xq, use_cache=False)
        assert snap["counters"]["distance.evaluations"] == m * n

    def test_classify_brackets_cost_one_row_each(self, grid_scorer):
        sc, X = grid_scorer
        Xq = np.random.default_rng(7).normal(size=(4, 3))
        with obs.collect() as snap:
            res = sc.classify_new(Xq)
        counters = snap["counters"]
        # One row per query for all 11 brackets, one more per query
        # whose bracket straddled the threshold.
        assert counters["distance.evaluations"] == (len(Xq) + res.exact) * len(X)

    def test_stored_rows_with_exclusion_cost_nothing(self, grid_scorer):
        sc, X = grid_scorer
        ids = np.arange(5)
        with obs.collect() as snap:
            sc.score_new(X[ids], exclude=ids, use_cache=False)
        assert snap["counters"].get("distance.evaluations", 0) == 0
