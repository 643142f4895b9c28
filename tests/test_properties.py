"""Property-based tests (hypothesis) for the core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro import lof_scores, materialize
from repro.core import reach_dist_values, theorem1_bounds
from repro.index import make_index

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def point_sets(min_n=8, max_n=40, dims=(1, 2, 3)):
    """Finite float arrays with enough rows for small MinPts values.

    ``unique=True`` keeps rows distinct: MinPts-fold duplicate points
    legitimately produce infinite lrd (the paper's remark after
    Definition 6), which is covered by dedicated tests, not these
    invariants.
    """
    return st.integers(min_value=min(dims), max_value=max(dims)).flatmap(
        lambda d: st.integers(min_value=min_n, max_value=max_n).flatmap(
            lambda n: arrays(
                dtype=np.float64,
                shape=(n, d),
                unique=True,
                # Rounding keeps coordinates at least 1e-4 apart, so
                # squared distances never underflow to an artificial 0
                # (which would manufacture duplicate points).
                elements=st.floats(
                    min_value=-100.0, max_value=100.0,
                    allow_nan=False, allow_infinity=False,
                ).map(lambda v: float(np.round(v, 4))),
            )
        )
    )


def _assume_no_near_ties(X):
    """Exclude configurations whose exact distance ties would be broken
    by the floating-point noise of a coordinate transform, changing
    tie-inclusive neighborhoods (Definition 4) and hence LOF."""
    from hypothesis import assume
    from repro.index import get_metric

    D = get_metric("euclidean").pairwise(X, X)
    for row in D:
        positive = np.sort(row[row > 0])
        if len(positive) > 1:
            assume(np.min(np.diff(positive)) > 1e-9 * max(1.0, positive[-1]))


@settings(**SETTINGS)
@given(X=point_sets())
def test_lof_is_positive_and_finite(X):
    scores = lof_scores(X, min_pts=3)
    assert np.all(scores > 0)
    assert np.all(np.isfinite(scores))


@settings(**SETTINGS)
@given(X=point_sets(), shift=st.floats(-50, 50), scale=st.floats(0.1, 20))
def test_lof_similarity_invariance(X, shift, scale):
    _assume_no_near_ties(X)
    base = lof_scores(X, min_pts=3)
    transformed = lof_scores(X * scale + shift, min_pts=3)
    np.testing.assert_allclose(transformed, base, rtol=1e-6, atol=1e-9)


@settings(**SETTINGS)
@given(X=point_sets(dims=(2, 3)), seed=st.integers(0, 2**16))
def test_lof_translation_invariance(X, seed):
    """Euclidean LOF is invariant under any per-coordinate translation
    (a different offset along each axis, not just a scalar shift)."""
    _assume_no_near_ties(X)
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-100.0, 100.0, size=X.shape[1])
    base = lof_scores(X, min_pts=3)
    translated = lof_scores(X + offset, min_pts=3)
    np.testing.assert_allclose(translated, base, rtol=1e-6, atol=1e-9)


@settings(**SETTINGS)
@given(X=point_sets(dims=(2, 3)), seed=st.integers(0, 2**16))
def test_lof_rotation_invariance(X, seed):
    """Euclidean LOF is invariant under orthogonal rotation: distances
    are preserved exactly up to floating-point rounding."""
    _assume_no_near_ties(X)
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(X.shape[1], X.shape[1])))
    base = lof_scores(X, min_pts=3)
    rotated = lof_scores(X @ Q, min_pts=3)
    np.testing.assert_allclose(rotated, base, rtol=1e-5, atol=1e-8)


@settings(**SETTINGS)
@given(X=point_sets(), seed=st.integers(0, 2**16))
def test_lof_permutation_equivariance(X, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(X))
    base = lof_scores(X, min_pts=3)
    permuted = lof_scores(X[perm], min_pts=3)
    np.testing.assert_allclose(permuted, base[perm], rtol=1e-9)


@settings(**SETTINGS)
@given(X=point_sets(min_n=10))
def test_theorem1_bounds_always_contain_lof(X):
    min_pts = 4
    mat = materialize(X, min_pts)
    lof = mat.lof(min_pts)
    for i in range(0, len(X), max(1, len(X) // 8)):
        b = theorem1_bounds(mat, i, min_pts)
        assert b.lof_lower - 1e-7 <= lof[i] <= b.lof_upper + 1e-7


@settings(**SETTINGS)
@given(X=point_sets(min_n=10))
def test_k_distance_neighborhood_tie_semantics(X):
    mat = materialize(X, 5)
    kdist = mat.k_distances(5)
    hoods = mat.prefixes(5)
    for i in range(len(X)):
        _, dists = hoods.row(i)
        assert len(dists) >= 5                      # at least k members
        assert np.all(dists <= kdist[i] + 1e-15)    # all within k-distance
        assert dists[-1] == pytest.approx(kdist[i]) # boundary attained


@settings(**SETTINGS)
@given(X=point_sets(min_n=10), k=st.integers(1, 5))
def test_indexes_agree_with_brute(X, k):
    brute = make_index("brute").fit(X)
    kd = make_index("kdtree").fit(X)
    for i in (0, len(X) // 2, len(X) - 1):
        a = brute.query(X[i], k, exclude=i)
        b = kd.query(X[i], k, exclude=i)
        np.testing.assert_array_equal(b.ids, a.ids)


@settings(**SETTINGS)
@given(X=point_sets(min_n=10))
def test_reach_dist_dominates_k_distance(X):
    """reach-dist_k(p, o) >= k-distance(o) and >= d(p, o), by Def. 5."""
    mat = materialize(X, 4)
    kdist = mat.k_distances(4)
    for i in range(len(X)):
        ids, dists = mat.neighborhood_of(i, 4)
        reach = reach_dist_values(dists, kdist[ids])
        assert np.all(reach >= dists - 1e-15)
        assert np.all(reach >= kdist[ids] - 1e-15)


@settings(**SETTINGS)
@given(
    X=point_sets(min_n=12, max_n=30),
    point=arrays(
        dtype=np.float64,
        shape=(3,),
        elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    ),
)
def test_incremental_insert_matches_batch(X, point):
    from repro import IncrementalLOF

    X3 = np.column_stack([X[:, 0]] * 3)  # force 3-d for the point
    inc = IncrementalLOF.from_dataset(X3, min_pts=3)
    inc.insert(point)
    full = lof_scores(np.vstack([X3, point[None, :]]), 3)
    got = np.array([inc.scores[h] for h in sorted(inc.scores)])
    np.testing.assert_allclose(got, full, atol=1e-8, rtol=1e-6)


@settings(**SETTINGS)
@given(X=point_sets(min_n=6, max_n=15, dims=(2,)), dup=st.integers(3, 5))
def test_distinct_mode_keeps_lrd_finite_on_duplicates(X, dup):
    """The remark after Definition 6: with MinPts-fold duplicates the
    plain definition yields lrd = inf, and the paper's proposed
    k-distinct-distance fix keeps every lrd finite."""
    Xdup = np.repeat(X, dup, axis=0)
    min_pts = dup - 1  # each point has dup-1 co-located twins
    plain = materialize(Xdup, min_pts, duplicate_mode="inf")
    assert np.all(np.isinf(plain.lrd(min_pts)))
    distinct = materialize(Xdup, min_pts, duplicate_mode="distinct")
    lrd = distinct.lrd(min_pts)
    assert np.all(np.isfinite(lrd))
    assert np.all(lrd > 0)
    # LOF stays well-defined (positive, finite) in distinct mode too.
    assert np.all(np.isfinite(distinct.lof(min_pts)))


@settings(**SETTINGS)
@given(X=point_sets(min_n=10), q=st.integers(0, 10**6))
def test_db_outlier_monotone_in_dmin(X, q):
    """Growing dmin can only shrink the DB-outlier set (for fixed pct)."""
    from repro.baselines import db_outliers

    small = db_outliers(X, pct=90.0, dmin=1.0)
    large = db_outliers(X, pct=90.0, dmin=5.0)
    assert np.all(large <= small)


@settings(**SETTINGS)
@given(
    X=point_sets(min_n=10, max_n=30, dims=(1, 2)),
    pct=st.sampled_from([80.0, 90.0, 95.0]),
    dmin=st.floats(0.5, 20.0),
)
def test_cell_based_equals_nested_loop(X, pct, dmin):
    """The cell-based algorithm is output-identical to the definition."""
    from repro.baselines import cell_based_db_outliers, db_outliers

    np.testing.assert_array_equal(
        cell_based_db_outliers(X, pct, dmin),
        db_outliers(X, pct=pct, dmin=dmin),
    )


@settings(**SETTINGS)
@given(X=point_sets(min_n=10, max_n=30), n=st.integers(1, 8))
def test_top_n_lof_exactness(X, n):
    """Bound pruning never changes the top-n result."""
    from repro.core import top_n_lof

    result = top_n_lof(X, n_outliers=n, min_pts=4)
    full = lof_scores(X, 4)
    expected = np.lexsort((np.arange(len(full)), -full))[: len(result.ids)]
    np.testing.assert_array_equal(result.ids, expected)


@settings(**SETTINGS)
@given(X=point_sets(min_n=8, max_n=25), radius=st.floats(0.1, 50.0))
def test_radius_queries_agree_across_indexes(X, radius):
    from repro.index import make_index

    brute = make_index("brute").fit(X)
    for name in ("kdtree", "grid", "balltree"):
        idx = make_index(name).fit(X)
        a = brute.query_radius(X[0], radius, exclude=0)
        b = idx.query_radius(X[0], radius, exclude=0)
        np.testing.assert_array_equal(b.ids, a.ids, err_msg=name)
