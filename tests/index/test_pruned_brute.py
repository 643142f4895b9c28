"""The property wall around the box-pruned brute batch scan.

``BruteForceIndex.query_batch_with_ties`` skips every kd leaf whose box
lower bound is strictly above a row's k-distance bound, then computes
the surviving pairs with the same subtraction and row kernel as the
per-row scan. Its claim is exactness: for every row, the same ids in the
same (distance, id) order and the same distances, bit for bit, as one
per-row ``query_with_ties`` against the same index.

The wall checks both the public batch method (which scans every point
per row unless ``fast_batch``: 2**(d + PRUNE_DEPTH) kd leaves or more) and
the pruned scan itself (``_pruned_query``), forced at every size and
dimension, on the data that stresses it: duplicate-heavy sets, a 1e-3
grid, tie rings, queries that are not the indexed points, partial
exclusion vectors, datasets of at most one leaf, and a far outlier
whose nearest leaves hold fewer than k points.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.graph import NeighborhoodGraph
from repro.index import KDTreeIndex, make_index
from repro.index.brute import PRUNE_DEPTH
from repro.index.kdtree import LEAF_SIZE, KDTree
from repro.index.metrics import MinkowskiMetric

METRICS = {
    "euclidean": lambda: "euclidean",
    "manhattan": lambda: "manhattan",
    "chebyshev": lambda: "chebyshev",
    "minkowski3": lambda: MinkowskiMetric(p=3),
}
DIMS = (1, 2, 3, 8, 16)
KINDS = ("duplicates", "grid", "rings", "outlier", "gaussian")

SETTINGS = dict(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def make_points(kind: str, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "duplicates":
        # A few sites, each repeated many times: zero distances and
        # k-distance ties everywhere.
        sites = rng.normal(size=(max(1, n // 6), d))
        return sites[rng.integers(0, len(sites), n)]
    if kind == "grid":
        return np.round(rng.normal(scale=0.02, size=(n, d)), 3)
    if kind == "rings":
        # Points at integer radii along the axes around a few centers:
        # many rows share their k-distance with several neighbors.
        centers = rng.integers(-3, 4, size=(max(1, n // 12), d)).astype(float)
        axis = rng.integers(0, d, n)
        radius = rng.integers(0, 4, n) * rng.choice([-1.0, 1.0], n)
        X = centers[rng.integers(0, len(centers), n)]
        X[np.arange(n), axis] += radius
        return X
    if kind == "outlier":
        X = rng.normal(size=(n, d))
        X[-1] = 1e3
        return X
    return rng.normal(size=(n, d))


@st.composite
def cases(draw, max_n=90):
    d = draw(st.sampled_from(DIMS))
    kind = draw(st.sampled_from(KINDS))
    # Half the cases fit in one leaf.
    n = draw(st.one_of(st.integers(2, LEAF_SIZE), st.integers(LEAF_SIZE + 1, max_n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = make_points(kind, n, d, rng)
    if draw(st.booleans()):
        # Every point queries itself, excluded.
        Q, exclude = X, np.arange(n)
    else:
        # Novel queries (plus some indexed points), a partial exclusion
        # vector: -1 entries mean "no exclusion for this row".
        m = draw(st.integers(1, 12))
        Q = np.vstack([make_points(kind, m, d, rng), X[rng.integers(0, n, 2)]])
        exclude = np.where(rng.random(len(Q)) < 0.5, rng.integers(0, n, len(Q)), -1)
    k = draw(st.integers(1, n - 1))
    return X, Q, exclude, k


def assert_matches_per_row(idx, Q, exclude, k, ids, dists):
    widths = []
    for i in range(len(Q)):
        excl = int(exclude[i]) if exclude[i] >= 0 else None
        hood = idx.query_with_ties(Q[i], k, exclude=excl)
        L = len(hood)
        widths.append(L)
        np.testing.assert_array_equal(ids[i, :L], hood.ids)
        np.testing.assert_array_equal(dists[i, :L], hood.distances)
        assert np.all(ids[i, L:] == -1)
        assert np.all(np.isinf(dists[i, L:]))
    assert ids.shape[1] == max(widths)


@pytest.mark.parametrize("metric", sorted(METRICS))
@given(case=cases())
@settings(**SETTINGS)
def test_batch_equals_per_row(metric, case):
    X, Q, exclude, k = case
    idx = make_index("brute", metric=METRICS[metric]()).fit(X)
    ids, dists = idx.query_batch_with_ties(Q, k, exclude=exclude)
    assert_matches_per_row(idx, Q, exclude, k, ids, dists)
    # The pruned scan itself, at every dimension.
    Qc, excl, kc = idx._check_batch(Q, k, exclude)
    ids, dists = idx._pruned_query(Qc, kc, excl)
    assert_matches_per_row(idx, Q, exclude, k, ids, dists)


@pytest.mark.parametrize("metric", sorted(METRICS))
@pytest.mark.parametrize("k", [1, 4, 8, 12, 20])
def test_neighbors_on_shared_box_faces(metric, k):
    # A 0.1-spaced lattice: 0.1 * i is inexact in binary, and the median
    # splits cut through columns of equal coordinates, so neighboring
    # leaf boxes share faces and many neighbors sit exactly on them,
    # tied with each other. A box bound rounding above the computed
    # distance of a face point would drop a tied neighbor here.
    axis = 0.1 * np.arange(32)
    X = np.array([[x, y] for x in axis for y in axis])
    idx = make_index("brute", metric=METRICS[metric]()).fit(X)
    assert idx.fast_batch  # the pruned scan runs
    tree = idx._tree
    leaves = np.flatnonzero(tree.left < 0)
    faces = np.concatenate([tree.lo[leaves], tree.hi[leaves]])
    shared = [v for v in np.unique(faces[:, 0]) if np.sum(faces[:, 0] == v) > 1]
    assert shared, "the lattice should put points on shared leaf faces"
    n = len(X)
    ids, dists = idx.query_batch_with_ties(X, k, exclude=np.arange(n))
    assert_matches_per_row(idx, X, np.arange(n), k, ids, dists)
    # Queries placed exactly on the faces, between the lattice points.
    Q = np.array([[v, y + 0.05] for v in shared for y in axis[:-1]])
    exclude = np.full(len(Q), -1)
    ids, dists = idx.query_batch_with_ties(Q, k, exclude=exclude)
    assert_matches_per_row(idx, Q, exclude, k, ids, dists)


def test_far_outlier_with_k_beyond_its_leaf():
    # The outlier's own leaf and its box neighbors hold fewer than k
    # points; its first node must still hold more than k.
    rng = np.random.default_rng(3)
    X = np.vstack([rng.normal(size=(1000, 2)), [[500.0, -500.0]]])
    k = 3 * LEAF_SIZE
    idx = make_index("brute").fit(X)
    assert idx.fast_batch  # the pruned scan runs
    n = len(X)
    ids, dists = idx.query_batch_with_ties(X, k, exclude=np.arange(n))
    assert_matches_per_row(idx, X, np.arange(n), k, ids, dists)
    assert idx._tree.size[idx._tree.descend(X[-1:], k)][0] > k


def test_kd_tree_partitions_the_points():
    X = np.random.default_rng(0).normal(size=(300, 3))
    tree = KDTree(X)
    leaves = np.flatnonzero(tree.left < 0)
    assert np.array_equal(np.sort(tree.order), np.arange(300))
    assert tree.size[leaves].sum() == 300
    assert tree.size[leaves].max() <= LEAF_SIZE
    for leaf in leaves:
        pts = X[tree.order[tree.start[leaf] : tree.stop[leaf]]]
        assert np.all(pts >= tree.lo[leaf]) and np.all(pts <= tree.hi[leaf])


def test_fast_batch_is_the_leaf_count_rule():
    # fast_batch decides from (n, d) alone; it must agree with the leaf
    # count of the tree the pruned scan would build.
    for n in [1, 16, 17, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025, 2100]:
        X = np.random.default_rng(n).normal(size=(n, 1))
        leaves = KDTree(X).n_leaves
        for d in range(1, 6):
            idx = make_index("brute").fit(np.zeros((n, d)))
            assert idx.fast_batch == (leaves >= 2 ** (d + PRUNE_DEPTH)), (n, d)


def test_tree_is_built_on_first_pruned_batch():
    rng = np.random.default_rng(4)
    small = make_index("brute").fit(rng.normal(size=(300, 3)))
    assert not small.fast_batch
    small.query_batch_with_ties(small.data, 5, exclude=np.arange(300))
    assert small._kd is None  # the per-row scan never needs the tree
    big = make_index("brute").fit(rng.normal(size=(2100, 2)))
    assert big._kd is None
    assert big.fast_batch
    big.query_batch_with_ties(big.data[:10], 5)
    assert isinstance(big._kd, KDTree)


@pytest.mark.parametrize("n, d, batches", [(300, 3, 0), (2100, 2, 1)])
def test_from_index_batches_only_where_it_prunes(n, d, batches):
    X = np.random.default_rng(6).normal(size=(n, d))
    with obs.collect() as snap:
        graph = NeighborhoodGraph.from_index(X, 12)
    counters = snap["counters"]
    assert counters["knn.queries"] == n
    assert counters.get("knn.batch_queries", 0) == batches
    idx = make_index("brute").fit(X)
    rows = [idx.query_with_ties(X[i], 12, exclude=i) for i in range(n)]
    expected = NeighborhoodGraph.from_rows(
        [h.ids for h in rows], [h.distances for h in rows], k_max=12
    )
    np.testing.assert_array_equal(graph.padded_ids, expected.padded_ids)
    np.testing.assert_array_equal(graph.padded_dists, expected.padded_dists)


def test_kdtree_backend_searches_the_shared_tree():
    X = np.random.default_rng(2).normal(size=(400, 3))
    idx = KDTreeIndex(leaf_size=8).fit(X)
    assert isinstance(idx._tree, KDTree)
    assert idx._tree.size[idx._tree.left < 0].max() <= 8
    brute = make_index("brute").fit(X)
    for i in range(0, 400, 37):
        got, want = idx.query_with_ties(X[i], 10, exclude=i), brute.query_with_ties(X[i], 10, exclude=i)
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.distances, want.distances)
