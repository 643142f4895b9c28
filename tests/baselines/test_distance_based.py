"""DB(pct, dmin)-outliers: Definition 2 and the Section 3 argument."""

import numpy as np
import pytest

from repro.baselines import (
    db_outliers,
    db_outliers_nested_loop,
    find_isolating_parameters,
)
from repro.datasets import make_ds1
from repro.exceptions import ValidationError
from repro.index import get_metric


@pytest.fixture(scope="module")
def ds1():
    return make_ds1(seed=0)


class TestDefinition:
    def test_far_point_flagged(self, cluster_and_outlier):
        mask = db_outliers(cluster_and_outlier, pct=95.0, dmin=3.0)
        assert mask[30]
        assert mask[:30].sum() == 0

    def test_count_includes_self(self):
        X = np.array([[0.0], [0.1], [0.2], [10.0]])
        # pct=75 allows floor(0.25 * 4) = 1 point inside dmin; the
        # isolated point counts only itself, the cluster points three.
        mask = db_outliers(X, pct=75.0, dmin=1.0)
        np.testing.assert_array_equal(mask, [False, False, False, True])
        # pct=80 allows zero points inside dmin, so even the isolated
        # point (which always counts itself) cannot qualify.
        assert not db_outliers(X, pct=80.0, dmin=1.0).any()

    def test_nested_loop_matches_index_algorithm(self, two_density_clusters):
        for pct, dmin in ((95.0, 2.0), (99.0, 5.0), (90.0, 0.5)):
            a = db_outliers(two_density_clusters, pct=pct, dmin=dmin)
            b = db_outliers_nested_loop(
                two_density_clusters, pct=pct, dmin=dmin, block_size=17
            )
            np.testing.assert_array_equal(a, b)
        # dmin exactly at one pair's distance: both algorithms must read
        # d(0, 1) as the same float, or the closed ball <= dmin counts
        # the pair on one side only (objects 0 and 1 flip).
        X = np.random.default_rng(0).normal(size=(60, 3)) * 10
        dmin = get_metric("euclidean").distance(X[0], X[1])
        a = db_outliers(X, pct=95.5, dmin=dmin)
        b = db_outliers_nested_loop(X, pct=95.5, dmin=dmin, block_size=17)
        np.testing.assert_array_equal(a, b)

    def test_binary_not_graded(self, cluster_and_outlier):
        mask = db_outliers(cluster_and_outlier, pct=95.0, dmin=3.0)
        assert mask.dtype == bool

    def test_invalid_dmin(self, cluster_and_outlier):
        with pytest.raises(ValidationError):
            db_outliers(cluster_and_outlier, pct=95.0, dmin=0.0)


class TestSection3Argument:
    """The paper's DS1 impossibility claim, verified computationally."""

    def test_o1_is_isolatable(self, ds1):
        o1 = int(ds1.members("o1")[0])
        result = find_isolating_parameters(ds1.X, [o1])
        assert result.found

    def test_o2_is_not_isolatable(self, ds1):
        # No (pct, dmin) flags o2 without also flagging C1 objects.
        o2 = int(ds1.members("o2")[0])
        result = find_isolating_parameters(ds1.X, [o2])
        assert not result.found
        # The best attempts drag in essentially all of C1.
        assert result.best_false_positives >= 100

    def test_small_dmin_floods_c1(self, ds1):
        # dmin below d(o2, C2): o2 and every C1 object are all outliers.
        o2 = int(ds1.members("o2")[0])
        c1 = ds1.members("C1")
        mask = db_outliers(ds1.X, pct=99.0, dmin=1.5)
        assert mask[o2]
        assert mask[c1].mean() > 0.9

    def test_large_dmin_misses_o2(self, ds1):
        o2 = int(ds1.members("o2")[0])
        mask = db_outliers(ds1.X, pct=99.0, dmin=6.0)
        assert not mask[o2]

    def test_lof_succeeds_where_db_fails(self, ds1):
        from repro import lof_scores

        scores = lof_scores(ds1.X, 20)
        o1 = int(ds1.members("o1")[0])
        o2 = int(ds1.members("o2")[0])
        top2 = set(np.argsort(-scores)[:2])
        assert top2 == {o1, o2}
