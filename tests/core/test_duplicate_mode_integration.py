"""Duplicate-mode behavior through the high-level entry points.

The low-level semantics live in test_lrd/test_materialization; these
tests make sure the policy threads through the estimator, the range
sweep, the top-n miner and the persistence layer consistently.
"""

import numpy as np
import pytest

from repro import LocalOutlierFactor, lof_range, materialize
from repro.core import top_n_lof
from repro.exceptions import DuplicatePointsError


@pytest.fixture(scope="module")
def duplicated_data():
    """8 co-located points next to a normal cluster and one far point."""
    rng = np.random.default_rng(10)
    return np.vstack(
        [
            np.tile([[0.0, 0.0]], (8, 1)),
            rng.normal(loc=(5.0, 0.0), scale=0.8, size=(40, 2)),
            [[15.0, 15.0]],
        ]
    )


class TestEstimator:
    def test_inf_mode_scores_everything(self, duplicated_data):
        est = LocalOutlierFactor(
            min_pts=(4, 6), duplicate_mode="inf"
        ).fit(duplicated_data)
        # Duplicates are ordinary to each other under inf/inf := 1.
        np.testing.assert_allclose(est.scores_[:8], 1.0)
        assert np.argmax(est.scores_) == 48

    def test_distinct_mode_ranks_duplicate_block(self, duplicated_data):
        est = LocalOutlierFactor(
            min_pts=(4, 6), duplicate_mode="distinct"
        ).fit(duplicated_data)
        assert np.all(np.isfinite(est.scores_))
        # Under distinct neighborhoods the co-located block is measured
        # against the cluster across the gap: clearly outlying.
        assert est.scores_[:8].min() > 1.5

    def test_error_mode_raises_through_estimator(self, duplicated_data):
        with pytest.raises(DuplicatePointsError):
            LocalOutlierFactor(
                min_pts=(4, 6), duplicate_mode="error"
            ).fit(duplicated_data)


class TestRangeAndTopN:
    def test_lof_range_inf_mode(self, duplicated_data):
        res = lof_range(duplicated_data, 4, 6, duplicate_mode="inf")
        assert np.argmax(res.scores) == 48

    def test_top_n_with_duplicates_matches_full(self, duplicated_data):
        mat = materialize(duplicated_data, 5, duplicate_mode="inf")
        full = mat.lof(5)
        expected = np.lexsort((np.arange(len(full)), -full))[:5]
        result = top_n_lof(materialization=mat, n_outliers=5, min_pts=5)
        np.testing.assert_array_equal(result.ids, expected)


class TestPersistenceRoundtrip:
    def test_distinct_mode_survives_disk(self, duplicated_data, tmp_path):
        from repro import MaterializationDB

        mat = materialize(duplicated_data, 5, duplicate_mode="distinct")
        path = tmp_path / "dup.rlof"
        mat.save(path)
        loaded = MaterializationDB.load(path)
        np.testing.assert_allclose(loaded.lof(4), mat.lof(4), rtol=1e-15)
        np.testing.assert_allclose(loaded.lof(5), mat.lof(5), rtol=1e-15)
