"""Incremental LOF maintenance: correctness vs batch, locality of work."""

import numpy as np
import pytest

from repro import IncrementalLOF, lof_scores, obs
from repro.exceptions import NotFittedError, ValidationError


def batch_scores(points, min_pts):
    return lof_scores(np.asarray(points), min_pts)


def current_scores(inc):
    return np.array([inc.scores[h] for h in sorted(inc.scores)])


@pytest.fixture
def base_cloud():
    return np.random.default_rng(21).normal(size=(50, 2))


class TestInsert:
    def test_matches_batch_after_each_insert(self, base_cloud):
        inc = IncrementalLOF.from_dataset(base_cloud, min_pts=5)
        points = list(base_cloud)
        rng = np.random.default_rng(3)
        for _ in range(8):
            p = rng.normal(size=2) * 2.0
            inc.insert(p)
            points.append(p)
            np.testing.assert_allclose(
                current_scores(inc), batch_scores(points, 5), atol=1e-9
            )

    def test_outlier_insert_scores_high(self, base_cloud):
        inc = IncrementalLOF.from_dataset(base_cloud, min_pts=5)
        h = inc.insert([9.0, 9.0])
        assert inc.score_of(h) > 3.0

    def test_update_is_local(self, base_cloud):
        # A far-away insert should touch far fewer objects than n.
        inc = IncrementalLOF.from_dataset(base_cloud, min_pts=5)
        inc.insert([9.0, 9.0])
        assert inc.last_report.changed_lof < len(base_cloud) / 2

    def test_dimension_mismatch(self, base_cloud):
        inc = IncrementalLOF.from_dataset(base_cloud, min_pts=5)
        with pytest.raises(ValidationError):
            inc.insert([1.0, 2.0, 3.0])

    def test_nan_rejected(self, base_cloud):
        inc = IncrementalLOF.from_dataset(base_cloud, min_pts=5)
        with pytest.raises(ValidationError):
            inc.insert([np.nan, 0.0])


class TestDelete:
    def test_matches_batch_after_each_delete(self, base_cloud):
        inc = IncrementalLOF.from_dataset(base_cloud, min_pts=5)
        handles = inc.handles
        points = {h: base_cloud[i] for i, h in enumerate(handles)}
        rng = np.random.default_rng(8)
        for h in rng.choice(handles, size=6, replace=False):
            inc.delete(int(h))
            points.pop(int(h))
            remaining = np.array([points[k] for k in sorted(points)])
            np.testing.assert_allclose(
                current_scores(inc), batch_scores(remaining, 5), atol=1e-9
            )

    def test_unknown_handle(self, base_cloud):
        inc = IncrementalLOF.from_dataset(base_cloud, min_pts=5)
        with pytest.raises(KeyError):
            inc.delete(10_000)

    def test_insert_then_delete_roundtrip(self, base_cloud):
        inc = IncrementalLOF.from_dataset(base_cloud, min_pts=5)
        before = current_scores(inc)
        h = inc.insert([4.0, -4.0])
        inc.delete(h)
        np.testing.assert_allclose(current_scores(inc), before, atol=1e-9)


class TestBootstrap:
    def test_scores_undefined_until_enough_points(self):
        inc = IncrementalLOF(min_pts=4)
        for i in range(4):
            inc.insert([float(i), 0.0])
            assert inc.scores == {}
        with pytest.raises(NotFittedError):
            inc.score_of(0)
        inc.insert([4.0, 0.0])  # now n = min_pts + 1
        assert len(inc.scores) == 5

    def test_streaming_from_scratch_matches_batch(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(20, 2))
        inc = IncrementalLOF(min_pts=3)
        for p in pts:
            inc.insert(p)
        np.testing.assert_allclose(
            current_scores(inc), batch_scores(pts, 3), atol=1e-9
        )

    def test_delete_below_threshold_clears_scores(self):
        pts = np.random.default_rng(2).normal(size=(6, 2))
        inc = IncrementalLOF.from_dataset(pts, min_pts=4)
        assert len(inc.scores) == 6
        inc.delete(inc.handles[0])
        inc.delete(inc.handles[0])
        assert inc.scores == {}


class TestKernelWork:
    @pytest.mark.parametrize("mode", ["inf", "distinct", "error"])
    def test_distance_evaluations_per_update_are_exact(self, mode):
        """An insert evaluates one distance row to find the changed
        neighborhoods plus one row per changed neighborhood; an eviction
        only the latter. A row covers every live point."""
        rng = np.random.default_rng(11)
        X = rng.integers(-6, 7, size=(90, 2)).astype(np.float64)
        inc = IncrementalLOF.from_dataset(X[:30], min_pts=4, duplicate_mode=mode)
        for p in X[30:]:
            with obs.collect() as snap:
                inc.insert(p)
            evaluations = snap["counters"]["distance.evaluations"]
            changed = inc.last_report.changed_neighborhoods
            assert evaluations == (1 + changed) * inc.n_points
            with obs.collect() as snap:
                inc.delete(inc.handles[0])
            evaluations = snap["counters"].get("distance.evaluations", 0)
            changed = inc.last_report.changed_neighborhoods
            assert evaluations == changed * inc.n_points
