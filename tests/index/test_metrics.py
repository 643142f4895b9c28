"""Distance metrics: values, axioms, and rectangle bounds."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.index import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    MinkowskiMetric,
    get_metric,
)

ALL_METRICS = [
    EuclideanMetric(),
    ManhattanMetric(),
    ChebyshevMetric(),
    MinkowskiMetric(p=3),
]


class TestValues:
    def test_euclidean(self):
        assert EuclideanMetric().distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_manhattan(self):
        assert ManhattanMetric().distance([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev(self):
        assert ChebyshevMetric().distance([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_minkowski_p2_equals_euclidean(self):
        p = np.array([1.0, 2.0, 3.0])
        q = np.array([-1.0, 0.5, 9.0])
        assert MinkowskiMetric(p=2).distance(p, q) == pytest.approx(
            EuclideanMetric().distance(p, q)
        )

    def test_minkowski_order_validated(self):
        with pytest.raises(ValidationError):
            MinkowskiMetric(p=0.5)


class TestAxioms:
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_identity_symmetry_triangle(self, metric):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 4))
        for a in pts[:4]:
            assert metric.distance(a, a) == pytest.approx(0.0)
        for a, b, c in zip(pts[:4], pts[4:8], pts[8:12]):
            assert metric.distance(a, b) == pytest.approx(metric.distance(b, a))
            assert metric.distance(a, c) <= (
                metric.distance(a, b) + metric.distance(b, c) + 1e-12
            )


class TestVectorizedAgreement:
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_pairwise_to_point(self, metric):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        q = rng.normal(size=3)
        batch = metric.pairwise_to_point(X, q)
        for i in range(len(X)):
            assert batch[i] == pytest.approx(metric.distance(X[i], q))

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    @pytest.mark.parametrize("d", [1, 3, 16])
    def test_paired_distances_bit_identical_to_pairwise_to_point(self, metric, d):
        rng = np.random.default_rng(4)
        A = np.round(rng.normal(size=(40, d)), 3)
        B = rng.normal(size=(40, d))
        paired = metric.paired_distances(A, B)
        for i in range(len(A)):
            assert paired[i] == metric.pairwise_to_point(A, B[i])[i]

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_gap_norms_never_exceed_computed_distances(self, metric):
        rng = np.random.default_rng(5)
        box = np.round(rng.normal(size=(30, 3)), 1)
        lo, hi = box.min(axis=0), box.max(axis=0)
        Q = np.round(rng.normal(scale=3.0, size=(50, 3)), 1)
        gaps = np.maximum(np.maximum(lo - Q, Q - hi), 0.0)
        bounds = metric.gap_norms(gaps)
        for q, bound in zip(Q, bounds):
            assert bound <= metric.pairwise_to_point(box, q).min()
            # The trees' one-point bound is the same reduction.
            assert metric.min_distance_to_rect(q, lo, hi) == bound

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_full_pairwise_is_the_row_kernel(self, metric):
        # One kernel: every column of the matrix is the scan's
        # pairwise_to_point to that point, bit for bit, and every cell
        # equals distance() (the expanded form failed this for L2).
        rng = np.random.default_rng(2)
        X = rng.normal(size=(15, 3)) * 10
        Y = np.vstack([rng.normal(size=(8, 3)) * 10, X[3]])
        D = metric.pairwise(X, Y)
        assert D.shape == (15, 9)
        for j in range(Y.shape[0]):
            assert D[:, j].tobytes() == metric.pairwise_to_point(X, Y[j]).tobytes()
        assert D[3, 4] == metric.distance(X[3], Y[4])
        assert D[3, 8] == 0.0


class TestRectangleBounds:
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_bounds_bracket_all_rect_points(self, metric):
        rng = np.random.default_rng(3)
        lo = np.array([-1.0, 0.0, 2.0])
        hi = np.array([1.0, 0.5, 5.0])
        q = np.array([3.0, -2.0, 0.0])
        dmin = metric.min_distance_to_rect(q, lo, hi)
        dmax = metric.max_distance_to_rect(q, lo, hi)
        samples = rng.uniform(lo, hi, size=(200, 3))
        dists = metric.pairwise_to_point(samples, q)
        assert np.all(dists >= dmin - 1e-12)
        assert np.all(dists <= dmax + 1e-12)

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_inside_point_min_zero(self, metric):
        lo = np.zeros(2)
        hi = np.ones(2)
        assert metric.min_distance_to_rect(np.array([0.5, 0.5]), lo, hi) == 0.0


class TestRegistry:
    def test_aliases(self):
        assert isinstance(get_metric("l2"), EuclideanMetric)
        assert isinstance(get_metric("cityblock"), ManhattanMetric)
        assert isinstance(get_metric("linf"), ChebyshevMetric)

    def test_instance_passthrough(self):
        m = MinkowskiMetric(p=4)
        assert get_metric(m) is m

    def test_minkowski_string_rejected(self):
        with pytest.raises(ValidationError):
            get_metric("minkowski")

    def test_unknown_rejected(self):
        with pytest.raises(ValidationError):
            get_metric("hamming")
