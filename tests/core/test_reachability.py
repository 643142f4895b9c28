"""Definition 5: the reachability distance."""

import numpy as np
import pytest

from repro import reach_dist, reachability_matrix


class TestReachDist:
    def test_far_point_uses_actual_distance(self, line4):
        # p3 (=10) is far from p1 (=1): reach-dist = d = 9 > 2-distance(p1)=1.
        assert reach_dist(line4, k=2, p_index=3, o_index=1) == pytest.approx(9.0)

    def test_close_point_uses_k_distance(self, line4):
        # p1 is within p0's 2-distance (2): reach-dist(p1, p0) = 2, not 1.
        assert reach_dist(line4, k=2, p_index=1, o_index=0) == pytest.approx(2.0)

    def test_asymmetry(self, line4):
        # reach-dist is NOT symmetric: it smooths w.r.t. o's density.
        a = reach_dist(line4, k=2, p_index=1, o_index=0)
        b = reach_dist(line4, k=2, p_index=0, o_index=1)
        assert a == pytest.approx(2.0)
        assert b == pytest.approx(1.0)

    def test_figure2_scenario(self):
        """Figure 2: with k=4, a close p1 gets o's 4-distance while a far
        p2 keeps its true distance."""
        # o at origin with 4 ring neighbors defining 4-distance = 2.
        X = np.array(
            [
                [0.0, 0.0],      # o (index 0)
                [2.0, 0.0], [-2.0, 0.0], [0.0, 2.0], [0.0, -2.0],  # ring
                [0.5, 0.5],      # p1, close (d ~ 0.707)
                [7.0, 0.0],      # p2, far (d = 7)
            ]
        )
        assert reach_dist(X, k=4, p_index=5, o_index=0) == pytest.approx(2.0)
        assert reach_dist(X, k=4, p_index=6, o_index=0) == pytest.approx(7.0)

    def test_lower_bounded_by_k_distance_of_o(self, random_points):
        k = 4
        o = 17
        from repro import k_distance

        kdist_o = k_distance(random_points, k=k, point_index=o)
        for p in (0, 5, 80):
            assert reach_dist(random_points, k=k, p_index=p, o_index=o) >= kdist_o - 1e-12


class TestReachabilityMatrix:
    def test_matches_scalar_function(self, line4):
        R = reachability_matrix(line4, k=2)
        for p in range(4):
            for o in range(4):
                if p == o:
                    continue
                assert R[p, o] == pytest.approx(
                    reach_dist(line4, k=2, p_index=p, o_index=o)
                )

    def test_diagonal_is_k_distance(self, line4):
        from repro import k_distance

        R = reachability_matrix(line4, k=2)
        np.testing.assert_array_equal(np.diag(R), k_distance(line4, k=2))

    @pytest.mark.parametrize("seed", range(20))
    def test_diagonal_is_m_k_distance(self, seed):
        # The matrix and M read every d(p, o) from the one row kernel,
        # so the diagonal is M's k-distance to the last bit.
        from repro.core import MaterializationDB

        X = np.random.default_rng(seed).normal(size=(80, 3)) * 10
        R = reachability_matrix(X, k=5)
        kdist = MaterializationDB.materialize(X, 5).k_distances(5)
        assert np.diag(R).tobytes() == kdist.tobytes()

    def test_smoothing_grows_with_k(self, random_points):
        # Higher k means reach-dists within a neighborhood become more
        # similar (the paper's stated purpose of the smoothing).
        X = random_points[:60]
        spread = []
        for k in (2, 10, 25):
            R = reachability_matrix(X, k=k)
            # Variability of reach-dists from each point to its 5 nearest.
            from repro.index import make_index

            idx = make_index("brute").fit(X)
            cvs = []
            for i in range(len(X)):
                hood = idx.query(X[i], 5, exclude=i)
                vals = R[i, hood.ids]
                cvs.append(np.std(vals) / np.mean(vals))
            spread.append(np.mean(cvs))
        assert spread[2] < spread[0]
