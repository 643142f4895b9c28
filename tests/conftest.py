"""Shared fixtures for the test suite.

The fixtures favor tiny, hand-checkable datasets; anything statistical
uses a fixed seed so failures are reproducible.
"""

import numpy as np
import pytest

from repro import obs


@pytest.fixture(autouse=True)
def _pristine_obs():
    """The instrumentation registry is process-global; start and leave
    every test with it disabled and empty so counter assertions never
    see another test's activity."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture
def line4():
    """Four collinear points (0, 1, 2, 10) whose LOF_2 values are known
    in closed form (worked out in tests/core/test_lof.py):

        LOF(p0) = 7/8, LOF(p1) = 4/3, LOF(p2) = 7/8, LOF(p3) = 119/24.
    """
    return np.array([[0.0], [1.0], [2.0], [10.0]])


@pytest.fixture
def tie_ring():
    """The Definition 4 tie example: from the origin, 1 object at
    distance 1, 2 at distance 2, 3 at distance 3 — |N_4(origin)| = 6."""
    return np.array(
        [
            [0.0, 0.0],    # p, the query object
            [1.0, 0.0],    # distance 1
            [0.0, 2.0],    # distance 2
            [0.0, -2.0],   # distance 2
            [3.0, 0.0],    # distance 3
            [-3.0, 0.0],   # distance 3
            [0.0, 3.0],    # distance 3
        ]
    )


@pytest.fixture
def cluster_and_outlier():
    """A tight 30-point Gaussian cluster plus one far point (index 30)."""
    rng = np.random.default_rng(42)
    cluster = rng.normal(loc=0.0, scale=0.5, size=(30, 2))
    return np.vstack([cluster, [[8.0, 8.0]]])


@pytest.fixture
def two_density_clusters():
    """Figure 1's structure in miniature: a sparse cluster, a dense
    cluster, and a point just outside the dense one (index -1)."""
    rng = np.random.default_rng(7)
    sparse = rng.uniform(0.0, 20.0, size=(60, 2))
    dense = rng.normal(loc=(40.0, 10.0), scale=0.3, size=(40, 2))
    o2 = np.array([[40.0, 12.5]])
    return np.vstack([sparse, dense, o2])


@pytest.fixture
def random_points():
    """120 unstructured points for equivalence/oracle testing."""
    rng = np.random.default_rng(123)
    return rng.normal(size=(120, 3))


@pytest.fixture
def clustered_points():
    """1200 points in four tight clusters in d=3: enough kd leaves (128)
    for the brute batch to run its box-pruned scan."""
    rng = np.random.default_rng(7)
    centers = rng.uniform(-10, 10, size=(4, 3))
    labels = rng.integers(0, 4, 1200)
    return centers[labels] + rng.normal(scale=0.5, size=(1200, 3))
