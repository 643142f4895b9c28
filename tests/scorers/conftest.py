"""Fixtures for the scorer-registry suite.

The scorer zoo shares the top-level fixtures (``tie_ring``,
``cluster_and_outlier``, ``two_density_clusters``); this file adds the
duplicate-heavy dataset every duplicate-mode branch is exercised on,
and a saved store carrying all four scorers' fitted vectors.
"""

import numpy as np
import pytest

from repro import materialize, save_model


@pytest.fixture
def dup_heavy():
    """Five co-located points (the remark-after-Definition-6 case) plus
    a spread cluster, so every scorer hits its duplicate branch while
    ordinary points still get ordinary scores."""
    rng = np.random.default_rng(3)
    spread = rng.normal(loc=(5.0, 5.0), scale=0.4, size=(12, 2))
    return np.vstack([np.zeros((5, 2)), spread])


@pytest.fixture
def zoo_store(tmp_path, two_density_clusters):
    """A store whose materialization carries fitted vectors for every
    registered scorer at k = 5, 7 and 8 (a grid with a gap at 6)."""
    X = two_density_clusters
    mat = materialize(X, 10)
    fitted = {}
    for k in (5, 7, 8):
        for name in ("lof", "ldof", "loop", "knn_dist"):
            fitted[(name, k)] = mat.scores(k, scorer=name, X=X, metric="euclidean")
    path = tmp_path / "zoo.rlof"
    save_model(path, mat, X=X, scorer="lof")
    return path, X, fitted
