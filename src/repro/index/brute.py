"""Sequential-scan k-NN — the paper's fallback for very high dimensions.

Section 7.4: "For extremely high-dimensional data, we need to use a
sequential scan or some variant of it ... with a complexity of O(n),
leading to a complexity of O(n^2) for the materialization step."

This implementation is also the reference oracle the test suite compares
every other index against.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .argkmin import argkmin_with_ties
from .base import Neighborhood, NNIndex, register_index
from .batch import pack_padded, tie_threshold


@register_index
class BruteForceIndex(NNIndex):
    """Exact k-NN by scanning all points for every query."""

    name = "brute"

    def _build(self, X: np.ndarray) -> None:
        # Nothing to precompute: the scan touches raw vectors directly.
        pass

    def _distances_to(self, q: np.ndarray, exclude: Optional[int]) -> np.ndarray:
        dists = self.metric.pairwise_to_point(self._X, q)
        self.stats.distance_evaluations += self._X.shape[0]
        if exclude is not None:
            dists = dists.copy()
            dists[exclude] = np.inf
        return dists

    def _query(self, q, k, exclude):
        dists = self._distances_to(q, exclude)
        if k < len(dists):
            # Partial selection of every point within the k-th distance
            # (ties included), then an exact (distance, id) sort and a
            # truncation to k — so equal-distance candidates always
            # resolve to the lowest ids, deterministically.
            idx = np.flatnonzero(dists <= tie_threshold(dists, k))
        else:
            idx = np.arange(len(dists))
            if exclude is not None:
                idx = idx[idx != exclude]
        result = self._sort_result(idx, dists[idx])
        return Neighborhood(ids=result.ids[:k], distances=result.distances[:k])

    def _query_with_ties(self, q, k, exclude):
        dists = self._distances_to(q, exclude)
        if k < len(dists):
            kth = tie_threshold(dists, k)
        else:
            kth = np.max(dists[np.isfinite(dists)])
        idx = np.flatnonzero(dists <= kth)
        return self._sort_result(idx, dists[idx])

    def _query_radius(self, q, radius, exclude):
        dists = self._distances_to(q, exclude)
        idx = np.flatnonzero(dists <= radius)
        return self._sort_result(idx, dists[idx])

    # -- batched scan: the chunked argkmin engine -----------------------------
    #
    # Batch queries route through :func:`repro.index.argkmin.argkmin_with_ties`.
    # The knobs below are class-level defaults a caller may override on an
    # instance; with ``batch_strategy="auto"`` small batches resolve to the
    # classic single-kernel whole-matrix path (one pairwise matmul + one
    # tie-inclusive selection), and only budget-exceeding batches tile.
    batch_strategy: str = "auto"
    tile_bytes: Optional[int] = None

    def _query_batch(self, Q, k, exclude) -> Tuple[np.ndarray, np.ndarray]:
        ids, dists = self._query_batch_with_ties(Q, k, exclude)
        # The tie-inclusive rows are (distance, id)-sorted, so keeping the
        # first k matches the per-query truncation semantics exactly.
        return ids[:, :k], dists[:, :k]

    def _query_batch_with_ties(self, Q, k, exclude) -> Tuple[np.ndarray, np.ndarray]:
        flat_ids, flat_dists, counts = argkmin_with_ties(
            Q,
            self._X,
            k,
            metric=self.metric,
            exclude=exclude,
            strategy=self.batch_strategy,
            tile_bytes=self.tile_bytes,
        )
        self.stats.distance_evaluations += Q.shape[0] * self._X.shape[0]
        return pack_padded(flat_ids, flat_dists, counts)
