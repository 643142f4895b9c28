"""Distance metrics used by the k-NN substrates.

The paper writes ``d(p, q)`` abstractly; its experiments use Euclidean
distance. We provide the Minkowski family plus Chebyshev, each exposed
through a small object with these capabilities:

``pairwise_to_point(X, q)``
    distances from every row of ``X`` to the single point ``q``
    (the hot path for sequential-scan k-NN);

``distance(p, q)``
    a single distance, bit-identical to the matching
    ``pairwise_to_point`` entry;

``paired_distances(A, B)``
    the distance between ``A[i]`` and ``B[i]`` for every row ``i``, each
    bit-identical to the matching ``pairwise_to_point`` entry (the
    pruned brute scan's stacked candidate pairs);

``pairwise(X, Y)``
    the full distance matrix, one ``pairwise_to_point`` column per row
    of ``Y`` (the small quadratic surfaces: the Definition 5 matrix and
    Knorr & Ng's nested loop);

``gap_norms(gaps)`` / ``min_distance_to_rect(q, lo, hi)``
    lower bounds between boxes (or a point and a box) from per-axis
    gaps, for many rows at once or for one point, which is what tree
    indexes (kd-tree, R*-tree, X-tree) and the pruned brute scan need
    to prune; ``max_distance_to_rect`` is the matching upper bound.

Every built-in metric is the norm of a difference, computed by one row
kernel ``_row_norms(diff)``: ``distance``, ``pairwise_to_point`` and
``paired_distances`` all subtract first and then reduce each row with
it, and the lower bounds reduce gaps with it. The reduction is
row-local, so a distance does not depend on which other rows share its
block: a tree index that tests one point against a radius gets the
same float the brute scan compares, and every surface of the package
agrees on d(p, q) to the last bit. There is no second kernel here: the
expanded BLAS form, whose bits depend on the block shape, lives only
inside the argkmin engine (:mod:`repro.index.argkmin`).
"""

from __future__ import annotations

from typing import Dict, Type

import numpy as np

from .. import obs
from ..exceptions import ValidationError


class Metric:
    """Abstract distance metric.

    Subclasses must be true metrics (symmetry, identity, triangle
    inequality); the LOF definitions and the index pruning rules rely on
    the triangle inequality.

    The public ``distance`` / ``pairwise_to_point`` / ``pairwise``
    methods are the single distance-kernel chokepoint of the whole
    package: every scalar distance computed anywhere flows through one
    of them, which is where :mod:`repro.obs` counts kernel invocations
    (``distance.kernel_calls``) and scalar evaluations
    (``distance.evaluations``). Subclasses implement the row kernel
    ``_row_norms`` and inherit the instrumented front door.
    """

    name: str = "abstract"

    # -- instrumented front door (do not override) --------------------------

    def distance(self, p: np.ndarray, q: np.ndarray) -> float:
        """A single distance d(p, q): the row kernel on the one-row
        difference, so it equals ``pairwise_to_point(X, q)`` at the row
        of ``X`` holding ``p``, bit for bit."""
        obs.record_kernel(1)
        diff = np.asarray(p, dtype=np.float64) - np.asarray(q, dtype=np.float64)
        return float(self._row_norms(diff[None, :])[0])

    def pairwise_to_point(self, X: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Distances from every row of ``X`` to the single point ``q``."""
        obs.record_kernel(len(X))
        return self._row_norms(X - q)

    def paired_distances(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """``d(A[i], B[i])`` for every row ``i`` of two blocks of points
        that broadcast to one shape ``(..., d)``; the result has shape
        ``(...)``.

        Entry ``i`` equals ``pairwise_to_point(X, B[i])`` at the row of
        ``X`` holding ``A[i]``, bit for bit: both subtract elementwise,
        then run the same row kernel. So ``paired_distances(X[None],
        Q[:, None])`` is the stacked ``pairwise_to_point(X, q)`` of every
        row ``q`` of ``Q``.
        """
        diff = A - B
        obs.record_kernel(diff.size // diff.shape[-1])
        return self._row_norms(diff.reshape(-1, diff.shape[-1])).reshape(diff.shape[:-1])

    def gap_norms(self, gaps: np.ndarray) -> np.ndarray:
        """The row kernel applied to non-negative per-axis box gaps.

        Row ``i`` of ``gaps`` holds, per axis, how far apart two boxes
        (or a point and a box) are at least. Rounding is monotone and
        the kernel is the one that computes distances, so the result
        never exceeds any computed distance between points of the two
        boxes. A bound, not a distance evaluation: not counted.
        """
        return self._row_norms(gaps)

    def pairwise(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Full (n, m) distance matrix between rows of X and rows of Y,
        built a column at a time: column ``j`` is
        ``pairwise_to_point(X, Y[j])``, bit for bit."""
        obs.record_kernel(X.shape[0] * Y.shape[0])
        out = np.empty((X.shape[0], Y.shape[0]))
        for j in range(Y.shape[0]):
            out[:, j] = self._row_norms(X - Y[j])
        return out

    # -- kernels (subclass hooks) -------------------------------------------

    def _row_norms(self, diff: np.ndarray) -> np.ndarray:
        """The row kernel: the norm of every row of a difference block."""
        raise NotImplementedError

    def min_distance_to_rect(
        self, q: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> float:
        """Smallest possible distance from q to any point in [lo, hi]:
        :meth:`gap_norms` of q's per-axis gaps to the box, so it never
        exceeds a distance computed to a point of the box."""
        gaps = np.maximum(np.maximum(lo - q, q - hi), 0.0)
        return float(self.gap_norms(gaps[None, :])[0])

    def max_distance_to_rect(
        self, q: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> float:
        """Largest possible distance from q to any point in [lo, hi]: the
        row kernel on q's difference to the box's farthest corner, so it
        is never below a distance computed to a point of the box."""
        far = np.where(np.abs(q - lo) > np.abs(q - hi), lo, hi)
        return float(self._row_norms((q - far)[None, :])[0])

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class EuclideanMetric(Metric):
    """The L2 metric; the paper's experiments use this."""

    name = "euclidean"

    def _row_norms(self, diff):
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))


class ManhattanMetric(Metric):
    """The L1 (city-block) metric."""

    name = "manhattan"

    def _row_norms(self, diff):
        return np.sum(np.abs(diff), axis=1)


class ChebyshevMetric(Metric):
    """The L-infinity metric."""

    name = "chebyshev"

    def _row_norms(self, diff):
        return np.max(np.abs(diff), axis=1)


class MinkowskiMetric(Metric):
    """The general Lp metric for finite p >= 1."""

    name = "minkowski"

    def __init__(self, p: float = 2.0):
        p = float(p)
        if not np.isfinite(p) or p < 1.0:
            raise ValidationError(f"Minkowski order p must be >= 1, got {p}")
        self.p = p

    def _row_norms(self, diff):
        return np.sum(np.abs(diff) ** self.p, axis=1) ** (1.0 / self.p)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MinkowskiMetric(p={self.p})"


_METRICS: Dict[str, Type[Metric]] = {
    "euclidean": EuclideanMetric,
    "l2": EuclideanMetric,
    "manhattan": ManhattanMetric,
    "cityblock": ManhattanMetric,
    "l1": ManhattanMetric,
    "chebyshev": ChebyshevMetric,
    "linf": ChebyshevMetric,
}


def get_metric(metric) -> Metric:
    """Resolve a metric name or instance to a :class:`Metric`.

    ``'minkowski'`` requires an explicit instance because it carries the
    order ``p``; all other names map to parameter-free classes.
    """
    if isinstance(metric, Metric):
        return metric
    if isinstance(metric, str):
        key = metric.lower()
        if key == "minkowski":
            raise ValidationError(
                "pass MinkowskiMetric(p=...) explicitly; the string form "
                "does not carry the order p"
            )
        if key in _METRICS:
            return _METRICS[key]()
        raise ValidationError(
            f"unknown metric {metric!r}; choose from {sorted(set(_METRICS))} "
            f"or pass a Metric instance"
        )
    raise ValidationError(
        f"metric must be a string or Metric instance, got {type(metric).__name__}"
    )
