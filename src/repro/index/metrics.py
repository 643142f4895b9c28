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
same float the brute scan compares.
"""

from __future__ import annotations

from typing import Dict, Type

import numpy as np

from .. import obs
from ..exceptions import ValidationError


def euclidean_tile(
    X64: np.ndarray,
    Y64: np.ndarray,
    xx: np.ndarray,
    yy: np.ndarray,
) -> np.ndarray:
    """THE shared expanded-form Euclidean tile kernel.

    Computes ``sqrt(||x||^2 + ||y||^2 - 2 <x, y>)`` for one (tile of a)
    distance matrix, with the exact-duplicate zero-snap applied. Both
    the whole-matrix path (:meth:`EuclideanMetric._pairwise`) and the
    chunked argkmin engine's per-tile path run through this one
    function, so float32-origin tiles keep the paper's duplicate
    semantics (lrd = inf needs true zero distances) exactly like the
    whole-matrix path does.

    Parameters
    ----------
    X64, Y64 : float64 row blocks (callers own the upcast).
    xx, yy : squared norms of the rows, shaped ``(m, 1)`` and ``(1, n)``
        so they broadcast over the tile.
    """
    sq = xx + yy - 2.0 * (X64 @ Y64.T)
    np.maximum(sq, 0.0, out=sq)
    # Cancellation leaves exact duplicates at ~1 ulp of ||x||^2
    # instead of 0, which would silently break the paper's duplicate
    # semantics downstream (lrd = inf needs true zero distances).
    # Entries that are suspiciously small relative to their scale are
    # re-checked exactly and snapped to zero — only bitwise-equal
    # rows are corrected, everything else is untouched.
    suspect_rows, suspect_cols = np.nonzero(sq <= 1e-10 * np.maximum(xx, yy))
    if len(suspect_rows):
        equal = np.all(X64[suspect_rows] == Y64[suspect_cols], axis=1)
        sq[suspect_rows[equal], suspect_cols[equal]] = 0.0
    return np.sqrt(sq)


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
    (``distance.evaluations``). Subclasses implement the underscore
    variants and inherit the instrumented front door.
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
        return self._pairwise_to_point(X, q)

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
        """Full (n, m) distance matrix between rows of X and rows of Y."""
        obs.record_kernel(X.shape[0] * Y.shape[0])
        return self._pairwise(X, Y)

    def tile_kernel(self, X: np.ndarray, Y: np.ndarray):
        """Instrumented per-tile distance kernel for the chunked argkmin
        engine (:mod:`repro.index.argkmin`).

        Returns a callable ``tile(x0, x1, y0, y1)`` producing the
        ``(x1 - x0, y1 - y0)`` distance block between those row ranges
        of ``X`` and ``Y``. Inputs may be float32; accumulation is
        always float64 (the upcast happens once, here). Each tile is
        one instrumented kernel invocation, keeping the distance
        chokepoint contract intact under tiling.
        """
        X64 = np.ascontiguousarray(X, dtype=np.float64)
        Y64 = X64 if Y is X else np.ascontiguousarray(Y, dtype=np.float64)

        def tile(x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
            obs.record_kernel((x1 - x0) * (y1 - y0))
            return self._tile(X64, Y64, x0, x1, y0, y1)

        return tile

    # -- kernels (subclass hooks) -------------------------------------------

    def _row_norms(self, diff: np.ndarray) -> np.ndarray:
        """The row kernel: the norm of every row of a difference block."""
        raise NotImplementedError

    def _pairwise_to_point(self, X: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self._row_norms(X - q)

    def _pairwise(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        out = np.empty((X.shape[0], Y.shape[0]))
        for j in range(Y.shape[0]):
            out[:, j] = self._pairwise_to_point(X, Y[j])
        return out

    def _tile(self, X64, Y64, x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
        return self._pairwise(X64[x0:x1], Y64[y0:y1])

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
        """Largest possible distance from q to any point in [lo, hi]."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}()"


class EuclideanMetric(Metric):
    """The L2 metric; the paper's experiments use this."""

    name = "euclidean"

    def _row_norms(self, diff):
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def _pairwise(self, X, Y):
        # ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y, clipped against
        # rounding, with the exact-duplicate zero-snap — all in the one
        # shared tile kernel the chunked argkmin path also uses.
        xx = np.einsum("ij,ij->i", X, X)[:, None]
        yy = np.einsum("ij,ij->i", Y, Y)[None, :]
        return euclidean_tile(X, Y, xx, yy)

    def tile_kernel(self, X, Y):
        # Row norms are computed once over the full arrays and sliced
        # per tile: einsum row reductions are row-local, so the sliced
        # values are bit-identical to per-block recomputation.
        X64 = np.ascontiguousarray(X, dtype=np.float64)
        Y64 = X64 if Y is X else np.ascontiguousarray(Y, dtype=np.float64)
        xx = np.einsum("ij,ij->i", X64, X64)
        yy = xx if Y64 is X64 else np.einsum("ij,ij->i", Y64, Y64)

        def tile(x0, x1, y0, y1):
            obs.record_kernel((x1 - x0) * (y1 - y0))
            return euclidean_tile(
                X64[x0:x1], Y64[y0:y1], xx[x0:x1, None], yy[None, y0:y1]
            )

        return tile

    def max_distance_to_rect(self, q, lo, hi):
        far = np.where(np.abs(q - lo) > np.abs(q - hi), lo, hi)
        diff = q - far
        return float(np.sqrt(np.dot(diff, diff)))


class ManhattanMetric(Metric):
    """The L1 (city-block) metric."""

    name = "manhattan"

    def _row_norms(self, diff):
        return np.sum(np.abs(diff), axis=1)

    def max_distance_to_rect(self, q, lo, hi):
        far = np.where(np.abs(q - lo) > np.abs(q - hi), lo, hi)
        return float(np.sum(np.abs(q - far)))


class ChebyshevMetric(Metric):
    """The L-infinity metric."""

    name = "chebyshev"

    def _row_norms(self, diff):
        return np.max(np.abs(diff), axis=1)

    def max_distance_to_rect(self, q, lo, hi):
        far = np.where(np.abs(q - lo) > np.abs(q - hi), lo, hi)
        return float(np.max(np.abs(q - far)))


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

    def max_distance_to_rect(self, q, lo, hi):
        far = np.where(np.abs(q - lo) > np.abs(q - hi), lo, hi)
        return float(np.sum(np.abs(q - far) ** self.p) ** (1.0 / self.p))

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
