"""The ``NNIndex`` interface every k-NN substrate implements.

Section 7.4 of the paper makes the LOF computation index-agnostic: step 1
("materialization") issues one k-NN query per object against *some* access
method — a grid for low dimensions, a tree index (the authors used a
variant of the X-tree) for medium dimensions, or a sequential scan /
VA-file for very high dimensions. This module pins down the contract those
access methods satisfy so the core algorithm can swap them freely.

Two query flavors exist because of Definition 4's tie semantics: the
*k-distance neighborhood* contains **every** object at distance not greater
than the k-distance, so its cardinality may exceed ``k``.
``query`` returns exactly ``k`` neighbors; ``query_with_ties`` returns the
full tie-inclusive neighborhood.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Type

import numpy as np

from .. import obs
from .._validation import check_data
from ..exceptions import NotFittedError, ValidationError
from .metrics import Metric, get_metric


@dataclass
class QueryStats:
    """Bookkeeping counters exposed for the performance experiments.

    ``distance_evaluations`` counts calls into the metric (each row of a
    vectorized batch counts individually); ``nodes_visited`` counts index
    pages touched. Together they reproduce the "index degenerates with
    dimension" effect of Figure 10 without relying on wall-clock noise.
    """

    distance_evaluations: int = 0
    nodes_visited: int = 0
    queries: int = 0

    def reset(self) -> None:
        self.distance_evaluations = 0
        self.nodes_visited = 0
        self.queries = 0

    def merge(self, other: "QueryStats") -> None:
        self.distance_evaluations += other.distance_evaluations
        self.nodes_visited += other.nodes_visited
        self.queries += other.queries


@dataclass
class Neighborhood:
    """Result of one neighborhood query.

    Attributes
    ----------
    ids : int ndarray, ascending by distance (ties in ascending id order)
    distances : float ndarray aligned with ``ids``
    """

    ids: np.ndarray
    distances: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def k_distance(self) -> float:
        """Distance of the farthest returned neighbor."""
        if len(self.distances) == 0:
            raise ValidationError("empty neighborhood has no k-distance")
        return float(self.distances[-1])


class KBestHeap:
    """Fixed-capacity candidate set keeping the k best (distance, id)
    pairs in lexicographic order.

    Deterministic tie handling matters for reproducibility: when two
    points are equidistant from the query (e.g. exact duplicates), every
    index must return the one with the smaller id, exactly like the
    brute-force oracle's (distance, id) sort. Internally a max-heap on
    ``(-distance, -id)`` so the lexicographically worst pair is evicted
    first.
    """

    __slots__ = ("k", "_heap")

    def __init__(self, k: int):
        self.k = int(k)
        self._heap: list = []

    @property
    def full(self) -> bool:
        return len(self._heap) == self.k

    @property
    def worst_distance(self) -> float:
        """Current k-th candidate distance (inf while not yet full)."""
        if len(self._heap) < self.k:
            return np.inf
        return -self._heap[0][0]

    def consider(self, dist: float, pid: int) -> None:
        item = (-float(dist), -int(pid))
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, item)
        elif item > self._heap[0]:
            heapq.heapreplace(self._heap, item)

    def consider_many(self, dists, pids) -> None:
        dists = np.asarray(dists, dtype=np.float64).ravel()
        pids = np.asarray(pids, dtype=np.int64).ravel()
        if not self.full:
            # While not yet full every candidate is pushed, so feed the
            # heap until capacity before filtering the remainder.
            fill = min(self.k - len(self._heap), len(dists))
            for i in range(fill):
                self.consider(dists[i], pids[i])
            dists = dists[fill:]
            pids = pids[fill:]
            if len(dists) == 0:
                return
        # Vectorized pre-filter: once the heap is full only candidates at
        # most the current worst distance can ever be accepted
        # (worst_distance is non-increasing), so hopeless points never
        # reach the Python push loop. The filter must be <=, not <: an
        # equal-distance candidate with a smaller id still replaces the
        # worst entry under the (distance, id) order.
        keep = dists <= self.worst_distance
        if not keep.all():
            dists = dists[keep]
            pids = pids[keep]
        for dist, pid in zip(dists, pids):
            self.consider(dist, pid)

    def result(self) -> Tuple[np.ndarray, np.ndarray]:
        """(ids, distances), unsorted; pass through NNIndex._sort_result."""
        ids = np.array([-pid for _, pid in self._heap], dtype=int)
        dists = np.array([-negd for negd, _ in self._heap])
        return ids, dists


class NNIndex(ABC):
    """Abstract nearest-neighbor index over a fixed dataset."""

    #: short registry name, overridden by subclasses
    name: str = "abstract"

    def __init__(self, metric="euclidean"):
        self.metric: Metric = get_metric(metric)
        self.stats = QueryStats()
        self._X: Optional[np.ndarray] = None

    # -- lifecycle ---------------------------------------------------------

    def fit(self, X) -> "NNIndex":
        """Build the index over dataset ``X`` (n_samples, n_features)."""
        self._X = check_data(X, min_rows=1)
        self.stats.reset()
        self._build(self._X)
        return self

    @abstractmethod
    def _build(self, X: np.ndarray) -> None:
        """Construct internal structures; ``X`` is validated float64."""

    # -- introspection -----------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self._X is not None

    @property
    def data(self) -> np.ndarray:
        self._require_fitted()
        return self._X

    @property
    def n_points(self) -> int:
        self._require_fitted()
        return self._X.shape[0]

    @property
    def n_features(self) -> int:
        self._require_fitted()
        return self._X.shape[1]

    @property
    def fast_batch(self) -> bool:
        """Whether :meth:`query_batch_with_ties` over the fitted points
        does less work than one :meth:`query_with_ties` per row. False
        here: the generic batch is that per-row loop."""
        return False

    def _require_fitted(self) -> None:
        if self._X is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted; call fit(X)")

    # -- instrumentation ---------------------------------------------------

    def _visit_node(self, n: int = 1) -> None:
        """Record ``n`` index node/page visits (per-index stats + the
        process-wide ``index.node_visits`` counter of :mod:`repro.obs`)."""
        self.stats.nodes_visited += n
        obs.incr("index.node_visits", n)

    # -- queries -----------------------------------------------------------

    def query(self, q, k: int, exclude: Optional[int] = None) -> Neighborhood:
        """Return the ``k`` nearest points to ``q`` (no tie expansion).

        ``exclude`` removes one dataset id from consideration — used to
        drop the query object itself, since Definition 3 ranges over
        ``D \\ {p}``.
        """
        self._require_fitted()
        q = self._check_query_point(q)
        k = self._check_k(k, exclude)
        self.stats.queries += 1
        obs.incr("knn.queries")
        return self._query(q, k, exclude)

    def query_with_ties(
        self, q, k: int, exclude: Optional[int] = None
    ) -> Neighborhood:
        """Return the tie-inclusive k-distance neighborhood of ``q``.

        This is ``N_{k-distance(q)}(q)`` of Definition 4: every point at
        distance not greater than the k-distance. Its length is >= k.
        """
        self._require_fitted()
        q = self._check_query_point(q)
        k = self._check_k(k, exclude)
        self.stats.queries += 1
        obs.incr("knn.queries")
        return self._query_with_ties(q, k, exclude)

    def query_radius(self, q, radius: float, exclude: Optional[int] = None) -> Neighborhood:
        """Return every point within ``radius`` of ``q`` (closed ball)."""
        self._require_fitted()
        q = self._check_query_point(q)
        if not np.isfinite(radius) or radius < 0:
            raise ValidationError(f"radius must be finite and >= 0, got {radius}")
        self.stats.queries += 1
        obs.incr("knn.queries")
        return self._query_radius(q, float(radius), exclude)

    # -- batched queries ----------------------------------------------------

    def query_batch_with_ties(
        self, Q, k: int, exclude: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Answer ``m`` tie-inclusive k-distance-neighborhood queries.

        The batch analog of :meth:`query_with_ties`: row i contains every
        point at distance not greater than ``Q[i]``'s k-distance
        (Definition 4), sorted by (distance, id). Rows are padded to the
        longest neighborhood with id ``-1`` / distance ``inf`` — the same
        layout :class:`~repro.core.materialization.MaterializationDB`
        stores.

        Parameters
        ----------
        Q : (m, d) block of query points.
        k : neighbors per query, before tie expansion.
        exclude : optional (m,) int array of dataset ids to drop per row
            (``-1`` entries mean "no exclusion for this row") — the batch
            analog of the scalar ``exclude`` of :meth:`query_with_ties`.

        Returns
        -------
        ids, distances : (m, L) padded arrays, ``L >= k``.
        """
        Q, exclude, k = self._check_batch(Q, k, exclude)
        return self.query_batch_unchecked(Q, k, exclude)

    def query_batch_unchecked(
        self, Q: np.ndarray, k: int, exclude: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`query_batch_with_ties` for a caller that has already
        checked its input: ``Q`` a C-contiguous, finite float64 ``(m, d)``
        block of the fitted dimension (``m >= 1``), ``exclude`` an
        ``(m,)`` int64 array of stored ids or -1, and ``k`` a valid
        neighbor count for every row. Counted like any batch query."""
        self._count_batch(Q.shape[0])
        return self._query_batch_with_ties(Q, k, exclude)

    def _count_batch(self, m: int) -> None:
        """One batch call == m logical queries plus one batch crossing."""
        self.stats.queries += m
        obs.incr("knn.queries", m)
        obs.incr("knn.batch_queries")

    def _check_batch(self, Q, k: int, exclude) -> Tuple[np.ndarray, np.ndarray, int]:
        self._require_fitted()
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[1] != self._X.shape[1]:
            raise ValidationError(
                f"Q must be 2-dimensional with {self._X.shape[1]} feature "
                f"column(s), got shape {np.shape(Q)}"
            )
        if Q.shape[0] < 1:
            raise ValidationError("Q must contain at least one query row")
        if not np.all(np.isfinite(Q)):
            raise ValidationError("Q contains NaN or infinite values")
        if exclude is None:
            exclude = np.full(Q.shape[0], -1, dtype=np.int64)
        else:
            exclude = np.asarray(exclude, dtype=np.int64).reshape(-1)
            if exclude.shape[0] != Q.shape[0]:
                raise ValidationError(
                    f"exclude must have one entry per query row "
                    f"({Q.shape[0]}), got {exclude.shape[0]}"
                )
            if np.any(exclude >= self._X.shape[0]):
                raise ValidationError(
                    "exclude contains ids beyond the fitted dataset"
                )
        # k is bounded by the worst row: one point fewer when excluded.
        k = self._check_k(k, 0 if np.any(exclude >= 0) else None)
        return np.ascontiguousarray(Q), exclude, k

    # -- hooks for subclasses ----------------------------------------------

    @abstractmethod
    def _query(self, q: np.ndarray, k: int, exclude: Optional[int]) -> Neighborhood:
        ...

    def _query_with_ties(
        self, q: np.ndarray, k: int, exclude: Optional[int]
    ) -> Neighborhood:
        # Default: find the k-distance with a plain k-NN query, then take
        # the closed ball of that radius. Subclasses with cheaper paths
        # (e.g. the brute-force scan) override this.
        base = self._query(q, k, exclude)
        return self._query_radius(q, base.k_distance, exclude)

    @abstractmethod
    def _query_radius(
        self, q: np.ndarray, radius: float, exclude: Optional[int]
    ) -> Neighborhood:
        ...

    def _query_batch_with_ties(
        self, Q: np.ndarray, k: int, exclude: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        # Generic fallback: per-row traversals, padded to the widest row.
        hoods = []
        for i in range(Q.shape[0]):
            excl = int(exclude[i]) if exclude[i] >= 0 else None
            hoods.append(self._query_with_ties(Q[i], k, excl))
        width = max(len(h) for h in hoods)
        ids = np.full((Q.shape[0], width), -1, dtype=np.int64)
        dists = np.full((Q.shape[0], width), np.inf, dtype=np.float64)
        for i, hood in enumerate(hoods):
            ids[i, : len(hood)] = hood.ids
            dists[i, : len(hood)] = hood.distances
        return ids, dists

    # -- shared helpers ----------------------------------------------------

    def _check_query_point(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=np.float64).reshape(-1)
        if q.shape[0] != self._X.shape[1]:
            raise ValidationError(
                f"query point has {q.shape[0]} features, index holds "
                f"{self._X.shape[1]}"
            )
        if not np.all(np.isfinite(q)):
            raise ValidationError("query point contains NaN or infinite values")
        return q

    def _check_k(self, k: int, exclude: Optional[int]) -> int:
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
            raise ValidationError(f"k must be an integer, got {k!r}")
        available = self._X.shape[0] - (1 if exclude is not None else 0)
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        if k > available:
            raise ValidationError(
                f"k={k} exceeds the {available} available points"
            )
        return int(k)

    @staticmethod
    def _sort_result(ids: np.ndarray, dists: np.ndarray) -> Neighborhood:
        """Order by (distance, id) so results are deterministic under ties."""
        order = np.lexsort((ids, dists))
        return Neighborhood(ids=ids[order], distances=dists[order])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fitted = f"n={self._X.shape[0]}, d={self._X.shape[1]}" if self._X is not None else "unfitted"
        return f"{type(self).__name__}({fitted}, metric={self.metric.name})"


# ---------------------------------------------------------------------------
# registry


_REGISTRY: Dict[str, Type[NNIndex]] = {}


def register_index(cls: Type[NNIndex]) -> Type[NNIndex]:
    """Class decorator adding an index to the ``make_index`` registry."""
    if not cls.name or cls.name == "abstract":
        raise ValidationError(f"index class {cls.__name__} must define a name")
    _REGISTRY[cls.name] = cls
    return cls


def available_indexes() -> Tuple[str, ...]:
    """Names accepted by :func:`make_index`, sorted."""
    return tuple(sorted(_REGISTRY))


def make_index(index, metric="euclidean", **kwargs) -> NNIndex:
    """Resolve ``index`` (name, class, or instance) into an ``NNIndex``.

    Passing an instance returns it unchanged (the ``metric`` argument must
    then be left at its default or match the instance's metric).
    """
    if isinstance(index, NNIndex):
        return index
    if isinstance(index, type) and issubclass(index, NNIndex):
        return index(metric=metric, **kwargs)
    if isinstance(index, str):
        key = index.lower()
        if key not in _REGISTRY:
            raise ValidationError(
                f"unknown index {index!r}; available: {available_indexes()}"
            )
        return _REGISTRY[key](metric=metric, **kwargs)
    raise ValidationError(
        f"index must be a name, NNIndex class, or instance; got {type(index).__name__}"
    )
