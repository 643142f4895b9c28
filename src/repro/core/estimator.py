"""The object-oriented interface: :class:`LocalOutlierFactor`.

A fit/score estimator wrapping the paper's full pipeline:

* single MinPts (Definition 7) or a [MinPtsLB, MinPtsUB] range with
  max/mean/min/median aggregation (Section 6.2's heuristic);
* any registered k-NN index for the materialization step (Section 7.4),
  queried once per object;
* duplicate policies from the remark after Definition 6.

The parameter is deliberately called ``min_pts`` (the paper's name)
rather than ``n_neighbors``; a ``.scores_`` of 1 means "deep inside a
cluster", larger means more outlying.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import obs
from .._validation import check_data, check_min_pts, check_min_pts_range
from ..exceptions import NotFittedError, ValidationError
from .materialization import MaterializationDB
from .range_lof import RangeLOFResult, score_range
from .ranking import OutlierRanking, rank_outliers


class LocalOutlierFactor:
    """Degree-of-outlierness estimator (Breunig et al., SIGMOD 2000).

    Parameters
    ----------
    min_pts : int or (lb, ub) tuple.
        A single MinPts value computes plain LOF_MinPts; a tuple sweeps
        the range and aggregates per object (Section 6.2).
    aggregate : 'max' (paper's recommendation), 'min', 'mean' or
        'median'; only used when ``min_pts`` is a range.
    metric : distance metric name or Metric instance.
    index : k-NN substrate name, class or instance (default 'brute').
    duplicate_mode : 'inf', 'distinct' or 'error'.
    scorer : registry name of the local-outlier scorer to sweep —
        ``'lof'`` (default, the paper's), ``'ldof'``, ``'loop'`` or
        ``'knn_dist'`` (see :mod:`repro.scorers`). Every scorer reads
        the same materialized neighborhood graph.
    threshold : scores strictly greater than this are flagged by
        :meth:`predict`; LOF ~ 1 means "in a cluster", so a threshold of
        1.5 (used by the paper's soccer study) is a reasonable default.
    profile : when True, :meth:`fit` runs inside an isolated
        :func:`repro.obs.collect` scope and stores the resulting
        counter/timer snapshot (a JSON-serializable dict) on
        ``profile_``.

    Attributes (after fit)
    ----------------------
    scores_ : (n,) aggregated LOF per training object.
    lof_matrix_ : (m, n) per-MinPts LOF values (m = 1 for a single value).
    min_pts_values_ : the (m,) MinPts grid.
    materialization_ : the underlying :class:`MaterializationDB`.
    graph_ : the shared :class:`~repro.core.graph.NeighborhoodGraph`
        behind it — built once per fit; every MinPts in the sweep reads
        row prefixes of this one structure.
    profile_ : instrumentation snapshot of the fit (None unless
        ``profile=True``).
    X_ : the validated dataset snapshot, kept so the fitted model can be
        persisted (:meth:`save`) and served online (:mod:`repro.serve`).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import LocalOutlierFactor
    >>> rng = np.random.default_rng(7)
    >>> X = np.vstack([rng.normal(size=(120, 2)), [[9.0, 9.0]]])
    >>> est = LocalOutlierFactor(min_pts=15).fit(X)
    >>> int(np.argmax(est.scores_))
    120
    """

    def __init__(
        self,
        min_pts=(10, 50),
        aggregate: str = "max",
        metric="euclidean",
        index="brute",
        duplicate_mode: str = "inf",
        threshold: float = 1.5,
        profile: bool = False,
        scorer: str = "lof",
    ):
        from ..scorers import get_scorer

        self.min_pts = min_pts
        self.aggregate = aggregate
        self.metric = metric
        self.index = index
        self.duplicate_mode = duplicate_mode
        self.scorer = get_scorer(scorer).name
        self.threshold = float(threshold)
        self.profile = bool(profile)
        self._result: Optional[RangeLOFResult] = None
        self.materialization_: Optional[MaterializationDB] = None
        self.profile_: Optional[dict] = None
        self.X_: Optional[np.ndarray] = None

    # -- lifecycle ----------------------------------------------------------

    def fit(self, X) -> "LocalOutlierFactor":
        """Compute LOF scores for every object of ``X``."""
        if self.profile:
            with obs.collect() as snapshot:
                self._fit(X)
            self.profile_ = snapshot
        else:
            self._fit(X)
        return self

    def _fit(self, X) -> None:
        X = check_data(X, min_rows=3)
        self.X_ = X
        lb, ub = self._resolve_range(X.shape[0])
        with obs.span("estimator.materialize"):
            self.materialization_ = MaterializationDB.materialize(
                X,
                ub,
                index=self.index,
                metric=self.metric,
                duplicate_mode=self.duplicate_mode,
            )
        with obs.span("estimator.sweep"):
            self._result = score_range(
                X=self.X_,
                min_pts_lb=lb,
                min_pts_ub=ub,
                aggregate=self.aggregate,
                metric=self.metric,
                materialization=self.materialization_,
                scorer=self.scorer,
            )

    def fit_predict(self, X) -> np.ndarray:
        """Fit and return +1 (inlier) / -1 (outlier) per object."""
        return self.fit(X).predict()

    # -- persistence (repro.store) ------------------------------------------

    def save(self, path, lineage=None):
        """Persist the fitted model — neighborhood graph, per-MinPts
        caches, LOF matrix/scores, dataset snapshot and metadata — via
        :func:`repro.store.save_model`. ``lineage`` is an optional
        provenance block recorded in the store header (the streaming
        refit path stamps the parent fingerprint there). The saved file
        can be reloaded with :meth:`load` or served online by
        :mod:`repro.serve`."""
        from ..store import save_model

        self._require_fitted()
        return save_model(path, self, lineage=lineage)

    @classmethod
    def load(cls, path, mmap: bool = False, verify: bool = True) -> "LocalOutlierFactor":
        """Rehydrate a fitted estimator from a store file in a fresh
        process: ``scores_``, ``lof_matrix_``, ``predict`` and ``rank``
        work without refitting. Raises
        :class:`~repro.exceptions.StoreMismatchError` for stores saved
        from a bare :class:`MaterializationDB`."""
        from ..exceptions import StoreMismatchError
        from ..store import load_model

        model = load_model(path, mmap=mmap, verify=verify)
        if model.kind != "estimator" or model.estimator is None:
            raise StoreMismatchError(
                f"{path} holds a bare materialization, not a fitted "
                "estimator; load it with MaterializationDB.load"
            )
        meta = model.estimator
        lb, ub = int(meta["min_pts_lb"]), int(meta["min_pts_ub"])
        scorer = str(meta.get("scorer", "lof"))
        est = cls(
            min_pts=lb if lb == ub else (lb, ub),
            aggregate=meta["aggregate"],
            metric=model.metric_object(),
            duplicate_mode=model.mat.duplicate_mode,
            threshold=meta["threshold"],
            scorer=scorer,
        )
        est.materialization_ = model.mat
        est.X_ = model.require_snapshot()
        est.profile_ = model.obs_snapshot
        est._result = RangeLOFResult(
            min_pts_values=model.min_pts_values,
            lof_matrix=model.lof_matrix,
            scores=model.scores,
            aggregate=meta["aggregate"],
            scorer=scorer,
        )
        return est

    def _resolve_range(self, n_samples: int):
        if isinstance(self.min_pts, (int, np.integer)) and not isinstance(
            self.min_pts, bool
        ):
            k = check_min_pts(int(self.min_pts), n_samples)
            return k, k
        try:
            lb, ub = self.min_pts
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"min_pts must be an int or an (lb, ub) pair, got {self.min_pts!r}"
            ) from exc
        return check_min_pts_range(int(lb), int(ub), n_samples)

    def _require_fitted(self) -> RangeLOFResult:
        if self._result is None:
            raise NotFittedError("LocalOutlierFactor is not fitted; call fit(X)")
        return self._result

    # -- results ------------------------------------------------------------

    @property
    def scores_(self) -> np.ndarray:
        return self._require_fitted().scores

    @property
    def lof_matrix_(self) -> np.ndarray:
        return self._require_fitted().lof_matrix

    @property
    def min_pts_values_(self) -> np.ndarray:
        return self._require_fitted().min_pts_values

    @property
    def graph_(self):
        self._require_fitted()
        return self.materialization_.graph

    def predict(self) -> np.ndarray:
        """+1 for inliers, -1 for objects with score > ``threshold``."""
        scores = self.scores_
        return np.where(scores > self.threshold, -1, 1)

    def rank(
        self,
        top_n: Optional[int] = None,
        threshold: Optional[float] = None,
        labels: Optional[Sequence[str]] = None,
    ) -> OutlierRanking:
        """Ranked outlier report (descending aggregated LOF)."""
        return rank_outliers(
            self.scores_, top_n=top_n, threshold=threshold, labels=labels
        )

    def lof_profile(self, i: int):
        """Per-object LOF-vs-MinPts curve (Figure 8 style)."""
        return self._require_fitted().profile(i)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fitted" if self._result is not None else "unfitted"
        return (
            f"LocalOutlierFactor(min_pts={self.min_pts!r}, "
            f"aggregate={self.aggregate!r}, index={self.index!r}, {state})"
        )
