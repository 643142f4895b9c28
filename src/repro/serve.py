"""repro.serve — online LOF scoring against a persisted model store.

Section 7.4's punchline is that once the materialization database M is
built, "the original database D is not needed" for step 2. This module
pushes that one step further: with the store of :mod:`repro.store`
(which carries M *plus* the dataset snapshot), unseen query points can
be scored in a fresh process without ever re-running the fit.

Scoring a query point q against a fitted model follows the paper's
definitions verbatim, with the fitted model supplying every ingredient
about the training objects:

1. find q's tie-inclusive MinPts-distance neighborhood N(q) among the
   stored vectors (Definition 4) with the fit's step-1 engine, a brute
   index on the stored points. As in Section 7.4, this k-NN runs once
   per query, at the largest MinPts of the request; every smaller
   MinPts reads a prefix of it;
2. hand the queries' neighborhoods at every MinPts of the request, as
   one :class:`~repro.core.graph.GridPrefixes`, to the active registry
   scorer's ``score_query`` (:mod:`repro.scorers`), which scores the
   whole grid in one pass
   — for LOF that is ``reach-dist(q, o) = max(k-distance(o), d(q, o))``
   over the *stored* k-distances (Definition 5) followed by the shared
   lrd/LOF kernels of :mod:`repro.core.scoring` (Definitions 6-7); this
   module re-implements no ratio math for any scorer.

The active scorer defaults to what the store was fitted with (header
``scorer``, ``lof`` for v2 stores); a per-request ``scorer`` selector
overrides it, so one loaded model answers for the whole zoo.

Scoring a query that *is* a stored object (``exclude=i`` with bitwise
equal coordinates) reuses row i of the stored neighborhood graph, so the
result is bit-for-bit the fitted LOF value — the invariant the
differential tests pin down.

Concurrency model
-----------------
Each worker owns one :class:`OnlineScorer` at a time, and every public
call on it runs under the scorer's one lock, start to finish: the
per-grid warm-up, the LRU result cache, the kernels and the counters
see one caller at a time, so the hit/miss counters are exactly the
serial values under any interleaving. The frozen model (neighborhood
graph and dataset snapshot — read-only memmaps under ``mmap=True`` —
and the k-distance/lrd/LOF tables, filled once per MinPts) is never
rewritten after load.

Scoring is embarrassingly batchable (each query row is independent in
every kernel), which :class:`ScoreBatcher` exploits on the HTTP path;
it is the only way the server scores. Each worker runs one score at a
time: a request that finds the worker idle is scored on its own handler
thread at once, with no timer and no hand-off; requests that arrive
while a score runs queue up and are scored together, as one stacked
``score_new`` call (up to ``max_batch`` points), as soon as it ends —
bit-identical to per-request scoring by construction and by test.

A new model arrives by one reference swap (:meth:`_ModelHTTPServer.install`,
under the server's admin lock): ``/admin/reload`` loads a store and
installs it, and the ``--stream`` lifecycle installs the scorer its
refit just loaded. Requests in flight finish on the scorer they started
with.

The HTTP surface (``repro-lof serve``) is a stdlib
:class:`~http.server.ThreadingHTTPServer` speaking persistent
HTTP/1.1 JSON::

    POST /score         {"points": [[...], ...], "min_pts": 12?,
                         "scorer": "ldof"?}
                        -> {"scores": [...], "min_pts": [...],
                            "aggregate": "max", "scorer": "ldof"}
    POST /admin/reload  {"path": "...?"} -> hot-swap the store
    GET  /model         store metadata (kind, n points, grid, ...)
    GET  /stats         cache, batcher and scoring counters
    GET  /healthz       liveness probe

The request line is parsed by the stdlib's rules, and the header
fields by :func:`read_fields` into a :class:`HeadFields` map, without
the ``email`` parser the stdlib would run on every request. A
``Content-Length`` must be digits, and repeated ones must agree.

``repro-lof serve --workers N`` forks N worker processes that all
memmap-load the same store file (the OS page cache backs every worker
with the same physical pages, so marginal RSS per worker is near zero)
and accept on one shared listening socket (``SO_REUSEPORT`` when the
platform has it; the pre-fork inherited socket works either way).

Malformed requests get a 400 with ``{"error": ...}``; scoring a store
saved without a dataset snapshot fails at startup with
:class:`~repro.exceptions.StoreMismatchError`.
"""

from __future__ import annotations

import email.utils
import json
import os
import queue
import re
import signal
import socket
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import obs
from ._validation import check_data
from .core import scoring
from .core.bounds import reach_extrema, theorem1_ratios
from .core.duplicates import distinct_steps, ensure_distinct_coverage
from .core.graph import GridPrefixes
from .core.parallel import fork_available, fork_workers, wait_workers
from .core.range_lof import _AGGREGATES
from .exceptions import ReproError, RequestHeadError, ServeError, ValidationError
from .index.brute import BruteForceIndex
from .scorers import ScorerContext, get_scorer, list_scorers
from .store import StoredModel, load_model, store_fingerprint

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

__all__ = [
    "LRUCache",
    "OnlineScorer",
    "ClassifyResult",
    "ScoreBatcher",
    "make_server",
    "run_server",
    "run_fleet",
]

_MISSING = object()

#: Largest request body a POST may declare. A larger ``Content-Length``
#: is answered 413 before any of the body is read, and the connection
#: is closed, since the unread body would otherwise follow as garbage.
MAX_BODY_BYTES = 8 * 1024 * 1024


#: Most ``/score`` requests a worker holds queued behind a running score;
#: a full queue blocks the submitting handler thread (backpressure).
QUEUE_CAPACITY = 1024


class _PendingScore:
    """The future of one request queued in a :class:`ScoreBatcher`:
    resolved (or failed) exactly once by the batcher thread, awaited by
    the handler thread that submitted it."""

    __slots__ = ("_event", "_value", "_error")

    def __init__(self):
        self._event = threading.Event()
        self._value: Optional[float] = None
        self._error: Optional[BaseException] = None

    def resolve(self, value: float) -> None:
        self._value = value
        self._event.set()

    def fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()

    def result(self) -> float:
        self._event.wait()
        if self._error is not None:
            raise self._error
        return self._value


class _CheckedRows:
    """Query rows a :class:`ScoreBatcher` validated when they arrived.

    :meth:`OnlineScorer.score_new` takes them without running
    ``check_data`` a second time; it still checks them against its own
    model (feature count, MinPts), which a hot swap may have changed.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        self.rows = rows


class LRUCache:
    """A small least-recently-used result cache with exact counters.

    Deliberately minimal: ``get``/``put`` move entries to the MRU end of
    an :class:`~collections.OrderedDict` and evict from the LRU end.
    ``hits``/``misses`` are plain ints maintained by the caller's lock
    discipline (the scorer guards every cache touch with its lock), so
    tests can assert exact values. ``capacity <= 0`` disables caching
    entirely.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict" = OrderedDict()

    def get(self, key):
        if self.capacity <= 0:
            self.misses += 1
            return _MISSING
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return _MISSING
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        if self.capacity <= 0:
            return
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0

    def cache_info(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._data),
            "capacity": self.capacity,
        }


@dataclass
class ClassifyResult:
    """Outcome of :meth:`OnlineScorer.classify_new`.

    ``labels`` follows the estimator's convention (+1 inlier, -1
    outlier). ``lower``/``upper`` are the aggregated Theorem 1 brackets;
    ``scores`` holds the exact LOF only for queries whose bracket
    straddled the threshold (NaN where the bounds alone decided).
    """

    labels: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    scores: np.ndarray
    pruned: int
    exact: int


class OnlineScorer:
    """Score unseen points against a loaded model store.

    Parameters
    ----------
    model : a :class:`~repro.store.StoredModel` from
        :func:`~repro.store.load_model`; it must carry the dataset
        snapshot (estimator stores always do).
    cache_size : LRU entries for per-point score reuse (0 disables).
    scorer : registry scorer name to serve by default (``None`` takes
        the store's fitted scorer). Any registered scorer can still be
        requested per call via ``score_new(..., scorer=...)``.

    The MinPts grid and aggregate default to what the stored estimator
    was fitted with; a bare materialization store scores at its
    ``min_pts_ub``. A scored batch makes one k-NN query per novel point
    on a brute index over the stored points, whatever the size of the
    grid: one tie-inclusive selection at the largest MinPts, read as a
    prefix at every other one, and one ``score_query`` call of the
    scorer for the whole grid. Stored objects scored with ``exclude=i``
    read their graph rows and cost no distance evaluation.

    All public methods are thread-safe: each takes the scorer's one
    lock once and holds it for the whole call (internal helpers marked
    ``holds-lock`` run inside it). Concurrent callers are therefore
    serialized and get bit-identical scores and exactly the serial
    cache/obs counters. The server gives each worker one scorer and
    scores through :class:`ScoreBatcher`, which already runs one score
    at a time, so the lock is uncontended on the serving path.
    """

    def __init__(self, model: StoredModel, cache_size: int = 1024, scorer=None):
        self.model = model
        self.mat = model.mat
        self.X = np.ascontiguousarray(model.require_snapshot(), dtype=np.float64)
        self.metric = model.metric_object()
        # None means "whatever the store says" — remembered separately
        # so a hot-swap reload re-resolves against the new store, while
        # an explicit override survives the swap.
        self._scorer_override = None if scorer is None else get_scorer(scorer).name
        self._scorer = get_scorer(self._scorer_override or model.scorer)
        meta = model.estimator or {}
        lb = int(meta.get("min_pts_lb", self.mat.min_pts_ub))
        ub = int(meta.get("min_pts_ub", self.mat.min_pts_ub))
        self.min_pts_grid: Tuple[int, ...] = tuple(range(lb, ub + 1))
        self.aggregate = str(meta.get("aggregate", "max"))
        if self.aggregate not in _AGGREGATES:
            raise ValidationError(
                f"unknown aggregate {self.aggregate!r} in store metadata"
            )
        self.threshold = float(meta.get("threshold", 1.5))
        self._lock = threading.Lock()
        self.cache = LRUCache(cache_size)  # reprolint: lock-guarded
        self._extrema: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}  # reprolint: lock-guarded
        self._grids: Dict[Tuple[str, Tuple[int, ...]], ScorerContext] = {}  # reprolint: lock-guarded
        self._scorer_points: Dict[str, int] = {}  # reprolint: lock-guarded
        self._index: Optional[BruteForceIndex] = None  # reprolint: lock-guarded

    @property
    def scorer_name(self) -> str:
        """Name of the scorer this instance serves by default."""
        return self._scorer.name

    @classmethod
    def from_path(
        cls,
        path,
        mmap: bool = False,
        verify: bool = True,
        cache_size: int = 1024,
        scorer=None,
    ) -> "OnlineScorer":
        """Load a store file and build a scorer for it."""
        return cls(
            load_model(path, mmap=mmap, verify=verify),
            cache_size=cache_size,
            scorer=scorer,
        )

    def successor(self, path=None, mmap: Optional[bool] = None) -> "OnlineScorer":
        """Load ``path`` (default: this scorer's own store) into a new
        scorer built like this one: same memory mapping (unless
        ``mmap`` says otherwise) and cache size. An explicit ``scorer``
        override outlives the swap; a store-default scorer re-resolves
        against the new store."""
        with self._lock:
            cache_size = self.cache.capacity
        return OnlineScorer.from_path(
            self.model.path if path is None else path,
            mmap=self.model.mmap if mmap is None else mmap,
            cache_size=cache_size,
            scorer=self._scorer_override,
        )

    # -- scoring --------------------------------------------------------------

    def score_new(
        self,
        Xq,
        min_pts: Optional[int] = None,
        exclude=None,
        use_cache: bool = True,
        scorer=None,
    ) -> np.ndarray:
        """Score each row of ``Xq`` relative to the stored model.

        ``min_pts=None`` sweeps the stored grid and aggregates exactly
        like the fitted estimator; an int scores a single MinPts.
        ``exclude`` (per-row stored-object id, -1 for none) removes that
        object from the query's candidate neighbors — pass ``exclude=i``
        with the stored row i itself to recover the fitted value
        bit-for-bit. ``scorer`` picks any registered scorer for this
        call (``None`` = the instance default, normally the store's
        fitted scorer).

        Every row of one call is looked up before any of the call's
        misses is stored, so a point repeated within a call (or within
        one coalesced batch) counts a miss at each of its rows.
        """
        active = self._scorer if scorer is None else get_scorer(scorer)
        Xq, exclude, ks = self._check_query(Xq, exclude, min_pts)
        with self._lock:
            return self._score_new(Xq, exclude, ks, active, use_cache)

    def classify_new(
        self,
        Xq,
        min_pts: Optional[int] = None,
        threshold: Optional[float] = None,
        exclude=None,
        scorer=None,
    ) -> ClassifyResult:
        """Label queries inlier/outlier, short-circuiting with Theorem 1.

        For every query the direct bounds come from its own neighborhood
        reach-dists and the indirect bounds from the stored per-object
        reach extrema; ``direct_min/indirect_max <= LOF <=
        direct_max/indirect_min`` holds per MinPts, and the aggregators
        are componentwise monotone, so the aggregated brackets bound the
        aggregated score. Only queries whose bracket straddles the
        threshold pay for the exact kernels
        (``serve.bounds.pruned`` / ``serve.bounds.exact`` counters).

        Theorem 1 brackets LOF specifically; for a scorer without bound
        support the method degrades gracefully to exact scoring — every
        query is scored, the bracket collapses to the score itself, and
        ``pruned`` is 0.
        """
        active = self._scorer if scorer is None else get_scorer(scorer)
        Xq, exclude, ks = self._check_query(Xq, exclude, min_pts)
        thr = self.threshold if threshold is None else float(threshold)
        with self._lock:
            return self._classify_new(Xq, exclude, ks, active, thr)

    def stats(self) -> Dict:
        """Cache info plus the model's scoring identity."""
        with self._lock:
            cache_info = self.cache.cache_info()
            per_scorer = dict(self._scorer_points)
        return {
            "n_points": int(self.mat.n_points),
            "min_pts_grid": [int(k) for k in self.min_pts_grid],
            "aggregate": self.aggregate,
            "threshold": self.threshold,
            "duplicate_mode": self.mat.duplicate_mode,
            "scorer": self.scorer_name,
            "scorers": per_scorer,
            "cache": cache_info,
        }

    def model_info(self) -> Dict:
        """The store's header metadata, JSON-ready."""
        header = dict(self.model.header)
        header.pop("sections", None)
        header.pop("obs_snapshot", None)
        header["fingerprint"] = store_fingerprint(self.model.header)
        header["scorer"] = self.scorer_name
        header["registered_scorers"] = list_scorers()
        return header

    # -- internals, under the lock -------------------------------------------

    def _score_new(self, Xq, exclude, ks, active, use_cache=True) -> np.ndarray:  # reprolint: holds-lock
        m = Xq.shape[0]
        if not use_cache:
            out = self._score_rows(Xq, exclude, ks, active)
            self._note_points(active.name, m)
            return out
        out = np.empty(m, dtype=np.float64)
        keys = [
            (active.name, Xq[i].tobytes(), int(exclude[i]), ks) for i in range(m)
        ]
        miss_rows: List[int] = []
        for i, key in enumerate(keys):
            hit = self.cache.get(key)
            if hit is _MISSING:
                obs.incr("serve.cache.misses")
                miss_rows.append(i)
            else:
                obs.incr("serve.cache.hits")
                out[i] = hit
        if miss_rows:
            scores = self._score_rows(Xq[miss_rows], exclude[miss_rows], ks, active)
            for pos, i in enumerate(miss_rows):
                out[i] = scores[pos]
                self.cache.put(keys[i], float(scores[pos]))
        self._note_points(active.name, m)
        return out

    def _classify_new(self, Xq, exclude, ks, active, thr) -> ClassifyResult:  # reprolint: holds-lock
        m = Xq.shape[0]
        if not active.supports_bounds:
            exact_scores = self._score_new(Xq, exclude, ks, active)
            labels = np.where(exact_scores > thr, -1, 1).astype(np.int64)
            obs.incr("serve.bounds.exact", m)
            return ClassifyResult(
                labels=labels,
                lower=exact_scores.copy(),
                upper=exact_scores.copy(),
                scores=exact_scores,
                pruned=0,
                exact=m,
            )
        lowers = np.empty((len(ks), m))
        uppers = np.empty((len(ks), m))
        grid = self._query_view(Xq, exclude, ks)
        for row_k, k in enumerate(ks):
            rows = grid.at(row_k)
            reach = scoring.reach_dist_values(
                rows.dists, self.mat.k_distances(k)[rows.ids]
            )
            lo, hi = theorem1_ratios(reach, rows, self._reach_extrema(k))
            # 0/0 (duplicate-saturated neighborhoods) gives NaN; the
            # uninformative bracket [0, inf] keeps the bounds sound.
            lowers[row_k] = np.where(np.isnan(lo), 0.0, lo)
            uppers[row_k] = np.where(np.isnan(hi), np.inf, hi)
        agg = _AGGREGATES[self.aggregate]
        lower = agg(lowers)
        upper = agg(uppers)
        labels = np.zeros(m, dtype=np.int64)
        labels[upper <= thr] = 1
        labels[lower > thr] = -1
        undecided = np.flatnonzero(labels == 0)
        scores = np.full(m, np.nan)
        if len(undecided):
            scores[undecided] = self._score_new(
                Xq[undecided], exclude[undecided], ks, active
            )
            labels[undecided] = np.where(scores[undecided] > thr, -1, 1)
        pruned = m - len(undecided)
        obs.incr("serve.bounds.pruned", pruned)
        obs.incr("serve.bounds.exact", len(undecided))
        return ClassifyResult(
            labels=labels,
            lower=lower,
            upper=upper,
            scores=scores,
            pruned=pruned,
            exact=len(undecided),
        )

    def _check_query(self, Xq, exclude, min_pts):
        if isinstance(Xq, _CheckedRows):
            Xq = Xq.rows
        else:
            Xq = check_data(Xq, name="Xq", min_rows=1)
        if Xq.shape[1] != self.X.shape[1]:
            raise ValidationError(
                f"query points have {Xq.shape[1]} features; the stored "
                f"model was fitted on {self.X.shape[1]}"
            )
        m = Xq.shape[0]
        if exclude is None:
            exclude = np.full(m, -1, dtype=np.int64)
        else:
            exclude = np.asarray(exclude, dtype=np.int64)
            if exclude.shape != (m,):
                raise ValidationError(
                    f"exclude must have one entry per query row, got "
                    f"shape {exclude.shape} for {m} rows"
                )
            if np.any(exclude >= self.mat.n_points):
                raise ValidationError("exclude entries must be stored object ids")
        if min_pts is None:
            ks = self.min_pts_grid
        else:
            ks = (self.mat._check_k(int(min_pts)),)
        return Xq, exclude, ks

    def _ensure_ks(self, ks, scorer) -> ScorerContext:  # reprolint: holds-lock
        """The query context of one (scorer, MinPts grid), built once:
        :meth:`~repro.core.materialization.MaterializationDB.fit` without
        the score, the first touch of the per-MinPts tables, under the
        lock so the step-2 scan counters (``mscan.passes``) stay serial.
        """
        key = (scorer.name, ks)
        if key not in self._grids:
            self._grids[key] = self.mat.fit(
                scorer, ks, X=self.X, metric=self.metric, score=False
            )
        return self._grids[key]

    def _note_points(self, scorer_name: str, m: int) -> None:  # reprolint: holds-lock
        obs.incr("serve.points_scored", m)
        self._scorer_points[scorer_name] = self._scorer_points.get(scorer_name, 0) + m

    def _score_rows(self, Xq, exclude, ks, scorer) -> np.ndarray:  # reprolint: holds-lock
        ctx = self._ensure_ks(ks, scorer)
        matrix = scorer.score_query(ctx, self._query_view(Xq, exclude, ks))
        if len(ks) == 1:
            return matrix[0]
        return _AGGREGATES[self.aggregate](matrix)

    def _query_view(self, Xq, exclude, ks):  # reprolint: holds-lock
        """The queries' neighborhoods at every MinPts of ``ks``.

        Returns one :class:`~repro.core.graph.GridPrefixes` over one
        padded block filled once, at the largest MinPts (Section 7.4:
        step 1 runs once, and every smaller MinPts reads a prefix), with
        each query's own k-distance at every k and every prefix length
        from one comparison of the block against those radii. Rows whose
        ``exclude`` id is a stored object with bitwise equal coordinates
        copy that object's graph row — the self-consistent path that
        reproduces fitted values exactly; they evaluate no distance.
        Novel rows take one batch k-NN query at ``max(ks)`` (see
        :meth:`_novel_rows`). Pure frozen-model reads.
        """
        m = Xq.shape[0]
        graph = self.mat.graph
        is_stored = np.array(
            [
                j >= 0 and Xq[i].tobytes() == self.X[j].tobytes()
                for i, j in enumerate(exclude)
            ],
            dtype=bool,
        )
        stored = np.flatnonzero(is_stored)
        novel = np.flatnonzero(~is_stored)
        radii = np.empty((len(ks), m), dtype=np.float64)
        width = 0
        if len(novel):
            novel_ids, novel_dists, radii[:, novel] = self._novel_rows(
                Xq[novel], exclude[novel], ks
            )
            width = novel_ids.shape[1]
        if len(stored):
            width = max(width, graph.width)
        ids = np.full((m, width), -1, dtype=np.int64)
        dists = np.full((m, width), np.inf, dtype=np.float64)
        if len(stored):
            objects = exclude[stored]
            for row_k, k in enumerate(ks):
                radii[row_k, stored] = self.mat.k_distances(k)[objects]
            ids[stored, : graph.width] = graph.padded_ids[objects]
            dists[stored, : graph.width] = graph.padded_dists[objects]
        if len(novel):
            ids[novel, : novel_ids.shape[1]] = novel_ids
            dists[novel, : novel_dists.shape[1]] = novel_dists
        return GridPrefixes(ids, dists, radii)

    def _novel_rows(self, Xq, exclude, ks):  # reprolint: holds-lock
        """Each novel query's neighborhood at ``max(ks)`` and its radius
        at every k of ``ks``.

        Returns ``(ids, dists, radii)``: padded rows sorted by (distance,
        id) and the ``(len(ks), m)`` radii, from one
        :meth:`~repro.index.NNIndex.query_batch_unchecked` (the rows
        were checked once, by :meth:`score_new`) of a brute index on the
        stored points, fitted on first use: the fit's engine. Its per-row scan (fewer than ``PRUNE_ROWS`` rows) and
        its pruned batch both compute each distance with the metric's
        row kernel, so a row does not depend on the batch it is in, and
        batched scoring is bit-identical to per-request scoring. Under
        ``duplicate_mode='distinct'`` the rows are cut by the fit's own
        :func:`~repro.core.duplicates.ensure_distinct_coverage`.

        The selection at ``max(ks)`` holds each row's floats in
        (distance, id) order, so the k-distance at any smaller k is the
        row's ``k``-th entry and its tie-inclusive neighborhood — every
        entry ``<=`` that distance — is a prefix of the row: the same
        bits a selection at k would give. The first k in ``ks`` that
        some row falls short of raises; a distance that overflows
        (hostile coordinates) is no candidate.
        """
        if self._index is None:
            self._index = BruteForceIndex(metric=self.metric).fit(self.X)
        index, k_max, grid = self._index, max(ks), np.array(ks)
        # score_new has checked the rows, the ids and the grid already.
        ids, dists = index.query_batch_unchecked(Xq, k_max, exclude)
        distinct = self.mat.duplicate_mode == "distinct"
        if distinct:
            n = index.n_points

            def probe_rows(rows, probe):
                # A row that excludes an id has one point fewer to reach.
                cap = n - int(np.any(exclude[rows] >= 0))
                return index.query_batch_unchecked(Xq[rows], min(probe, cap), exclude[rows])

            ids, dists, _ = ensure_distinct_coverage(
                probe_rows, ids, dists, self.mat.coord_keys, k_max, limit=n
            )
            steps, offsets = distinct_steps(ids, dists, self.mat.coord_keys)
            found = np.diff(offsets)
            message = (
                "fewer than k={k} distinct coordinate locations are "
                "reachable from the query point"
            )
        else:
            found = np.isfinite(dists).sum(axis=1)
            message = "query row {row} has only {found} candidate neighbors but MinPts={k}"
        short = found < grid[:, None]
        if short.any():
            j, row = np.argwhere(short)[0]
            raise ValidationError(message.format(row=row, found=found[row], k=ks[j]))
        if distinct:
            return ids, dists, steps[offsets[:-1] + grid[:, None] - 1]
        return ids, dists, dists[:, grid - 1].T

    def _reach_extrema(self, k: int):  # reprolint: holds-lock
        if k not in self._extrema:
            self._extrema[k] = reach_extrema(self.mat, k)
        return self._extrema[k]


# ---------------------------------------------------------------------------
# request coalescing


class ScoreBatcher:
    """Run each worker's ``/score`` requests one score at a time, and
    coalesce whatever queues behind a running score.

    One scoring lock per worker: at most one ``score_new`` runs at a
    time. :meth:`score` is the HTTP handler's entry point. When nothing
    is queued (or held by the batcher thread) and the lock is free, the
    calling thread takes the lock and runs ``score_new`` itself — an
    idle worker answers a lone request with no hand-off and no wait.
    Otherwise the request goes through :meth:`submit` into a queue
    bounded at :data:`QUEUE_CAPACITY` (backpressure: a full queue blocks
    the submitting thread rather than growing without bound) and its
    caller waits. The batcher thread takes a queued request, then the
    scoring lock, then everything else that queued meanwhile (up to
    ``max_batch`` points), groups compatible requests (same ``min_pts``
    selector and same requested scorer), stacks each group's points
    into one ``Xq``, runs a **single** ``score_new`` per group and
    demultiplexes the score slices back to the per-request futures. Batches therefore form
    from the requests that arrived while a score was running, with no
    timer. An inline run counts as a one-request batch (``inline``
    counts those), so the counters account for every request.

    Each request's points are validated once: an inline request by the
    ``score_new`` that scores it (it counts as a request before that,
    and its points once scored); a queued one by :meth:`submit`, before
    it is queued, and the stacked rows reach ``score_new`` as
    :class:`_CheckedRows`, which it does not validate again.

    Every query row is independent in every kernel on the scoring path
    (pairwise block rows, tie selection, reach/lrd/LOF row reductions),
    so batched and inline results are bit-identical to per-request
    scoring — guaranteed by construction here and pinned by
    ``tests/test_serve.py::TestBatcher``.

    ``batch_window_ms`` (default 0) makes the batcher thread wait up to
    that long for more requests after the first, before it takes the
    lock. The server never sets it; tests use a long window to force a
    coalesce deterministically.

    ``scorer_ref`` is a callable returning the *current* scorer, so a
    hot-swap (``/admin/reload``) between enqueue and execution scores
    against the store version live at execution time.
    """

    def __init__(
        self,
        scorer_ref: Callable[[], OnlineScorer],
        batch_window_ms: float = 0.0,
        max_batch: int = 64,
    ):
        self._scorer_ref = scorer_ref
        self.batch_window_s = max(float(batch_window_ms), 0.0) / 1000.0
        self.max_batch = max(int(max_batch), 1)
        self._queue: "queue.Queue" = queue.Queue(maxsize=QUEUE_CAPACITY)
        self._closed = False
        # Held by whichever thread is scoring: an inline caller or the
        # batcher thread. The batch statistics are written only under it.
        self._score_lock = threading.Lock()
        self.requests = 0  # reprolint: lock-guarded
        self.batches = 0  # reprolint: lock-guarded
        self.coalesced = 0  # reprolint: lock-guarded
        self.points = 0  # reprolint: lock-guarded
        self.inline = 0  # reprolint: lock-guarded
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    def score(self, points, min_pts: Optional[int], scorer=None) -> np.ndarray:
        """Score one request: on the calling thread when the worker is
        idle, else through the queue (see the class docstring)."""
        if self._closed:
            raise ServeError("the scoring service is shutting down")
        # unfinished_tasks counts requests queued or still held by the
        # batcher thread, so an inline score never jumps ahead of them.
        idle = not self._queue.unfinished_tasks
        if idle and self._score_lock.acquire(blocking=False):
            try:
                return self._score_inline(points, min_pts, scorer)
            finally:
                self._score_lock.release()
        return self.submit(points, min_pts, scorer=scorer).result()

    def submit(self, points, min_pts: Optional[int], scorer=None) -> _PendingScore:
        """Validate and enqueue one request; returns its future.

        Validation happens eagerly against the current scorer so a
        malformed request (including an unknown ``scorer`` name) fails
        its own caller (HTTP 400) instead of poisoning the batch it
        would have joined. ``scorer=None`` means "whatever scorer is
        active at execution time" — consistent with hot-swap semantics.
        """
        if self._closed:
            raise ServeError("the scoring service is shutting down")
        if scorer is not None:
            scorer = get_scorer(scorer).name
        # The request's one check_data: _execute hands the rows to
        # score_new as _CheckedRows.
        Xq, _, _ = self._scorer_ref()._check_query(points, None, min_pts)
        pending = _PendingScore()
        obs.incr("serve.batch.requests")
        self._queue.put((Xq, min_pts, scorer, pending))
        return pending

    def queue_depth(self) -> int:
        return self._queue.qsize()

    def stats(self) -> Dict:
        with self._score_lock:
            counts = {
                "requests": self.requests,
                "batches": self.batches,
                "coalesced": self.coalesced,
                "points": self.points,
                "inline": self.inline,
            }
        return {
            "max_batch": self.max_batch,
            "queue_depth": self.queue_depth(),
            "queue_capacity": self._queue.maxsize,
            **counts,
        }

    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting, flush what is queued, join the thread."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=timeout)

    # -- scoring, under the scoring lock --------------------------------------

    def _score_inline(self, points, min_pts, scorer) -> np.ndarray:  # reprolint: holds-lock
        """Score one request on the caller's thread. ``score_new``
        validates it, so the request counts before its rows are known."""
        obs.incr("serve.batch.requests")
        obs.incr("serve.batch.inline")
        self.inline += 1
        self._count(1, 0)
        scores = self._scorer_ref().score_new(points, min_pts=min_pts, scorer=scorer)
        self.points += len(scores)
        return scores

    def _count(self, requests: int, points: int) -> None:  # reprolint: holds-lock
        """Account one stacked ``score_new`` over ``requests`` requests."""
        obs.incr("serve.batch.batches")
        obs.incr("serve.batch.coalesced", requests - 1)
        self.requests += requests
        self.batches += 1
        self.coalesced += requests - 1
        self.points += points

    # -- batcher thread -------------------------------------------------------

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            batch = [item]
            closing = self.batch_window_s > 0 and self._wait_for_more(batch)
            try:
                with self._score_lock:
                    closing = closing or self._drain(batch)
                    self._execute(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()
            if closing:
                return
            # Yield the GIL: the handlers this batch answered need it to
            # reply, and a batch already queued would otherwise keep it
            # for up to the interpreter's switch interval (5 ms).
            time.sleep(0)

    @staticmethod
    def _rows(batch) -> int:
        return sum(entry[0].shape[0] for entry in batch)

    def _wait_for_more(self, batch) -> bool:
        """Add requests arriving within the window to ``batch``, outside
        the scoring lock; True when the close sentinel arrived."""
        deadline = time.monotonic() + self.batch_window_s
        while self._rows(batch) < self.max_batch:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            try:
                item = self._queue.get(timeout=remaining)
            except queue.Empty:
                return False
            if item is None:
                return True
            batch.append(item)
        return False

    def _drain(self, batch) -> bool:
        """Add everything already queued to ``batch``, up to
        ``max_batch`` points; True when the close sentinel was taken."""
        while self._rows(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return False
            if item is None:
                return True
            batch.append(item)
        return False

    def _execute(self, batch) -> None:  # reprolint: holds-lock
        online = self._scorer_ref()
        groups: "OrderedDict" = OrderedDict()
        for entry in batch:
            groups.setdefault((entry[1], entry[2]), []).append(entry)
        for (min_pts, scorer_name), group in groups.items():
            stacked = (
                group[0][0]
                if len(group) == 1
                else np.concatenate([e[0] for e in group], axis=0)
            )
            self._count(len(group), stacked.shape[0])
            try:
                scores = online.score_new(
                    _CheckedRows(stacked), min_pts=min_pts, scorer=scorer_name
                )
            except BaseException as exc:
                for _, _, _, pending in group:
                    pending.fail(exc)
                continue
            offset = 0
            for Xq, _, _, pending in group:
                pending.resolve(scores[offset:offset + Xq.shape[0]])
                offset += Xq.shape[0]


# ---------------------------------------------------------------------------
# HTTP surface


class _ModelHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns an :class:`OnlineScorer` and the
    :class:`ScoreBatcher` that scores every ``/score`` request on it.

    ``max_requests`` (None = unlimited) shuts the server down after that
    many successfully scored POSTs — the hook that makes the CLI smoke
    test deterministic; shutdown *drains*: in-flight requests finish
    and get their responses before the server closes.

    ``sock`` adopts an already-listening socket instead of binding one
    — the multi-worker fleet path, where every forked worker accepts on
    the socket the parent bound (``SO_REUSEPORT``/pre-fork sharing).
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address,
        scorer: OnlineScorer,
        max_requests=None,
        sock: Optional[socket.socket] = None,
        max_batch: int = 64,
        worker_index: int = 0,
        workers: int = 1,
    ):
        if sock is None:
            super().__init__(address, _Handler)
        else:
            super().__init__(address, _Handler, bind_and_activate=False)
            self.socket.close()
            self.socket = sock
            self.server_address = sock.getsockname()
            # server_bind() would normally fill these (used in handler
            # headers); the adopted socket is already bound and listening.
            self.server_name = self.server_address[0]
            self.server_port = self.server_address[1]
        # The current scorer. Reads are bare attribute loads (atomic
        # reference reads in CPython); every swap is one assignment in
        # install(), under _admin_lock. In-flight requests keep whichever
        # scorer they dereferenced at entry.
        self.scorer = scorer
        self.max_requests = max_requests
        self.worker_index = int(worker_index)
        self.workers = int(workers)
        self._admin_lock = threading.Lock()
        self._reloads = 0  # reprolint: lock-guarded
        self._state_lock = threading.Lock()
        self._served = 0  # reprolint: lock-guarded
        self._active = 0  # reprolint: lock-guarded
        self.batcher = ScoreBatcher(lambda: self.scorer, max_batch=max_batch)
        # The online lifecycle (repro.stream.StreamingDetector), attached
        # by make_server when --stream is on: /score feeds served points
        # back into it, and each refit hands its new scorer to install().
        self.stream = None

    # -- request accounting ---------------------------------------------------

    @contextmanager
    def track_request(self):
        """Count a request as in-flight while its handler runs, so
        shutdown can drain instead of cutting responses off."""
        with self._state_lock:
            self._active += 1
        try:
            yield
        finally:
            with self._state_lock:
                self._active -= 1

    def wait_drained(self, timeout: float = 10.0) -> bool:
        """Block until no request is mid-handler (or the timeout ends);
        idle keep-alive connections do not count as in-flight."""
        deadline = time.monotonic() + timeout
        while True:
            with self._state_lock:
                if self._active == 0:
                    return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    def note_scored(self) -> None:
        if self.max_requests is None:
            return
        with self._state_lock:
            self._served += 1
            if self._served >= self.max_requests:
                threading.Thread(target=self.shutdown, daemon=True).start()

    # -- hot swap -------------------------------------------------------------

    def install(self, scorer: OnlineScorer) -> int:
        """Make ``scorer`` the live one by one reference swap; returns
        the reload count. In-flight requests finish against the scorer
        they started with; requests arriving after the swap see the
        new one."""
        with self._admin_lock:
            self.scorer = scorer
            self._reloads += 1
            obs.incr("serve.reloads")
            return self._reloads

    def reload_store(self, path=None, mmap: Optional[bool] = None) -> Dict:
        """Load (and checksum-verify) a store into a scorer built like
        the current one (:meth:`OnlineScorer.successor`) and install it.
        A store that fails to load leaves the current scorer live. A
        ``--stream`` detector adopts the new scorer too, so drift is
        judged under the served model and the next refit names it as
        lineage parent."""
        new_scorer = self.scorer.successor(path or None, mmap=mmap)
        if self.stream is None:
            reloads = self.install(new_scorer)
        else:
            reloads = self.stream.adopt(new_scorer, self.install)
        return {
            "reloaded": str(new_scorer.model.path),
            "fingerprint": store_fingerprint(new_scorer.model.header),
            "n_points": int(new_scorer.mat.n_points),
            "reloads": reloads,
        }

    # -- observability --------------------------------------------------------

    def stats_payload(self) -> Dict:
        payload = self.scorer.stats()
        with self._admin_lock:
            reloads = self._reloads
        with self._state_lock:
            active = self._active
        rss_kb = None
        if _resource is not None:
            rss_kb = int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
        payload["server"] = {
            "pid": os.getpid(),
            "worker_index": self.worker_index,
            "workers": self.workers,
            "reloads": reloads,
            "active_requests": active,
            "rss_kb": rss_kb,
            "batcher": self.batcher.stats(),
        }
        payload["stream"] = None if self.stream is None else self.stream.stats()
        return payload

    def server_close(self) -> None:
        self.batcher.close()
        if self.stream is not None:
            # Let an in-flight background refit land its swap so the
            # lineage chain on disk is complete at shutdown.
            self.stream.wait_refit(timeout=10.0)
        super().server_close()


# -- the request head ---------------------------------------------------------

#: The stdlib's limits on a request head (``http.client``): a longer
#: header line, or more lines than this before the blank line that ends
#: the head (that line included), is answered 431.
MAX_HEAD_LINE = 65536
MAX_HEAD_LINES = 100

#: A field line ``name ":" OWS value``: a name of printable ASCII other
#: than ":" (the ``email`` parser's header grammar), the value, and the
#: line ending.
_FIELD_LINE = re.compile(r"([!-9;-~]+):[ \t]*([^\r\n]*)(\r?\n)?\Z")


class HeadFields:
    """The header fields of one request, by case-insensitive name.

    ``get`` returns the first value of a repeated field, as
    :meth:`email.message.Message.get` does; ``get_all`` returns every
    value in arrival order."""

    __slots__ = ("_values",)

    def __init__(self, values: Dict[str, List[str]]):
        self._values = values

    def get(self, name: str, default=None):
        values = self._values.get(name.lower())
        return values[0] if values else default

    def get_all(self, name: str) -> List[str]:
        return list(self._values.get(name.lower(), ()))


def read_fields(readline: Callable[[int], bytes]) -> HeadFields:
    """Read a request's header lines, up to and including the blank line
    that ends the head, from ``readline`` (a buffered reader's
    ``readline``, or ``io.BytesIO(head).readline`` for a head already in
    memory).

    Each field keeps what :func:`http.client.parse_headers` would give
    it, without the ``email`` package: the value after the colon with
    leading spaces and tabs dropped, and each obs-fold continuation line
    (one that begins with a space or a tab) appended to it after the
    previous line's ending, as received. A continuation with no field
    open, a line ``:value`` with no name and a ``From `` envelope line
    are skipped. Any other line that is not a field ends the fields; the
    lines after it are read and dropped. A bare CR in a header line is a
    400 (RFC 9112 §2.2), where the ``email`` parser would start a new
    line there.

    Raises :class:`~repro.exceptions.RequestHeadError`: 431 for a line
    longer than :data:`MAX_HEAD_LINE` or more than :data:`MAX_HEAD_LINES`
    lines, with the stdlib's reason and text, and 400 for a bare CR.
    """
    values: Dict[str, List[str]] = {}
    name = None  # the field that a continuation line extends
    eol = ""  # the line ending of the field's last line
    ended = False
    count = 0
    while True:
        line = readline(MAX_HEAD_LINE + 1)
        if len(line) > MAX_HEAD_LINE:
            raise RequestHeadError(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long",
                f"got more than {MAX_HEAD_LINE} bytes when reading header line",
            )
        count += 1
        if count > MAX_HEAD_LINES:
            raise RequestHeadError(
                HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers",
                f"got more than {MAX_HEAD_LINES} headers",
            )
        if line in (b"\r\n", b"\n", b""):
            return HeadFields(values)
        if ended:
            continue
        text = line.decode("iso-8859-1")
        match = _FIELD_LINE.match(text)
        if match is not None:
            name, value, eol = match[1].lower(), match[2], match[3] or ""
            if name in values:
                values[name].append(value)
            else:
                values[name] = [value]
            continue
        cut = -2 if text.endswith("\r\n") else -1 if text.endswith("\n") else len(text)
        if "\r" in text[:cut]:
            raise RequestHeadError(
                HTTPStatus.BAD_REQUEST, "Bad request", "bare CR in a header line"
            )
        if text[0] in " \t":
            if name is not None:
                values[name][-1] += eol + text[:cut]
                eol = text[cut:]
            continue
        name = None
        ended = not (text.startswith("From ") or text.startswith(":"))


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` version word, or None when
    the stdlib would answer it 400 (RFC 2145 §3.1: one dot, digits
    only, leading zeros ignored)."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or any(not p.isdigit() or len(p) > 10 for p in parts):
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:  # a non-ASCII digit
        return None


class _Handler(BaseHTTPRequestHandler):
    server: _ModelHTTPServer

    # Persistent connections: every reply carries an exact
    # Content-Length, so HTTP/1.1 keep-alive is sound and a load
    # generator pays connection setup once, not per request.
    protocol_version = "HTTP/1.1"
    # An idle keep-alive connection parks its handler thread in
    # readline(); time it out so abandoned connections release threads.
    timeout = 60
    # Status line / headers / body go out as separate writes; with
    # Nagle on, the segment carrying the body waits ~40ms for the
    # client's delayed ACK, putting a hard latency floor under every
    # keep-alive request. TCP_NODELAY removes it.
    disable_nagle_algorithm = True

    # (whole second, its Date text), replaced as one tuple: a handler
    # thread reads a matching pair without a lock.
    _date = (-1, "")

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging off; /stats carries the counters

    def date_time_string(self, timestamp=None) -> str:
        """The stdlib's ``Date`` text, formatted once per whole second."""
        if timestamp is not None:
            return super().date_time_string(timestamp)
        second, cached = int(time.time()), _Handler._date
        if cached[0] != second:
            text = email.utils.formatdate(second, usegmt=True)
            cached = _Handler._date = (second, text)
        return cached[1]

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and read the header fields.

        The request line follows :meth:`BaseHTTPRequestHandler.parse_request`
        to the letter: its 400 and 505 replies, the HTTP/1.0 and HTTP/0.9
        defaults and the folding of a leading ``//``. The fields come from
        :func:`read_fields`, not the ``email`` parser. ``Connection`` and
        ``Expect: 100-continue`` are handled as the stdlib does for a
        server that speaks HTTP/1.1. Returns False when there is nothing
        to do or an error reply has been sent."""
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad request version (%r)" % version)
                return False
            if number >= (1, 1):
                self.close_connection = False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    "Invalid HTTP version (%s)" % version[5:],
                )
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, "Bad request syntax (%r)" % requestline)
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST, "Bad HTTP/0.9 request type (%r)" % command
                )
                return False
        self.command = command
        # gh-87389: a leading "//" reads as a scheme-relative URI.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = read_fields(self.rfile.readline)
        except RequestHeadError as exc:
            self.send_error(exc.status, exc.reason, exc.explain)
            return False
        conntype = self.headers.get("Connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive":
            self.close_connection = False
        if (
            self.headers.get("Expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _reply(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        with self.server.track_request():
            self._handle_get()

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        with self.server.track_request():
            self._handle_post()

    def _handle_get(self) -> None:
        scorer = self.server.scorer
        if self.path == "/healthz":
            self._reply(200, {"status": "ok", "n_points": int(scorer.mat.n_points)})
        elif self.path == "/stats":
            self._reply(200, self.server.stats_payload())
        elif self.path == "/model":
            self._reply(200, scorer.model_info())
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def _content_length(self) -> int:
        """The declared body length; -1 unless every ``Content-Length``
        field is ``1*DIGIT`` (RFC 9110 §8.6, around optional spaces and
        tabs) and all of them give the same number."""
        lengths = set()
        for value in self.headers.get_all("Content-Length"):
            value = value.strip(" \t")
            if not (value.isascii() and value.isdigit()):
                return -1
            try:
                lengths.add(int(value))
            except ValueError:  # more digits than int() will convert
                return -1
        if len(lengths) > 1:
            return -1
        return lengths.pop() if lengths else 0

    def _read_json_body(self):
        length = self._content_length()
        if length < 0:
            # rfile.read(-1) would block until the peer closes, and a
            # body of unknown extent leaves the connection unusable.
            self.close_connection = True
            raise ValidationError("Content-Length must be a non-negative integer")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        return json.loads(raw.decode("utf-8"))

    def _handle_post(self) -> None:
        length = self._content_length()
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._reply(
                413,
                {"error": f"request body of {length} bytes exceeds the "
                          f"{MAX_BODY_BYTES}-byte limit"},
            )
            return
        if self.path == "/admin/reload":
            self._handle_reload()
            return
        if self.path != "/score":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        scorer = self.server.scorer
        try:
            request = self._read_json_body()
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            self._reply(400, {"error": f"bad request body: {exc}"})
            return
        if not isinstance(request, dict) or "points" not in request:
            self._reply(400, {"error": 'request must be {"points": [[...], ...]}'})
            return
        min_pts = request.get("min_pts")
        scorer_name = request.get("scorer")
        try:
            if min_pts is not None and (
                isinstance(min_pts, bool) or not isinstance(min_pts, int)
            ):
                raise ValidationError("min_pts must be an integer")
            if scorer_name is not None and not isinstance(scorer_name, str):
                raise ValidationError("scorer must be a registered scorer name")
            if scorer_name is not None:
                # Resolve eagerly: an unknown scorer is the caller's
                # mistake (400), never a 500 from deep in a batch.
                scorer_name = get_scorer(scorer_name).name
            scores = self.server.batcher.score(
                request["points"], min_pts, scorer=scorer_name
            )
        except ServeError as exc:
            self._reply(503, {"error": str(exc)})
            return
        except (ReproError, TypeError, ValueError) as exc:
            self._reply(400, {"error": str(exc)})
            return
        stream = self.server.stream
        if stream is not None:
            # Ingest before the reply: a caller that saw the 200 knows
            # its points entered the lifecycle (exact counters for the
            # replay wall; a drift-triggered refit runs off-thread).
            self._stream_ingest(stream, request["points"], scores)
        ks = [min_pts] if min_pts is not None else list(scorer.min_pts_grid)
        self._reply(
            200,
            {
                "scores": [float(s) for s in scores],
                "min_pts": [int(k) for k in ks],
                "aggregate": scorer.aggregate if min_pts is None else None,
                "scorer": scorer_name or scorer.scorer_name,
            },
        )
        self.server.note_scored()

    def _stream_ingest(self, stream: "StreamingDetector", points, scores) -> None:
        """Feed just-scored points into the online lifecycle. The reply
        path already validated and scored them, so failures here (e.g.
        distinct-mode coverage in a tiny window) must never turn a
        successful scoring into an error response."""
        try:
            pts = np.asarray(points, dtype=np.float64)
            if pts.ndim == 1:
                pts = pts[None, :]
            for row, value in zip(pts, scores):
                stream.observe(row, score=float(value))
        except ReproError:
            obs.incr("stream.ingest.errors")

    def _handle_reload(self) -> None:
        try:
            request = self._read_json_body()
        except (ValueError, UnicodeDecodeError, RecursionError) as exc:
            self._reply(400, {"error": f"bad request body: {exc}"})
            return
        if not isinstance(request, dict):
            self._reply(400, {"error": 'request must be {} or {"path": "..."}'})
            return
        try:
            info = self.server.reload_store(path=request.get("path"))
        except ReproError as exc:
            # A bad replacement store must never take down the serving
            # fleet: the old scorer stays live, the caller learns why.
            self._reply(500, {"error": str(exc)})
            return
        self._reply(200, info)


def _make_listening_socket(host: str, port: int) -> socket.socket:
    """Bind a listening TCP socket, opting into ``SO_REUSEPORT`` where
    the platform offers it (lets the kernel load-balance accepts across
    fleet workers; the pre-fork shared socket works without it)."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if hasattr(socket, "SO_REUSEPORT"):  # pragma: no branch - platform const
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        except OSError:  # pragma: no cover - kernel without support
            pass
    sock.bind((host, port))
    sock.listen(128)
    return sock


def make_server(
    store_path,
    host: str = "127.0.0.1",
    port: int = 0,
    mmap: bool = False,
    max_requests=None,
    cache_size: int = 1024,
    sock: Optional[socket.socket] = None,
    max_batch: int = 64,
    worker_index: int = 0,
    workers: int = 1,
    scorer=None,
    stream: Optional[Dict] = None,
) -> _ModelHTTPServer:
    """Build (but do not start) the scoring server; ``port=0`` binds an
    ephemeral port, readable from ``server.server_address``.
    ``max_batch`` caps the points of one coalesced score (``1`` scores
    one request per turn, the speedup gate's baseline). ``scorer``
    overrides the store's fitted scorer as the service default.

    ``stream``, when given (a dict, possibly empty), attaches a
    :class:`repro.stream.StreamingDetector` wired to this server: every
    scored ``/score`` point is ingested into its sliding window, drift
    triggers a background refit, and each refit hands the scorer it
    loaded to :meth:`_ModelHTTPServer.install`. The detector starts on
    the server's own scorer, so every store is loaded once. Dict keys
    override the detector's constructor arguments; the model recipe
    (scorer, duplicate mode, metric, aggregate, MinPts grid) defaults
    to the store's own."""
    scorer = OnlineScorer.from_path(
        store_path, mmap=mmap, cache_size=cache_size, scorer=scorer
    )
    server = _ModelHTTPServer(
        (host, port),
        scorer,
        max_requests=max_requests,
        sock=sock,
        max_batch=max_batch,
        worker_index=worker_index,
        workers=workers,
    )
    if stream is not None:
        server.stream = _make_stream(server, store_path, stream)
    return server


def _make_stream(server: _ModelHTTPServer, store_path, options: Dict):
    """Build the serve-attached :class:`StreamingDetector`: recipe from
    the loaded store, the server's scorer as its starting model, swap
    wired to ``install``, refits on a background thread (overridable
    via ``options``)."""
    # Local import: repro.stream sits above repro.serve in the layer
    # diagram and imports OnlineScorer from here.
    from .stream import StreamingDetector

    opts = dict(options)
    online = server.scorer
    grid = [int(k) for k in online.min_pts_grid]
    min_pts = int(opts.pop("min_pts", max(grid)))
    window = int(opts.pop("window", max(4 * min_pts, 64)))
    store_dir = Path(opts.pop("store_dir", None) or Path(store_path).parent)
    meta = online.model.estimator or {}
    opts.setdefault("background", True)
    return StreamingDetector(
        min_pts,
        window,
        store_dir,
        scorer=online.scorer_name,
        duplicate_mode=online.mat.duplicate_mode,
        metric=online.model.metric_object(),
        aggregate=online.aggregate,
        threshold=float(meta.get("threshold", 1.5)),
        refit_min_pts=(min(grid), max(grid)),
        initial_store=online,
        swap=server.install,
        **opts,
    )


def _serve_until_done(server: _ModelHTTPServer, drain_timeout: float = 10.0) -> int:
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        # Drain before close: handler threads mid-request finish and
        # flush their responses; idle keep-alive connections are not
        # in-flight and simply die with the process.
        server.wait_drained(timeout=drain_timeout)
        server.server_close()
    return 0


def run_server(
    store_path,
    host: str = "127.0.0.1",
    port: int = 8000,
    mmap: bool = False,
    max_requests=None,
    cache_size: int = 1024,
    max_batch: int = 64,
    scorer=None,
    stream: Optional[Dict] = None,
) -> int:
    """Load a store and serve it over HTTP until interrupted (or until
    ``max_requests`` scored POSTs; shutdown drains in-flight requests).
    ``stream`` (see :func:`make_server`) turns on the online lifecycle:
    ingest → drift detection → background refit → hot-swap."""
    server = make_server(
        store_path,
        host=host,
        port=port,
        mmap=mmap,
        max_requests=max_requests,
        cache_size=cache_size,
        max_batch=max_batch,
        scorer=scorer,
        stream=stream,
    )
    bound_host, bound_port = server.server_address[:2]
    print(
        f"serving {store_path} on http://{bound_host}:{bound_port} "
        f"(n={server.scorer.mat.n_points}, "
        f"min_pts={list(server.scorer.min_pts_grid)}, "
        f"scorer={server.scorer.scorer_name})",
        flush=True,
    )
    if server.stream is not None:
        print(
            f"stream lifecycle on (window={server.stream.window}, "
            f"check_every={server.stream.check_every}, "
            f"drift_factor={server.stream.drift_factor}, "
            f"refits -> {server.stream.store_dir})",
            flush=True,
        )
    return _serve_until_done(server)


def run_fleet(
    store_path,
    host: str = "127.0.0.1",
    port: int = 8000,
    workers: int = 1,
    max_requests=None,
    cache_size: int = 1024,
    max_batch: int = 64,
    scorer=None,
    stream: Optional[Dict] = None,
) -> int:
    """Serve one store from ``workers`` forked processes on one port.

    The parent binds the listening socket once (``SO_REUSEPORT`` set
    when available) and forks; every worker memmap-loads the same store
    file — the kernel page cache backs all of them with the same
    physical pages, so the marginal RSS of an extra worker is the
    handler state, not the model — and accepts on the shared socket.
    ``max_requests`` applies per worker. Falls back to the in-process
    threaded server when ``workers <= 1`` or ``fork`` is unavailable.

    The ``stream`` lifecycle is per-process state (window, drift
    counters, refit single-flight), so it only composes with the
    single-process path: with ``workers > 1`` each fork would refit
    against the fraction of traffic the kernel happened to hand it.
    """
    workers = int(workers)
    if stream is not None and workers > 1 and fork_available():
        raise ValidationError(
            "--stream requires a single worker: the drift/refit "
            "lifecycle is per-process and forked workers would each "
            "see only a slice of the traffic"
        )
    if workers <= 1 or not fork_available():
        return run_server(
            store_path,
            host=host,
            port=port,
            mmap=True,
            max_requests=max_requests,
            cache_size=cache_size,
            max_batch=max_batch,
            scorer=scorer,
            stream=stream,
        )
    sock = _make_listening_socket(host, port)
    bound_host, bound_port = sock.getsockname()[:2]
    print(
        f"serving {store_path} on http://{bound_host}:{bound_port} "
        f"(workers={workers}, mmap shared)",
        flush=True,
    )

    def worker(index: int) -> int:
        # Loaded after the fork: every worker opens its own read-only
        # memmap of the same file, deduplicated by the page cache.
        server = make_server(
            store_path,
            mmap=True,
            max_requests=max_requests,
            cache_size=cache_size,
            sock=sock,
            max_batch=max_batch,
            worker_index=index,
            workers=workers,
            scorer=scorer,
        )
        return _serve_until_done(server)

    pids = fork_workers(workers, worker)
    for _ in pids:
        obs.incr("serve.workers")
    sock.close()  # the parent never accepts; workers hold their own fd

    # Terminating the parent must take the fleet down with it: forward
    # SIGTERM/SIGINT to every worker, then fall through to the reap.
    def _forward(signum, frame):  # pragma: no cover - signal path
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _forward)
    return wait_workers(pids)
