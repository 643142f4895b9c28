"""repro.stream — the online model lifecycle: ingest, drift, refit, swap.

The paper defines LOF as a batch computation; production traffic is a
stream. This module closes the loop between the three subsystems that
already exist — the incremental engine over a
:class:`~repro.core.graph.DynamicNeighborhoodGraph`, the REPROLOF model
store, and the serving layer's hot-swap machinery — into one online
lifecycle:

1. **Ingest.** Every observation enters a FIFO sliding window maintained
   by :class:`~repro.core.streaming.SlidingWindowLOF`: the incremental
   engine inserts it, evicts the oldest point beyond ``window``, and
   keeps maintained window scores bit-identical to batch
   rematerialization of the window contents (the replay differential
   wall in ``tests/stream/``).
2. **Drift.** Each observation is scored against the frozen serving
   model (by the caller on the ``/score`` path, or directly here). A
   seeded :class:`ReservoirSampler` keeps a uniform reference sample of
   everything ever ingested; the drift statistic is the quantile shift
   ``Q_q(recent scores) / Q_q(reference scores under the serving
   model)`` — cheap reference-sample scoring in the spirit of
   linear-time sensitivity sampling (Lucic et al.). A statistic above
   ``drift_factor`` is drift.
3. **Refit.** Drift (or the bootstrap warm-up, or an operator request)
   triggers a single-flight refit: the window snapshot is batch-fitted
   by :class:`~repro.core.estimator.LocalOutlierFactor` and written as a
   REPROLOF v3 store whose header carries a ``lineage`` block (parent
   fingerprint, trigger reason, stream position).
4. **Swap.** The detector loads the new store once, into an
   :class:`~repro.serve.OnlineScorer`, and hands that scorer to the
   caller-supplied ``swap`` callback — on the HTTP path this is
   ``_ModelHTTPServer.install``, the same one reference swap
   ``/admin/reload`` makes after it loads a store. The detector then
   re-seeds the drift reference from the reservoir under the new model,
   still under its lock. A store ``/admin/reload`` installs is adopted
   the same way (:meth:`StreamingDetector.adopt`), so it becomes the
   next refit's lineage parent, and a reload that overlaps a refit
   cannot leave the server and the detector on different models.

Everything is count-based (no wall clock): given the same observation
sequence, seed and thresholds, every check, detection, refit and swap
happens at the same stream position — replay runs are deterministic by
construction, which is what lets ``tests/stream/`` pin the lifecycle
with exact counters and bit-identity assertions.

Shared state is guarded by one reentrant lock under the RL005
discipline; the serving model is an :class:`~repro.serve.OnlineScorer`
(on the HTTP path, the very scorer the server answers with), swapped
only under the lock.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional

import numpy as np

from . import obs
from ._validation import check_seed
from .core.estimator import LocalOutlierFactor
from .core.streaming import SlidingWindowLOF
from .exceptions import ValidationError
from .serve import OnlineScorer
from .store import store_fingerprint

__all__ = [
    "ReservoirSampler",
    "StreamUpdate",
    "RefitRecord",
    "StreamingDetector",
]


class ReservoirSampler:
    """Uniform Algorithm-R reservoir over a stream, explicitly seeded.

    Keeps a uniform sample of ``capacity`` items from everything offered
    so far. The RNG must be seeded (an int or a Generator; ``None`` is
    rejected): the sample — and therefore every drift decision derived
    from it — is a pure function of the seed and the observation order,
    which is what makes stream replays deterministic by construction
    (and keeps RL007 happy).
    """

    def __init__(self, capacity: int, seed=0):
        if capacity < 1:
            raise ValidationError(f"reservoir capacity must be >= 1, got {capacity}")
        if seed is None:
            raise ValidationError(
                "the reservoir sampler must be explicitly seeded (int or "
                "numpy Generator); None would make stream replays "
                "non-deterministic"
            )
        self.capacity = int(capacity)
        self._rng = check_seed(seed)
        self._seen = 0
        self._items: List[np.ndarray] = []

    @property
    def n_seen(self) -> int:
        return self._seen

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, item) -> bool:
        """Offer one item; returns True when it entered the reservoir."""
        item = np.asarray(item, dtype=np.float64)
        self._seen += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            return True
        slot = int(self._rng.integers(0, self._seen))
        if slot < self.capacity:
            self._items[slot] = item
            return True
        return False

    def sample(self) -> np.ndarray:
        """The current reference sample, stacked (order is slot order)."""
        if not self._items:
            return np.empty((0, 0))
        return np.vstack(self._items)


@dataclass
class StreamUpdate:
    """What one :meth:`StreamingDetector.observe` call did."""

    t: int                        # 0-based arrival index
    score: Optional[float]        # score under the frozen serving model
    window_size: int              # live points after insert + eviction
    evicted: bool                 # an old point aged out
    drift_checked: bool = False   # a drift check ran at this position
    drifted: bool = False         # ... and detected a shift
    refit_triggered: bool = False  # this observation started a refit


@dataclass
class RefitRecord:
    """One completed refit → swap generation (the lineage chain)."""

    seq: int                      # 1-based refit generation
    reason: str                   # 'bootstrap' | 'drift' | 'manual'
    t: int                        # stream position that triggered it
    n_points: int                 # window points the model was fitted on
    path: Path                    # REPROLOF store written
    fingerprint: str              # store_fingerprint of the new model
    parent: Optional[str]         # fingerprint swapped out (None at bootstrap)

    def as_dict(self) -> Dict:
        return {
            "seq": self.seq,
            "reason": self.reason,
            "t": self.t,
            "n_points": self.n_points,
            "path": str(self.path),
            "fingerprint": self.fingerprint,
            "parent": self.parent,
        }


class StreamingDetector:
    """The online lifecycle: windowed ingest, drift, refit, hot-swap.

    Parameters
    ----------
    min_pts : MinPts for both the maintained window scores and refits.
    window : sliding-window capacity (must exceed ``min_pts``).
    store_dir : directory refit stores are written into
        (``stream-refit-NNNNN.rlof``, one per generation).
    scorer / duplicate_mode / metric / aggregate / threshold : the model
        recipe every refit uses (and the initial bootstrap fit).
    seed : reservoir seed — replay determinism requires it (RL007).
    reservoir : reference-sample capacity.
    drift_quantile : the quantile ``q`` compared between recent and
        reference scores.
    drift_factor : drift is declared when
        ``Q_q(recent) > drift_factor * Q_q(reference)``.
    check_every : run a drift check every this many observations; the
        recent-score window holds the last ``check_every`` scores.
    cooldown : minimum observations between refits (default: ``window``)
        — a drift detection inside the cooldown is counted but does not
        trigger.
    warmup : without an ``initial_store``, bootstrap the first model
        once the window holds this many points (default: ``window``).
    refit_min_pts : the (lb, ub) MinPts range every refit store is
        fitted with (default ``(min_pts, min_pts)``) — the serve path
        passes the original store's grid here so a hot-swapped model
        answers the same sweep as the one it replaced. The maintained
        window scores always use the single ``min_pts``.
    initial_store : serve an existing model from the start instead of
        bootstrapping: a REPROLOF store path, or an already loaded
        :class:`~repro.serve.OnlineScorer` (the serve path passes its
        own, so the store is not loaded a second time).
    swap : callback invoked after every refit with the
        :class:`~repro.serve.OnlineScorer` the detector just loaded for
        the new store — wire ``_ModelHTTPServer.install`` here to serve
        it. Its return value is ignored.
    background : run refits on a daemon thread (the production serve
        mode) instead of inline in the triggering ``observe`` call (the
        deterministic replay mode). Single-flight either way.
    cache_size : LRU size of the scorer a bootstrap refit loads; later
        refits load theirs like the scorer they replace
        (:meth:`~repro.serve.OnlineScorer.successor`).

    Thread-safety: all mutable state is guarded by one reentrant lock
    (RL005-annotated); ``observe`` may be called from many request
    threads concurrently and every counter stays exact.
    """

    def __init__(
        self,
        min_pts: int,
        window: int,
        store_dir,
        *,
        scorer: str = "lof",
        duplicate_mode: str = "inf",
        metric="euclidean",
        aggregate: str = "max",
        threshold: float = 1.5,
        seed=0,
        reservoir: int = 64,
        drift_quantile: float = 0.9,
        drift_factor: float = 2.0,
        check_every: int = 32,
        cooldown: Optional[int] = None,
        warmup: Optional[int] = None,
        refit_min_pts=None,
        initial_store=None,
        swap: Optional[Callable[[OnlineScorer], object]] = None,
        background: bool = False,
        cache_size: int = 0,
    ):
        if store_dir is None:
            raise ValidationError("store_dir is required: refits write stores there")
        if not (0.0 < float(drift_quantile) < 1.0):
            raise ValidationError(
                f"drift_quantile must be in (0, 1), got {drift_quantile}"
            )
        if float(drift_factor) < 0.0:
            raise ValidationError(
                f"drift_factor must be >= 0, got {drift_factor}"
            )
        if int(check_every) < 1:
            raise ValidationError(f"check_every must be >= 1, got {check_every}")
        self.min_pts = int(min_pts)
        self.window = int(window)
        self.store_dir = Path(store_dir)
        self.scorer = scorer
        self.duplicate_mode = duplicate_mode
        self.metric = metric
        self.aggregate = aggregate
        self.threshold = float(threshold)
        self.drift_quantile = float(drift_quantile)
        self.drift_factor = float(drift_factor)
        self.check_every = int(check_every)
        self.cooldown = self.window if cooldown is None else int(cooldown)
        self.warmup = self.window if warmup is None else int(warmup)
        if self.warmup <= self.min_pts:
            raise ValidationError(
                f"warmup={self.warmup} must exceed min_pts={self.min_pts}"
            )
        if refit_min_pts is None:
            self.refit_min_pts = (self.min_pts, self.min_pts)
        else:
            lb, ub = (int(refit_min_pts[0]), int(refit_min_pts[1]))
            if not 1 <= lb <= ub:
                raise ValidationError(
                    f"refit_min_pts must be an (lb, ub) pair with "
                    f"1 <= lb <= ub, got {refit_min_pts!r}"
                )
            self.refit_min_pts = (lb, ub)
        if self.warmup <= max(self.refit_min_pts):
            raise ValidationError(
                f"warmup={self.warmup} must exceed the refit MinPts upper "
                f"bound {max(self.refit_min_pts)} so every refit can fit"
            )
        self.background = bool(background)
        self.cache_size = int(cache_size)
        self._swap_cb = swap
        self._lock = threading.RLock()
        self._win = SlidingWindowLOF(          # reprolint: lock-guarded
            min_pts=self.min_pts,
            window=self.window,
            metric=metric,
            duplicate_mode=duplicate_mode,
        )
        self._reservoir = ReservoirSampler(reservoir, seed=seed)  # reprolint: lock-guarded
        self._recent: Deque[float] = deque(maxlen=self.check_every)  # reprolint: lock-guarded
        self._ref_q: Optional[float] = None    # reprolint: lock-guarded
        self._serving: Optional[OnlineScorer] = None  # reprolint: lock-guarded
        self._model_path: Optional[Path] = None  # reprolint: lock-guarded
        self._fingerprint: Optional[str] = None  # reprolint: lock-guarded
        self._refit_active = False             # reprolint: lock-guarded
        self._refit_thread: Optional[threading.Thread] = None  # reprolint: lock-guarded
        self._refits: List[RefitRecord] = []   # reprolint: lock-guarded
        self._t = -1                           # reprolint: lock-guarded
        self._since_check = 0                  # reprolint: lock-guarded
        self._since_refit = 0                  # reprolint: lock-guarded
        self._n_checks = 0                     # reprolint: lock-guarded
        self._n_drifts = 0                     # reprolint: lock-guarded
        self._n_evictions = 0                  # reprolint: lock-guarded
        if initial_store is not None:
            if not isinstance(initial_store, OnlineScorer):
                initial_store = OnlineScorer.from_path(
                    initial_store, cache_size=self.cache_size
                )
            self._serving = initial_store
            self._model_path = initial_store.model.path
            self._fingerprint = store_fingerprint(initial_store.model.header)

    # -- ingest ----------------------------------------------------------------

    def observe(self, point, score: Optional[float] = None) -> StreamUpdate:
        """Ingest one observation; returns what the lifecycle did.

        ``score`` is the observation's score under the frozen serving
        model when the caller already computed it (the ``/score`` path
        feeds served scores back here so the hot path scores each point
        exactly once); ``None`` makes the detector score it itself, or
        skip scoring while no model exists yet (bootstrap warm-up).
        """
        point = np.asarray(point, dtype=np.float64).reshape(-1)
        refit_reason = None
        with self._lock:
            self._t += 1
            t = self._t
            _handle, _work, evicted = self._win.push(point)
            obs.incr("stream.ingested")
            obs.incr("stream.window.inserts")
            if evicted:
                obs.incr("stream.window.evictions")
                self._n_evictions += 1
            self._reservoir.offer(point)
            if score is None and self._serving is not None:
                score = float(
                    self._serving.score_new(point[None, :], use_cache=False)[0]
                )
            elif score is not None:
                score = float(score)
            if score is not None:
                self._recent.append(score)
            self._since_check += 1
            self._since_refit += 1
            checked = drifted = False
            if self._serving is None:
                if self._win.n_in_window >= self.warmup and not self._refit_active:
                    refit_reason = "bootstrap"
                    self._refit_active = True
            elif self._since_check >= self.check_every and self._recent:
                self._since_check = 0
                checked = True
                self._n_checks += 1
                obs.incr("stream.drift.checks")
                stat = self._drift_statistic()
                if stat is not None and stat > self.drift_factor:
                    drifted = True
                    self._n_drifts += 1
                    obs.incr("stream.drift.detected")
                    if (
                        not self._refit_active
                        and self._since_refit >= self.cooldown
                        and self._win.n_in_window > self.min_pts
                    ):
                        refit_reason = "drift"
                        self._refit_active = True
            update = StreamUpdate(
                t=t,
                score=score,
                window_size=self._win.n_in_window,
                evicted=evicted,
                drift_checked=checked,
                drifted=drifted,
                refit_triggered=refit_reason is not None,
            )
        if refit_reason is not None:
            self._launch_refit(refit_reason)
        return update

    def observe_many(self, points, scores=None) -> List[StreamUpdate]:
        """Ingest a batch in order; ``scores`` optionally parallels it."""
        points = np.asarray(points, dtype=np.float64)
        if scores is None:
            return [self.observe(p) for p in points]
        return [self.observe(p, score=s) for p, s in zip(points, scores)]

    def _drift_statistic(self) -> Optional[float]:  # reprolint: holds-lock
        """The score-quantile shift, or None on the reference-seeding
        check (the first check under an externally attached model)."""
        if self._ref_q is None:
            self._ref_q = self._reference_quantile(self._serving)
            return None
        recent_q = float(
            np.quantile(np.asarray(self._recent, dtype=np.float64), self.drift_quantile)
        )
        if not np.isfinite(self._ref_q) or self._ref_q <= 0.0:
            return None
        return recent_q / self._ref_q

    def _reference_quantile(self, serving) -> float:  # reprolint: holds-lock
        """Q_q of the reservoir sample scored under ``serving`` — the
        cheap reference pass that makes drift detection affordable."""
        sample = self._reservoir.sample()
        if sample.size == 0:
            return float("nan")
        ref_scores = serving.score_new(sample, use_cache=False)
        return float(np.quantile(ref_scores, self.drift_quantile))

    # -- refit + swap ----------------------------------------------------------

    def request_refit(self, reason: str = "manual") -> bool:
        """Trigger a refit now (single-flight: False when one is already
        running or the window is still too small to fit)."""
        with self._lock:
            if self._refit_active or self._win.n_in_window <= self.min_pts:
                return False
            self._refit_active = True
        self._launch_refit(reason)
        return True

    def _launch_refit(self, reason: str) -> None:
        if self.background:
            thread = threading.Thread(
                target=self._run_refit,
                args=(reason,),
                name="repro-stream-refit",
                daemon=True,
            )
            with self._lock:
                self._refit_thread = thread
            thread.start()
        else:
            self._run_refit(reason)

    def _run_refit(self, reason: str) -> None:
        """Fit the window snapshot, write the lineage-stamped store,
        swap it into serving. Runs with ``_refit_active`` held True;
        always clears the flag."""
        try:
            with self._lock:
                snapshot = self._win.points().copy()
                seq = len(self._refits) + 1
                parent = self._fingerprint
                current = self._serving
                t = self._t
            est = LocalOutlierFactor(
                min_pts=self.refit_min_pts,
                aggregate=self.aggregate,
                metric=self.metric,
                duplicate_mode=self.duplicate_mode,
                threshold=self.threshold,
                scorer=self.scorer,
            ).fit(snapshot)
            self.store_dir.mkdir(parents=True, exist_ok=True)
            path = self.store_dir / f"stream-refit-{seq:05d}.rlof"
            est.save(
                path,
                lineage={
                    "parent": parent,
                    "reason": reason,
                    "refit_seq": seq,
                    "stream_t": t,
                    "window_points": int(snapshot.shape[0]),
                },
            )
            obs.incr("stream.refits")
            if current is None:
                serving = OnlineScorer.from_path(path, cache_size=self.cache_size)
            else:
                serving = current.successor(path)
            with self._lock:
                # Install and adopt as one step under the detector lock,
                # so a concurrent adopt() cannot land between them.
                if self._swap_cb is not None:
                    self._swap_cb(serving)
                fingerprint = self._adopt_locked(serving)
                self._since_refit = 0
                self._refits.append(
                    RefitRecord(
                        seq=seq,
                        reason=reason,
                        t=t,
                        n_points=int(snapshot.shape[0]),
                        path=path,
                        fingerprint=fingerprint,
                        parent=parent,
                    )
                )
            obs.incr("stream.swaps")
        finally:
            with self._lock:
                self._refit_active = False

    def adopt(self, serving: OnlineScorer, install: Callable[[OnlineScorer], Any]) -> Any:
        """Run ``install(serving)`` and judge drift under ``serving``
        from now on, naming it as the next refit's lineage parent — for
        a model installed from outside the lifecycle (``/admin/reload``
        on a ``--stream`` server). Both happen under the detector lock,
        as a refit's swap does, so the served model and the detector's
        never disagree. Returns what ``install`` returns."""
        with self._lock:
            result = install(serving)
            self._adopt_locked(serving)
            return result

    def _adopt_locked(self, serving: OnlineScorer) -> str:  # reprolint: holds-lock
        """Make ``serving`` the detector's model and reseed the drift
        reference under it; returns its fingerprint."""
        self._ref_q = self._reference_quantile(serving)
        self._serving = serving
        self._model_path = serving.model.path
        self._fingerprint = store_fingerprint(serving.model.header)
        self._recent.clear()
        return self._fingerprint

    def wait_refit(self, timeout: Optional[float] = None) -> bool:
        """Join the outstanding background refit, if any; True when no
        refit is still running afterwards."""
        with self._lock:
            thread = self._refit_thread
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()

    # -- inspection ------------------------------------------------------------

    @property
    def serving(self) -> Optional[OnlineScorer]:
        """The frozen serving model (None until bootstrap completes)."""
        with self._lock:
            return self._serving

    @property
    def model_path(self) -> Optional[Path]:
        with self._lock:
            return self._model_path

    @property
    def fingerprint(self) -> Optional[str]:
        with self._lock:
            return self._fingerprint

    @property
    def refits(self) -> List[RefitRecord]:
        with self._lock:
            return list(self._refits)

    def window_points(self) -> np.ndarray:
        """The window contents, arrival order — the batch-refit prefix."""
        with self._lock:
            return self._win.points()

    def window_scores(self) -> np.ndarray:
        """Maintained online scores of the window (arrival order) —
        bit-identical to batch rematerialization of the same prefix."""
        with self._lock:
            return self._win.scores()

    def stats(self) -> Dict:
        """A JSON-serializable lifecycle snapshot (served on /stats)."""
        with self._lock:
            return {
                "ingested": self._t + 1,
                "window": {
                    "size": self._win.n_in_window,
                    "capacity": self.window,
                    "evictions": self._n_evictions,
                },
                "drift": {
                    "checks": self._n_checks,
                    "detected": self._n_drifts,
                    "quantile": self.drift_quantile,
                    "factor": self.drift_factor,
                    "reference_q": self._ref_q,
                },
                "refits": len(self._refits),
                "refit_active": self._refit_active,
                "model": {
                    "path": None if self._model_path is None else str(self._model_path),
                    "fingerprint": self._fingerprint,
                },
                "lineage": [r.as_dict() for r in self._refits],
            }
