"""Sliding-window streaming LOF detection.

A production wrapper over :class:`~repro.core.incremental.IncrementalLOF`
for the "detect anomalies as readings arrive" use case the paper's
introduction motivates (fraud, intrusion). Each observation is scored
the moment it arrives, against a bounded window of recent history:

* ``window`` caps memory and keeps the reference distribution current
  (concept drift ages out with the oldest points);
* scores become available once the window holds more than ``min_pts``
  points — before that the detector reports ``None`` (warm-up);
* every update reuses the incremental engine — a
  :class:`~repro.core.graph.DynamicNeighborhoodGraph` plus the
  dirty-subset scoring kernels — touching only the affected
  neighborhood layers, so window scores match the batch surfaces
  bit-for-bit.

The window-maintenance half lives in :class:`SlidingWindowLOF`, shared
with the production streaming lifecycle
(:class:`repro.stream.StreamingDetector`): one FIFO eviction policy, one
incremental engine, one bit-identity contract against batch
rematerialization of the window contents — pinned by
``tests/stream/test_replay_differential.py`` across all three duplicate
modes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from ..exceptions import ValidationError
from .incremental import IncrementalLOF


class SlidingWindowLOF:
    """FIFO-windowed incremental LOF maintenance (arrival order).

    The shared substrate of :class:`StreamingLOFDetector` and
    :class:`repro.stream.StreamingDetector`: pushes insert into an
    :class:`~repro.core.incremental.IncrementalLOF` engine and evict the
    oldest point once more than ``window`` are held, so the maintained
    state is always exactly the last ``window`` observations. Maintained
    scores match ``MaterializationDB.materialize(points(), min_pts,
    duplicate_mode).lof(min_pts)`` bit-for-bit at every step.
    """

    def __init__(
        self,
        min_pts: int,
        window: int,
        metric="euclidean",
        duplicate_mode: str = "inf",
    ):
        if window <= min_pts:
            raise ValidationError(
                f"window={window} must exceed min_pts={min_pts}"
            )
        self.min_pts = int(min_pts)
        self.window = int(window)
        self._engine = IncrementalLOF(
            min_pts=min_pts, metric=metric, duplicate_mode=duplicate_mode
        )
        self._handles: Deque[int] = deque()

    @property
    def duplicate_mode(self) -> str:
        return self._engine.duplicate_mode

    @property
    def n_in_window(self) -> int:
        return self._engine.n_points

    @property
    def warmed_up(self) -> bool:
        return self._engine.n_points > self.min_pts

    def push(self, point) -> Tuple[int, int, bool]:
        """Insert one observation, evicting the oldest beyond ``window``.

        Returns ``(handle, work, evicted)`` where ``work`` counts the
        objects whose LOF the incremental engine recomputed across the
        insert and the eviction (when one happened).

        The insert/evict order is mode-dependent so that no *transient*
        engine state is invalid when the resulting window is valid:

        * ``'error'`` evicts first — a removal can never create
          duplicate saturation (k-distances only grow), while inserting
          into a full window first would pass through a
          ``window + 1``-point state that can raise on saturation the
          resulting window does not actually have;
        * ``'distinct'`` (and ``'inf'``) inserts first — an insertion
          can never lose distinct-location coverage, while evicting
          first could drop below k distinct locations that the incoming
          point is about to restore.
        """
        at_capacity = len(self._handles) >= self.window
        work = 0
        evict_first = at_capacity and self.duplicate_mode == "error"
        if evict_first:
            self._engine.delete(self._handles.popleft())
            work += self._engine.last_report.changed_lof
        handle = self._engine.insert(point)
        self._handles.append(handle)
        work += self._engine.last_report.changed_lof
        if at_capacity and not evict_first:
            self._engine.delete(self._handles.popleft())
            work += self._engine.last_report.changed_lof
        return handle, work, at_capacity

    def score_of(self, handle: int) -> float:
        return self._engine.score_of(handle)

    def points(self) -> np.ndarray:
        """The window contents, arrival order — the batch-refit prefix."""
        if not self._handles:
            return np.empty((0, 0))
        return self._engine.points()

    def scores(self) -> np.ndarray:
        """Maintained LOF of every window point (arrival order)."""
        if not self.warmed_up:
            return np.empty(0)
        scores = self._engine.scores
        return np.array([scores[h] for h in self._handles])


@dataclass
class StreamEvent:
    """The detector's verdict on one observation."""

    t: int                      # 0-based arrival index
    score: Optional[float]      # LOF, or None during warm-up
    is_outlier: Optional[bool]  # score > threshold, or None during warm-up
    work: int                   # objects whose LOF was recomputed


class StreamingLOFDetector:
    """Score a stream of observations with windowed incremental LOF.

    Parameters
    ----------
    min_pts : the MinPts parameter for the LOF computation.
    window : number of most recent observations kept as reference;
        must exceed ``min_pts``.
    threshold : scores above this are flagged (LOF ~ 1 is "ordinary",
        so 1.5-3 are typical choices depending on tolerance).
    metric : distance metric name or instance.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> det = StreamingLOFDetector(min_pts=5, window=50, threshold=2.5)
    >>> verdicts = [det.observe(x) for x in rng.normal(size=(60, 2))]
    >>> event = det.observe([25.0, 25.0])   # a blatant anomaly
    >>> bool(event.is_outlier)
    True
    """

    def __init__(
        self,
        min_pts: int = 10,
        window: int = 200,
        threshold: float = 2.0,
        metric="euclidean",
    ):
        if threshold <= 0:
            raise ValidationError(f"threshold must be > 0, got {threshold}")
        self.min_pts = int(min_pts)
        self.window = int(window)
        self.threshold = float(threshold)
        self._win = SlidingWindowLOF(min_pts=min_pts, window=window, metric=metric)
        self._t = -1
        self.events: List[StreamEvent] = []

    @property
    def n_in_window(self) -> int:
        return self._win.n_in_window

    @property
    def warmed_up(self) -> bool:
        return self._win.warmed_up

    def observe(self, point) -> StreamEvent:
        """Ingest one observation; returns its verdict immediately."""
        self._t += 1
        handle, work, _ = self._win.push(point)
        if not self.warmed_up:
            event = StreamEvent(t=self._t, score=None, is_outlier=None, work=work)
        else:
            score = self._win.score_of(handle)
            event = StreamEvent(
                t=self._t,
                score=float(score),
                is_outlier=bool(score > self.threshold),
                work=work,
            )
        self.events.append(event)
        return event

    def observe_many(self, points) -> List[StreamEvent]:
        """Ingest a batch, in order; returns the per-point verdicts."""
        return [self.observe(p) for p in np.asarray(points, dtype=np.float64)]

    def current_scores(self) -> np.ndarray:
        """LOF of every point currently in the window (arrival order)."""
        return self._win.scores()

    def flagged_events(self) -> List[StreamEvent]:
        """All events flagged as outliers so far."""
        return [e for e in self.events if e.is_outlier]
