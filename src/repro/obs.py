"""repro.obs — process-local instrumentation: op counters, timers, stats.

The paper's two-step algorithm (Section 7.4) is defined by its *cost
profile*: step 1 is n k-NN queries against some access method, step 2 is
two O(n) scans over the materialization database M per MinPts value.
Wall-clock time is a noisy proxy for that profile; the quantities the
paper actually reasons about — distance evaluations, queries issued,
index pages touched — are exact integers. This module counts them.

Design
------
* **Disabled by default, near-zero overhead.** ``incr`` and
  ``record_kernel`` are module attributes bound to no-op functions until
  :func:`enable` swaps in the real implementations. Hot paths call
  ``obs.incr(...)`` unconditionally; when instrumentation is off the
  cost is one attribute lookup plus an empty call.
* **Deterministic when enabled.** Counters depend only on the code path
  taken, never on the clock, so performance claims ("the blocked fast
  path issues 10x fewer distance-kernel calls") become exact, replayable
  invariants.
* **Process-local and thread-safe.** One registry per process, guarded
  by a lock; there is deliberately no per-thread or per-call-tree
  scoping beyond :func:`collect`.

Counters (see ``docs/observability.md`` for the full contract)
--------------------------------------------------------------
``distance.kernel_calls``
    Python-level invocations of a distance kernel
    (``Metric.distance`` / ``pairwise_to_point`` / ``paired_distances``
    / ``pairwise``, and one per tile of the argkmin engine).
``distance.evaluations``
    scalar distances computed across those calls (a pairwise block of
    shape (b, n) counts b*n).
``knn.queries``
    k-NN / radius queries issued through the :class:`~repro.index.NNIndex`
    front door.
``index.node_visits``
    index nodes/pages touched while answering queries.
``index.supernode_overflows``
    X-tree split refusals that created or grew a supernode.
``materialize.blocks``
    distance-matrix blocks processed by the vectorized fast path.
``argkmin.tiles``
    distance tiles materialized by the chunked argkmin engine
    (:mod:`repro.index.argkmin`); one kernel call each.
``argkmin.tile_bytes``
    bytes of the largest single distance tile an engine call allocated —
    the memory-envelope counter (peak temporary allocation is one tile
    per worker, O(chunk·chunk), never O(n²)).
``argkmin.strategy_whole`` / ``argkmin.strategy_chunked``
    engine calls resolved to the whole-matrix fallback vs. the tiled
    merge (the ``strategy="auto"`` heuristic's decisions, made exact).
``mscan.passes``
    O(n) scans over the materialization database M, one per MinPts of
    each tiled scan of a fit, whatever the tiles: LOF's two per MinPts
    (lrd, LOF: the paper's "step 2"), LoOP's three, LDOF's and kNN's one.
``store.saves`` / ``store.loads``
    model-store files written / read by :mod:`repro.store`.
``serve.points_scored``
    query points answered by :meth:`~repro.serve.OnlineScorer.score_new`
    (cache hits included).
``serve.cache.hits`` / ``serve.cache.misses``
    per-point lookups against the online scorer's LRU result cache;
    every scorer call holds the scorer's lock throughout, so both are
    exact under concurrency (a point repeated within one call counts a
    miss at each of its rows).
``serve.bounds.pruned`` / ``serve.bounds.exact``
    queries :meth:`~repro.serve.OnlineScorer.classify_new` decided from
    Theorem 1 brackets alone vs. those that paid for the exact kernels.
``serve.batch.requests``
    ``/score`` requests accepted into the coalescing queue
    (:class:`~repro.serve.ScoreBatcher`).
``serve.batch.batches``
    stacked ``score_new`` calls the batcher executed (one per group of
    coalesced requests sharing a ``min_pts`` selector).
``serve.batch.coalesced``
    requests that rode along in a batch opened by another request
    (``requests - batches`` when every batch has one selector group).
``serve.reloads``
    hot-swaps performed by ``POST /admin/reload``.
``serve.workers``
    worker processes forked by the serving fleet
    (:func:`~repro.serve.run_fleet`); counted in the parent.

Timers
------
:func:`span` is a re-entrant context manager accumulating monotonic
wall time per name::

    with obs.span("estimator.fit"):
        ...

Snapshots
---------
:func:`stats` returns a JSON-serializable dict; :func:`to_json` dumps
it. :func:`collect` runs a scope with a fresh, isolated registry::

    with obs.collect() as snap:
        fast_materialize(X, 20)
    snap["counters"]["distance.kernel_calls"]
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, List

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "incr",
    "record_kernel",
    "counter",
    "counters",
    "timers",
    "span",
    "stats",
    "to_json",
    "collect",
]

_lock = threading.Lock()
_counters: Dict[str, int] = {}
_timers: Dict[str, List] = {}  # name -> [count, total_seconds]
_enabled = False


# -- the swapped fast path ---------------------------------------------------


def _incr_noop(name: str, n: int = 1) -> None:
    return None


def _record_kernel_noop(n_evaluations: int = 1) -> None:
    return None


def _incr_real(name: str, n: int = 1) -> None:
    with _lock:
        _counters[name] = _counters.get(name, 0) + int(n)


def _record_kernel_real(n_evaluations: int = 1) -> None:
    # One bump for "a kernel was invoked", one for how much work it did;
    # fused into a single call so the disabled path costs one no-op.
    with _lock:
        _counters["distance.kernel_calls"] = (
            _counters.get("distance.kernel_calls", 0) + 1
        )
        _counters["distance.evaluations"] = (
            _counters.get("distance.evaluations", 0) + int(n_evaluations)
        )


#: Increment counter ``name`` by ``n``. No-op while disabled.
incr = _incr_noop

#: Record one distance-kernel invocation computing ``n`` scalar
#: distances. No-op while disabled.
record_kernel = _record_kernel_noop


# -- lifecycle ---------------------------------------------------------------


def enable() -> None:
    """Turn instrumentation on (counters keep any prior values)."""
    global _enabled, incr, record_kernel
    with _lock:
        _enabled = True
        incr = _incr_real
        record_kernel = _record_kernel_real


def disable() -> None:
    """Turn instrumentation off; existing values stay readable."""
    global _enabled, incr, record_kernel
    with _lock:
        _enabled = False
        incr = _incr_noop
        record_kernel = _record_kernel_noop


def is_enabled() -> bool:
    return _enabled


def reset() -> None:
    """Zero every counter and timer (enabled/disabled state unchanged)."""
    with _lock:
        _counters.clear()
        _timers.clear()


# -- reads -------------------------------------------------------------------


def counter(name: str) -> int:
    """Current value of one counter (0 if it never fired)."""
    with _lock:
        return _counters.get(name, 0)


def counters() -> Dict[str, int]:
    """Copy of all counters."""
    with _lock:
        return dict(_counters)


def timers() -> Dict[str, Dict[str, float]]:
    """Copy of all timers as ``{name: {"count": int, "total_s": float}}``."""
    with _lock:
        return {
            name: {"count": rec[0], "total_s": rec[1]}
            for name, rec in _timers.items()
        }


def stats() -> Dict:
    """JSON-serializable snapshot of the whole registry."""
    with _lock:
        return {
            "enabled": _enabled,
            "counters": dict(_counters),
            "timers": {
                name: {"count": rec[0], "total_s": rec[1]}
                for name, rec in _timers.items()
            },
        }


def to_json(indent: int = 2) -> str:
    """The :func:`stats` snapshot as a JSON string."""
    return json.dumps(stats(), indent=indent, sort_keys=True)


# -- timers ------------------------------------------------------------------


class _Span:
    """Context manager accumulating monotonic time under one name.

    Spans nest freely: each active span accumulates its own full wall
    time, so an inner span's time is also part of its enclosing span's.
    Re-enterable and reusable.
    """

    __slots__ = ("name", "_starts")

    def __init__(self, name: str):
        self.name = name
        self._starts: List[float] = []

    def __enter__(self) -> "_Span":
        # Enabled-ness is sampled at entry so a span open across an
        # enable()/disable() flip stays internally consistent.
        self._starts.append(time.perf_counter() if _enabled else float("nan"))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t0 = self._starts.pop()
        if t0 != t0:  # NaN: instrumentation was off at __enter__
            return
        elapsed = time.perf_counter() - t0
        with _lock:
            rec = _timers.setdefault(self.name, [0, 0.0])
            rec[0] += 1
            rec[1] += elapsed


def span(name: str) -> _Span:
    """A context manager timing the enclosed block under ``name``."""
    return _Span(name)


# -- scoped collection -------------------------------------------------------


@contextmanager
def collect():
    """Run the enclosed block with a fresh, enabled registry.

    Yields a dict that is populated with the :func:`stats` snapshot when
    the block exits. The previous registry contents and enabled state
    are restored afterwards; if instrumentation was already enabled, the
    scoped activity is merged back so outer collections still see it.
    """
    with _lock:
        prev_enabled = _enabled
        prev_counters = dict(_counters)
        prev_timers = {k: list(v) for k, v in _timers.items()}
        _counters.clear()
        _timers.clear()
    if not prev_enabled:
        enable()
    snapshot: Dict = {}
    try:
        yield snapshot
    finally:
        snapshot.update(stats())
        with _lock:
            scoped_counters = dict(_counters)
            scoped_timers = {k: list(v) for k, v in _timers.items()}
            _counters.clear()
            _counters.update(prev_counters)
            _timers.clear()
            _timers.update(prev_timers)
            if prev_enabled:
                for name, n in scoped_counters.items():
                    _counters[name] = _counters.get(name, 0) + n
                for name, (count, total) in scoped_timers.items():
                    rec = _timers.setdefault(name, [0, 0.0])
                    rec[0] += count
                    rec[1] += total
        if not prev_enabled:
            disable()
