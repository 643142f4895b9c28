"""Chunked, cache-aware argkmin — the k-NN front door's compute engine.

The paper's step 1 (Section 7.4) is one k-NN query per object; on the
sequential-scan substrate that is an argkmin over a distance matrix that
does not fit in memory once n is large (n = 100k needs 80 GB at
float64). This module computes the same tie-inclusive selection from
fixed-size X/Y tiles sized to a configurable cache budget, in the style
of scikit-learn's ``_pairwise_distances_reduction``:

* **Tiling.** Queries are cut into row chunks (``x_chunk``) and the
  corpus into column chunks (``y_chunk``); one distance tile of
  ``x_chunk * y_chunk * 8`` bytes is materialized at a time, so peak
  temporary memory is O(chunk · chunk), never O(n²).
* **A private tile kernel.** :func:`_tile_kernel` — for Euclidean the
  expanded BLAS form ``sqrt(||x||^2 + ||y||^2 - 2<x, y>)`` with the
  exact-duplicate zero-snap, the package's only use of that form (its
  bits differ from the :mod:`~repro.index.metrics` row kernel by ulps).
* **Tie-aware merge.** Per-chunk k-best candidates are merged with
  Definition 4 semantics: after each tile, every candidate at distance
  not greater than the running k-distance (``tie_threshold``) survives.
  The running threshold is non-increasing and ends at the global
  k-distance, so the final candidate pool IS the tie-inclusive
  neighborhood — proved bit-identical to
  :func:`repro.index.batch.select_tie_inclusive` on the whole matrix by
  the property suite in ``tests/index/test_argkmin.py``.

The old whole-matrix path survives as ``strategy="whole"`` (one tile
spanning all of Y per row chunk — literally the classic
``pairwise`` + ``select_tie_inclusive`` code path); ``strategy="auto"``
picks it whenever the full row-chunk × n slab fits the tile budget, so
small problems keep their historical kernel-call counts.

Instrumentation: ``argkmin.tiles`` counts distance tiles,
``argkmin.tile_bytes`` records the largest single tile allocated per
engine call (the memory-envelope counter asserted by
``tests/core/test_memory_budget.py``), ``argkmin.strategy_whole`` /
``argkmin.strategy_chunked`` count heuristic decisions, and the
``argkmin.run`` span wraps the whole selection.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import obs
from ..exceptions import ValidationError
from .batch import apply_exclusions, scatter_padded, select_tie_inclusive, tie_threshold
from .metrics import EuclideanMetric, get_metric

__all__ = [
    "DEFAULT_TILE_BYTES",
    "DEFAULT_X_CHUNK",
    "argkmin_with_ties",
    "argkmin_self",
]

#: Default per-tile byte budget. Sized like a generous L2/L3 slice: big
#: enough that every pre-existing small-n code path (block_size 512 at
#: n <= 2000) resolves to the whole-matrix strategy and keeps its
#: historical kernel-call counts, small enough that n = 100k runs in a
#: few-MiB temporary footprint instead of 80 GB.
DEFAULT_TILE_BYTES = 8 << 20  # 8 MiB

#: Default query-row chunk when the caller does not pin one.
DEFAULT_X_CHUNK = 256

_STRATEGIES = ("auto", "whole", "chunked")


def _check_matrix(A, name: str) -> np.ndarray:
    A = np.asarray(A)
    if A.dtype not in (np.float32, np.float64):
        A = A.astype(np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValidationError(
            f"{name} must be a non-empty 2-D array, got shape {A.shape}"
        )
    if not np.isfinite(A).all():
        raise ValidationError(f"{name} must be finite (no NaN/inf entries)")
    return A


def _tile_kernel(metric, X: np.ndarray, Y: np.ndarray):
    """The engine's instrumented per-tile distance kernel: a callable
    ``tile(x0, x1, y0, y1)`` giving the distance block between those row
    ranges of ``X`` and ``Y``, counted as one kernel call, in float64
    (float32 inputs are upcast once, here). Euclidean tiles use the
    expanded form with an exact-duplicate zero-snap; the squared row
    norms are computed once and sliced (einsum row sums are row-local).
    """
    X64 = np.ascontiguousarray(X, dtype=np.float64)
    Y64 = X64 if Y is X else np.ascontiguousarray(Y, dtype=np.float64)
    if not isinstance(metric, EuclideanMetric):
        return lambda x0, x1, y0, y1: metric.pairwise(X64[x0:x1], Y64[y0:y1])
    norms_x = np.einsum("ij,ij->i", X64, X64)
    norms_y = norms_x if Y64 is X64 else np.einsum("ij,ij->i", Y64, Y64)

    def tile(x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
        obs.record_kernel((x1 - x0) * (y1 - y0))
        A, B = X64[x0:x1], Y64[y0:y1]
        xx, yy = norms_x[x0:x1, None], norms_y[None, y0:y1]
        sq = xx + yy - 2.0 * (A @ B.T)
        np.maximum(sq, 0.0, out=sq)
        # Cancellation leaves exact duplicates at ~1 ulp of ||x||^2
        # instead of 0 (lrd = inf needs true zeros): entries small for
        # their scale whose rows are bitwise equal are snapped to zero.
        rows, cols = np.nonzero(sq <= 1e-10 * np.maximum(xx, yy))
        if len(rows):
            equal = np.all(A[rows] == B[cols], axis=1)
            sq[rows[equal], cols[equal]] = 0.0
        return np.sqrt(sq)

    return tile


def _resolve_plan(
    m: int,
    n: int,
    strategy: str,
    x_chunk: Optional[int],
    y_chunk: Optional[int],
    tile_bytes: Optional[int],
) -> Tuple[str, int, int, int]:
    """Pick (strategy, x_chunk, y_chunk, tile_bytes) for an (m, n) problem."""
    if strategy not in _STRATEGIES:
        raise ValidationError(
            f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
        )
    tile_bytes = DEFAULT_TILE_BYTES if tile_bytes is None else int(tile_bytes)
    if tile_bytes < 8:
        raise ValidationError(f"tile_bytes must be >= 8, got {tile_bytes}")
    for name, value in (("x_chunk", x_chunk), ("y_chunk", y_chunk)):
        if value is not None and (not isinstance(value, (int, np.integer)) or value < 1):
            raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    if strategy == "auto":
        # The heuristic: fall back to the classic whole-matrix path when
        # the full row-chunk × n float64 slab fits the tile budget.
        probe_rows = min(m, x_chunk) if x_chunk is not None else m
        strategy = "whole" if probe_rows * n * 8 <= tile_bytes else "chunked"
    if strategy == "whole":
        xc = min(m, x_chunk) if x_chunk is not None else m
        yc = n
    else:
        xc = min(m, x_chunk) if x_chunk is not None else min(m, DEFAULT_X_CHUNK)
        yc = min(n, y_chunk) if y_chunk is not None else max(
            1, min(n, tile_bytes // (8 * xc))
        )
    return strategy, int(xc), int(yc), tile_bytes


def _chunk_argkmin(
    tile,
    x0: int,
    x1: int,
    n: int,
    k: int,
    y_chunk: int,
    exclude: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Tie-inclusive argkmin of query rows [x0, x1) against all of Y.

    Returns the chunk's CSR triple plus the largest tile (bytes) it
    materialized. Pure array transform over the instrumented ``tile``
    closure.
    """
    m_c = x1 - x0
    excl = exclude[x0:x1] if exclude is not None else None

    if y_chunk >= n:
        # Single-tile row chunk: the classic whole-matrix selection,
        # unchanged from the pre-chunking fast path.
        D = tile(x0, x1, 0, n)
        obs.incr("argkmin.tiles")
        if excl is not None:
            apply_exclusions(D, excl)
        flat_ids, flat_dists, counts = select_tie_inclusive(D, k)
        return flat_ids, flat_dists, counts, D.nbytes

    peak = 0
    cand_d = np.empty((m_c, 0), dtype=np.float64)
    cand_i = np.empty((m_c, 0), dtype=np.int64)
    for y0 in range(0, n, y_chunk):
        y1 = min(y0 + y_chunk, n)
        D = tile(x0, x1, y0, y1)
        obs.incr("argkmin.tiles")
        peak = max(peak, D.nbytes)
        if excl is not None:
            apply_exclusions(D, excl, col_offset=y0)
        ids = np.broadcast_to(np.arange(y0, y1, dtype=np.int64), D.shape)
        C = np.concatenate([cand_d, D], axis=1)
        I = np.concatenate([cand_i, ids], axis=1)
        if C.shape[1] > k:
            # Definition 4 merge: keep everything within the running
            # k-distance. The threshold is non-increasing across tiles,
            # so no entry of the final neighborhood is ever dropped;
            # entries at exactly the threshold (ties) all survive.
            # While a row still has fewer than k finite candidates the
            # threshold is inf and everything valid is retained.
            kth = tie_threshold(C, k)
            keep = (C <= kth[:, None]) & (I >= 0)
        else:
            keep = I >= 0
        counts = keep.sum(axis=1).astype(np.int64)
        width = int(counts.max()) if m_c else 0
        cand_d = np.full((m_c, width), np.inf, dtype=np.float64)
        cand_i = np.full((m_c, width), -1, dtype=np.int64)
        scatter_padded(cand_i, cand_d, 0, I[keep], C[keep], counts)

    # The candidate pool is now exactly the tie-inclusive neighborhood
    # of every row; emit it in select_tie_inclusive's (row, distance,
    # id) CSR order.
    keep = cand_i >= 0
    counts = keep.sum(axis=1).astype(np.int64)
    flat_d = cand_d[keep]
    flat_i = cand_i[keep]
    rows = np.repeat(np.arange(m_c, dtype=np.int64), counts)
    order = np.lexsort((flat_i, flat_d, rows))
    return flat_i[order], flat_d[order], counts, peak


def argkmin_with_ties(
    Q,
    Y,
    k: int,
    *,
    metric="euclidean",
    exclude=None,
    strategy: str = "auto",
    x_chunk: Optional[int] = None,
    y_chunk: Optional[int] = None,
    tile_bytes: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tie-inclusive k-nearest selection of every row of ``Q`` against ``Y``.

    Parameters
    ----------
    Q : (m, d) query rows; float32 or float64 (float32 is upcast once,
        all accumulation is float64).
    Y : (n, d) corpus rows; pass the same array object as ``Q`` to share
        the upcast and the norm cache.
    k : neighbors per row (Definition 3's k); rows may return more when
        the k-distance is tied (Definition 4).
    metric : metric name or :class:`~repro.index.metrics.Metric`.
    exclude : optional (m,) global y-ids excluded per row (-1 = none).
    strategy : ``"auto"`` (default) picks ``"whole"`` when the full
        row-chunk × n slab fits ``tile_bytes``, else ``"chunked"``.
    x_chunk, y_chunk : tile geometry overrides; defaults derive
        ``y_chunk`` from the byte budget.
    tile_bytes : per-tile cache budget (default 8 MiB).

    Returns
    -------
    flat_ids, flat_dists, counts :
        CSR triple in ``(row, distance, id)`` order — the same contract
        as :func:`repro.index.batch.select_tie_inclusive`.
    """
    Q = _check_matrix(Q, "Q")
    Y = Q if Y is Q else _check_matrix(Y, "Y")
    m, n = Q.shape[0], Y.shape[0]
    if Q.shape[1] != Y.shape[1]:
        raise ValidationError(
            f"Q and Y must share a feature width, got {Q.shape[1]} != {Y.shape[1]}"
        )
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.int64)
        if exclude.shape != (m,):
            raise ValidationError(
                f"exclude must have shape ({m},), got {exclude.shape}"
            )
        if np.any(exclude >= n):
            raise ValidationError("exclude entries must be valid y-ids or -1")
        if not np.any(exclude >= 0):
            exclude = None
    available = n - (1 if exclude is not None else 0)
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    if k > available:
        raise ValidationError(
            f"k={k} exceeds the {available} available neighbors per row"
        )
    k = int(k)

    strategy, xc, yc, _ = _resolve_plan(m, n, strategy, x_chunk, y_chunk, tile_bytes)
    tile = _tile_kernel(get_metric(metric), Q, Y)
    if strategy == "whole":
        obs.incr("argkmin.strategy_whole")
    else:
        obs.incr("argkmin.strategy_chunked")

    with obs.span("argkmin.run"):
        chunks = [
            _chunk_argkmin(tile, x0, min(x0 + xc, m), n, k, yc, exclude)
            for x0 in range(0, m, xc)
        ]

    # The per-call memory envelope: bytes of the largest distance tile
    # any chunk materialized (one increment per engine call).
    obs.incr("argkmin.tile_bytes", max(c[3] for c in chunks))

    if len(chunks) == 1:
        flat_ids, flat_dists, counts, _ = chunks[0]
        return flat_ids, flat_dists, counts
    return (
        np.concatenate([c[0] for c in chunks]),
        np.concatenate([c[1] for c in chunks]),
        np.concatenate([c[2] for c in chunks]),
    )


def argkmin_self(
    X,
    k: int,
    *,
    metric="euclidean",
    strategy: str = "auto",
    x_chunk: Optional[int] = None,
    y_chunk: Optional[int] = None,
    tile_bytes: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Self k-NN of every row of ``X`` (diagonal excluded) — the
    materialization step's argkmin. Same contract and knobs as
    :func:`argkmin_with_ties`."""
    X = _check_matrix(X, "X")
    return argkmin_with_ties(
        X,
        X,
        k,
        metric=metric,
        exclude=np.arange(X.shape[0], dtype=np.int64),
        strategy=strategy,
        x_chunk=x_chunk,
        y_chunk=y_chunk,
        tile_bytes=tile_bytes,
    )
