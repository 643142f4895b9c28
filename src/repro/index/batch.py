"""Vectorized batch-selection kernels shared by the batched query paths.

The batched front door (:meth:`NNIndex.query_batch_with_ties`) and the
blocked materialization engine (:func:`repro.core.blocked.fast_materialize`)
both reduce to the same primitive: given a block of a distance matrix
``D`` of shape ``(m, n)`` whose excluded entries are already ``inf``,
select every row's tie-inclusive k-distance neighborhood (Definition 4)
in the deterministic ``(distance, id)`` order, without any per-row
Python loop. This module is that primitive, plus the scatter that packs
ragged rows into the padded ``(m, width)`` layout used by
:class:`~repro.core.materialization.MaterializationDB`.

All functions are pure array transforms — no instrumentation, no
validation; callers own both.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def tie_threshold(dists: np.ndarray, k: int) -> np.ndarray:
    """The k-distance (Definition 3) of each row of ``dists``.

    The single shared implementation of the paper's tie cutoff: the k-th
    smallest entry per row, via a partial sort. Works on a 1-D distance
    row (returns a scalar array) or a 2-D ``(m, n)`` block (returns the
    ``(m,)`` per-row thresholds). Excluded entries must already be
    ``inf`` and every row must contain at least ``k`` finite entries.
    """
    return np.partition(dists, k - 1, axis=-1)[..., k - 1]


def select_tie_inclusive(D: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tie-inclusive k-nearest selection for every row of ``D`` at once.

    Parameters
    ----------
    D : (m, n) distance block; excluded entries (e.g. each query's own
        diagonal cell) must already be ``inf``.
    k : neighbors per row, ``1 <= k <= n`` and at most the number of
        finite entries in each row.

    Returns
    -------
    flat_ids, flat_dists, counts :
        CSR-style output: row ``i``'s neighborhood is the slice of
        ``flat_ids`` / ``flat_dists`` of length ``counts[i]`` starting at
        ``counts[:i].sum()``, sorted by ``(distance, id)``. Rows can be
        longer than ``k`` exactly when the k-distance is tied.
    """
    # Partial selection of the k-th smallest per row, then a closed-ball
    # mask so equal-distance candidates are all retained (Definition 4).
    kth = tie_threshold(D, k)
    mask = D <= kth[:, None]
    rows, cols = np.nonzero(mask)
    flat_dists = D[mask]
    # One global lexsort replaces m per-row sorts: primary key row,
    # secondary distance, tertiary id — each row ends up internally
    # ordered by (distance, id), identical to the per-query oracle.
    order = np.lexsort((cols, flat_dists, rows))
    counts = mask.sum(axis=1).astype(np.int64)
    return cols[order].astype(np.int64), flat_dists[order], counts


def pack_padded(
    flat_ids: np.ndarray,
    flat_dists: np.ndarray,
    counts: np.ndarray,
    width: int = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Scatter CSR rows into the padded (-1 / inf) matrix layout.

    ``width`` defaults to ``counts.max()``; pass a larger value when the
    caller needs a common width across several blocks.
    """
    m = len(counts)
    if width is None:
        width = int(counts.max()) if m else 0
    padded_ids = np.full((m, width), -1, dtype=np.int64)
    padded_dists = np.full((m, width), np.inf, dtype=np.float64)
    scatter_padded(padded_ids, padded_dists, 0, flat_ids, flat_dists, counts)
    return padded_ids, padded_dists


def scatter_padded(
    padded_ids: np.ndarray,
    padded_dists: np.ndarray,
    row_start: int,
    flat_ids: np.ndarray,
    flat_dists: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Write one CSR block into rows ``row_start:row_start+len(counts)``
    of preallocated padded arrays, fully vectorized."""
    if len(flat_ids) == 0:
        return
    # Row i's first counts[i] cells, in row-major order: the CSR order.
    cells = np.arange(padded_ids.shape[1]) < counts[:, None]
    stop = row_start + len(counts)
    padded_ids[row_start:stop][cells] = flat_ids
    padded_dists[row_start:stop][cells] = flat_dists


def apply_exclusions(D: np.ndarray, exclude: np.ndarray, col_offset: int = 0) -> None:
    """Set ``D[i, exclude[i] - col_offset] = inf`` for every row whose
    ``exclude`` entry is a valid id (entries ``< 0`` mean "no exclusion").

    ``col_offset`` supports blocks (or tiles) of a distance matrix whose
    columns start at a global id other than 0 — pass the global
    exclusion ids and the block's column origin. Exclusion targets that
    fall outside ``D``'s column window are ignored: the chunked argkmin
    engine applies the same global exclusion vector to every y-tile, and
    each target belongs to exactly one tile.
    """
    local = exclude - col_offset
    active = np.flatnonzero(
        (exclude >= 0) & (local >= 0) & (local < D.shape[1])
    )
    if len(active):
        D[active, local[active]] = np.inf
