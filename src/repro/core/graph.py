"""The shared columnar neighborhood representation.

Section 7.4 separates *neighborhood materialization* from *scoring*;
this module is the materialized side of that split, factored out of the
individual surfaces so the whole repository shares ONE tie-inclusive
neighborhood layout:

* :class:`RowPrefixes` — rows sorted by ``(distance, id)`` in a padded
  ``(r, w)`` id/distance block, plus each row's neighborhood size: the
  Definition-4 neighborhood at any ``k`` is a prefix of its row. Every
  scoring kernel of :mod:`repro.core.scoring`, every scorer, the
  Theorem-1 bounds, top-n mining, online queries and the dirty-subset
  API read neighborhoods in this form;
* :class:`GridPrefixes` — the same block read at every MinPts of a grid
  at once (a ``(K, r)`` matrix of neighborhood sizes): how a served
  request reaches the scorers;
* :class:`NeighborhoodGraph` — the static columnar graph: padded
  ``(n, width)`` id/distance arrays covering every ``k <= k_max``,
  handing out :meth:`NeighborhoodGraph.prefixes` per ``k``. Built from
  padded arrays, from ragged rows, from an
  :class:`~repro.index.NNIndex` (one batch call, one query per object,
  or blocks of rows), or from CSR blocks (the blocked fast path);
* :class:`DynamicNeighborhoodGraph` — the mutable flavor for
  insert/delete workloads: per-row updates over a sparse integer handle
  space, and ``subview(handles)`` to pad any dirty subset into the same
  :class:`RowPrefixes` for the scoring kernels.

Every construction of a static graph increments the ``graph.builds``
obs counter, so pipelines can assert they share one graph instead of
silently rebuilding per surface.

Layering: ``index`` produces neighbor candidates, ``graph`` stores
them, ``scoring`` turns row prefixes into densities, and the user
surfaces (materialization, blocked, topn, range, incremental,
streaming, handshake, estimator, CLI) compose the three — see
``docs/architecture.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .._validation import check_data, check_min_pts
from ..exceptions import ValidationError
from ..index import make_index
from ..index.batch import pack_padded, scatter_padded
from ..index.brute import BLOCK_BYTES


@dataclass(frozen=True)
class RowPrefixes:
    """Tie-inclusive k-distance neighborhoods of a row set, read as prefixes.

    Rows are sorted by ``(distance, id)``, so row i's Definition-4
    neighborhood is the prefix ``ids[i, :counts[i]]`` /
    ``dists[i, :counts[i]]`` of its padded ``(r, w)`` row (pads are -1 /
    inf; entries past a prefix lie outside its segment and never reach
    a kernel's result). Over the raveled block row i's segment is
    ``starts[i]:stops[i]`` — the layout the scoring kernels take. The
    rows are a graph's objects (:meth:`NeighborhoodGraph.prefixes`),
    query points (online scoring) or a dirty subset
    (:meth:`DynamicNeighborhoodGraph.subview`).
    """

    ids: np.ndarray
    dists: np.ndarray
    counts: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.counts)

    @cached_property
    def starts(self) -> np.ndarray:
        return np.arange(len(self.counts), dtype=np.int64) * self.ids.shape[1]

    @cached_property
    def stops(self) -> np.ndarray:
        return self.starts + self.counts

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """(ids, dists) of row ``i``'s neighborhood."""
        return self.ids[i, : self.counts[i]], self.dists[i, : self.counts[i]]


class GridPrefixes:
    """Tie-inclusive neighborhoods of a row set at every MinPts of a grid.

    One padded ``(m, w)`` block sorted by ``(distance, id)``, as in
    :class:`RowPrefixes`, read at K radii per row: ``radii[j, i]`` is row
    i's k-distance at the grid's j-th MinPts and ``counts[j, i]`` the
    size of its Definition-4 neighborhood there, so that neighborhood is
    the prefix ``ids[i, :counts[j, i]]``. Online scoring builds one per
    request and scores every MinPts from it at once; the fit's step-2
    sweep reads M as one per tile (:meth:`NeighborhoodGraph.tiles`).

    The kernels take the grid as a stacked ``(K', m, w)`` block over a
    run of consecutive MinPts (:meth:`spans`, each run's floats within
    :data:`~repro.index.brute.BLOCK_BYTES`) whose segment ``(j, i)`` is
    row i's prefix at the run's j-th MinPts (:meth:`segments`).
    ``counts`` may be passed in; otherwise they are counted from the
    radii on first read (a scorer that reads only the radii never pays
    for them).
    """

    def __init__(
        self,
        ids: np.ndarray,
        dists: np.ndarray,
        radii: np.ndarray,
        counts: Optional[np.ndarray] = None,
    ):
        self.ids = ids
        self.dists = dists
        self.radii = radii
        if counts is not None:
            self.counts = counts

    @classmethod
    def from_radii(
        cls, ids: np.ndarray, dists: np.ndarray, radii: np.ndarray
    ) -> "GridPrefixes":
        """The view whose counts are ``#{c : dists[i, c] <= radii[j, i]}``,
        counted on first read."""
        return cls(ids, dists, radii)

    @cached_property
    def counts(self) -> np.ndarray:
        """One comparison of the sorted block against the radii per span."""
        counts = np.empty(self.radii.shape, dtype=np.int64)
        for span in self.spans():
            counts[span] = np.count_nonzero(
                self.dists <= self.radii[span, :, None], axis=2
            )
        return counts

    def at(self, j: int) -> RowPrefixes:
        """The rows at the grid's j-th MinPts alone."""
        return RowPrefixes(self.ids, self.dists, self.counts[j])

    def spans(self) -> List[slice]:
        """Runs of consecutive MinPts whose stacked float block stays
        within ``BLOCK_BYTES`` (at least one MinPts each)."""
        step = max(1, BLOCK_BYTES // (8 * max(1, self.ids.size)))
        return [slice(lo, lo + step) for lo in range(0, len(self.radii), step)]

    def segments(self, span: slice) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, stops)``, shaped like ``counts[span]``, of every
        neighborhood in the raveled ``(K', m, w)`` block of ``span``."""
        counts = self.counts[span]
        starts = np.arange(counts.size, dtype=np.int64).reshape(counts.shape)
        starts *= self.ids.shape[1]
        return starts, starts + counts

    def stacked(self, values: np.ndarray, span: slice) -> np.ndarray:
        """A row-block quantity such as ``dists`` repeated once per MinPts
        of ``span``: the flat ``(K', m, w)`` block :meth:`segments` indexes."""
        shape = (len(self.radii[span]),) + values.shape
        return np.broadcast_to(values, shape).reshape(-1)


def _prefix_lengths(dists: np.ndarray, radii: np.ndarray, k: int) -> np.ndarray:
    """``#{j : dists[i, j] <= radii[i]}`` per row of (distance, id)-sorted rows.

    Every radius reaches at least column ``k - 1``, so rows start at k;
    only rows whose tie run passes column ``k`` are binary-searched.
    """
    n, width = dists.shape
    counts = np.full(n, k, dtype=np.int64)
    if k == width:
        return counts
    rows = np.flatnonzero(dists[:, k] <= radii)
    if len(rows):
        row_dists = dists[rows]
        row_radii = radii[rows]
        pos = np.arange(len(rows))
        lo = np.full(len(rows), k + 1, dtype=np.int64)  # dists[lo - 1] <= radius
        hi = np.full(len(rows), width, dtype=np.int64)  # dists[hi] > radius, or end
        while np.any(lo < hi):
            mid = (lo + hi + 1) // 2
            inside = row_dists[pos, mid - 1] <= row_radii
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid - 1)
        counts[rows] = lo
    return counts


class NeighborhoodGraph:
    """Static columnar k-NN graph: one build, every ``k <= k_max``.

    Stores the tie-inclusive ``k_max``-distance neighborhood of each of
    ``n`` objects as padded ``(n, width)`` arrays (ids padded with -1,
    distances with inf), rows sorted by ``(distance, id)``. Per-k
    k-distance vectors are cached; every consumer reads the per-k
    neighborhoods as :meth:`prefixes` of the rows, so a MinPts sweep
    re-reads the columnar storage instead of the dataset.
    """

    def __init__(
        self,
        padded_ids: np.ndarray,
        padded_dists: np.ndarray,
        k_max: int,
    ):
        padded_ids = np.asarray(padded_ids, dtype=np.int64)
        padded_dists = np.asarray(padded_dists, dtype=np.float64)
        if padded_ids.ndim != 2 or padded_ids.shape != padded_dists.shape:
            raise ValidationError(
                "padded_ids and padded_dists must be 2-D arrays of the "
                f"same shape, got {padded_ids.shape} and {padded_dists.shape}"
            )
        k_max = int(k_max)
        if not 1 <= k_max <= padded_ids.shape[1]:
            raise ValidationError(
                f"k_max={k_max} must be in [1, {padded_ids.shape[1]}] "
                "(the padded row width)"
            )
        self.padded_ids = padded_ids
        self.padded_dists = padded_dists
        self.k_max = k_max
        self.n_points = padded_ids.shape[0]
        self.width = padded_ids.shape[1]
        self.row_lengths = (padded_ids >= 0).sum(axis=1)
        self._kdist_cache: Dict[int, np.ndarray] = {}
        obs.incr("graph.builds")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows_ids: Sequence[np.ndarray],
        rows_dists: Sequence[np.ndarray],
        k_max: int,
    ) -> "NeighborhoodGraph":
        """Pack ragged per-object (ids, dists) rows into the padded layout."""
        padded_ids, padded_dists, _ = _pad_rows(rows_ids, rows_dists)
        return cls(padded_ids, padded_dists, k_max=k_max)

    @classmethod
    def from_csr_blocks(
        cls,
        blocks: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        k_max: int,
    ) -> "NeighborhoodGraph":
        """Assemble a graph from row-contiguous CSR blocks.

        Each block is ``(flat_ids, flat_dists, counts)`` as produced by
        :func:`repro.index.batch.select_tie_inclusive`; blocks cover the
        object ids ``0..n-1`` in order. The global row width is known
        only once every block is in, so the padded output is allocated
        at its final size and each block scattered straight in.
        """
        n = sum(len(counts) for _, _, counts in blocks)
        width = max(int(counts.max()) for _, _, counts in blocks)
        padded_ids = np.full((n, width), -1, dtype=np.int64)
        padded_dists = np.full((n, width), np.inf, dtype=np.float64)
        row_start = 0
        for flat_ids, flat_dists, counts in blocks:
            scatter_padded(
                padded_ids, padded_dists, row_start, flat_ids, flat_dists, counts
            )
            row_start += len(counts)
        return cls(padded_ids, padded_dists, k_max=k_max)

    @classmethod
    def from_index(
        cls,
        X,
        k_max: int,
        index="brute",
        metric="euclidean",
    ) -> "NeighborhoodGraph":
        """Build step 1: every object's tie-inclusive k_max-neighborhood.

        Where the index's batch does less work than a query per object
        (:attr:`~repro.index.NNIndex.fast_batch`: the brute backend's
        box-pruned scan), one
        :meth:`~repro.index.NNIndex.query_batch_with_ties` call over the
        whole dataset, each object excluding itself; otherwise one
        :meth:`~repro.index.NNIndex.query_with_ties` per object. Both
        give the same rows bit for bit. ``index`` may be a registry
        name, an :class:`~repro.index.NNIndex` class, or a fitted/unfitted
        instance.
        """
        X = check_data(X, min_rows=2)
        n = X.shape[0]
        k_max = check_min_pts(k_max, n, name="k_max")
        nn_index = resolve_index(index, metric, X)
        if nn_index.fast_batch:
            padded_ids, padded_dists = nn_index.query_batch_with_ties(
                X, k_max, exclude=np.arange(n)
            )
            return cls(padded_ids, padded_dists, k_max=k_max)
        hoods = [nn_index.query_with_ties(X[i], k_max, exclude=i) for i in range(n)]
        return cls.from_rows([h.ids for h in hoods], [h.distances for h in hoods], k_max=k_max)

    @classmethod
    def from_index_batched(
        cls,
        X,
        k_max: int,
        index="brute",
        metric="euclidean",
        block_size: int = 512,
    ) -> "NeighborhoodGraph":
        """Build through the batched index front door.

        One :meth:`~repro.index.NNIndex.query_batch_with_ties` call per
        ``block_size`` query rows — O(n / block_size) front-door
        crossings with neighbor sets identical to :meth:`from_index`.
        """
        X = check_data(X, min_rows=2)
        n = X.shape[0]
        k_max = check_min_pts(k_max, n, name="k_max")
        if block_size < 1:
            raise ValidationError(f"block_size must be >= 1, got {block_size}")
        nn_index = resolve_index(index, metric, X)
        bounds = [(s, min(s + block_size, n)) for s in range(0, n, block_size)]
        blocks = [
            nn_index.query_batch_with_ties(
                X[start:stop], k_max, exclude=np.arange(start, stop)
            )
            for start, stop in bounds
        ]
        width = max(ids.shape[1] for ids, _ in blocks)
        padded_ids = np.full((n, width), -1, dtype=np.int64)
        padded_dists = np.full((n, width), np.inf, dtype=np.float64)
        for (start, stop), (ids, dists) in zip(bounds, blocks):
            padded_ids[start:stop, : ids.shape[1]] = ids
            padded_dists[start:stop, : dists.shape[1]] = dists
        return cls(padded_ids, padded_dists, k_max=k_max)

    # -- per-k access ---------------------------------------------------------

    def k_distances(self, k: int) -> np.ndarray:
        """Definition 3 for every object, straight off the columns."""
        k = self._check_k(k)
        if k not in self._kdist_cache:
            self._kdist_cache[k] = self.padded_dists[:, k - 1].copy()
        return self._kdist_cache[k]

    def prefixes(self, k: int, kdist: Optional[np.ndarray] = None) -> RowPrefixes:
        """Every object's k-distance neighborhood as a prefix of its row.

        ``kdist`` overrides the per-object cutoff radii (the
        k-*distinct*-distance duplicate policy's radii exceed the plain
        k-distances). The ids and distances are views of the padded
        arrays cut at the widest prefix: nothing is copied or cached.
        """
        k = self._check_k(k)
        radii = (
            self.k_distances(k) if kdist is None
            else np.asarray(kdist, dtype=np.float64)
        )
        counts = _prefix_lengths(self.padded_dists, radii, k)
        width = int(counts.max())
        return RowPrefixes(
            ids=self.padded_ids[:, :width],
            dists=self.padded_dists[:, :width],
            counts=counts,
        )

    def prefix_counts(self, ks: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """``(K, n)`` neighborhood sizes at each MinPts of ``ks`` within
        the ``(K, n)`` cutoff ``radii``: row j holds the counts
        :meth:`prefixes` gives at ``ks[j]``."""
        return np.stack([
            _prefix_lengths(self.padded_dists, r, int(k)) for k, r in zip(ks, radii)
        ])

    def tiles(
        self, radii: np.ndarray, counts: np.ndarray
    ) -> Iterator[Tuple[slice, GridPrefixes]]:
        """Every object's neighborhoods at a run of MinPts, in row blocks.

        ``radii`` and ``counts`` are ``(K', n)``, one row per MinPts of
        the run. Each block of rows is yielded with its
        :class:`GridPrefixes`: views of the padded arrays cut at the
        block's widest prefix (no copy of M), and the block's radii and
        counts. A block holds as many rows as keep its stacked
        ``(K', b, w)`` floats within :data:`~repro.index.brute.BLOCK_BYTES`
        at the run's widest prefix (at least one row).
        """
        n_ks, n = counts.shape
        step = max(1, BLOCK_BYTES // (8 * n_ks * int(counts.max())))
        for lo in range(0, n, step):
            rows = slice(lo, min(lo + step, n))
            width = int(counts[:, rows].max())
            yield rows, GridPrefixes(
                self.padded_ids[rows, :width],
                self.padded_dists[rows, :width],
                radii[:, rows],
                counts[:, rows],
            )

    def neighborhood_of(
        self, i: int, k: int, radius: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ids and distances of N_k(i), sorted by (distance, id): the
        prefix of row i within ``radius`` (default: its k-distance)."""
        i = int(i)
        k = self._check_k(k)
        if radius is None:
            radius = self.padded_dists[i, k - 1]
        dists = self.padded_dists[i : i + 1]
        count = _prefix_lengths(dists, np.array([radius], dtype=np.float64), k)[0]
        return self.padded_ids[i, :count], self.padded_dists[i, :count]

    # -- misc -----------------------------------------------------------------

    def size_in_records(self) -> int:
        """Stored (id, distance) records — n·k_max plus tie overhang."""
        return int(self.row_lengths.sum())

    def _check_k(self, k: int) -> int:
        k = check_min_pts(k, self.n_points)
        if k > self.k_max:
            raise ValidationError(
                f"k={k} exceeds the materialized bound k_max={self.k_max}; "
                "rebuild the graph with a larger bound"
            )
        return k

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NeighborhoodGraph(n={self.n_points}, k_max={self.k_max}, "
            f"records={self.size_in_records()})"
        )


class DynamicNeighborhoodGraph:
    """Mutable neighborhood rows over a sparse integer id space.

    The incremental/streaming engines maintain one of these: each row is
    the tie-inclusive k-distance neighborhood of a live object (ids are
    the engine's reusable window slots), k-distances live in a dense
    array indexed by id, and ``subview(ids)`` pads any dirty subset into
    :class:`RowPrefixes` for the vectorized scoring kernels — replacing
    per-object Python dict math with the batch kernels.
    """

    def __init__(self, k: int):
        self.k = int(k)
        self._ids: Dict[int, np.ndarray] = {}
        self._dists: Dict[int, np.ndarray] = {}
        self._kdist = np.full(0, np.nan, dtype=np.float64)

    # -- mutation -------------------------------------------------------------

    def set_row(self, handle: int, ids, dists, kdist: float) -> None:
        """Insert or replace one object's neighborhood row."""
        handle = int(handle)
        self._ids[handle] = np.asarray(ids, dtype=np.int64)
        self._dists[handle] = np.asarray(dists, dtype=np.float64)
        if handle >= len(self._kdist):
            grown = np.full(max(handle + 1, 2 * len(self._kdist) + 1), np.nan)
            grown[: len(self._kdist)] = self._kdist
            self._kdist = grown
        self._kdist[handle] = float(kdist)

    def drop_row(self, handle: int) -> None:
        """Delete one object's row (no-op if absent)."""
        handle = int(handle)
        self._ids.pop(handle, None)
        self._dists.pop(handle, None)
        if handle < len(self._kdist):
            self._kdist[handle] = np.nan

    def clear(self) -> None:
        self._ids.clear()
        self._dists.clear()
        self._kdist[:] = np.nan

    # -- access ---------------------------------------------------------------

    def __contains__(self, handle: int) -> bool:
        return int(handle) in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def rows(self):
        """Live handles, ascending."""
        return sorted(self._ids)

    def row(self, handle: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._ids[int(handle)], self._dists[int(handle)]

    def kdist_of(self, handle: int) -> float:
        return float(self._kdist[int(handle)])

    def kdist_values(self, ids: np.ndarray) -> np.ndarray:
        """Dense k-distance lookup by handle (kernel-facing)."""
        return self._kdist[np.asarray(ids, dtype=np.int64)]

    def subview(self, rows) -> RowPrefixes:
        """The rows of ``handles``, in order, padded into one block."""
        handles = [int(h) for h in rows]
        return RowPrefixes(
            *_pad_rows(
                [self._ids[h] for h in handles], [self._dists[h] for h in handles]
            )
        )


def _pad_rows(
    rows_ids: Sequence[np.ndarray], rows_dists: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ragged (ids, dists) rows as padded ``(len(rows), width)`` arrays
    (ids padded with -1, distances with inf), plus the row lengths."""
    counts = np.array([len(r) for r in rows_ids], dtype=np.int64)
    if not len(counts):
        empty = np.empty((0, 0))
        return empty.astype(np.int64), empty, counts
    ids, dists = pack_padded(
        np.concatenate(rows_ids), np.concatenate(rows_dists), counts
    )
    return ids, dists, counts


def resolve_index(index, metric, X):
    """Shared fit-or-validate dance for index name/class/instance inputs."""
    nn_index = make_index(index, metric=metric)
    if not nn_index.is_fitted:
        nn_index.fit(X)
    elif nn_index.n_points != X.shape[0]:
        raise ValidationError("a pre-fitted index must be fitted on the same dataset")
    return nn_index
