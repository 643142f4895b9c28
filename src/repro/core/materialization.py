"""The materialization database M and the two-step LOF algorithm.

Section 7.4 of the paper describes the production algorithm:

    *Step 1* — for every object p, materialize its MinPtsUB-nearest
    neighborhood (neighbor ids and distances) into a database M of size
    n · MinPtsUB. This is the only step that touches the raw vectors, and
    its cost is n times the cost of one k-NN query against the chosen
    access method.

    *Step 2* — for every MinPts value in [MinPtsLB, MinPtsUB], scan M
    twice: the first scan computes every object's local reachability
    density (Definition 6), the second computes the LOF values
    (Definition 7). The original database D is not needed. Each scan is
    O(n).

:class:`MaterializationDB` is that database M — since the columnar
refactor, a thin *policy layer*: neighborhood storage lives in
:class:`~repro.core.graph.NeighborhoodGraph`, all lrd/LOF arithmetic in
the :mod:`~repro.core.scoring` kernels, and this class adds the
duplicate-mode policy, the per-MinPts tables and persistence metadata
on top.

k-distance, lrd and LOF are each one ``(MinPtsUB, n)`` table whose row
``k - 1`` holds MinPts k once computed; :meth:`~MaterializationDB.lrd`,
:meth:`~MaterializationDB.lof` and the grid accessors hand out rows or
views of them. Step 2 fills a whole grid at once, in tiles: a run of
consecutive MinPts × a block of M's rows, within
:data:`~repro.index.brute.BLOCK_BYTES`. A tile reads its rows' ids and
distances as views of M cut at the run's widest neighborhood (a MinPts
neighborhood is a prefix of its (distance, id)-sorted row, so no copy
of M is built or kept) and runs the scoring kernels over its
``(K', b)`` grid of segments. Each segment holds the values a scan at
that MinPts alone would reduce, in the same order, so the bits do not
depend on the tiling. The two scans of each MinPts stay two scans: the
lrd of a run is finished for every object before its LOF scan reads it.

Tie semantics follow Definition 4: the k-distance neighborhood contains
*every* object at distance not greater than the k-distance, so rows can
be longer than MinPtsUB and per-k neighborhoods longer than k.

Duplicate handling (the remark after Definition 6) is a per-database
mode:

``"inf"``
    the paper's plain definition; MinPts-fold duplicates produce
    lrd = inf, and LOF ratios use the convention inf/inf := 1 so scores
    remain well-defined;
``"distinct"``
    the paper's proposed fix: neighborhoods are based on the
    k-*distinct*-distance, the smallest radius containing k neighbors
    with mutually different spatial coordinates, which keeps every lrd
    finite;
``"error"``
    raise :class:`DuplicatePointsError` when an infinite lrd would arise.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .._validation import check_data, check_min_pts
from ..exceptions import ValidationError
from ..index import NNIndex
from ..index.brute import BLOCK_BYTES
from . import scoring
from .duplicates import distinct_steps, ensure_distinct_coverage
from .graph import NeighborhoodGraph, RowPrefixes, resolve_index

_DUPLICATE_MODES = ("inf", "distinct", "error")


def _check_duplicate_mode(duplicate_mode: str) -> str:
    if duplicate_mode not in _DUPLICATE_MODES:
        raise ValidationError(
            f"duplicate_mode must be one of {_DUPLICATE_MODES}, got {duplicate_mode!r}"
        )
    return duplicate_mode


def _check_policy(duplicate_mode: str, coord_keys) -> None:
    _check_duplicate_mode(duplicate_mode)
    if duplicate_mode == "distinct" and coord_keys is None:
        raise ValidationError("duplicate_mode='distinct' requires coord_keys")


def _coord_keys_for(X: np.ndarray) -> np.ndarray:
    """Exact-coordinate group keys for the 'distinct' duplicate policy."""
    _, coord_keys = np.unique(X, axis=0, return_inverse=True)
    coord_keys = coord_keys.astype(np.int64)
    if np.max(np.bincount(coord_keys)) == X.shape[0]:
        raise ValidationError(
            "all points are identical; no distinct neighborhood exists"
        )
    return coord_keys


class _KTable:
    """One per-MinPts quantity: a ``(min_pts_ub, ...)`` float table whose
    row ``k - 1`` holds MinPts k once ``filled``.

    A new table is zeros (paged in only where written), so rows never
    computed stay zero and a save writes the same bytes for the same
    computed MinPts. A table adopted from a memory-mapped store is
    read-only; the first write copies it. :meth:`row` hands out the same
    view of a row on every call until such a copy.
    """

    def __init__(self, values: np.ndarray, filled: Optional[np.ndarray] = None):
        self.values = values
        self.filled = np.zeros(len(values), dtype=bool) if filled is None else filled
        self._views: List[Optional[np.ndarray]] = [None] * len(values)

    def row(self, k: int) -> np.ndarray:
        view = self._views[k - 1]
        if view is None:
            view = self._views[k - 1] = self.values[k - 1, ...]
        return view

    def rows(self, ks: np.ndarray) -> np.ndarray:
        """The rows of ``ks``: a view when ``ks`` is a run of consecutive
        MinPts, else a copy."""
        lo = int(ks[0]) - 1
        if np.array_equal(ks, np.arange(lo + 1, lo + 1 + len(ks))):
            return self.values[lo : lo + len(ks)]
        return self.values[ks - 1]

    def writable(self) -> np.ndarray:
        if not self.values.flags.writeable:
            self.values = self.values.copy()
            self._views = [None] * len(self.values)
        return self.values

    def write(self, ks: np.ndarray, values: np.ndarray) -> None:
        self.writable()[ks - 1] = values
        self.filled[ks - 1] = True


def _sorted_set(ks: np.ndarray) -> np.ndarray:
    # Not np.unique: its first call imports numpy.ma (20-40 ms), which a
    # served model would pay on its first request.
    return np.array(sorted(set(ks.tolist())), dtype=np.int64)


def _runs(ks: np.ndarray) -> List[np.ndarray]:
    """Sorted MinPts cut into the runs that one tile spans.

    A run from ``k0`` takes the MinPts up to ``k0 + k0 // 8``, so its
    widest prefixes exceed its narrowest by about an eighth (ties
    aside), and no more of them than one row of each fits in
    :data:`~repro.index.brute.BLOCK_BYTES`.
    """
    runs = []
    lo = 0
    while lo < len(ks):
        k0 = int(ks[lo])
        reach = k0 + k0 // 8
        size = min(len(ks) - lo, max(1, BLOCK_BYTES // (8 * reach)))
        hi = min(lo + size, int(np.searchsorted(ks, reach, side="right")))
        runs.append(ks[lo:hi])
        lo = hi
    return runs


class MaterializationDB:
    """The neighborhood materialization database M of Section 7.4.

    Build it once with :meth:`materialize` (or the module-level
    :func:`materialize` convenience) for the largest MinPts value you
    intend to use, then query LOF statistics for any smaller MinPts
    without touching the original vectors again.

    Attributes
    ----------
    n_points, min_pts_ub, duplicate_mode : as constructed.
    graph : the underlying :class:`~repro.core.graph.NeighborhoodGraph`
        holding the columnar neighborhood storage.
    padded_ids, padded_dists : (n, L) arrays padded with -1 / +inf; row i
        holds the tie-inclusive ``min_pts_ub``-distance neighborhood of
        object i sorted by (distance, id). The arrays of ``graph``.
    """

    def __init__(
        self,
        padded_ids: np.ndarray,
        padded_dists: np.ndarray,
        min_pts_ub: int,
        duplicate_mode: str = "inf",
        coord_keys: Optional[np.ndarray] = None,
    ):
        _check_policy(duplicate_mode, coord_keys)
        self._setup(
            NeighborhoodGraph(padded_ids, padded_dists, k_max=min_pts_ub),
            duplicate_mode,
            coord_keys,
        )

    @classmethod
    def from_graph(
        cls,
        graph: NeighborhoodGraph,
        duplicate_mode: str = "inf",
        coord_keys: Optional[np.ndarray] = None,
        tables: Optional[Dict[str, Tuple[np.ndarray, np.ndarray]]] = None,
    ) -> "MaterializationDB":
        """Wrap a prebuilt neighborhood graph in the database policy layer.

        ``tables`` (as :meth:`tables` returns them) are adopted as the
        per-MinPts tables, without a copy: how :mod:`repro.store` loads
        a model."""
        _check_policy(duplicate_mode, coord_keys)
        db = cls.__new__(cls)
        db._setup(graph, duplicate_mode, coord_keys, tables)
        return db

    def _setup(
        self, graph: NeighborhoodGraph, duplicate_mode: str, coord_keys, tables=None
    ) -> None:
        self.graph = graph
        self.min_pts_ub = graph.k_max
        self.duplicate_mode = duplicate_mode
        self.coord_keys = coord_keys
        self.n_points = graph.n_points
        self._scorer_state: Dict[str, object] = {}
        self._tables = {
            name: _KTable(values, np.array(filled, dtype=bool))
            for name, (values, filled) in (tables or {}).items()
        }
        if tables is None:
            # A new database allocates its tables up front, so a sweep's
            # peak memory is its own temporaries.
            self._kdist = self._new_table()
        self._lrd, self._lof = self._table("lrd"), self._table("lof")

    def _new_table(self, row_shape=None) -> _KTable:
        row_shape = (self.n_points,) if row_shape is None else row_shape
        return _KTable(np.zeros((self.min_pts_ub, *row_shape)))

    @cached_property
    def _kdist(self) -> _KTable:
        # Not persisted: a loaded database derives k-distances from M.
        return self._new_table()

    def _table(self, name: str, row_shape=None) -> _KTable:
        """The per-MinPts table ``name``, created on first use with rows
        of ``row_shape`` (default ``(n_points,)``)."""
        if name not in self._tables:
            self._tables[name] = self._new_table(row_shape)
        return self._tables[name]

    # -- columnar storage (delegated to the graph) ---------------------------

    @property
    def padded_ids(self) -> np.ndarray:
        return self.graph.padded_ids

    @property
    def padded_dists(self) -> np.ndarray:
        return self.graph.padded_dists

    # -- construction --------------------------------------------------------

    @classmethod
    def materialize(
        cls,
        X,
        min_pts_ub: int,
        index="brute",
        metric="euclidean",
        duplicate_mode: str = "inf",
    ) -> "MaterializationDB":
        """Step 1 of the two-step algorithm: build M from dataset ``X``.

        Every object's tie-inclusive MinPtsUB-neighborhood, the paper's
        step 1, from one :meth:`~repro.index.NNIndex.query_batch_with_ties`
        call (:meth:`NeighborhoodGraph.from_index`); its rows equal one
        :meth:`~repro.index.NNIndex.query_with_ties` per object. ``index``
        may be a registry name ('brute', 'grid', 'kdtree', 'balltree',
        'rstar', 'xtree', 'vafile'), an :class:`NNIndex` class, or a
        fitted/unfitted instance. On 'brute' the box-pruned scan computes
        each distance with the same subtraction and row kernel as the
        ``Metric.pairwise_to_point`` the online scorer uses for novel
        points, so served and fitted values agree bit for bit. Under
        ``duplicate_mode='distinct'`` the same rows are cut at each
        object's k-distinct-distance, and only the rows that cover fewer
        than MinPtsUB distinct locations are queried again
        (:func:`~repro.core.duplicates.ensure_distinct_coverage`).
        """
        X = check_data(X, min_rows=2)
        n = X.shape[0]
        ub = check_min_pts(min_pts_ub, n, name="min_pts_ub")
        _check_duplicate_mode(duplicate_mode)
        with obs.span("materialize.query_loop"):
            nn_index = resolve_index(index, metric, X)
            graph = NeighborhoodGraph.from_index(X, ub, index=nn_index)
            coord_keys = None
            if duplicate_mode == "distinct":
                coord_keys = _coord_keys_for(X)
                graph = _distinct_graph(graph, nn_index, coord_keys, ub)
        return cls.from_graph(
            graph, duplicate_mode=duplicate_mode, coord_keys=coord_keys
        )

    @classmethod
    def materialize_batched(
        cls,
        X,
        min_pts_ub: int,
        index="brute",
        metric="euclidean",
        block_size: int = 512,
        duplicate_mode: str = "inf",
    ) -> "MaterializationDB":
        """Step 1 through the batched index front door.

        Issues one :meth:`~repro.index.NNIndex.query_batch_with_ties`
        call per block of ``block_size`` query rows instead of one over
        all objects — O(n / block_size) front-door crossings, and on the
        brute backend a few distance kernel invocations per block. On
        every backend the graph is identical to :meth:`materialize`'s,
        distances included, bit for bit: each block runs the same batch
        query, and the brute backend's pruned scan evaluates the same
        pairs for a row whatever block of at least ``PRUNE_ROWS`` rows
        it is in (a smaller block takes the per-row scan, same bits).
        (It is not bit-identical to
        :func:`~repro.core.blocked.fast_materialize`, whose expanded
        BLAS distances differ by ulps on non-integer data.)
        ``duplicate_mode='distinct'`` goes through the same repair as
        :meth:`materialize`, so the bits agree in every duplicate mode.
        Library code only: the estimator and the CLI build M with
        :meth:`materialize`.
        """
        X = check_data(X, min_rows=2)
        n = X.shape[0]
        ub = check_min_pts(min_pts_ub, n, name="min_pts_ub")
        _check_duplicate_mode(duplicate_mode)
        with obs.span("materialize.batched"):
            nn_index = resolve_index(index, metric, X)
            graph = NeighborhoodGraph.from_index_batched(
                X, ub, index=nn_index, block_size=block_size
            )
            coord_keys = None
            if duplicate_mode == "distinct":
                coord_keys = _coord_keys_for(X)
                graph = _distinct_graph(graph, nn_index, coord_keys, ub)
        return cls.from_graph(
            graph, duplicate_mode=duplicate_mode, coord_keys=coord_keys
        )

    # -- Definition 3: k-distance ---------------------------------------------

    def k_distances(self, min_pts: int) -> np.ndarray:
        """The MinPts-distance of every object (Definition 3), from M: a
        row of the k-distance table."""
        k = self._check_k(min_pts)
        if not self._kdist.filled[k - 1]:
            self._fill_k_distances(np.array([k]))
        return self._kdist.row(k)

    def k_distance_table(self, ks: Sequence[int]) -> np.ndarray:
        """``(K, n)`` k-distances at every MinPts of ``ks``, one row each:
        rows of the k-distance table (a view when ``ks`` is a run of
        consecutive MinPts)."""
        ks = self._check_ks(ks)
        self._fill_k_distances(_sorted_set(ks))
        return self._kdist.rows(ks)

    def _fill_k_distances(self, ks: np.ndarray) -> None:
        todo = ks[~self._kdist.filled[ks - 1]]
        if not len(todo):
            return
        if self.duplicate_mode == "distinct":
            for k in todo:
                self._kdist.write(k, self._distinct_k_distances(int(k)))
        else:
            self._kdist.write(todo, self.padded_dists[:, todo - 1].T)

    @cached_property
    def _distinct_steps(self) -> Tuple[np.ndarray, np.ndarray]:
        return distinct_steps(self.padded_ids, self.padded_dists, self.coord_keys)

    def _distinct_k_distances(self, k: int) -> np.ndarray:
        steps, offsets = self._distinct_steps
        short = np.flatnonzero(np.diff(offsets) < k)
        if len(short):
            raise ValidationError(
                f"materialized rows do not cover {k} distinct locations "
                f"for object {short[0]}; re-materialize with duplicate_mode='distinct'"
            )
        return steps[offsets[:-1] + (k - 1)]

    # -- Definition 4: neighborhoods (row prefixes of M) ------------------------

    def prefixes(self, min_pts: int) -> RowPrefixes:
        """Every object's MinPts-distance neighborhood as a prefix of its
        row of M — every scorer's input. Under the 'distinct' policy the
        cutoff radii are the k-distinct-distances rather than the plain
        k-distances."""
        k = self._check_k(min_pts)
        return self.graph.prefixes(k, kdist=self.k_distances(k))

    def neighborhood_of(self, i: int, min_pts: int) -> Tuple[np.ndarray, np.ndarray]:
        """Ids and distances of N_MinPts(i), sorted by (distance, id):
        the prefix of row i."""
        k = self._check_k(min_pts)
        i = int(i)
        return self.graph.neighborhood_of(i, k, radius=self.k_distances(k)[i])

    # -- Definitions 5-7: step 2, the sweep of M ---------------------------------

    def lrd(self, min_pts: int) -> np.ndarray:
        """Local reachability density of every object (Definition 6):
        a row of the lrd table, filled by step 2's first scan of M."""
        k = self._check_k(min_pts)
        if not self._lrd.filled[k - 1]:
            self._sweep(np.array([k]), lof=False)
        return self._lrd.row(k)

    def lof(self, min_pts: int) -> np.ndarray:
        """Local outlier factor of every object (Definition 7): a row of
        the LOF table, filled by step 2's second scan of M. Ratio
        convention for duplicate-heavy data in mode 'inf': inf/inf := 1,
        finite/inf := 0.

        Rows stay in the tables, so a repeated call — e.g. the Section
        6.2 max-LOF sweep revisiting a value — reads M zero additional
        times; ``mscan.passes`` counts only MinPts not yet computed.
        """
        k = self._check_k(min_pts)
        if not self._lof.filled[k - 1]:
            self._sweep(np.array([k]), lof=True)
        return self._lof.row(k)

    def lrd_table(self, ks: Sequence[int]) -> np.ndarray:
        """``(K, n)`` lrd at every MinPts of ``ks``: rows of the lrd table
        (a view when ``ks`` is a run of consecutive MinPts), the missing
        ones filled in one tiled sweep."""
        ks = self._check_ks(ks)
        self._sweep(_sorted_set(ks), lof=False)
        return self._lrd.rows(ks)

    def lof_table(self, ks: Sequence[int]) -> np.ndarray:
        """``(K, n)`` LOF at every MinPts of ``ks``: rows of the LOF table
        (a view when ``ks`` is a run of consecutive MinPts), the missing
        ones filled in one tiled sweep — Section 6.2's grid as one
        request."""
        ks = self._check_ks(ks)
        self._sweep(_sorted_set(ks), lof=True)
        return self._lof.rows(ks)

    def lof_range(self, min_pts_lb: int, min_pts_ub: int) -> Dict[int, np.ndarray]:
        """LOF vectors for every MinPts in [lb, ub] (Section 6.2 sweep)."""
        lb = self._check_k(min_pts_lb)
        ub = self._check_k(min_pts_ub)
        if lb > ub:
            raise ValidationError(f"min_pts_lb={lb} exceeds min_pts_ub={ub}")
        self.lof_table(range(lb, ub + 1))
        return {k: self._lof.row(k) for k in range(lb, ub + 1)}

    def _sweep(self, ks: np.ndarray, lof: bool) -> None:
        """Step 2 at every MinPts of the sorted ``ks`` not in the tables.

        The grid is cut into runs of consecutive MinPts (:func:`_runs`)
        and each run's scans into row blocks
        (:meth:`NeighborhoodGraph.tiles`): a tile reads its rows'
        prefixes of M only up to the widest neighborhood of its run.
        Scan 1 fills the run's lrd rows for every object; scan 2 (with
        ``lof``) then reads them from the table for the LOF rows. Each
        scan counts one ``mscan.passes`` per MinPts.
        """
        todo = ~self._lrd.filled[ks - 1]
        if lof:
            todo |= ~self._lof.filled[ks - 1]
        for run in _runs(ks[todo]):
            self._fill_k_distances(run)
            radii = self._kdist.rows(run)
            counts = self.graph.prefix_counts(run, radii)
            self._scan(run, radii, counts, self._lrd)
            if lof:
                self._scan(run, radii, counts, self._lof)

    def _scan(self, ks, radii, counts, table: _KTable) -> None:
        """One scan of M at every MinPts of the run ``ks`` whose row of
        ``table`` is missing, tile by tile: reach-dists and lrd into the
        lrd table, or lrd ratios and LOF into the LOF table.

        Each tile gathers a neighbor quantity at its ``(b, w)`` id view
        into a ``(K', b, w)`` block carved from one reused buffer; pads
        (-1) gather with ``mode='clip'`` and sit outside every segment.
        Every segment holds the values of one Definition-4 neighborhood
        in row order, so the kernels give the bits of a scan per MinPts.
        """
        need = ~table.filled[ks - 1]
        if not need.any():
            return
        if not need.all():
            ks, radii, counts = ks[need], radii[need], counts[need]
        obs.incr("mscan.passes", len(ks))
        scan_lof = table is self._lof
        source = self._lrd.rows(ks) if scan_lof else radii
        out = table.writable()
        buf = np.empty(BLOCK_BYTES // 8)
        for rows, grid in self.graph.tiles(radii, counts):
            shape = grid.counts.shape + (grid.ids.shape[1],)
            size = math.prod(shape)
            if buf.size < size:
                buf = np.empty(size)
            block = buf[:size].reshape(shape)
            np.take(source, grid.ids, axis=1, out=block, mode="clip")
            starts, stops = grid.segments(slice(None))
            if scan_lof:
                values = scoring.lof_values(
                    source[:, rows], block, starts, stops, ratio_out=block
                )
            else:
                reach = scoring.reach_dist_values(grid.dists, block, out=block)
                values = scoring.lrd_values(reach.reshape(-1), starts, stops)
            out[ks - 1, rows] = values
        if not scan_lof and self.duplicate_mode == "error":
            scoring.check_finite_lrd(out[ks - 1])
        table.filled[ks - 1] = True

    # -- the scorer registry (repro.scorers) -----------------------------------

    def _scorer_context(self, k: int, X=None, metric=None):
        from ..scorers import ScorerContext

        if X is not None:
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2 or X.shape[0] != self.n_points:
                raise ValidationError(
                    f"dataset snapshot X must be 2-D with {self.n_points} "
                    f"rows to match this materialization"
                )
        metric_obj = None
        if metric is not None:
            from ..index import get_metric

            metric_obj = get_metric(metric)
        return ScorerContext(mat=self, k=k, X=X, metric=metric_obj)

    def _fit_scorer(self, scorer, min_pts: int, X=None, metric=None):
        """``(scorer, k, score table)`` with MinPts k filled in the
        scorer's score table (LOF's is the LOF table) and in one aux
        table per aux array it returns (rows shaped like the array)."""
        from ..scorers import get_scorer

        scorer, k = get_scorer(scorer), self._check_k(min_pts)
        name = "lof" if scorer.name == "lof" else f"score@{scorer.name}"
        if name not in self._tables or not self._tables[name].filled[k - 1]:
            vec, aux = scorer.fit(self._scorer_context(k, X=X, metric=metric))
            rows = {f"aux@{scorer.name}@{a}": v for a, v in aux.items()}
            for tname, value in {**rows, name: vec}.items():
                value = np.asarray(value, dtype=np.float64)
                table = self._table(tname, value.shape)
                if not table.filled[k - 1]:
                    table.write(k, value)
        return scorer, k, self._tables[name]

    def scores(self, min_pts: int, scorer="lof", X=None, metric=None) -> np.ndarray:
        """Per-object scores of any registered scorer (Section 7.4 step 2,
        generalized): a row of its score table, computed from the one
        materialized neighborhood graph — for ``'lof'``, :meth:`lof`
        itself. Scorers with ``requires_data`` (LDOF) additionally need
        the dataset snapshot ``X`` and the ``metric``.
        """
        _, k, table = self._fit_scorer(scorer, min_pts, X=X, metric=metric)
        return table.row(k)

    def scorer_aux(self, scorer, min_pts: int, X=None, metric=None) -> Dict[str, np.ndarray]:
        """The aux arrays a scorer persists for its query path (for
        example LoOP's per-object pdist vector and nPLOF scalar), by
        name: rows of its aux tables, filled alongside :meth:`scores`."""
        scorer, k, _ = self._fit_scorer(scorer, min_pts, X=X, metric=metric)
        prefix = f"aux@{scorer.name}@"
        return {
            name[len(prefix) :]: table.row(k)
            for name, table in self._tables.items()
            if name.startswith(prefix)
        }

    def score_table(
        self, ks: Sequence[int], scorer="lof", X=None, metric=None, aux=None
    ) -> np.ndarray:
        """Rows of a scorer's score table (or, with ``aux``, of its aux
        table of that name) at every MinPts of ``ks``, the missing ones
        fitted: a read-only view when ``ks`` is a run, else a copy."""
        ks = self._check_ks(ks)
        for k in _sorted_set(ks):
            scorer, _, table = self._fit_scorer(scorer, k, X=X, metric=metric)
        if aux is not None:
            table = self._tables[f"aux@{scorer.name}@{aux}"]
        matrix = table.rows(ks).view()
        matrix.flags.writeable = False
        return matrix

    def scorer_state(self, scorer_name: str, build):
        """State a scorer derives from the rows of M once and reads at
        every MinPts (LDOF's prefix inner sums): ``build()`` on first
        use, cached like the lrd vectors, but never persisted."""
        if scorer_name not in self._scorer_state:
            self._scorer_state[scorer_name] = build()
        return self._scorer_state[scorer_name]

    # -- persistence (repro.store) ----------------------------------------------

    def tables(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Every per-MinPts table but k-distance with a filled row, in
        name order (``lrd``, ``lof``, ``score@{scorer}``,
        ``aux@{scorer}@{name}``), as its values and filled-row mask:
        what a save writes and :meth:`from_graph` adopts on load."""
        return {
            name: (table.values, table.filled)
            for name, table in sorted(self._tables.items())
            if table.filled.any()
        }

    def save(self, path, X=None, metric="euclidean"):
        """Persist M (plus an optional dataset snapshot ``X`` for online
        scoring) via :func:`repro.store.save_model`."""
        from ..store import save_model

        return save_model(path, self, X=X, metric=metric)

    @classmethod
    def load(cls, path, mmap: bool = False, verify: bool = True) -> "MaterializationDB":
        """Reload a persisted M; answers every MinPts <= its bound
        exactly as the original did (estimator stores load fine too —
        their embedded materialization is returned)."""
        from ..store import load_model

        return load_model(path, mmap=mmap, verify=verify).mat

    # -- misc -------------------------------------------------------------------

    def size_in_records(self) -> int:
        """Number of (id, distance) records stored — the paper's n·MinPtsUB
        figure, plus any tie overhang."""
        return self.graph.size_in_records()

    def _check_ks(self, ks: Sequence[int]) -> np.ndarray:
        ks = np.array([self._check_k(int(k)) for k in ks], dtype=np.int64)
        if not len(ks):
            raise ValidationError("a MinPts grid needs at least one value")
        return ks

    def _check_k(self, min_pts: int) -> int:
        k = check_min_pts(min_pts, self.n_points)
        if k > self.min_pts_ub:
            raise ValidationError(
                f"min_pts={k} exceeds the materialized bound "
                f"min_pts_ub={self.min_pts_ub}; re-materialize with a larger bound"
            )
        return k

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MaterializationDB(n={self.n_points}, min_pts_ub={self.min_pts_ub}, "
            f"records={self.size_in_records()}, mode={self.duplicate_mode!r})"
        )


def _distinct_graph(
    graph: NeighborhoodGraph,
    nn_index: NNIndex,
    coord_keys: np.ndarray,
    k: int,
) -> NeighborhoodGraph:
    """``graph`` (the tie-inclusive k-NN row of every point ``nn_index``
    is fitted on) cut at the k-distinct-distance, short rows re-queried
    through the index; a row short at ``n - 1`` neighbors raises."""

    def probe_rows(rows: np.ndarray, probe: int):
        return nn_index.query_batch_with_ties(nn_index.data[rows], probe, exclude=rows)

    ids, dists, short = ensure_distinct_coverage(
        probe_rows, graph.padded_ids, graph.padded_dists, coord_keys, k,
        limit=graph.n_points - 1,
    )
    if len(short):
        raise ValidationError(f"fewer than k={k} distinct coordinate locations exist")
    if ids is graph.padded_ids:
        return graph
    return NeighborhoodGraph(ids, dists, k_max=k)


def materialize(
    X,
    min_pts_ub: int,
    index="brute",
    metric="euclidean",
    duplicate_mode: str = "inf",
) -> MaterializationDB:
    """Convenience alias for :meth:`MaterializationDB.materialize`."""
    return MaterializationDB.materialize(
        X,
        min_pts_ub,
        index=index,
        metric=metric,
        duplicate_mode=duplicate_mode,
    )

