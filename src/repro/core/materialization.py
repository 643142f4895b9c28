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

:class:`MaterializationDB` is that database M — a thin *policy layer*:
neighborhood storage lives in :class:`~repro.core.graph.NeighborhoodGraph`,
all score arithmetic in the :mod:`~repro.scorers` kernels over the
:mod:`~repro.core.scoring` segment reductions, and this class adds the
duplicate-mode policy, the per-MinPts tables and persistence metadata.

Each per-MinPts quantity is one ``(MinPtsUB, ...)`` table whose row
``k - 1`` holds MinPts k once computed. :meth:`MaterializationDB.fit`
fills any scorer's tables for a whole grid in tiles: a run of
consecutive MinPts × a block of M's rows, within
:data:`~repro.index.brute.BLOCK_BYTES`, read as views of M cut at the
run's widest neighborhood (a MinPts neighborhood is a prefix of its
(distance, id)-sorted row). Each segment holds the values a scan at
that MinPts alone would reduce, in the same order, so the bits do not
depend on the tiling. A phase of a run (LOF's lrd) is finished for
every object before the next scan (LOF's) reads it.

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

import dataclasses
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
from .graph import GridPrefixes, NeighborhoodGraph, RowPrefixes, resolve_index

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


def _table_name(scorer, key: str) -> str:
    """The table of a scorer's phase ``key`` or ``"score"``: LOF's are
    ``lrd``/``lof``, others' ``aux@{scorer}@{key}``/``score@{scorer}``."""
    if scorer.name == "lof":
        return "lof" if key == "score" else key
    return f"score@{scorer.name}" if key == "score" else f"aux@{scorer.name}@{key}"


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
            self.fit("lof", [k], score=False)
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
            self.fit("lof", [k])
        return self._lof.row(k)

    def lrd_table(self, ks: Sequence[int]) -> np.ndarray:
        """``(K, n)`` lrd at every MinPts of ``ks``: read-only rows of the
        lrd table (a view when ``ks`` is a run of consecutive MinPts),
        the missing ones filled in one tiled sweep."""
        return self.fit("lof", ks, score=False).tables["lrd"]

    def lof_table(self, ks: Sequence[int]) -> np.ndarray:
        """``(K, n)`` LOF at every MinPts of ``ks``: read-only rows of the
        LOF table (a view when ``ks`` is a run of consecutive MinPts), the
        missing ones filled in one tiled sweep — Section 6.2's grid as
        one request."""
        return self.fit("lof", ks).tables["score"]

    def lof_range(self, min_pts_lb: int, min_pts_ub: int) -> Dict[int, np.ndarray]:
        """LOF vectors for every MinPts in [lb, ub] (Section 6.2 sweep)."""
        lb, ub = self._check_k(min_pts_lb), self._check_k(min_pts_ub)
        if lb > ub:
            raise ValidationError(f"min_pts_lb={lb} exceeds min_pts_ub={ub}")
        return dict(zip(range(lb, ub + 1), self.lof_table(range(lb, ub + 1))))

    def scores(self, min_pts: int, scorer="lof", X=None, metric=None) -> np.ndarray:
        """Per-object scores of any registered scorer at one MinPts: a
        read-only row of its score table (for ``'lof'``, :meth:`lof`'s).
        LDOF (``requires_data``) also needs the snapshot ``X`` and ``metric``."""
        return self.fit(scorer, [min_pts], X=X, metric=metric).tables["score"][0]

    def fit(self, scorer, ks: Sequence[int], X=None, metric=None, score: bool = True):
        """Step 2 of any registered scorer at every MinPts of ``ks`` not
        yet in the tables: the one way M is scored.

        Per run of the sorted grid (:func:`_runs`), each phase of the
        scorer (:class:`~repro.scorers.Phase`) is filled over M's tiles
        (:meth:`NeighborhoodGraph.tiles`), or over all of M for an
        aggregate; then, with ``score``, the scorer's
        :meth:`~repro.scorers.Scorer.score_query` runs over the same
        tiles, the rows' own phases passed in (``ctx.rows``). Each tiled
        scan counts one ``mscan.passes`` per MinPts. In mode 'error' a
        run is checked whole (:meth:`~repro.scorers.Scorer.check`)
        before its rows count as filled. Returns a context whose
        ``tables`` hold read-only rows at ``ks`` of each persisted phase
        and ``"score"``; without ``score``, the grid's query context,
        with ``"kdist"`` instead.
        """
        from ..index import get_metric
        from ..scorers import Phase, ScorerContext, get_scorer

        scorer = get_scorer(scorer)
        ks = self._check_ks(ks)
        if X is not None:
            X = np.asarray(X, dtype=np.float64)
            if X.ndim != 2 or X.shape[0] != self.n_points:
                raise ValidationError(
                    f"dataset snapshot X must be 2-D with {self.n_points} "
                    f"rows to match this materialization"
                )
        metric = None if metric is None else get_metric(metric)
        ctx = ScorerContext(mat=self, X=X, metric=metric)
        steps = list(scorer.phases)
        if score:
            steps.append(Phase("score", type(scorer).score_query))
        names = {p.name: None if p.scratch else _table_name(scorer, p.name) for p in steps}
        grid = _sorted_set(ks)
        todo = np.zeros(len(grid), dtype=bool)
        for tname in filter(None, names.values()):
            todo |= self._missing(tname, grid)
        for run in _runs(grid[todo]):
            self._fit_run(scorer, steps, names, run, ctx)
        tables = {n: self._tables[t] for n, t in names.items() if t in self._tables}
        if not score:
            self._fill_k_distances(grid)
            tables["kdist"] = self._kdist
        ctx.tables = {n: t.rows(ks) for n, t in tables.items()}
        for rows in ctx.tables.values():
            rows.flags.writeable = False  # a view or copy, not the table
        return ctx

    def _missing(self, tname: str, ks: np.ndarray) -> np.ndarray:
        table = self._tables.get(tname)
        return np.ones(len(ks), dtype=bool) if table is None else ~table.filled[ks - 1]

    def _fit_run(self, scorer, steps, names, run: np.ndarray, ctx) -> None:
        """Every step of :meth:`fit` at the MinPts of one run."""
        self._fill_k_distances(run)
        radii = self._kdist.rows(run)
        counts = self.graph.prefix_counts(run, radii)
        # A scratch phase is needed wherever a later table is missing.
        needs, later = {}, np.zeros(len(run), dtype=bool)
        for phase in reversed(steps):
            tname = names[phase.name]
            needs[phase.name] = later.copy() if tname is None else self._missing(tname, run)
            later |= needs[phase.name]
        tables: Dict[str, _KTable] = {}
        for phase in steps:
            tname, need = names[phase.name], needs[phase.name]
            if need.any():
                sel = slice(None) if need.all() else need  # views when all
                sub, step_radii, step_counts = run[sel], radii[sel], counts[sel]
                step = dataclasses.replace(ctx, tables={"kdist": step_radii})
                step.tables.update((n, t.rows(sub)) for n, t in tables.items())
                if phase.aggregate:
                    step.rows = slice(None)
                    values = phase.kernel(scorer, step, self._whole(step_radii, step_counts))
                    self._table(tname, values.shape[1:]).writable()[sub - 1] = values
                else:
                    # A scratch table lives for this run only (zeros are
                    # paged in only where written).
                    table = self._new_table() if tname is None else self._table(tname)
                    tables[phase.name] = table
                    out = table.writable()
                    obs.incr("mscan.passes", len(sub))
                    for rows, grid in self.graph.tiles(step_radii, step_counts):
                        step.rows = rows
                        out[sub - 1, rows] = phase.kernel(scorer, step, grid)
            if tname in self._tables:
                tables[phase.name] = self._tables[tname]
        if self.duplicate_mode == "error":
            run_tables = {n: self._tables[t].rows(run) for n, t in names.items() if t}
            whole = dataclasses.replace(ctx, rows=slice(None), tables=run_tables)
            scorer.check(whole, self._whole(radii, counts))
        for name, tname in names.items():
            if tname is not None:
                self._tables[tname].filled[run[needs[name]] - 1] = True

    def _whole(self, radii: np.ndarray, counts: np.ndarray) -> GridPrefixes:
        """Every row of M at a run's MinPts: views cut at the widest prefix."""
        width = int(counts.max())
        return GridPrefixes(
            self.padded_ids[:, :width], self.padded_dists[:, :width], radii, counts
        )

    # -- the scorer registry (repro.scorers) -----------------------------------

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

