"""The Scorer protocol and the registry behind ``--scorer``.

A *scorer* turns the per-k neighborhoods of the one shared
:class:`~repro.core.graph.NeighborhoodGraph` — row prefixes,
:class:`~repro.core.graph.RowPrefixes` — into per-object outlier
scores, and a served request's neighborhoods at every MinPts of a grid
(:class:`~repro.core.graph.GridPrefixes`) into a ``(K, m)`` score
matrix. LOF is the first registered scorer; LDOF,
LoOP and the kth-NN-distance baseline ride the same materialization
pass, the same Definition-4 tie semantics and the same duplicate-mode
policy — which is the paper's point that local outlier notions are a
family over one neighborhood structure.

Contract
--------
Every scorer is stateless: all per-dataset state lives in the
:class:`ScorerContext` (the materialization database, optionally the
dataset snapshot and metric) and in the *aux* arrays :meth:`Scorer.fit`
returns, which :class:`~repro.core.materialization.MaterializationDB`
keeps in one ``(MinPtsUB, ...)`` table per scorer and aux name, and
:mod:`repro.store` persists. The query
path (:meth:`Scorer.score_query`) scores a whole MinPts grid in one
pass over ``(K, n)`` tables taken once per grid (:meth:`Scorer.tables`),
and must reproduce fitted scores bit-for-bit when handed a stored
object's own neighborhood row, at every MinPts of the grid — the
serve-vs-batch invariant pinned by ``tests/scorers/``.

All scoring arithmetic stays inside modules of this package (plus the
segment kernels of :mod:`repro.core.scoring`); the RL001 lint rule enforces
the containment and that every module here registers its scorer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.graph import GridPrefixes
from ..exceptions import ValidationError

__all__ = [
    "Scorer",
    "ScorerContext",
    "register",
    "get_scorer",
    "list_scorers",
]


@dataclass
class ScorerContext:
    """Everything a scorer may read while fitting or scoring.

    ``mat`` is the :class:`~repro.core.materialization.MaterializationDB`
    (duck-typed; scorers never import it). ``X``/``metric`` are only
    present when the caller has the dataset snapshot — scorers with
    ``requires_data`` (LDOF needs neighbor-to-neighbor distances the
    graph does not store) must call :meth:`require_data`. A query
    context serves a whole MinPts grid: ``k`` is its largest MinPts and
    ``tables`` holds what :meth:`Scorer.tables` returned for it.
    """

    mat: object
    k: int
    X: Optional[np.ndarray] = None
    metric: object = None
    tables: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def kdist(self) -> np.ndarray:
        """Per-object k-distances (k-distinct-distances under 'distinct')."""
        return self.mat.k_distances(self.k)

    @property
    def duplicate_mode(self) -> str:
        return self.mat.duplicate_mode

    def require_data(self, scorer_name: str) -> Tuple[np.ndarray, object]:
        """The (X, metric) pair, or a typed error naming the scorer."""
        if self.X is None or self.metric is None:
            raise ValidationError(
                f"scorer {scorer_name!r} needs the dataset snapshot and "
                "metric (it reads distances the neighborhood graph does "
                "not store); pass X/metric, or for a loaded store make "
                "sure it was saved with the snapshot"
            )
        return self.X, self.metric


class Scorer:
    """Base class for registered local-outlier scorers.

    Attributes
    ----------
    name : the registry key (``--scorer`` value, store section label).
    requires_data : True when scoring needs the raw dataset snapshot in
        addition to the neighborhood graph (LDOF).
    supports_bounds : True when the Theorem-1 reach-dist bracket applies
        to this score (LOF only); serving degrades others to exact
        scoring.
    description : one line for ``repro-lof scorers``.
    """

    name: str = ""
    requires_data: bool = False
    supports_bounds: bool = False
    description: str = ""

    def fit(self, ctx: ScorerContext) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Per-object scores at ``ctx.k`` plus aux arrays to persist.

        Reads the neighborhoods as ``ctx.mat.prefixes(ctx.k)``. Returns
        ``(scores, aux)``; ``aux`` maps names to float arrays a later
        :meth:`score_query` needs (e.g. LoOP's per-object pdist vector
        and nPLOF normalizer). Must be deterministic.
        """
        raise NotImplementedError

    def fit_grid(self, mat, ks: Sequence[int], X=None, metric=None) -> np.ndarray:
        """Per-object scores at every MinPts of ``ks``, one row each: the
        ``(K, n)`` matrix of Section 6.2's sweep. By default the rows of
        the scorer's score table in ``mat`` (:meth:`fit` at each MinPts
        not yet in it); LOF fills its rows in one tiled sweep."""
        return mat.score_table(ks, self, X=X, metric=metric)

    def tables(self, contexts: Sequence[ScorerContext]) -> Dict[str, np.ndarray]:
        """The per-MinPts inputs :meth:`score_query` reads, over a grid:
        one per-k context per MinPts, in grid order, in; arrays with one
        row per MinPts (``(K, n)`` per-object vectors) out — for LOF,
        rows (views, for a run of consecutive MinPts) of the
        materialization's k-distance and lrd tables.

        Called once per (scorer, grid) before the grid's first query; it
        is the first touch of the materialization's per-MinPts state
        (the lrd table for LOF, the pdist/nPLOF aux state for LoOP).
        Scorers that read no per-k state return nothing.
        """
        return {}

    def score_query(self, ctx: ScorerContext, grid: GridPrefixes) -> np.ndarray:
        """Score query neighborhoods at every MinPts of a grid at once.

        ``grid`` holds the query points' tie-inclusive neighborhoods
        among the *stored* objects (ids index the training set) as
        prefixes of one block, with each query's own k-distance at each
        MinPts in ``grid.radii``; ``ctx.tables`` holds this scorer's
        :meth:`tables` for the same grid. Returns the ``(K, m)`` score
        matrix. Handed a stored object's own row, entry ``(j, i)`` must
        equal the fitted score at the j-th MinPts bit-for-bit.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Scorer {self.name!r}>"


_REGISTRY: Dict[str, Scorer] = {}


def register(scorer: Scorer) -> Scorer:
    """Add a scorer instance to the registry (module-import time)."""
    if not scorer.name:
        raise ValidationError("a scorer must declare a non-empty name")
    if scorer.name in _REGISTRY:
        raise ValidationError(f"scorer {scorer.name!r} is already registered")
    _REGISTRY[scorer.name] = scorer
    return scorer


def get_scorer(scorer: Union[str, Scorer]) -> Scorer:
    """Resolve a scorer name (or pass an instance through).

    Unknown names raise :class:`~repro.exceptions.ValidationError` — the
    typed error the CLI maps to exit code 2 and the HTTP surface to 400.
    """
    if isinstance(scorer, Scorer):
        return scorer
    entry = _REGISTRY.get(scorer)
    if entry is None:
        raise ValidationError(
            f"unknown scorer {scorer!r}; registered scorers: "
            f"{', '.join(sorted(_REGISTRY))}"
        )
    return entry


def list_scorers() -> List[str]:
    """Registered scorer names, sorted."""
    return sorted(_REGISTRY)
