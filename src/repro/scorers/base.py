"""The Scorer protocol and the registry behind ``--scorer``.

A *scorer* turns the tie-inclusive neighborhoods of the one shared
:class:`~repro.core.graph.NeighborhoodGraph` at every MinPts of a grid
(:class:`~repro.core.graph.GridPrefixes`) into a ``(K, m)`` score
matrix. LOF is the first registered scorer; LDOF, LoOP and the
kth-NN-distance baseline ride the same materialization pass, the same
Definition-4 tie semantics and the same duplicate-mode policy — which
is the paper's point that local outlier notions are a family over one
neighborhood structure.

Contract
--------
A scorer has one kernel per quantity, shared by fit and serve: its
*phases* (:class:`Phase`), per-MinPts tables that other objects read
through neighbor ids, and :meth:`Scorer.score_query`. A fit
(:meth:`~repro.core.materialization.MaterializationDB.fit`) runs them
over M's tiles, a request over its own rows, so a stored object's own
row scores bit-for-bit what the fit stored — the serve-vs-batch
invariant pinned by ``tests/scorers/``. Scorers are stateless: state
lives in the :class:`ScorerContext` and the phase tables.

All scoring arithmetic stays inside modules of this package (plus the
segment kernels of :mod:`repro.core.scoring`); the RL001 lint rule enforces
the containment and that every module here registers its scorer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.graph import GridPrefixes
from ..exceptions import ValidationError
from ..index.brute import BLOCK_BYTES

__all__ = [
    "Phase",
    "Scorer",
    "ScorerContext",
    "register",
    "get_scorer",
    "list_scorers",
]


@dataclass(frozen=True)
class Phase:
    """A per-MinPts table a scorer fills before its score, in order.

    ``kernel(scorer, ctx, grid)`` returns it at every MinPts of ``grid``:
    ``(K, m)`` for the grid's rows, or for an ``aggregate`` ``(K, ...)``
    over all of M, which a request reads from its table. A ``scratch``
    phase lives for one run of a fit and is not persisted."""

    name: str
    kernel: Callable
    aggregate: bool = False
    scratch: bool = False


@dataclass
class ScorerContext:
    """Everything a scorer may read while scoring a grid of MinPts.

    ``mat`` is the :class:`~repro.core.materialization.MaterializationDB`
    (duck-typed; scorers never import it). ``X``/``metric`` are only
    present when the caller has the dataset snapshot — scorers with
    ``requires_data`` (LDOF needs neighbor-to-neighbor distances the
    graph does not store) must call :meth:`require_data`. ``tables``
    holds rows at the grid's MinPts of ``"kdist"`` (M's k-distances)
    and of each phase. ``rows`` is the slice of M's rows a fit's tile
    scores (``None`` for a request); ``buffer`` is a fit scan's reused
    tile buffer (:meth:`gather`).
    """

    mat: object
    X: Optional[np.ndarray] = None
    metric: object = None
    tables: Dict[str, np.ndarray] = field(default_factory=dict)
    rows: Optional[slice] = None
    buffer: Optional[np.ndarray] = None

    @property
    def duplicate_mode(self) -> str:
        """The database's mode, but ``'inf'`` for ``'error'`` in a fit:
        a tile sees part of a run, so :meth:`Scorer.check` checks runs."""
        mode = self.mat.duplicate_mode
        return "inf" if mode == "error" and self.rows is not None else mode

    def gather(self, values: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """``values[:, ids]`` as a ``(K', m, w)`` block (pads clip to
        object 0, outside every segment); in a fit, carved from one
        :attr:`buffer` of ``BLOCK_BYTES`` reused tile after tile."""
        shape, out = (len(values),) + ids.shape, None
        if self.rows is not None and math.prod(shape) <= BLOCK_BYTES // 8:
            if self.buffer is None:
                self.buffer = np.empty(BLOCK_BYTES // 8)
            out = self.buffer[: math.prod(shape)].reshape(shape)
        return values.take(ids, axis=1, out=out, mode="clip")

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
    phases : the scorer's :class:`Phase` tables, in fill order.
    """

    name: str = ""
    requires_data: bool = False
    supports_bounds: bool = False
    description: str = ""
    phases: Tuple[Phase, ...] = ()

    def own(self, name: str, ctx: ScorerContext, grid: GridPrefixes) -> np.ndarray:
        """The grid rows' own ``(K, m)`` values of phase ``name``: read
        from its table in a fit, else computed by the phase's kernel."""
        if ctx.rows is not None:
            return ctx.tables[name][:, ctx.rows]
        phase = next(p for p in self.phases if p.name == name)
        return phase.kernel(self, ctx, grid)

    def score_query(self, ctx: ScorerContext, grid: GridPrefixes) -> np.ndarray:
        """The ``(K, m)`` scores of the grid's rows at every MinPts.

        ``grid`` holds the rows' neighborhoods among the *stored* objects
        (ids index the training set) as prefixes of one block, with each
        row's own k-distance at each MinPts in ``grid.radii``. The fit
        runs this method over M's tiles, so handed a stored object's own
        row it returns the fitted scores bit-for-bit.
        """
        raise NotImplementedError

    def check(self, ctx: ScorerContext, grid: GridPrefixes) -> None:
        """Mode ``'error'`` over a fitted run (``grid`` is all of M):
        raise what a scan per MinPts would raise first."""

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
