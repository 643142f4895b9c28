"""repro.scorers — the pluggable local-outlier scorer registry.

One materialization pass, one :class:`~repro.core.graph.
NeighborhoodGraph`, a family of detectors over its per-k row prefixes:

========== ==============================================================
``lof``    the paper's local outlier factor (Definitions 5-7); the only
           scorer with Theorem-1 bound support
``ldof``   local distance-based outlier factor (Zhang/Hutter/Jin);
           needs the dataset snapshot for neighbor-to-neighbor distances
``loop``   local outlier probability (Kriegel et al.), lambda = 3
``knn_dist`` kth-NN distance D^k (Ramaswamy et al.), the distance-based
           baseline of Section 2
========== ==============================================================

All scorers honor Definition-4 tie semantics and the three duplicate
modes. See ``docs/scorers.md`` for formulas, conventions and the
failure modes each inherits from the paper's DB-outlier critique.
"""

from .base import Scorer, ScorerContext, get_scorer, list_scorers, register

# Importing the scorer modules registers them (each calls register()
# at import time; the RL001 project check enforces that).
from . import knn_dist, ldof, lof, loop  # noqa: E402,F401

__all__ = [
    "Scorer",
    "ScorerContext",
    "get_scorer",
    "list_scorers",
    "register",
]
