"""Persistence: CSV for datasets and scores, and — re-exported from
:mod:`repro.store` — the versioned model-store format. The store holds
a bare materialization database M (the Section 7.4 intermediate result,
see :meth:`repro.core.materialization.MaterializationDB.save`) as well
as a fitted estimator with its per-MinPts caches, dataset snapshot and
results for online serving."""

from ..store import load_model, read_header, save_model
from .csvio import load_dataset, load_scores, save_dataset, save_scores

__all__ = [
    "load_dataset",
    "load_scores",
    "save_dataset",
    "save_scores",
    "load_model",
    "read_header",
    "save_model",
]
