"""Shared input-validation helpers.

These helpers centralize the checks every public entry point performs on
its inputs so that error messages are consistent across the library and
the numerical code can assume clean, contiguous float64 arrays.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .exceptions import ValidationError


def check_data(X, *, name: str = "X", min_rows: int = 1) -> np.ndarray:
    """Validate and canonicalize a dataset.

    Accepts any 2-d array-like of real numbers and returns a C-contiguous
    ``float64`` ndarray of shape ``(n, d)``.

    Raises :class:`ValidationError` for empty input, wrong dimensionality,
    non-numeric dtypes, or NaN/inf entries.
    """
    try:
        arr = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name} must be numeric array-like: {exc}") from exc
    if arr.ndim == 1:
        # A single feature column is accepted as a convenience.
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValidationError(
            f"{name} must be 2-dimensional (n_samples, n_features), got ndim={arr.ndim}"
        )
    if arr.shape[0] < min_rows:
        raise ValidationError(
            f"{name} must contain at least {min_rows} row(s), got {arr.shape[0]}"
        )
    if arr.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one feature column")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite values")
    return np.ascontiguousarray(arr)


def check_min_pts(min_pts: int, n_samples: int, *, name: str = "min_pts") -> int:
    """Validate a MinPts value against the dataset size.

    The paper requires ``1 <= MinPts <= |D|`` (Theorem 1 statement); since
    the k-distance of *p* is defined over ``D \\ {p}``, the practical upper
    bound is ``n_samples - 1``.
    """
    if not isinstance(min_pts, (int, np.integer)) or isinstance(min_pts, bool):
        raise ValidationError(f"{name} must be an integer, got {min_pts!r}")
    if min_pts < 1:
        raise ValidationError(f"{name} must be >= 1, got {min_pts}")
    if min_pts > n_samples - 1:
        raise ValidationError(
            f"{name}={min_pts} is too large for n_samples={n_samples}; "
            f"each object needs {min_pts} neighbors besides itself"
        )
    return int(min_pts)


def check_min_pts_range(
    min_pts_lb: int, min_pts_ub: int, n_samples: int
) -> Tuple[int, int]:
    """Validate a ``[MinPtsLB, MinPtsUB]`` range (Section 6.2)."""
    lb = check_min_pts(min_pts_lb, n_samples, name="min_pts_lb")
    ub = check_min_pts(min_pts_ub, n_samples, name="min_pts_ub")
    if lb > ub:
        raise ValidationError(
            f"min_pts_lb={lb} must not exceed min_pts_ub={ub}"
        )
    return lb, ub


def check_seed(seed) -> np.random.Generator:
    """Turn ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an int, or an existing Generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise ValidationError(
        f"seed must be None, an int, or a numpy Generator, got {type(seed).__name__}"
    )


def check_positive(value, *, name: str) -> float:
    """Validate a strictly positive scalar parameter."""
    try:
        val = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, got {value!r}") from exc
    if not np.isfinite(val) or val <= 0:
        raise ValidationError(f"{name} must be finite and > 0, got {value!r}")
    return val


def check_fraction(value, *, name: str, inclusive: bool = False) -> float:
    """Validate a scalar in (0, 1), or [0, 1] when ``inclusive``."""
    try:
        val = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, got {value!r}") from exc
    lo_ok = val >= 0 if inclusive else val > 0
    hi_ok = val <= 1 if inclusive else val < 1
    if not (lo_ok and hi_ok):
        bounds = "[0, 1]" if inclusive else "(0, 1)"
        raise ValidationError(f"{name} must lie in {bounds}, got {value!r}")
    return val


def check_labels(labels: Optional[Sequence[str]], n_samples: int) -> Optional[list]:
    """Validate optional per-object labels used by ranking helpers."""
    if labels is None:
        return None
    labels = list(labels)
    if len(labels) != n_samples:
        raise ValidationError(
            f"labels must have length {n_samples}, got {len(labels)}"
        )
    return labels
