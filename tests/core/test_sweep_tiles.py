"""Step 2 in tiles: the ``(K, n)`` tables against a scan per MinPts.

``MaterializationDB.lrd_table`` / ``lof_table`` fill every MinPts of a
grid in tiles: a run of consecutive MinPts × a block of M's rows, each
tile reading its rows' prefixes only up to the run's widest
neighborhood. The oracle below is the per-MinPts order the tiles
replaced: ``graph.prefixes(k)`` (the row prefixes every other scorer
still reads) and the same :mod:`repro.core.scoring` kernels, one MinPts
at a time. The wall holds the tables to it byte for byte (``tobytes()``)
on tie-heavy data, in every duplicate mode, with tiles shrunk until runs
and row blocks split at every position, and on a grid of one MinPts.
"""

import tracemalloc

import numpy as np
import pytest

import repro.core.graph as graph_module
import repro.core.materialization as mat_module
from repro import obs
from repro.core import scoring
from repro.core.materialization import MaterializationDB
from repro.exceptions import DuplicatePointsError
from repro.index.brute import BLOCK_BYTES

MODES = ("inf", "distinct", "error")

#: Tile budgets: one float (every run one MinPts, every block one row),
#: a few segments per tile, a few rows per tile, and the default.
BUDGETS = (8, 8 * 64, 8 * 2048, BLOCK_BYTES)


def _tie_heavy(seed, n=140, dup=0, unique=False):
    """Points on a 0.5 grid (many exact distance ties; with ``unique``
    no two share a location), with ``dup`` extra copies of the first
    and of the last point."""
    rng = np.random.default_rng(seed)
    if unique:
        cells = rng.choice(40 * 40, size=n, replace=False)
        X = np.column_stack([cells // 40, cells % 40]) * 0.5
    else:
        X = rng.integers(0, 9, size=(n, 2)) * 0.5
    if dup:
        X = np.vstack([np.repeat(X[:1], dup, axis=0), X, np.repeat(X[-1:], dup, axis=0)])
    return X


def _per_k(mat, ks):
    """The per-MinPts oracle: (kdist, lrd, lof) tables, or the first
    duplicate error in MinPts order."""
    kdist, lrd, lof = [], [], []
    try:
        for k in ks:
            radii = mat.k_distances(k).copy()
            if mat.duplicate_mode != "distinct":
                assert radii.tobytes() == mat.padded_dists[:, k - 1].tobytes()
            rows = mat.graph.prefixes(k, kdist=radii)
            block = np.empty(rows.ids.shape)
            np.take(radii, rows.ids, out=block, mode="clip")
            reach = scoring.reach_dist_values(rows.dists, block, out=block)
            lrd_k = scoring.lrd_values(
                reach.reshape(-1), rows.starts, rows.stops,
                duplicate_mode=mat.duplicate_mode,
            )
            np.take(lrd_k, rows.ids, out=block, mode="clip")
            lof.append(scoring.lof_values(lrd_k, block, rows.starts, rows.stops))
            kdist.append(radii)
            lrd.append(lrd_k)
    except DuplicatePointsError as exc:
        return ("DuplicatePointsError", str(exc))
    return np.vstack(kdist).tobytes(), np.vstack(lrd).tobytes(), np.vstack(lof).tobytes()


def _tiled(mat, ks):
    try:
        lof = mat.lof_table(ks)
    except DuplicatePointsError as exc:
        return ("DuplicatePointsError", str(exc))
    return (
        mat.k_distance_table(ks).tobytes(),
        mat.lrd_table(ks).tobytes(),
        lof.tobytes(),
    )


@pytest.fixture
def budget(request, monkeypatch):
    """Shrink the tile budget the sweep reads (runs and row blocks)."""
    monkeypatch.setattr(mat_module, "BLOCK_BYTES", request.param)
    monkeypatch.setattr(graph_module, "BLOCK_BYTES", request.param)
    return request.param


def _db(X, ub, mode):
    return MaterializationDB.materialize(X, ub, duplicate_mode=mode)


@pytest.mark.parametrize("budget", BUDGETS, indirect=True)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dup", [0, 3])
@pytest.mark.parametrize("unique", [False, True])
def test_tables_match_the_scan_per_minpts(budget, mode, dup, unique):
    X = _tie_heavy(seed=dup + 1, dup=dup, unique=unique)
    ks = list(range(1, 31))
    want = _per_k(_db(X, 30, mode), ks)
    assert _tiled(_db(X, 30, mode), ks) == want
    # A grid that starts above 1 and skips values reads the same rows.
    sparse = [2, 3, 5, 8, 13, 21, 30]
    assert _tiled(_db(X, 30, mode), sparse) == _per_k(_db(X, 30, mode), sparse)


@pytest.mark.parametrize("budget", BUDGETS, indirect=True)
@pytest.mark.parametrize("mode", MODES)
def test_grid_of_one_minpts(budget, mode):
    X = _tie_heavy(seed=7, dup=2)
    for k in (1, 2, 17, 30):
        assert _tiled(_db(X, 30, mode), [k]) == _per_k(_db(X, 30, mode), [k])
        mat = _db(X, 30, mode)
        outcome = _per_k(mat, [k])
        if outcome[0] != "DuplicatePointsError":
            fresh = _db(X, 30, mode)
            assert fresh.lof(k).tobytes() == outcome[2]
            assert fresh.lrd(k).tobytes() == outcome[1]


@pytest.mark.parametrize("budget", BUDGETS, indirect=True)
def test_error_mode_raises_the_per_minpts_message(budget):
    # Rows 0..1 share a location (lrd infinite at k = 1 only) and rows
    # 140..143 another (infinite for k <= 3, in the last row blocks):
    # per MinPts, a grid from k = 1 names object 0 and one from k = 2
    # or 3 names object 140.
    rng = np.random.default_rng(11)
    X = rng.normal(size=(140, 2))
    X = np.vstack([X[:1], X, np.repeat(X[-1:], 3, axis=0)])
    for ks, first in (([1, 2, 3], 0), ([2, 3, 4, 5], 140), ([3], 140)):
        want = _per_k(_db(X, 8, "error"), ks)
        assert want == (
            "DuplicatePointsError",
            f"object {first} has at least MinPts duplicates; its local "
            "reachability density is infinite "
            "(use duplicate_mode='distinct' or 'inf')",
        )
        assert _tiled(_db(X, 8, "error"), ks) == want
    mat = _db(X, 8, "error")
    with pytest.raises(DuplicatePointsError, match="object 140 "):
        mat.lof_table(range(2, 9))
    # A failed run keeps nothing: asking again raises again.
    with pytest.raises(DuplicatePointsError, match="object 140 "):
        mat.lrd(3)
    assert _tiled(mat, [4, 6, 7]) == _per_k(_db(X, 8, "error"), [4, 6, 7])


@pytest.mark.parametrize("budget", BUDGETS, indirect=True)
def test_two_scans_per_minpts(budget):
    X = _tie_heavy(seed=3, dup=2)
    mat = _db(X, 40, "inf")
    with obs.collect() as snap:
        mat.lof_table(range(5, 41))
        mat.lof_table(range(5, 41))
        mat.lof(7)
    assert snap["counters"]["mscan.passes"] == 2 * 36
    mat = _db(X, 40, "inf")
    with obs.collect() as snap:
        mat.lrd_table([3, 9, 10, 11])
        mat.lof_table(range(1, 13))
    # Scan 1 runs once per MinPts: 3, 9, 10 and 11 are not scanned again.
    assert snap["counters"]["mscan.passes"] == 4 + (12 - 4) + 12


def test_rows_are_views_of_the_tables():
    mat = _db(_tie_heavy(seed=5), 20, "inf")
    table = mat.lof_table(range(4, 21))
    assert mat.lof(9) is mat.lof(9)
    assert np.shares_memory(mat.lof(9), table)
    assert np.shares_memory(mat.lrd_table([7, 8]), mat.lrd(7))
    values, filled = mat.tables()["lof"]
    assert set(np.flatnonzero(filled) + 1) == set(range(4, 21))
    assert all(np.shares_memory(values[k - 1], table) for k in range(4, 21))


def test_fit_wide_sweep_peak_memory():
    # fit_wide's shape: n=2000, d=16, MinPts 10..200. The tables are
    # allocated with the database; the sweep's own temporaries stay
    # within a few tile budgets (a scan per MinPts held an (n, w) id
    # copy and an (n, w) float block, ~6.4 MB here).
    X = np.random.default_rng(5).normal(size=(2000, 16))
    mat = MaterializationDB.materialize(X, 200)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        mat.lof_table(range(10, 201))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 3 * BLOCK_BYTES
