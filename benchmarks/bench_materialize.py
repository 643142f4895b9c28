#!/usr/bin/env python
"""Benchmark harness for step-1 materialization and the step-2 sweep.

Measures the three materialization paths over a grid of dataset sizes,
serially, and emits a machine-readable ``BENCH_materialize.json``
that seeds the repo's performance trajectory (one file per engine; later
PRs append runs next to it and compare):

``query_loop``
    :func:`repro.core.materialize` — the default step 1, the only path
    ``LocalOutlierFactor`` and the CLI use: one ``query_batch_with_ties``
    over all objects where the brute backend's box-pruned scan prunes
    (``NNIndex.fast_batch``; n >= 544 at d = 3), one ``query_with_ties``
    per object otherwise, with the same bits either way (the name is
    kept for the trajectory).
``batched``
    :meth:`repro.core.MaterializationDB.materialize_batched` — one
    ``query_batch_with_ties`` per block of queries. The pruned scan's
    work per row does not depend on the block, so it evaluates exactly
    as many distances as ``query_loop``.
``fast``
    :func:`repro.core.fast_materialize` — the chunked argkmin engine
    with ``strategy="auto"``: whole ``block_size × n`` slabs while they
    fit the tile budget, cache-bounded tiles beyond.
``chunked``
    :func:`repro.core.fast_materialize` with ``strategy="chunked"`` —
    the tiled merge forced on, peak temporary memory bounded by
    ``--tile-bytes`` regardless of n. This is the only front-door path
    run at very large n (above ``--max-loop-n`` the per-object paths
    are skipped: a 100k query loop takes minutes and teaches nothing).
``sweep``
    Step 2, not step 1: the wall time and peak RSS of
    :func:`repro.core.range_lof.score_range` over a prebuilt M
    (``materialization=mat``) at the fixed :data:`SWEEP` shape — n=2000,
    d=16, MinPts 10..200, the ``fit_wide`` shape of the repo benchmark
    — whatever ``--sizes`` says, once per case of :data:`SWEEP_CASES`:
    LOF, LoOP, LOF under ``duplicate_mode='distinct'`` (whose
    k-distinct-distances are computed inside the timed sweep), and
    LDOF over MinPts 10..60 (M built at 60). Each case
    runs in a fresh interpreter, so its peak RSS is its own and not the
    high-water mark of the rows before it; M is built there untimed,
    but its counters are kept. Each case then checks its score matrix
    against the per-MinPts oracle (:func:`per_k_scores`: a scan of
    ``graph.prefixes(k)`` per MinPts for LOF, the scorer's per-k fit on
    a fresh database otherwise) and records ``matches_per_k``.
    ``derived.step2_sweep`` lists each case
    with its ``mscan.passes`` (two scans per MinPts for LOF),
    ``graph.builds`` (one graph for the build and the whole sweep) and
    the sweep's own ``distance.evaluations`` (LDOF's inner distances;
    0 for the others). ``--validate`` checks that every case is there
    and matches the oracle, and that the LDOF sweep evaluates each
    inner pair of M's rows once. In the committed file the entries also
    carry ``before``: the same sweep measured at an earlier commit
    (recorded by hand; the harness does not emit it).
``distinct``
    Step 1 under ``duplicate_mode='distinct'``: the wall time and peak
    RSS of :func:`repro.core.materialize` at the fixed :data:`DISTINCT`
    shape — n=2000, d=3, MinPtsUB=20 on the repo benchmark's cluster
    mixture rounded to a 0.2 grid, so that some rows miss MinPtsUB
    distinct locations and are queried again — whatever ``--sizes``
    says, in a fresh interpreter like ``sweep``.
    ``derived.step1_distinct`` records its ``distance.evaluations``
    against the ``n^2`` of a full scan, and its ``knn.batch_queries``
    (the plain build plus one batch per probe).

Every run records wall-clock seconds and the process peak RSS
(``resource.getrusage`` — the OS high-water mark, monotone across the
rows of one harness invocation; context, *never* asserted) next to the
deterministic :mod:`repro.obs` counters and span timers (the actual
contract: ``distance.kernel_calls``, ``distance.evaluations``,
``knn.queries``, ``knn.batch_queries``, ``materialize.blocks``,
``argkmin.tiles``, ``argkmin.tile_bytes``). A ``derived`` section
reports, per size, the ``distance.evaluations`` of ``query_loop`` and
``batched`` against the ``n^2`` of a full scan — how many pairs the box
pruning skips, the acceptance trajectory number — plus, for the ``fast`` and
``chunked`` engine paths, the wall-clock speedup over ``query_loop``
and the peak-RSS ratio, so the engine win is a recorded
number instead of raw-row archaeology. (RSS is the OS high-water mark
and therefore monotone across the rows of one invocation: a ratio near
1.0 for a path that ran *after* ``query_loop`` means it stayed inside
the envelope the loop had already established.)

Usage::

    PYTHONPATH=src python benchmarks/bench_materialize.py \
        --sizes 500 1000 2000 --out BENCH_materialize.json

    # the memory-envelope demonstration row:
    PYTHONPATH=src python benchmarks/bench_materialize.py \
        --sizes 500 1000 2000 100000 --paths query_loop batched fast chunked

    # the step-2 sweep alone:
    PYTHONPATH=src python benchmarks/bench_materialize.py --paths sweep

    # step 1 under duplicate_mode='distinct' alone:
    PYTHONPATH=src python benchmarks/bench_materialize.py --paths distinct

    # CI schema check of an emitted file:
    python benchmarks/bench_materialize.py --validate BENCH_materialize.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

SCHEMA = "repro.bench.materialize/v2"

#: required keys (and types) of every result record — the CI smoke job
#: validates emitted files against this. v2 adds ``peak_rss_kb`` (from
#: ``resource.getrusage``) and the obs span ``timers`` next to v1's
#: wall-clock and counters.
RESULT_FIELDS = {
    "n": int,
    "dim": int,
    "min_pts_ub": int,
    "path": str,
    "index": str,
    "block_size": int,
    "wall_s": float,
    "peak_rss_kb": int,
    "counters": dict,
    "timers": dict,
}


#: integer fields of every ``derived.evaluations_vs_query_loop`` record.
EVALUATION_FIELDS = ("query_loop_evaluations", "batched_evaluations", "all_pairs")

#: The shape the ``sweep`` path times: the repo benchmark's fit_wide.
SWEEP = {"n": 2000, "dim": 16, "min_pts_lb": 10, "min_pts_ub": 200}

#: (scorer, duplicate_mode, min_pts_ub) of every ``sweep`` row, each
#: swept from ``SWEEP["min_pts_lb"]``. LDOF's inner distances cost
#: ~MinPts^2 per object, so its sweep stops at 60.
SWEEP_CASES = (
    ("lof", "inf", 200),
    ("loop", "inf", 200),
    ("lof", "distinct", 200),
    ("ldof", "inf", 60),
)

#: The shape the ``distinct`` path times: the repo benchmark's mixture
#: of 8 Gaussian clusters (``bench/run.py``), on a 0.2 grid.
DISTINCT = {"n": 2000, "dim": 3, "min_pts_ub": 20, "grid": 0.2}

#: typed fields of ``derived.step1_distinct``.
DISTINCT_FIELDS = {
    "n": int,
    "dim": int,
    "min_pts_ub": int,
    "grid": float,
    "wall_s": float,
    "peak_rss_kb": int,
    "distance_evaluations": int,
    "knn_batch_queries": int,
    "all_pairs": int,
}

#: typed fields of every ``derived.step2_sweep`` entry.
SWEEP_FIELDS = {
    "scorer": str,
    "duplicate_mode": str,
    "n": int,
    "dim": int,
    "min_pts_lb": int,
    "min_pts_ub": int,
    "wall_s": float,
    "peak_rss_kb": int,
    "mscan_passes": int,
    "graph_builds": int,
    "distance_evaluations": int,
    "matches_per_k": bool,
}


def _run_one(path, X, ub, block_size, index_name, tile_bytes):
    from repro import obs
    from repro.core import MaterializationDB, fast_materialize, materialize

    if path == "query_loop":
        fn = lambda: materialize(X, ub, index=index_name)
    elif path == "batched":
        fn = lambda: MaterializationDB.materialize_batched(
            X, ub, index=index_name, block_size=block_size
        )
    elif path == "fast":
        fn = lambda: fast_materialize(X, ub, block_size=block_size)
    elif path == "chunked":
        fn = lambda: fast_materialize(
            X, ub, block_size=block_size, strategy="chunked",
            tile_bytes=tile_bytes,
        )
    else:
        raise ValueError(f"unknown path {path!r}")

    t0 = time.perf_counter()
    with obs.collect() as snap:
        db = fn()
    wall = time.perf_counter() - t0
    # Process high-water RSS (KB on Linux): monotone within one harness
    # invocation, so the value after a run bounds that run's footprint.
    peak_rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    assert db.n_points == X.shape[0]
    return wall, peak_rss_kb, snap["counters"], snap["timers"]


def per_k_scores(mat, scorer: str, ks, X) -> np.ndarray:
    """The ``(K, n)`` scores of ``scorer`` one MinPts at a time, on a
    fresh database over ``mat``'s graph: for LOF, Definitions 5-7 as a
    scan of ``graph.prefixes(k)`` per MinPts through the scoring
    kernels; for any other scorer, its per-k fit."""
    from repro.core import MaterializationDB, scoring

    fresh = MaterializationDB.from_graph(
        mat.graph, duplicate_mode=mat.duplicate_mode, coord_keys=mat.coord_keys
    )
    if scorer != "lof":
        return np.vstack([
            fresh.scores(int(k), scorer, X=X, metric="euclidean") for k in ks
        ])
    rows_out = []
    for k in ks:
        radii = fresh.k_distances(int(k))
        rows = mat.graph.prefixes(int(k), kdist=radii)
        block = np.empty(rows.ids.shape)
        np.take(radii, rows.ids, out=block, mode="clip")
        reach = scoring.reach_dist_values(rows.dists, block, out=block)
        lrd = scoring.lrd_values(
            reach.reshape(-1), rows.starts, rows.stops,
            duplicate_mode=mat.duplicate_mode,
        )
        np.take(lrd, rows.ids, out=block, mode="clip")
        rows_out.append(scoring.lof_values(lrd, block, rows.starts, rows.stops))
    return np.vstack(rows_out)


def sweep_child(seed: int, scorer: str, duplicate_mode: str, min_pts_ub: int) -> None:
    """Build M at ``min_pts_ub`` for :data:`SWEEP` untimed, time the
    step-2 sweep of ``scorer`` over it, and print one JSON record (run
    in a fresh interpreter by :func:`_run_child`). The counters cover
    the build and the sweep; ``sweep_evaluations`` the sweep alone."""
    from repro import obs
    from repro.core import MaterializationDB
    from repro.core.range_lof import score_range

    X = np.random.default_rng(seed).normal(size=(SWEEP["n"], SWEEP["dim"]))
    with obs.collect() as snap:
        mat = MaterializationDB.materialize(
            X, min_pts_ub, duplicate_mode=duplicate_mode
        )
        built = obs.counter("distance.evaluations")
        t0 = time.perf_counter()
        result = score_range(
            X=X,
            materialization=mat,
            min_pts_lb=SWEEP["min_pts_lb"],
            min_pts_ub=min_pts_ub,
            scorer=scorer,
        )
        wall = time.perf_counter() - t0
        sweep_evaluations = obs.counter("distance.evaluations") - built
    peak_rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    oracle = per_k_scores(mat, scorer, result.min_pts_values, X)
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_kb": peak_rss_kb,
        "sweep_evaluations": sweep_evaluations,
        "matches_per_k": result.lof_matrix.tobytes() == oracle.tobytes(),
        "counters": snap["counters"],
        "timers": snap["timers"],
    }))


def grid_mixture(seed: int, n: int, d: int, grid: float) -> np.ndarray:
    """``n`` points of 8 Gaussian clusters, centers in [-10, 10]^d and
    widths in [0.3, 1] laid out from ``d`` alone (the recipe of
    ``bench/run.py``), rounded to multiples of ``grid``."""
    layout = np.random.default_rng(d)
    centers = layout.uniform(-10.0, 10.0, size=(8, d))
    scales = layout.uniform(0.3, 1.0, size=8)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 8, size=n)
    X = centers[labels] + rng.normal(size=(n, d)) * scales[labels, None]
    return np.round(X / grid) * grid


def distinct_child(seed: int) -> None:
    """Time step 1 under ``duplicate_mode='distinct'`` at the
    :data:`DISTINCT` shape and print one JSON record (run in a fresh
    interpreter by :func:`_run_child`)."""
    from repro import obs
    from repro.core import materialize

    X = grid_mixture(seed, DISTINCT["n"], DISTINCT["dim"], DISTINCT["grid"])
    t0 = time.perf_counter()
    with obs.collect() as snap:
        materialize(X, DISTINCT["min_pts_ub"], duplicate_mode="distinct")
    wall = time.perf_counter() - t0
    peak_rss_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_kb": peak_rss_kb,
        "counters": snap["counters"],
        "timers": snap["timers"],
    }))


def _run_child(call: str) -> dict:
    """Run ``bench_materialize.<call>`` in a fresh interpreter and return
    the JSON record it prints."""
    here = os.path.dirname(os.path.abspath(__file__))
    code = (
        f"import sys; sys.path.insert(0, {here!r}); "
        f"import bench_materialize; bench_materialize.{call}"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _timers(child: dict) -> dict:
    return {
        name: {"count": rec["count"], "total_s": round(rec["total_s"], 6)}
        for name, rec in child["timers"].items()
    }


def run(args) -> dict:
    results = []
    sweep_cases = SWEEP_CASES if "sweep" in args.paths else ()
    for scorer, duplicate_mode, min_pts_ub in sweep_cases:
        child = _run_child(
            f"sweep_child({args.seed}, {scorer!r}, {duplicate_mode!r}, {min_pts_ub})"
        )
        results.append(
            {
                "scorer": scorer,
                "duplicate_mode": duplicate_mode,
                "n": SWEEP["n"],
                "dim": SWEEP["dim"],
                "min_pts_lb": SWEEP["min_pts_lb"],
                "min_pts_ub": min_pts_ub,
                "path": "sweep",
                "index": "brute",
                "block_size": 0,
                "wall_s": round(child["wall_s"], 6),
                "peak_rss_kb": child["peak_rss_kb"],
                "sweep_evaluations": child["sweep_evaluations"],
                "matches_per_k": child["matches_per_k"],
                "counters": child["counters"],
                "timers": _timers(child),
            }
        )
        print(
            f"step 2 {scorer}/{duplicate_mode} n={SWEEP['n']} d={SWEEP['dim']} "
            f"MinPts {SWEEP['min_pts_lb']}..{min_pts_ub}: "
            f"wall={child['wall_s']:8.4f}s "
            f"peak_rss={child['peak_rss_kb'] / 1024:7.1f}MB "
            f"graph_builds={child['counters'].get('graph.builds', 0)} "
            f"sweep_evaluations={child['sweep_evaluations']} "
            f"matches_per_k={child['matches_per_k']}",
            file=sys.stderr,
        )
    if "distinct" in args.paths:
        child = _run_child(f"distinct_child({args.seed})")
        results.append(
            {
                "n": DISTINCT["n"],
                "dim": DISTINCT["dim"],
                "min_pts_ub": DISTINCT["min_pts_ub"],
                "grid": DISTINCT["grid"],
                "path": "distinct",
                "index": "brute",
                "block_size": 0,
                "wall_s": round(child["wall_s"], 6),
                "peak_rss_kb": child["peak_rss_kb"],
                "counters": child["counters"],
                "timers": _timers(child),
            }
        )
        print(
            f"step 1 distinct n={DISTINCT['n']} d={DISTINCT['dim']} "
            f"grid={DISTINCT['grid']}: wall={child['wall_s']:8.4f}s "
            f"peak_rss={child['peak_rss_kb'] / 1024:7.1f}MB "
            f"evaluations={child['counters'].get('distance.evaluations', 0)}",
            file=sys.stderr,
        )
    for n in args.sizes:
        X = np.random.default_rng(args.seed).normal(size=(n, args.dim))
        ub = min(args.min_pts_ub, n - 1)
        for path in args.paths:
            if path in ("sweep", "distinct"):
                continue
            if path in ("query_loop", "batched") and n > args.max_loop_n:
                print(
                    f"n={n:>6} path={path:<10} skipped (> --max-loop-n "
                    f"{args.max_loop_n}; index front door)",
                    file=sys.stderr,
                )
                continue
            wall, peak_rss_kb, counters, timers = _run_one(
                path, X, ub, args.block_size, args.index, args.tile_bytes
            )
            results.append(
                {
                    "n": n,
                    "dim": args.dim,
                    "min_pts_ub": ub,
                    "path": path,
                    "index": args.index
                    if path not in ("fast", "chunked") else "none",
                    "block_size": args.block_size,
                    "wall_s": round(wall, 6),
                    "peak_rss_kb": peak_rss_kb,
                    "counters": counters,
                    "timers": {
                        name: {
                            "count": rec["count"],
                            "total_s": round(rec["total_s"], 6),
                        }
                        for name, rec in timers.items()
                    },
                }
            )
            print(
                f"n={n:>6} path={path:<10} "
                f"wall={wall:8.4f}s peak_rss={peak_rss_kb / 1024:7.1f}MB "
                f"kernel_calls="
                f"{counters.get('distance.kernel_calls', 0)} "
                f"evaluations={counters.get('distance.evaluations', 0)} "
                f"tile_bytes={counters.get('argkmin.tile_bytes', 0)}",
                file=sys.stderr,
            )

    evaluations = {}
    for n in args.sizes:
        loop = [r for r in results if r["n"] == n and r["path"] == "query_loop"]
        batched = [r for r in results if r["n"] == n and r["path"] == "batched"]
        if loop and batched:
            le = loop[0]["counters"].get("distance.evaluations", 0)
            be = batched[0]["counters"].get("distance.evaluations", 0)
            evaluations[str(n)] = {
                "query_loop_evaluations": le,
                "batched_evaluations": be,
                "all_pairs": n * n,
                "evaluation_ratio": round(n * n / le, 2) if le else None,
            }

    speedups = {}
    for n in args.sizes:
        loop = [r for r in results if r["n"] == n and r["path"] == "query_loop"]
        if not loop:
            continue
        entry = {}
        for path in ("fast", "chunked"):
            rows = [r for r in results if r["n"] == n and r["path"] == path]
            if rows:
                wall = rows[0]["wall_s"]
                entry[path] = {
                    "wall_s_query_loop": loop[0]["wall_s"],
                    "wall_s": wall,
                    "wall_speedup": round(loop[0]["wall_s"] / wall, 3)
                    if wall else None,
                    "peak_rss_kb_query_loop": loop[0]["peak_rss_kb"],
                    "peak_rss_kb": rows[0]["peak_rss_kb"],
                    "peak_rss_ratio": round(
                        rows[0]["peak_rss_kb"] / loop[0]["peak_rss_kb"], 3
                    ),
                }
        if entry:
            speedups[str(n)] = entry

    sweep = [
        {
            **{
                key: r[key]
                for key in ("scorer", "duplicate_mode", "n", "dim", "min_pts_lb",
                            "min_pts_ub", "wall_s", "peak_rss_kb")
            },
            "mscan_passes": r["counters"].get("mscan.passes", 0),
            "graph_builds": r["counters"].get("graph.builds", 0),
            "distance_evaluations": r["sweep_evaluations"],
            "matches_per_k": r["matches_per_k"],
        }
        for r in results
        if r["path"] == "sweep"
    ]

    derived = {
        "evaluations_vs_query_loop": evaluations,
        "speedup_vs_query_loop": speedups,
    }
    if sweep:
        derived["step2_sweep"] = sweep
    for r in results:
        if r["path"] == "distinct":
            derived["step1_distinct"] = {
                **{key: r[key] for key in ("n", "dim", "min_pts_ub", "grid",
                                           "wall_s", "peak_rss_kb")},
                "distance_evaluations": r["counters"].get("distance.evaluations", 0),
                "knn_batch_queries": r["counters"].get("knn.batch_queries", 0),
                "all_pairs": r["n"] * r["n"],
            }
    return {
        "schema": SCHEMA,
        "config": {
            "sizes": args.sizes,
            "dim": args.dim,
            "min_pts_ub": args.min_pts_ub,
            "block_size": args.block_size,
            "paths": args.paths,
            "index": args.index,
            "seed": args.seed,
            "tile_bytes": args.tile_bytes,
            "max_loop_n": args.max_loop_n,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": results,
        "derived": derived,
    }


def _typed(value, typ) -> bool:
    if isinstance(value, bool) or typ is bool:
        return isinstance(value, bool) and typ is bool
    if typ is float:
        return isinstance(value, (int, float))
    return isinstance(value, typ)


def _check_sweep_cases(sweep) -> list:
    """Every case of :data:`SWEEP_CASES` is recorded, and the LDOF sweep
    evaluates each unordered pair of a row of M once, for all MinPts
    together: at most n * ub * (ub - 1) / 2 distances on the SWEEP data,
    whose rows have no ties past ub (per-MinPts blocks cost n * sum k^2)."""
    if not all(isinstance(entry, dict) for entry in sweep):
        return []
    cases = {(e.get("scorer"), e.get("duplicate_mode"), e.get("min_pts_ub")) for e in sweep}
    problems = [
        f"derived.step2_sweep has no {scorer}/{mode} MinPts..{ub} entry"
        for scorer, mode, ub in SWEEP_CASES
        if (scorer, mode, ub) not in cases
    ]
    problems += [
        f"the {e.get('scorer')}/{e.get('duplicate_mode')} sweep differs from "
        "the per-MinPts oracle"
        for e in sweep
        if e.get("matches_per_k") is False
    ]
    for entry in sweep:
        if entry.get("scorer") != "ldof" or not _typed(entry.get("distance_evaluations"), int):
            continue
        n, ub = entry.get("n", 0), entry.get("min_pts_ub", 0)
        if not 0 < entry["distance_evaluations"] <= n * ub * (ub - 1) // 2:
            problems.append(
                f"ldof sweep evaluated {entry['distance_evaluations']} distances; "
                f"one pass over M's rows takes at most n*ub*(ub-1)/2 = "
                f"{n * ub * (ub - 1) // 2}"
            )
    return problems


def validate(payload) -> list:
    """Return a list of schema problems (empty == valid)."""
    problems = []
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    for section in ("config", "environment", "derived"):
        if not isinstance(payload.get(section), dict):
            problems.append(f"missing or non-dict section {section!r}")
    evaluations = (payload.get("derived") or {}).get("evaluations_vs_query_loop")
    if not isinstance(evaluations, dict):
        problems.append("derived.evaluations_vs_query_loop must be a dict")
    else:
        for n, rec in evaluations.items():
            if not isinstance(rec, dict) or not all(
                isinstance(rec.get(key), int) and not isinstance(rec.get(key), bool)
                for key in EVALUATION_FIELDS
            ):
                problems.append(
                    f"derived.evaluations_vs_query_loop[{n!r}] must hold "
                    f"integer {', '.join(EVALUATION_FIELDS)}"
                )
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        problems.append("results must be a non-empty list")
        return problems
    n_sweeps = sum(
        1 for r in results if isinstance(r, dict) and r.get("path") == "sweep"
    )
    sweep = (payload.get("derived") or {}).get("step2_sweep")
    if n_sweeps or sweep is not None:
        if not isinstance(sweep, list) or len(sweep) != n_sweeps:
            problems.append(
                "derived.step2_sweep must list one entry per sweep record"
            )
        else:
            for i, entry in enumerate(sweep):
                for field, typ in SWEEP_FIELDS.items():
                    value = entry.get(field) if isinstance(entry, dict) else None
                    if not _typed(value, typ):
                        problems.append(
                            f"derived.step2_sweep[{i}].{field} must be "
                            f"{typ.__name__}, got {value!r}"
                        )
            problems.extend(_check_sweep_cases(sweep))
    n_distinct = sum(
        1 for r in results if isinstance(r, dict) and r.get("path") == "distinct"
    )
    distinct = (payload.get("derived") or {}).get("step1_distinct")
    if n_distinct or distinct is not None:
        if n_distinct != 1 or not isinstance(distinct, dict):
            problems.append(
                "derived.step1_distinct must summarize exactly one distinct record"
            )
        else:
            for field, typ in DISTINCT_FIELDS.items():
                if not _typed(distinct.get(field), typ):
                    problems.append(
                        f"derived.step1_distinct.{field} must be "
                        f"{typ.__name__}, got {distinct.get(field)!r}"
                    )
    for i, record in enumerate(results):
        for field, typ in RESULT_FIELDS.items():
            value = record.get(field)
            if not _typed(value, typ):
                problems.append(
                    f"results[{i}].{field} must be {typ.__name__}, got {value!r}"
                )
        if record.get("path") == "sweep" and not _typed(
            record.get("min_pts_lb"), int
        ):
            problems.append(f"results[{i}].min_pts_lb must be int for a sweep")
        counters = record.get("counters")
        if isinstance(counters, dict) and not all(
            isinstance(v, int) for v in counters.values()
        ):
            problems.append(f"results[{i}].counters values must be integers")
        rss = record.get("peak_rss_kb")
        if isinstance(rss, int) and rss <= 0:
            problems.append(f"results[{i}].peak_rss_kb must be positive")
        timers = record.get("timers")
        if isinstance(timers, dict) and not all(
            isinstance(v, dict) and {"count", "total_s"} <= set(v)
            for v in timers.values()
        ):
            problems.append(
                f"results[{i}].timers values must be "
                "{{'count': int, 'total_s': float}} records"
            )
    return problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", type=int, default=[500, 1000, 2000])
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--min-pts-ub", type=int, default=20)
    parser.add_argument("--block-size", type=int, default=512)
    parser.add_argument(
        "--paths", nargs="+", default=["query_loop", "batched", "fast"],
        choices=["query_loop", "batched", "fast", "chunked", "sweep", "distinct"],
    )
    parser.add_argument(
        "--tile-bytes", type=int, default=None, metavar="BYTES",
        help="chunked-path tile budget (default: the engine's 8 MiB)",
    )
    parser.add_argument(
        "--max-loop-n", type=int, default=5000, metavar="N",
        help="skip the index front-door paths (query_loop, batched) "
             "above this size (default: 5000)",
    )
    parser.add_argument("--index", default="brute")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_materialize.json")
    parser.add_argument(
        "--validate", metavar="PATH", default=None,
        help="validate an emitted JSON file against the schema and exit",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.validate:
        with open(args.validate) as fh:
            payload = json.load(fh)
        problems = validate(payload)
        for problem in problems:
            print(f"schema error: {problem}", file=sys.stderr)
        print(
            f"{args.validate}: "
            + ("INVALID" if problems else f"valid ({len(payload['results'])} records)")
        )
        return 1 if problems else 0

    payload = run(args)
    problems = validate(payload)
    if problems:  # the harness must never emit what its own check rejects
        for problem in problems:
            print(f"internal schema error: {problem}", file=sys.stderr)
        return 1
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(payload['results'])} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
