#!/usr/bin/env python
"""Closed-loop load benchmark for the online scoring service.

Fits a deterministic synthetic model once, then sweeps a grid of
serving configurations — ``workers × batch × cache_size`` —
starting a real ``repro-lof serve`` subprocess for each cell and
hammering it with ``--concurrency`` closed-loop client threads over
persistent HTTP/1.1 connections (each thread sends its next request the
moment the previous response lands, so measured throughput is the
service's, not the generator's). Emits a schema-validated
``BENCH_serve.json`` recording, per cell:

* ``req_per_s`` and the ``p50_ms``/``p99_ms`` request latencies — the
  serving-fleet trajectory numbers;
* ``worker_rss_kb`` — post-load peak RSS per worker pid (sampled from
  ``GET /stats``), the memmap-sharing evidence: marginal RSS per extra
  worker is handler state, not another copy of the model;
* the server's own ``/stats`` batcher counters (requests, batches,
  coalesced), so the coalescing rate behind a throughput number is
  recorded next to it;
* ``server_cpu_us_per_req`` — the server's user plus system CPU over
  the measured requests (``/proc/<pid>/stat``, summed over the serving
  process and every fleet worker it forked), per request answered; the
  median over the repeats. Unlike req/s, the client's share of the
  cores cannot move it.

A ``batch`` of ``0`` in the grid means one request per turn
(``--max-batch 1``: every request is scored alone, one after another)
— the baseline the batched configurations are measured against; ``1``
is the default server (an idle worker scores a request inline,
requests that arrive during a score are coalesced behind it, up to
``--max-batch`` points). A
``cache_size`` of ``0`` disables the LRU result cache: those cells
exercise the pure scoring path, which is where the batching speedup is
architectural (per-request, per-MinPts fixed costs amortize across the
coalesced batch) rather than workload luck — so that is where the
``--check-speedup`` gate is read. Cache-warm cells measure the hit
path and are recorded alongside for the trajectory.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py \
        --grid-workers 1 2 --grid-batch 0 1 --concurrency 8 \
        --requests 400 --out BENCH_serve.json

    # CI schema check of an emitted file:
    python benchmarks/bench_serve.py --validate BENCH_serve.json

    # CI speedup gate: at the smallest cache size, the best batched
    # cell must beat the unbatched single-worker cell by this factor:
    python benchmarks/bench_serve.py --validate BENCH_serve.json \
        --check-speedup 2.0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

SCHEMA = "repro.bench.serve/v1"

#: required keys (and types) of every result record — the CI smoke job
#: validates emitted files against this.
RESULT_FIELDS = {
    "workers": int,
    "batched": bool,
    "cache_size": int,
    "concurrency": int,
    "requests": int,
    "points_per_request": int,
    "errors": int,
    "wall_s": float,
    "req_per_s": float,
    "repeats": int,
    "req_per_s_runs": list,
    "p50_ms": float,
    "p99_ms": float,
    "worker_rss_kb": dict,
    "server_batcher": dict,
    "server_cpu_us_per_req": float,
}


def fit_store(path: Path, n: int, dim: int, min_pts, seed: int) -> None:
    from repro import LocalOutlierFactor

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, dim))
    LocalOutlierFactor(min_pts=tuple(min_pts)).fit(X).save(path)


def start_server(store, workers, batched, cache_size, max_batch):
    """Launch ``repro-lof serve`` and return (process, port); an
    unbatched server scores one request per turn (``--max-batch 1``)."""
    cmd = [
        sys.executable, "-m", "repro", "serve", str(store),
        "--port", "0",
        "--cache-size", str(cache_size),
        "--max-batch", str(max_batch if batched else 1),
    ]
    if workers > 1:
        cmd += ["--workers", str(workers)]
    else:
        cmd += ["--mmap"]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    banner = proc.stdout.readline()
    if "http://" not in banner:
        proc.kill()
        raise RuntimeError(f"server failed to start: {banner!r}")
    port = int(banner.split("http://127.0.0.1:")[1].split()[0])
    # Readiness probe: the listening socket exists before the banner,
    # but wait for a served /healthz so cell 0 pays no cold-start tax.
    deadline = time.monotonic() + 30.0
    while True:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=5
            ):
                break
        except OSError:
            if time.monotonic() >= deadline:
                proc.kill()
                raise
            time.sleep(0.05)
    return proc, port


def server_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of process ``pid`` and of its live
    children (the workers of a fleet), from ``/proc/<pid>/stat``."""
    ticks = 0
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # After the parenthesized command name: state, ppid, ...;
            # utime and stime are the 14th and 15th fields of the line.
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process exited while we looked
            continue
        if stat.parent.name == str(pid) or int(fields[1]) == pid:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def _encode_requests(payloads):
    """Pre-serialize each JSON body into full HTTP/1.1 request bytes.

    The generator and the server share one core on small CI runners, so
    every cycle the client burns is stolen from the service under test.
    Sending one pre-built byte string per request (wrk-style) instead of
    running ``http.client``'s header assembly keeps the measured number
    the service's throughput, not the generator's."""
    return [
        (
            b"POST /score HTTP/1.1\r\n"
            b"Host: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"\r\n" + body
        )
        for body in payloads
    ]


def _connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=60)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def run_load(port, concurrency, total_requests, payloads):
    """Hammer /score from ``concurrency`` keep-alive threads.

    Closed loop: every thread fires its share of ``total_requests``
    back-to-back on one persistent raw-socket connection (each thread
    sends its next request the moment the previous response lands).
    Returns (wall_s, per-request latencies in ms, error count).
    """
    per_thread = total_requests // concurrency
    requests = _encode_requests(payloads)
    latencies = [[] for _ in range(concurrency)]
    errors = [0] * concurrency
    barrier = threading.Barrier(concurrency + 1)

    def read_response(sock, buf):
        """Minimal keep-alive response reader -> (ok, remaining buf)."""
        while b"\r\n\r\n" not in buf:
            chunk = sock.recv(65536)
            if not chunk:
                raise OSError("connection closed mid-response")
            buf += chunk
        head, _, buf = buf.partition(b"\r\n\r\n")
        clen = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        while len(buf) < clen:
            chunk = sock.recv(65536)
            if not chunk:
                raise OSError("connection closed mid-body")
            buf += chunk
        return head.split(b" ", 2)[1] == b"200", buf[clen:]

    def client(tid):
        sock = _connect(port)
        buf = b""
        barrier.wait()
        try:
            for j in range(per_thread):
                req = requests[(tid * per_thread + j) % len(requests)]
                t0 = time.perf_counter()
                try:
                    sock.sendall(req)
                    ok, buf = read_response(sock, buf)
                    if not ok:
                        errors[tid] += 1
                except OSError:
                    errors[tid] += 1
                    sock.close()
                    sock = _connect(port)
                    buf = b""
                latencies[tid].append((time.perf_counter() - t0) * 1e3)
        finally:
            sock.close()

    threads = [
        threading.Thread(target=client, args=(t,)) for t in range(concurrency)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    flat = [ms for per in latencies for ms in per]
    return wall, flat, sum(errors)


def sample_worker_stats(port, workers):
    """Collect per-worker peak RSS (and one batcher snapshot) from
    ``GET /stats``. Accept distribution across fleet workers is the
    kernel's choice, so sample generously and keep whatever answered."""
    rss = {}
    batcher = {}
    for _ in range(max(6, 4 * workers)):
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/stats", timeout=10
            ) as resp:
                body = json.loads(resp.read())
        except OSError:
            continue
        info = body.get("server", {})
        if info.get("rss_kb"):
            rss[str(info["pid"])] = int(info["rss_kb"])
        if info.get("batcher"):
            batcher = {
                key: info["batcher"][key]
                for key in ("requests", "batches", "coalesced", "points")
                if key in info["batcher"]
            }
    return rss, batcher


def run(args) -> dict:
    store = Path(args.store_dir) / "bench_serve.rlof"
    store.parent.mkdir(parents=True, exist_ok=True)
    fit_store(store, args.n, args.dim, args.min_pts, args.seed)

    rng = np.random.default_rng(args.seed + 1)
    pool = rng.normal(size=(args.distinct_points, args.dim))
    payloads = [
        json.dumps(
            {
                "points": pool[
                    np.arange(i, i + args.points_per_request)
                    % len(pool)
                ].tolist()
            }
        ).encode()
        for i in range(len(pool))
    ]

    cells = [
        (workers, bool(batch), cache_size)
        for workers in args.grid_workers
        for batch in args.grid_batch
        for cache_size in args.grid_cache
    ]
    # Best-of-N repeats, interleaved round-robin over the grid: on a
    # shared/preemptible runner both the noise within a run (a stolen
    # core slows it, nothing speeds it up) and the machine's speed
    # drift *between* runs are downward-only, so per cell the max over
    # rounds is the capacity estimate (timeit's min-of-repeats
    # convention) — and measuring every cell once per round keeps the
    # cells whose *ratio* the gate reads temporally adjacent instead of
    # minutes apart on a machine that may have changed speed.
    runs = {cell: [] for cell in cells}
    cpu_of = {cell: [] for cell in cells}
    errors_of = {cell: 0 for cell in cells}
    samples = {cell: ({}, {}) for cell in cells}
    for round_i in range(max(1, args.repeats)):
        for cell in cells:
            workers, batched, cache_size = cell
            proc, port = start_server(
                store, workers, batched, cache_size, args.max_batch
            )
            try:
                # Warmup: fill caches and fault the memmap in.
                run_load(port, args.concurrency, args.warmup, payloads)
                cpu_i = server_cpu_s(proc.pid)
                wall_i, lat_i, err_i = run_load(
                    port, args.concurrency, args.requests, payloads
                )
                cpu_i = server_cpu_s(proc.pid) - cpu_i
                errors_of[cell] += err_i
                cpu_of[cell].append(1e6 * cpu_i / max(len(lat_i) - err_i, 1))
                if not runs[cell] or len(lat_i) / wall_i > max(
                    r[0] for r in runs[cell]
                ):
                    samples[cell] = sample_worker_stats(port, workers)
                runs[cell].append((len(lat_i) / wall_i, wall_i, lat_i))
            finally:
                proc.terminate()
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=15)

    results = []
    for cell in cells:
        workers, batched, cache_size = cell
        _, wall, lat_ms = max(runs[cell], key=lambda r: r[0])
        rss, batcher = samples[cell]
        errors = errors_of[cell]
        done = len(lat_ms)
        record = {
            "workers": workers,
            "batched": batched,
            "cache_size": cache_size,
            "concurrency": args.concurrency,
            "requests": done,
            "points_per_request": args.points_per_request,
            "errors": errors,
            "wall_s": round(wall, 6),
            "req_per_s": round(done / wall, 2) if wall else 0.0,
            "repeats": len(runs[cell]),
            "req_per_s_runs": sorted(
                (round(r[0], 2) for r in runs[cell]), reverse=True
            ),
            "p50_ms": round(statistics.median(lat_ms), 3),
            "p99_ms": round(
                statistics.quantiles(lat_ms, n=100)[98], 3
            ),
            "worker_rss_kb": rss,
            "server_batcher": batcher,
            "server_cpu_us_per_req": round(statistics.median(cpu_of[cell]), 1),
        }
        results.append(record)
        print(
            f"workers={workers} batched={int(batched)} "
            f"cache={cache_size:<5} -> "
            f"{record['req_per_s']:8.1f} req/s  "
            f"p50={record['p50_ms']:6.2f}ms "
            f"p99={record['p99_ms']:6.2f}ms "
            f"cpu={record['server_cpu_us_per_req']:7.1f}us/req "
            f"errors={errors}",
            file=sys.stderr,
        )

    return {
        "schema": SCHEMA,
        "config": {
            "n": args.n,
            "dim": args.dim,
            "min_pts": list(args.min_pts),
            "seed": args.seed,
            "concurrency": args.concurrency,
            "requests": args.requests,
            "repeats": args.repeats,
            "warmup": args.warmup,
            "distinct_points": args.distinct_points,
            "points_per_request": args.points_per_request,
            "max_batch": args.max_batch,
            "grid_workers": args.grid_workers,
            "grid_batch": args.grid_batch,
            "grid_cache": args.grid_cache,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": results,
        "derived": derive(results),
    }


def derive(results) -> dict:
    """Throughput ratios the acceptance criteria read directly.

    Ratios are computed *within* one cache size: a cache-warm unbatched
    cell measures the hit path (HTTP plumbing plus one LRU lookup), not
    scoring, so comparing a batched scoring-path cell against it would
    mix two different workloads. The headline ``batched_over_unbatched``
    is taken at the smallest cache size in the grid — with ``0`` in the
    grid that is the pure scoring path, where coalescing is the only
    thing between a request and the kernels."""
    out = {}
    by_cache = {}
    for cache_size in sorted({r["cache_size"] for r in results}):
        cell = [r for r in results if r["cache_size"] == cache_size]
        unbatched = [
            r for r in cell if not r["batched"] and r["workers"] == 1
        ]
        batched = [r for r in cell if r["batched"]]
        if not unbatched:
            continue
        base = max(unbatched, key=lambda r: r["req_per_s"])
        entry = {"unbatched_single_worker_req_per_s": base["req_per_s"]}
        if batched:
            best = max(batched, key=lambda r: r["req_per_s"])
            entry["best_batched_req_per_s"] = best["req_per_s"]
            entry["best_batched_workers"] = best["workers"]
            if base["req_per_s"]:
                entry["batched_over_unbatched"] = round(
                    best["req_per_s"] / base["req_per_s"], 3
                )
        fleet = [r for r in batched if r["workers"] > 1]
        if fleet and base["req_per_s"]:
            best_fleet = max(fleet, key=lambda r: r["req_per_s"])
            entry["multiworker_batched_req_per_s"] = best_fleet["req_per_s"]
            entry["multiworker_batched_over_unbatched"] = round(
                best_fleet["req_per_s"] / base["req_per_s"], 3
            )
        by_cache[str(cache_size)] = entry
    if by_cache:
        out["by_cache_size"] = by_cache
        headline = by_cache[str(min(int(c) for c in by_cache))]
        for key in (
            "unbatched_single_worker_req_per_s",
            "best_batched_req_per_s",
            "best_batched_workers",
            "batched_over_unbatched",
            "multiworker_batched_req_per_s",
            "multiworker_batched_over_unbatched",
        ):
            if key in headline:
                out[key] = headline[key]
    return out


def validate(payload) -> list:
    """Return a list of schema problems (empty == valid)."""
    problems = []
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    for section in ("config", "environment", "derived"):
        if not isinstance(payload.get(section), dict):
            problems.append(f"missing or non-dict section {section!r}")
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        problems.append("results must be a non-empty list")
        return problems
    for i, record in enumerate(results):
        for field, typ in RESULT_FIELDS.items():
            value = record.get(field)
            if typ is float:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            elif typ is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, typ)
            if not ok:
                problems.append(
                    f"results[{i}].{field} must be {typ.__name__}, got {value!r}"
                )
        if record.get("errors", 0):
            problems.append(
                f"results[{i}] recorded {record['errors']} request errors"
            )
        cpu = record.get("server_cpu_us_per_req")
        if isinstance(cpu, (int, float)) and not cpu > 0:
            problems.append(
                f"results[{i}].server_cpu_us_per_req must be positive, got {cpu!r}"
            )
        rss = record.get("worker_rss_kb")
        if isinstance(rss, dict) and not all(
            isinstance(v, int) and v > 0 for v in rss.values()
        ):
            problems.append(
                f"results[{i}].worker_rss_kb values must be positive ints"
            )
    return problems


def check_speedup(payload, minimum: float) -> list:
    """The CI gate: the best coalesced cell vs the unbatched
    single-worker baseline, at the concurrency the file was recorded
    with and at the smallest cache size in the grid (the pure scoring
    path — see :func:`derive`). The best cell at that cache size (any
    worker count — on few-core CI runners a single batching worker
    often beats two contending ones) must clear the bar; the
    multi-worker ratio is recorded alongside in ``derived``."""
    derived = payload.get("derived", {})
    ratio = derived.get("batched_over_unbatched")
    if ratio is None:
        return ["no batched/unbatched pair in results to compare"]
    if ratio < minimum:
        return [
            f"batched throughput is only {ratio}x the unbatched baseline "
            f"(required: >= {minimum}x)"
        ]
    return []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=500, help="fitted dataset size")
    parser.add_argument("--dim", type=int, default=8)
    parser.add_argument(
        "--min-pts", nargs=2, type=int, default=[3, 20], metavar=("LB", "UB"),
        help="MinPts grid the bench model is fitted with (default: 3 20; "
             "every /score request sweeps and aggregates the whole grid, "
             "so the per-MinPts fixed costs batching amortizes are real)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--concurrency", type=int, default=8, metavar="C",
                        help="closed-loop client threads (default: 8)")
    parser.add_argument("--requests", type=int, default=400, metavar="N",
                        help="measured requests per grid cell (default: 400)")
    parser.add_argument("--repeats", type=int, default=1, metavar="N",
                        help="measured runs per cell; the best (max req/s) "
                             "is recorded, all runs land in req_per_s_runs")
    parser.add_argument("--warmup", type=int, default=64, metavar="N",
                        help="unmeasured warmup requests per cell (default: 64)")
    parser.add_argument("--distinct-points", type=int, default=64, metavar="N",
                        help="distinct query points cycled through (default: 64)")
    parser.add_argument("--points-per-request", type=int, default=1, metavar="N")
    parser.add_argument(
        "--max-batch", type=int, default=8, metavar="N",
        help="server-side batch cap (default: 8 = --concurrency, the "
             "most requests a closed-loop generator can have queued)",
    )
    parser.add_argument("--grid-workers", nargs="+", type=int, default=[1, 2])
    parser.add_argument(
        "--grid-batch", nargs="+", type=int, choices=(0, 1), default=[0, 1],
        help="batcher settings to sweep: 0 is one request per turn "
             "(--max-batch 1, the baseline), 1 the default server",
    )
    parser.add_argument(
        "--grid-cache", nargs="+", type=int, default=[0, 1024],
        help="LRU sizes to sweep; 0 (no cache) isolates the scoring "
             "path and is where the speedup gate is read",
    )
    parser.add_argument("--store-dir", default="/tmp/repro-bench-serve",
                        help="where the fitted store file is written")
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument(
        "--validate", metavar="PATH", default=None,
        help="validate an emitted JSON file against the schema and exit",
    )
    parser.add_argument(
        "--check-speedup", type=float, default=None, metavar="X",
        help="with --validate: also require the best batched cell to "
             "reach X times the unbatched single-worker throughput",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.validate:
        with open(args.validate) as fh:
            payload = json.load(fh)
        problems = validate(payload)
        if args.check_speedup is not None:
            problems += check_speedup(payload, args.check_speedup)
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
