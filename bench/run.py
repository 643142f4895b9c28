#!/usr/bin/env python3
"""The repo benchmark: fit, serve and stream workloads against the real CLI.

Run every workload once and print every end-to-end metric::

    python3 bench/run.py --seed 0

One workload, the way the ``command`` of ``BENCHMARK.json`` is run::

    python3 bench/run.py --workload serve_cold --seed 3 --seconds 14 --trace 0

``--trace 1`` runs the workload twice, once plainly and once with every
``repro`` process launched through ``bench/traced.py``, and reports the
per-layer split instead. ``--runs N --out FILE`` repeats each workload
with seeds ``seed .. seed+N-1`` and saves every value; ``--compare A B``
judges two such files metric by metric. See ``bench/README.md``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import loadgen  # noqa: E402  (sits beside this file)

#: Planted far outliers per dataset; the fit check expects them on top.
N_PLANTED = 8
#: Mixture components of every generated dataset.
N_CLUSTERS = 8
#: Coordinates are rounded to this grid so Definition-4 distance ties occur.
GRID = 3
#: Distance of the planted outliers from the origin (clusters sit in
#: [-10, 10] on every axis).
PLANTED_RADIUS = 60.0
#: Stream regimes: base, then shifted by +30, then by -30 on every axis.
STREAM_SHIFTS = (0.0, 30.0, -30.0)
#: Fewest ingests between two stream refits (``--stream-cooldown``).
STREAM_COOLDOWN = 128
#: Cold starts of ``repro serve`` per run; setup_s is their median.
SETUPS = 5
#: Fewest fits a fit workload makes, however short ``--seconds`` is.
MIN_FITS = 3
#: Fewest open-loop requests, so a tail percentile always exists.
MIN_OPEN = 40
#: Served responses re-scored in-process per run; also the number of
#: check requests a fit workload sends.
CHECK_SAMPLES = 64
#: Points warmed into the LRU for the hot workload (cache holds 1024).
HOT_POINTS = 512
#: Generator lateness above this, at the tail percentile the sample
#: supports, makes a run invalid.
MAX_LATE_MS = 5.0
#: Seconds of ``GET /healthz`` used to measure the generator's ceiling.
CEILING_S = 0.5
#: Percentiles a tail may be reported at; the highest one with at least
#: ten samples beyond it is used.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: Keep-alive connections: one per core the client may leave busy.
CONNS = max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Workload:
    """One workload; its op is one fit or one ``/score`` request.

    A fit workload spends ``--seconds`` on back-to-back ``repro fit`` runs
    (each a closed-loop op with ``limit_ms``); its server only answers the
    set-up probes and :data:`CHECK_SAMPLES` check requests sent at
    ``open_rate``. A serve workload builds its store once, untimed, then
    spends ``open_share`` of ``--seconds`` in the open loop at
    ``open_rate`` and the rest in the closed loop. The stream workload is
    open loop only: its refits land at times that depend on the data, so
    a closed loop's throughput would read when they landed.
    """

    name: str
    n: int
    d: int
    min_pts: Tuple[int, int]
    open_rate: float
    limit_ms: float
    fit: bool = False
    open_share: float = 0.0
    hot: bool = False
    stream: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fit_lowd", n=8192, d=3, min_pts=(10, 20), fit=True,
                 open_rate=64.0, limit_ms=10_000.0),
        Workload("fit_wide", n=2000, d=16, min_pts=(10, 200), fit=True,
                 open_rate=32.0, limit_ms=10_000.0),
        Workload("serve_cold", n=8192, d=3, min_pts=(10, 20),
                 open_rate=64.0, open_share=0.5, limit_ms=50.0),
        Workload("serve_hot", n=8192, d=3, min_pts=(10, 20), hot=True,
                 open_rate=400.0, open_share=0.5, limit_ms=10.0),
        Workload("stream_drift", n=8192, d=3, min_pts=(10, 20), stream=True,
                 open_rate=30.0, open_share=1.0, limit_ms=100.0),
    )
}


# ---------------------------------------------------------------------------
# inputs


class Mixture:
    """Gaussian clusters; samples land on the grid.

    Centers and widths depend only on ``d``: seeds change the points, not
    how the clusters are laid out, so the work per op stays comparable
    from seed to seed.
    """

    def __init__(self, d: int):
        layout = np.random.default_rng(d)
        self.centers = layout.uniform(-10.0, 10.0, size=(N_CLUSTERS, d))
        self.scales = layout.uniform(0.3, 1.0, size=N_CLUSTERS)

    def sample(self, rng: np.random.Generator, m: int, shift: float = 0.0) -> np.ndarray:
        labels = rng.integers(0, N_CLUSTERS, size=m)
        noise = rng.normal(size=(m, self.centers.shape[1])) * self.scales[labels, None]
        return np.round(self.centers[labels] + noise + shift, GRID)


def make_dataset(seed: int, n: int, d: int) -> Tuple[Mixture, np.ndarray]:
    """``n`` points: clusters plus :data:`N_PLANTED` outliers as the last rows."""
    rng = np.random.default_rng([seed, n, d])
    mix = Mixture(d)
    directions = rng.normal(size=(N_PLANTED, d))
    planted = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    X = np.vstack([mix.sample(rng, n - N_PLANTED), np.round(planted * PLANTED_RADIUS, GRID)])
    return mix, X


def unique_rows(Q: np.ndarray) -> np.ndarray:
    """``Q`` without repeated rows, first occurrences in order."""
    _, first = np.unique(Q, axis=0, return_index=True)
    return Q[np.sort(first)]


def score_body(points: np.ndarray) -> bytes:
    return json.dumps({"points": np.atleast_2d(points).tolist()}).encode()


def percentile_for(n: int) -> Optional[float]:
    """Highest percentile of :data:`TAIL_LADDER` with ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return p
    return None


# ---------------------------------------------------------------------------
# processes under test


def vm_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process in MB; 0.0 once it has exited.

    ``ru_maxrss`` from ``wait4`` is not used: at exec the kernel folds the
    RSS of the forking parent into it, so it would report the benchmark's
    own size whenever that is the larger.
    """
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def reap(proc: subprocess.Popen, timeout: float = 30.0) -> Tuple[int, float]:
    """Wait for ``proc`` (SIGKILL after ``timeout``); ``(exit code, peak RSS MB)``.

    The peak is the largest ``VmHWM`` read while waiting, every 20 ms (a
    high-water mark, so sparse reads lose only a peak in the last 20 ms).
    Exit is polled every 2 ms, which bounds the error of a fit's wall.
    """
    deadline = time.monotonic() + timeout
    peak = vm_hwm_mb(proc.pid)
    next_read = time.monotonic() + 0.02
    while True:
        pid, status = os.waitpid(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, peak
        now = time.monotonic()
        if now >= next_read:
            peak = max(peak, vm_hwm_mb(proc.pid))
            next_read = now + 0.02
        if now > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            deadline = float("inf")
        time.sleep(0.002)


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    spawned: float

    @property
    def addr(self) -> Tuple[str, int]:
        return ("127.0.0.1", self.port)

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        """One blocking request on a fresh connection: ``(status, JSON)``."""
        conn = http.client.HTTPConnection(*self.addr, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()


class Launcher:
    """Starts ``repro`` processes, plainly or through ``bench/traced.py``."""

    def __init__(self, workdir: Path, traced: bool):
        self.workdir = workdir
        self.traced = traced
        self.trace_files: List[Path] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self._count = 0

    def popen(self, args: Sequence[str], stdout=subprocess.DEVNULL) -> subprocess.Popen:
        self._count += 1
        cmd = [sys.executable, "-m", "repro", *args]
        if self.traced:
            spans = self.workdir / f"spans-{self._count}.json"
            self.trace_files.append(spans)
            cmd = [sys.executable, str(ROOT / "bench" / "traced.py"), "--spans", str(spans), "--", *args]
        stderr = open(self.workdir / f"stderr-{self._count}.txt", "w")
        try:
            return subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr, text=True
            )
        finally:
            stderr.close()

    def fit(self, csv: Path, out: Path, min_pts: Tuple[int, int]) -> Tuple[float, float, int]:
        """One ``repro fit``: ``(wall seconds, peak RSS MB, exit code)``."""
        start = time.perf_counter()
        proc = self.popen(["fit", str(csv), "--min-pts", *map(str, min_pts), "--out", str(out)])
        code, rss = reap(proc, timeout=170.0)
        return time.perf_counter() - start, rss, code

    def serve(self, store: Path, extra: Sequence[str] = ()) -> Server:
        """Spawn ``repro serve`` on an ephemeral port and read its banner."""
        spawned = time.perf_counter()
        proc = self.popen(["serve", str(store), "--port", "0", *extra], stdout=subprocess.PIPE)
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        banner = proc.stdout.readline() if ready else ""
        if "http://127.0.0.1:" not in banner:
            os.kill(proc.pid, signal.SIGKILL)
            reap(proc)
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        port = int(banner.split("http://127.0.0.1:")[1].split()[0])
        return Server(proc, port, spawned)

    @staticmethod
    def stop(server: Server) -> float:
        """SIGTERM the server and reap it; returns its peak RSS in MB."""
        peak = vm_hwm_mb(server.proc.pid)
        # os.kill, not Popen.send_signal: the latter polls, and a poll
        # that reaps the child would race reap().
        os.kill(server.proc.pid, signal.SIGTERM)
        _, after = reap(server.proc)
        server.proc.stdout.close()
        return max(peak, after)


# ---------------------------------------------------------------------------
# one pass over one workload


@dataclass
class Samples:
    """The measurements of one pass.

    ``op_ms`` holds one latency per op: the fit walls, or the open-loop
    request latencies. ``goodput`` is in ops/s within the latency limit.
    """

    op_ms: np.ndarray
    goodput: float
    goodput_note: str
    setups: List[float]
    peak_rss_mb: float
    late_ms: np.ndarray
    late_invalid: bool
    ceiling_rps: float
    stats: Dict


@dataclass
class Pass:
    """What one pass measured and whether its outputs were right.

    ``problems`` fail the run; ``warnings`` are printed and kept.
    """

    samples: Samples
    attempted: int
    failed: int
    problems: List[str]
    warnings: List[str]
    trace_files: List[Path]


class Tally:
    """Counts attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def responses(self, results: Sequence[loadgen.Result], phase: str) -> None:
        bad = [r.status for r in results if r.status != 200]
        self.attempted += len(results)
        self.failed += len(bad)
        if bad:
            self.problems.append(f"{phase}: {len(bad)} of {len(results)} requests failed")


def stream_flags(seed: int, store_dir: Path) -> List[str]:
    return [
        "--stream", "--stream-window", "512", "--stream-check-every", "64",
        "--stream-cooldown", str(STREAM_COOLDOWN), "--stream-drift-factor", "1.5",
        "--stream-seed", str(seed), "--stream-dir", str(store_dir),
    ]


def fit_phase(w: Workload, launcher: Launcher, csv: Path, seconds: float, tally: Tally):
    """``repro fit`` back to back for ``seconds`` (a fit workload) or once.

    Returns ``(stores, walls, peak RSS MBs)``.
    """
    stores: List[Path] = []
    walls: List[float] = []
    rss: List[float] = []
    start = time.perf_counter()
    # A fit workload starts another fit while it would end, on the last
    # fit's pace, less than half a fit past ``seconds``.
    while not stores or (w.fit and (
        len(stores) < MIN_FITS or time.perf_counter() - start + walls[-1] / 2 < seconds
    )):
        out = launcher.workdir / f"fit-{len(stores)}.rlof"
        wall, mb, code = launcher.fit(csv, out, w.min_pts)
        if not tally.check(code == 0, f"repro fit exited with {code}"):
            break
        stores.append(out)
        walls.append(wall)
        rss.append(mb)
    return stores, walls, rss


def check_fits(stores: List[Path], n: int, tally: Tally) -> None:
    """Repeated fits agree byte for byte; the planted outliers rank on top."""
    from repro.store import load_model, read_header, store_fingerprint

    prints = {store_fingerprint(read_header(p)) for p in stores}
    tally.check(len(prints) == 1, f"{len(stores)} fits wrote {len(prints)} different stores")
    scores = np.asarray(load_model(stores[0]).scores)
    top = set(int(i) for i in np.argsort(-scores, kind="stable")[:N_PLANTED])
    tally.check(
        top == set(range(n - N_PLANTED, n)),
        "the planted outliers are not the top-scored points",
    )
    for extra in stores[1:]:
        extra.unlink()


def check_served(store: Path, answered, rng, tally: Tally) -> None:
    """Sampled responses equal in-process scoring, bit for bit.

    ``answered`` holds ``(stream position, point, response)`` triples.
    """
    from repro.serve import OnlineScorer

    ok = [(point, r) for _, point, r in answered if r.status == 200]
    if not tally.check(len(ok) > 0, "no response is left to check"):
        return
    take = np.sort(rng.choice(len(ok), size=min(CHECK_SAMPLES, len(ok)), replace=False))
    served = np.array([json.loads(ok[j][1].body)["scores"][0] for j in take], dtype=np.float64)
    rows = np.array([ok[j][0] for j in take])
    expected = OnlineScorer.from_path(store).score_new(rows, use_cache=False)
    tally.check(
        served.tobytes() == expected.tobytes(),
        f"{int(np.sum(served != expected))} of {len(take)} sampled responses differ "
        "from in-process scoring",
    )


def settle(server: Server, timeout: float = 60.0) -> Dict:
    """``/stats`` once no stream refit is running."""
    deadline = time.monotonic() + timeout
    while True:
        _, stats = server.request("GET", "/stats")
        if not stats["stream"]["refit_active"] or time.monotonic() > deadline:
            return stats
        time.sleep(0.05)


def check_stream(server: Server, store: Path, mix: Mixture, rng, served_points: int, tally: Tally):
    """Refits happened, their lineage chains up, every served point was
    ingested, and the last refit store answers the final probe."""
    from repro.serve import OnlineScorer
    from repro.store import read_header, store_fingerprint

    lineage = settle(server)["stream"]["lineage"]
    tally.check(len(lineage) >= 2, f"{len(lineage)} refits, expected at least 2")
    parent = store_fingerprint(read_header(store))
    for seq, entry in enumerate(lineage, start=1):
        tally.check(
            entry["seq"] == seq and entry["parent"] == parent,
            f"lineage breaks at refit {seq}",
        )
        parent = entry["fingerprint"]
    probe = mix.sample(rng, 1, shift=STREAM_SHIFTS[-1])
    status, body = server.request("POST", "/score", score_body(probe))
    if tally.check(status == 200, f"final probe answered {status}") and lineage:
        expected = OnlineScorer.from_path(lineage[-1]["path"]).score_new(probe, use_cache=False)
        tally.check(
            np.float64(body["scores"][0]).tobytes() == expected[0].tobytes(),
            "the final probe differs from in-process scoring with the last refit store",
        )
    ingested = settle(server)["stream"]["ingested"]
    tally.check(
        ingested == served_points + 1,
        f"stream ingested {ingested} points, {served_points + 1} were served",
    )
    return lineage


def run_pass(w: Workload, seed: int, seconds: float, traced: bool, workdir: Path) -> Pass:
    from repro.io import save_dataset

    tally = Tally()
    launcher = Launcher(workdir, traced)
    mix, X = make_dataset(seed, w.n, w.d)
    csv = workdir / "data.csv"
    save_dataset(csv, X)
    rng = np.random.default_rng([seed, 1])

    stores, walls, fit_rss = fit_phase(w, launcher, csv, seconds, tally)
    if not stores:
        raise RuntimeError("; ".join(tally.problems))
    check_fits(stores, w.n, tally)
    store = stores[0]

    probe = mix.sample(rng, 1)
    setups: List[float] = []
    closed_results: List[loadgen.Result] = []
    server: Optional[Server] = None
    try:
        for i in range(SETUPS):
            extra = stream_flags(seed, workdir / f"stream-{i}") if w.stream else []
            server = launcher.serve(store, extra)
            status, _ = server.request("POST", "/score", score_body(probe))
            setups.append(time.perf_counter() - server.spawned)
            tally.check(status == 200, f"first /score answered {status}")
            if i < SETUPS - 1:
                launcher.stop(server)
                server = None

        ceiling = loadgen.ceiling(server.addr, CEILING_S, CONNS)
        if w.fit:
            n_open = CHECK_SAMPLES
        else:
            n_open = max(MIN_OPEN, math.ceil(w.open_rate * w.open_share * seconds - 1e-9))
        if w.stream:
            # Each regime outlasts the refit cooldown, so two refits happen.
            n_open = max(n_open, len(STREAM_SHIFTS) * STREAM_COOLDOWN)
        closed_rng = np.random.default_rng([seed, 2])
        if w.hot:
            hot = unique_rows(mix.sample(rng, 2 * HOT_POINTS))[:HOT_POINTS]
            status, _ = server.request("POST", "/score", score_body(hot))
            tally.check(status == 200, f"cache warm-up answered {status}")
            points = hot[rng.integers(0, len(hot), size=n_open)]

            def closed_point():
                return hot[closed_rng.integers(0, len(hot))]
        elif w.stream:
            cuts = np.linspace(0, n_open, len(STREAM_SHIFTS) + 1).astype(int)
            points = np.vstack([
                mix.sample(rng, hi - lo, shift=s)
                for lo, hi, s in zip(cuts[:-1], cuts[1:], STREAM_SHIFTS)
            ])
        else:
            points = unique_rows(mix.sample(rng, n_open + n_open // 4 + 16))[:n_open]

            def closed_point():
                return mix.sample(closed_rng, 1)[0]

        payloads = [loadgen.post("/score", score_body(p)) for p in points]
        open_results, late = loadgen.open_loop(server.addr, payloads, w.open_rate, CONNS)
        tally.responses(open_results, "open loop")
        closed_points: List[np.ndarray] = []

        def closed_payload(i: int) -> bytes:
            closed_points.append(closed_point())
            return loadgen.post("/score", score_body(closed_points[-1]))

        if not w.fit and w.open_share < 1.0:
            closed_results, _ = loadgen.closed_loop(
                server.addr, closed_payload, (1.0 - w.open_share) * seconds, CONNS
            )
            tally.responses(closed_results, "closed loop")

        _, stats = server.request("GET", "/stats")
        # (stream position, point, response); position 0 is the probe.
        answered = [(1 + r.index, points[r.index], r) for r in open_results]
        answered += [(1 + len(open_results) + r.index, closed_points[r.index], r)
                     for r in closed_results]
        if w.stream:
            served = 1 + sum(r.status == 200 for _, _, r in answered)
            lineage = check_stream(server, store, mix, rng, served, tally)
            # Responses from before the first refit was triggered come
            # from the initial store; the slack covers reordering across
            # the connections.
            first = min((entry["t"] for entry in lineage), default=len(answered) + 1)
            answered = [a for a in answered if a[0] + 2 * CONNS < first]
        check_served(store, answered, rng, tally)
    finally:
        server_rss = launcher.stop(server) if server is not None else 0.0

    late_ms = np.array(late) * 1000.0
    # Validity is judged at the tail the sample supports, like latency. A
    # late generator says the host, not the program, was busy: the run is
    # marked invalid but its outputs may still be right, so it does not fail.
    p_late = percentile_for(len(late_ms)) or 50.0
    late_tail = float(np.percentile(late_ms, p_late))
    warnings = []
    if late_tail > MAX_LATE_MS:
        warnings.append(f"generator ran {late_tail:.2f} ms late at p{p_late:g}; "
                        "the run is invalid")
    if w.fit:
        op_ms = np.array(walls) * 1000.0
        # Fits run back to back, so the ops per second are the fits within
        # the limit over the summed walls.
        good = int(np.count_nonzero(op_ms <= w.limit_ms))
        goodput = good / float(np.sum(walls))
        goodput_note = (f"{good} of {len(walls)} fits within {w.limit_ms:g} ms "
                        f"in {np.sum(walls):.2f} s")
    else:
        op_ms = np.array([(r.done - r.due) * 1000.0 for r in open_results])
        # Without a closed loop (stream) the goodput is the open loop's:
        # the offered rate, less the requests that missed the limit.
        timed = closed_results or open_results
        span = max(r.done for r in timed) - min(r.due for r in timed)
        good = sum(1 for r in timed
                   if r.status == 200 and (r.done - r.due) * 1000.0 <= w.limit_ms)
        goodput = good / span
        goodput_note = (f"{good} of {len(timed)} {'closed' if closed_results else 'open'}"
                        f"-loop ops within {w.limit_ms:g} ms in {span:.2f} s")
    return Pass(
        samples=Samples(
            op_ms=op_ms,
            goodput=goodput,
            goodput_note=goodput_note,
            setups=setups,
            peak_rss_mb=max(fit_rss) if w.fit else server_rss,
            late_ms=late_ms,
            late_invalid=bool(warnings),
            ceiling_rps=ceiling,
            stats=stats,
        ),
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        warnings=warnings,
        trace_files=launcher.trace_files,
    )


def end_to_end(w: Workload, s: Samples) -> Tuple[Dict[str, float], Dict[str, str]]:
    """The gated metrics of one pass, and a note on how each was read."""
    p_tail = percentile_for(len(s.op_ms))
    tail = f"p{p_tail:g} {np.percentile(s.op_ms, p_tail):.3f} ms" if p_tail else "no tail"
    if w.fit:
        what = f"p50 of {len(s.op_ms)} fits"
    else:
        what = f"p50 of {len(s.op_ms)} open-loop requests at {w.open_rate:g}/s"
    metrics = {
        "latency_ms": float(np.median(s.op_ms)),
        "goodput_ops": s.goodput,
        "peak_rss_mb": s.peak_rss_mb,
        "setup_s": statistics.median(s.setups),
    }
    notes = {
        "latency_ms": f"{what}; {tail}",
        "goodput_ops": s.goodput_note,
        "peak_rss_mb": "largest fit" if w.fit else "the measured server",
        "setup_s": f"median of {len(s.setups)} cold starts, "
                   f"{min(s.setups):.3f}..{max(s.setups):.3f} s",
    }
    return metrics, notes


def run_wide(w: Workload, s: Samples) -> Dict[str, float]:
    """Numbers about the whole run: server counters and the generator."""
    cache = s.stats["cache"]
    batcher = s.stats["server"]["batcher"]
    return {
        "serve.cache_hit_frac": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "serve.batch_points_mean": batcher["points"] / max(1, batcher["batches"]),
        "client.ceiling_rps": s.ceiling_rps,
        "client.late_ms_p99": float(np.percentile(s.late_ms, 99)),
        "client.late_invalid": float(s.late_invalid),
        "client.bound": float(not w.fit and s.goodput > s.ceiling_rps / 2.0),
    }


# ---------------------------------------------------------------------------
# per-layer split from the traced pass

#: Layers of a fit, all inside ``cli.main`` of a ``repro fit`` process.
FIT_LAYERS = (
    "cli.main", "io.load_dataset", "estimator.fit", "materialization.build",
    "index.knn", "graph.build", "range_lof.sweep", "scoring.kernel", "store.save",
)
#: Layers of a ``/score`` request, all inside ``serve.request``.
REQUEST_LAYERS = (
    "serve.request", "serve.parse", "serve.submit", "serve.queue_wait",
    "serve.score", "serve.knn", "scorers.score_query", "serve.encode",
    "serve.reply", "stream.observe", "streaming.push",
)


def _self_times(spans: List[list]) -> List[Tuple[list, float]]:
    """Each span with its duration minus the part its children cover."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1]:
            covered[span[1]] += span[4] - span[3]
    return [(span, span[4] - span[3] - covered[span[0]]) for span in spans]


def summarize_traces(files: Sequence[Path], setup_requests: int = 1) -> Dict[str, float]:
    """Per-layer metrics over every traced process of one pass.

    A fit layer is normalised per fit and its share is taken of the
    ``cli.main`` wall of the fits. A request layer is normalised per
    ``/score`` request; work done for a coalesced batch counts once for
    every request in it, since each of them waited for all of it, and its
    share is taken of the summed ``serve.request`` wall. ``serve.request``
    itself is that wall minus every other request layer. ``store.load`` is
    per server start, ``stream.refit`` (a whole refit, on its own thread)
    per request.
    """
    fit = {"ops": 0, "wall": 0.0, "calls": defaultdict(int), "self": defaultdict(float)}
    req = {"ops": 0, "wall": 0.0, "calls": defaultdict(int), "self": defaultdict(float)}
    loads = {"ops": 0, "calls": 0, "self": 0.0}
    refit = {"calls": 0, "wall": 0.0}
    counters: Dict[str, int] = defaultdict(int)
    for path in files:
        trace = json.loads(path.read_text())
        timed = _self_times(trace["spans"])
        if trace["argv"][0] == "fit":
            fit["ops"] += 1
            for name, n in trace["counters"].items():
                counters[name] += n
            for span, own in timed:
                fit["calls"][span[2]] += 1
                fit["self"][span[2]] += own
                if span[2] == "cli.main":
                    fit["wall"] += span[4] - span[3]
            continue
        loads["ops"] += 1
        for span, own in timed:
            # The first requests of every server are set-up: the probe
            # that setup_s times (it also warms the per-MinPts caches)
            # and, for the hot workload, the cache warm-up.
            layer, thread = span[2], span[5]
            requests = [rid for rid in span[6] if rid > setup_requests]
            if span[6] and not requests:
                continue
            if layer == "store.load" and thread == trace["main_thread"]:
                loads["calls"] += 1
                loads["self"] += own
            elif layer == "stream.refit":
                refit["calls"] += 1
                refit["wall"] += span[4] - span[3]
            elif layer == "serve.request":
                req["ops"] += 1
                req["calls"][layer] += 1
                req["wall"] += span[4] - span[3]
            elif requests:
                req["calls"][layer] += 1
                req["self"][layer] += own * len(requests)
    req["self"]["serve.request"] = req["wall"] - sum(
        v for k, v in req["self"].items() if k != "serve.request"
    )
    out: Dict[str, float] = {}
    for group, layers in ((fit, FIT_LAYERS), (req, REQUEST_LAYERS)):
        ops = max(1, group["ops"])
        for layer in layers:
            out[f"{layer}.calls_per_op"] = group["calls"][layer] / ops
            out[f"{layer}.self_us_per_op"] = group["self"][layer] / ops * 1e6
            out[f"{layer}.share"] = group["self"][layer] / group["wall"] if group["wall"] else 0.0
    out["store.load.calls_per_op"] = loads["calls"] / max(1, loads["ops"])
    out["store.load.self_us_per_op"] = loads["self"] / max(1, loads["ops"]) * 1e6
    out["stream.refit.calls_per_op"] = refit["calls"] / max(1, req["ops"])
    out["stream.refit.self_us_per_op"] = refit["wall"] / max(1, req["ops"]) * 1e6
    out["distance.evaluations_per_fit"] = counters["distance.evaluations"] / max(1, fit["ops"])
    out["knn.queries_per_fit"] = counters["knn.queries"] / max(1, fit["ops"])
    out["layers.coverage.fit"] = 1.0 - out["cli.main.share"]
    out["layers.coverage.request"] = 1.0 - out["serve.request.share"]
    out["layers.coverage"] = min(out["layers.coverage.fit"], out["layers.coverage.request"])
    out["trace.fits"] = float(fit["ops"])
    out["trace.requests"] = float(req["ops"])
    return out


# ---------------------------------------------------------------------------
# comparing two result files


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return float("inf")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(parent: Sequence[float], change: Sequence[float], bound: float, better: str) -> str:
    """better, same, worse or unresolved for one metric on one workload.

    Worse when the change's median is worse than the parent's by more
    than ``bound``. When either side's spread is wider than the bound the
    answer is unresolved, unless every run of the change beats every run
    of the parent. Better needs the medians to differ by more than the
    parent's own quartile spread.
    """
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(parent), spread(change)) > bound:
        # Oriented so that lower always reads better.
        every_run_better = max(sign * v for v in change) < min(sign * v for v in parent)
        return "better" if every_run_better else "unresolved"
    a, b = statistics.median(parent), statistics.median(change)
    worse_by = sign * (b - a) / abs(a)
    if worse_by > bound:
        return "worse"
    if -worse_by > spread(parent):
        return "better"
    return "same"


def compare(path_a: Path, path_b: Path, spec: Dict) -> int:
    a = json.loads(Path(path_a).read_text())["runs"]
    b = json.loads(Path(path_b).read_text())["runs"]
    print(f"{'workload':<14} {'metric':<13} {'A median':>12} {'B median':>12} "
          f"{'A spread':>9} {'B spread':>9} {'bound':>6}  verdict")
    for name in sorted(set(a) & set(b)):
        for metric in spec["end_to_end"]:
            key = metric["name"]
            va = [run[key] for run in a[name] if key in run]
            vb = [run[key] for run in b[name] if key in run]
            if not va or not vb:
                continue
            print(
                f"{name:<14} {key:<13} {statistics.median(va):>12.4f} "
                f"{statistics.median(vb):>12.4f} {spread(va):>9.3f} {spread(vb):>9.3f} "
                f"{metric['bound']:>6.2f}  "
                f"{verdict(va, vb, metric['bound'], metric['better'])}"
            )
    return 0


# ---------------------------------------------------------------------------
# command line


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, validate: bool,
                 scratch: Path) -> Dict:
    """One run: the plain pass, plus the traced pass when ``trace``."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch))
    passes: List[Pass] = []
    problems: List[str] = []
    try:
        for traced in (False, True) if trace else (False,):
            passdir = workdir / ("traced" if traced else "plain")
            passdir.mkdir()
            passes.append(run_pass(w, seed, seconds, traced, passdir))
            if traced:
                layers = summarize_traces(passes[-1].trace_files, 2 if w.hot else 1)
    except Exception as exc:  # a crashed pass is a failed run, not a crash
        problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p.attempted for p in passes) + (1 if problems else 0)
    failed = sum(p.failed for p in passes) + (1 if problems else 0)
    problems += [msg for p in passes for msg in p.problems]
    warnings = [msg for p in passes for msg in p.warnings]
    metrics: Dict[str, float] = {}
    notes: Dict[str, str] = {}
    # Run-wide numbers come from the plain pass: tracing slows the server,
    # and client.bound compares the plain goodput with the ceiling.
    wide = run_wide(w, passes[0].samples) if passes else {}
    if passes and not trace:
        metrics, notes = end_to_end(w, passes[0].samples)
    elif len(passes) == 2:
        plain, traced = (np.median(p.samples.op_ms) for p in passes)
        metrics = {**layers, **wide, "trace.overhead_frac": traced / plain - 1.0}
        notes["trace.overhead_frac"] = "traced vs plain median op latency"
        if validate and metrics["layers.coverage"] < 0.90:
            problems.append(f"layers cover {metrics['layers.coverage']:.3f} of the op wall")
    return {
        "workload": w.name,
        "seed": seed,
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed + (1 if problems and not failed else 0),
        "metrics": metrics,
        "notes": notes,
        "run_wide": {} if trace else wide,
        "problems": problems,
        "warnings": warnings,
    }


def report(outcome: Dict, group: Sequence[Dict], trace: bool) -> Dict:
    """Print one run's metrics; returns its result JSON object."""
    units = {m["name"]: m["unit"] for m in group}
    metrics = outcome["metrics"]
    shown = sorted(metrics) if trace else [m["name"] for m in group]
    for name in shown:
        if name in metrics:
            print(
                f"{outcome['workload']:<13} {name:<36} {metrics[name]:>14.6g} "
                f"{units.get(name, ''):<9} {outcome['notes'].get(name, '')}"
            )
    for name, value in outcome["run_wide"].items():
        print(f"{outcome['workload']:<13} {name:<36} {value:>14.6g}")
    for warning in outcome["warnings"]:
        print(f"{outcome['workload']:<13} WARNING: {warning}")
    for problem in outcome["problems"]:
        print(f"{outcome['workload']:<13} FAILED: {problem}")
    missing = [name for name in units if name not in metrics]
    correct = outcome["correct"] and not missing
    return {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"] + (1 if correct != outcome["correct"] else 0),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if name in metrics
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report the per-layer split from a traced pass")
    parser.add_argument("--validate", action="store_true",
                        help="with --trace: fail when layers cover < 90%% of the op wall")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat each workload with consecutive seeds")
    parser.add_argument("--out", type=Path, default=None,
                        help="save every run's metrics to this JSON file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="judge two --out files metric by metric")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, spec)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds or float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)

    objects: List[Dict] = []
    saved: Dict[str, List[Dict]] = {}
    for name in names:
        for seed in range(args.seed, args.seed + args.runs):
            outcome = run_workload(
                WORKLOADS[name], seed, seconds, bool(args.trace), args.validate, scratch
            )
            objects.append(report(outcome, group, bool(args.trace)))
            saved.setdefault(name, []).append({**outcome["metrics"], **outcome["run_wide"]})
            if len(names) * args.runs > 1:
                print(json.dumps(objects[-1]), flush=True)
    try:
        scratch.rmdir()
    except OSError:
        pass
    if args.out:
        summary = {
            name: {
                metric: {
                    "median": statistics.median(values),
                    "q1": statistics.quantiles(values, n=4)[0],
                    "q3": statistics.quantiles(values, n=4)[2],
                    "spread": spread(values),
                }
                for metric in runs[0]
                for values in [[run[metric] for run in runs if metric in run]]
                if len(values) >= 2
            }
            for name, runs in saved.items() if runs
        }
        args.out.write_text(json.dumps(
            {
                "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                         "machine": platform.machine()},
                "seed": args.seed, "runs_per_workload": args.runs, "seconds": seconds,
                "trace": args.trace, "summary": summary, "runs": saved,
            },
            indent=1,
        ) + "\n")

    if len(objects) == 1:
        final = objects[0]
    else:
        final = {
            "correct": all(o["correct"] for o in objects),
            "attempted": sum(o["attempted"] for o in objects),
            "failed": sum(o["failed"] for o in objects),
            "metrics": {
                f"{name}.{metric}": {
                    "value": statistics.median(run[metric] for run in runs),
                    "unit": unit,
                }
                for name, runs in saved.items()
                for metric, unit in ((m["name"], m["unit"]) for m in group)
                if all(metric in run for run in runs)
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
