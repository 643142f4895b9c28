"""Tests of the benchmark's own machinery: ``python -m pytest bench -q``.

They make no assertions on wall-clock values.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import loadgen  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402


# -- the percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99.0), (999, 98.0), (500, 98.0), (499, 95.0), (200, 95.0),
     (100, 90.0), (50, 80.0), (40, 75.0), (20, 50.0), (19, None), (0, None)],
)
def test_tail_percentile_examples(n, expected):
    assert run.percentile_for(n) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(20, 3000):
        p = run.percentile_for(n)
        assert n * (100.0 - p) / 100.0 >= 10.0
        higher = [q for q in run.TAIL_LADDER if q > p]
        assert all(n * (100.0 - q) / 100.0 < 10.0 for q in higher)


# -- the tracer ----------------------------------------------------------------


def _bindings():
    """Every object the tracer may rebind, by identity."""
    import importlib

    for _, module_name, _ in traced.LAYERS:
        importlib.import_module(module_name)
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in vars(module).items():
                if callable(value) or isinstance(value, type(json)):
                    out[(name, attr)] = value
                if isinstance(value, type):
                    for member, descriptor in vars(value).items():
                        out[(name, attr, member)] = descriptor
    return out


def test_tracer_unwrap_restores_every_binding():
    before = _bindings()
    tracer = traced.Tracer()
    tracer.install()
    try:
        import repro.cli
        import repro.serve

        assert repro.cli.main.__traced_original__ is before[("repro.cli", "main")]
        assert repro.serve.json is not before[("repro.serve", "json")]
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert changed
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_records_nested_fit_spans(tmp_path):
    from repro.io import save_dataset

    _, X = run.make_dataset(0, 200, 2)
    csv = tmp_path / "data.csv"
    save_dataset(csv, X)
    tracer = traced.Tracer()
    tracer.install()
    try:
        import repro.cli

        rc = repro.cli.main(["fit", str(csv), "--min-pts", "5", "8",
                             "--out", str(tmp_path / "m.rlof")])
    finally:
        tracer.uninstall()
    assert rc == 0
    by_id = {span[0]: span for span in tracer.spans}
    layers = {span[2] for span in tracer.spans}
    assert {"cli.main", "io.load_dataset", "estimator.fit", "index.knn",
            "range_lof.sweep", "scoring.kernel", "store.save"} <= layers
    knn = [span for span in tracer.spans if span[2] == "index.knn"]
    assert len(knn) == 200
    for span in tracer.spans:
        if span[1]:
            parent = by_id[span[1]]
            assert parent[3] <= span[3] <= span[4] <= parent[4]
    roots = [span for span in tracer.spans if not span[1]]
    assert [span[2] for span in roots] == ["cli.main"]


def test_tracer_times_every_queued_request(tmp_path):
    """Each request gets one queue_wait span, even when the batcher thread
    takes it off the queue before ``submit`` has returned."""
    from repro.io import save_dataset
    import repro.cli
    from repro.serve import OnlineScorer, ScoreBatcher

    mix, X = run.make_dataset(0, 200, 2)
    save_dataset(tmp_path / "data.csv", X)
    store = tmp_path / "m.rlof"
    assert repro.cli.main(["fit", str(tmp_path / "data.csv"), "--min-pts", "5", "8",
                           "--out", str(store)]) == 0
    online = OnlineScorer.from_path(store)
    points = mix.sample(np.random.default_rng(1), 20)
    tracer = traced.Tracer()
    tracer.install()
    try:
        batcher = ScoreBatcher(lambda: online, batch_window_ms=0.0)
        put = batcher._queue.put

        def put_and_wait_for_the_answer(item, *args, **kwargs):
            put(item, *args, **kwargs)
            if item is not None:
                item[-1].result()

        batcher._queue.put = put_and_wait_for_the_answer
        for rid in range(1, 21):
            tracer._state().requests = (rid,)
            batcher.submit(points[rid - 1:rid], None).result()
        batcher.close()
    finally:
        tracer.uninstall()
    waits = [span for span in tracer.spans if span[2] == "serve.queue_wait"]
    assert sorted(span[6][0] for span in waits) == list(range(1, 21))
    assert all(span[3] <= span[4] for span in waits)
    assert tracer._submitted == {}


def test_summarize_traces_splits_self_time(tmp_path):
    fit = {
        "argv": ["fit"], "main_thread": 1, "counters": {"knn.queries": 4},
        "spans": [
            [1, 0, "cli.main", 0.0, 10.0, 1, []],
            [2, 1, "estimator.fit", 1.0, 9.0, 1, []],
            [3, 2, "index.knn", 2.0, 5.0, 1, []],
        ],
    }
    serve = {
        "argv": ["serve"], "main_thread": 1, "counters": {},
        "spans": [
            [1, 0, "store.load", 0.0, 0.5, 1, []],
            [2, 0, "serve.request", 1.0, 2.0, 7, [1]],
            [3, 0, "serve.request", 3.0, 4.0, 7, [2]],
            [4, 0, "serve.request", 3.0, 4.0, 8, [3]],
            [5, 3, "serve.parse", 3.0, 3.1, 7, [2]],
            [6, 0, "serve.queue_wait", 3.1, 3.5, 9, [2]],
            [7, 0, "serve.score", 3.5, 3.9, 9, [2, 3]],
            [8, 7, "serve.knn", 3.5, 3.7, 9, [2, 3]],
        ],
    }
    paths = []
    for i, trace in enumerate((fit, serve)):
        paths.append(tmp_path / f"t{i}.json")
        paths[-1].write_text(json.dumps(trace))
    out = run.summarize_traces(paths)
    assert out["estimator.fit.self_us_per_op"] == pytest.approx(5e6)
    assert out["cli.main.share"] == pytest.approx(0.2)
    assert out["layers.coverage.fit"] == pytest.approx(0.8)
    assert out["knn.queries_per_fit"] == 4
    # Request 1 is the set-up probe; requests 2 and 3 share one batch.
    assert out["serve.request.calls_per_op"] == 1
    assert out["serve.score.calls_per_op"] == pytest.approx(0.5)
    assert out["serve.knn.self_us_per_op"] == pytest.approx(0.2e6)
    assert out["serve.queue_wait.share"] == pytest.approx(0.2)
    assert out["layers.coverage.request"] == pytest.approx((0.1 + 0.4 + 0.4 + 0.4) / 2)
    assert out["store.load.self_us_per_op"] == pytest.approx(0.5e6)


# -- the load generator ----------------------------------------------------------


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def _send(self, status, payload):
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802
        self._send(200, {"status": "ok"})

    def do_POST(self):  # noqa: N802
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if body.get("fail"):
            self._send(500, {"error": "asked to fail"})
        else:
            self._send(200, {"echo": body["i"]})


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_open_loop_answers_every_request_in_schedule_order(stub):
    payloads = [
        loadgen.post("/score", json.dumps({"i": i, "fail": i % 7 == 3}).encode())
        for i in range(40)
    ]
    results, late = loadgen.open_loop(stub, payloads, rate=400.0, conns=2)
    assert len(late) == len(results) == 40
    assert sorted(r.index for r in results) == list(range(40))
    for r in results:
        assert r.due <= r.done and r.sent <= r.done
        if r.index % 7 == 3:
            assert r.status == 500
        else:
            assert r.status == 200 and json.loads(r.body) == {"echo": r.index}
    dues = sorted(r.due for r in results)
    gaps = np.diff(dues)
    assert np.allclose(gaps, 1 / 400.0)


def test_closed_loop_and_ceiling(stub):
    results, elapsed = loadgen.closed_loop(
        stub, lambda i: loadgen.post("/score", json.dumps({"i": i}).encode()), 0.2, conns=2
    )
    assert results and elapsed > 0
    assert all(r.status == 200 for r in results)
    assert sorted(json.loads(r.body)["echo"] for r in results) == list(range(len(results)))
    assert loadgen.ceiling(stub, seconds=0.1, conns=2) > 0


# -- --compare verdicts ----------------------------------------------------------


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


@pytest.mark.parametrize(
    "change, bound, better, expected",
    [
        ([v * 1.02 for v in BASE], 0.1, "lower", "same"),
        ([v * 1.2 for v in BASE], 0.1, "lower", "worse"),
        ([v * 0.8 for v in BASE], 0.1, "lower", "better"),
        ([v * 0.8 for v in BASE], 0.1, "higher", "worse"),
        ([v * 1.2 for v in BASE], 0.1, "higher", "better"),
        ([60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0], 0.1, "lower",
         "unresolved"),
        ([60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0], 0.5, "lower",
         "same"),
        ([10.0, 50.0, 90.0, 20.0, 60.0, 30.0, 80.0, 40.0, 70.0, 15.0], 0.1, "lower",
         "better"),
        ([v * 1.0005 for v in BASE], 0.1, "higher", "same"),
    ],
)
def test_compare_verdicts(change, bound, better, expected):
    assert run.verdict(BASE, change, bound, better) == expected


def test_compare_reads_out_files(tmp_path, capsys):
    spec = {"end_to_end": [{"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    for name, values in (("a", BASE), ("b", [v * 1.5 for v in BASE])):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"runs": {"fit_lowd": [{"fit_s": v} for v in values]}}
        ))
    assert run.compare(tmp_path / "a.json", tmp_path / "b.json", spec) == 0
    assert "worse" in capsys.readouterr().out
