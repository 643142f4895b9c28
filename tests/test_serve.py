"""The online scoring engine and its HTTP surface.

Three contracts:

* *definitional* — ``score_new`` on an unseen point equals a naive
  transliteration of Definitions 3-7 that treats the query as external
  to the dataset;
* *self-consistency* — ``score_new`` on a stored object (``exclude=i``)
  is bit-for-bit the fitted LOF value, in-memory or memmap;
* *determinism* — the LRU cache and its counters are exact, including
  under concurrent hammering: every public scorer call holds the
  scorer's one lock, so N threads produce bit-identical scores and
  exactly the serial counters;
* *coalescing* — an idle worker scores a request on the caller's
  thread, requests queued behind a running score are stacked into one
  kernel call (:class:`~repro.serve.ScoreBatcher`), both bit-identical
  to scoring each request alone, and a hot-swap (``/admin/reload``) mid-hammer
  never drops, corrupts, or double-counts a request.
"""

import http.client
import json
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import LocalOutlierFactor, MaterializationDB, obs
from repro.core.parallel import fork_available
from repro.core.range_lof import _AGGREGATES
from repro.exceptions import ServeError, StoreMismatchError, ValidationError
from repro.serve import MAX_BODY_BYTES, LRUCache, OnlineScorer, ScoreBatcher, make_server
from repro.store import load_model, save_model, store_fingerprint


@pytest.fixture
def fitted_store(tmp_path, two_density_clusters):
    path = tmp_path / "est.rlof"
    est = LocalOutlierFactor(min_pts=(4, 10)).fit(two_density_clusters)
    est.save(path)
    return path, est


@pytest.fixture
def scorer(fitted_store):
    path, est = fitted_store
    return OnlineScorer.from_path(path), est


def naive_external_lof(mat, X, q, k, metric="euclidean"):
    """LOF of external query q, straight from the definitions: the
    stored objects' k-distances and lrds are those of the fitted model
    (q is not part of the dataset)."""
    if metric == "euclidean":
        d = np.sqrt(((X - q) ** 2).sum(axis=1))
    else:
        d = np.abs(X - q).sum(axis=1)
    kth = np.partition(d, k - 1)[k - 1]
    ids = np.flatnonzero(d <= kth)  # Definition 4: closed ball, ties in
    kd = mat.k_distances(k)
    lrd = mat.lrd(k)
    reach = np.maximum(kd[ids], d[ids])  # Definition 5
    lrd_q = len(ids) / reach.sum()  # Definition 6
    return float(np.mean(lrd[ids] / lrd_q))  # Definition 7


class TestScoreNew:
    def test_matches_naive_oracle_on_unseen_points(self, scorer):
        sc, est = scorer
        rng = np.random.default_rng(5)
        Q = rng.uniform(-5.0, 45.0, size=(30, 2))
        for k in (4, 7, 10):
            got = sc.score_new(Q, min_pts=k)
            want = [naive_external_lof(sc.mat, sc.X, q, k) for q in Q]
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_grid_aggregation_matches_per_k(self, scorer):
        sc, est = scorer
        Q = np.random.default_rng(6).uniform(0.0, 40.0, size=(12, 2))
        per_k = np.vstack([sc.score_new(Q, min_pts=k) for k in sc.min_pts_grid])
        np.testing.assert_array_equal(
            sc.score_new(Q), _AGGREGATES[sc.aggregate](per_k)
        )

    def test_served_rows_are_checked_once(self, scorer, monkeypatch):
        # score_new checks the rows; the k-NN behind it skips the index's
        # own batch checks but still counts as one batch of m queries.
        from repro.index.base import NNIndex

        sc, _ = scorer
        Q = np.random.default_rng(8).uniform(0.0, 40.0, size=(5, 2))
        want = sc.score_new(Q, use_cache=False)

        def fail(*args, **kwargs):
            raise AssertionError("served rows checked twice")

        monkeypatch.setattr(NNIndex, "_check_batch", fail)
        with obs.collect() as snap:
            got = sc.score_new(Q, use_cache=False)
        assert got.tobytes() == want.tobytes()
        assert snap["counters"]["knn.queries"] == 5
        assert snap["counters"]["knn.batch_queries"] == 1
        with pytest.raises(ValidationError):
            sc.score_new(np.array([[np.nan, 0.0]]))

    def test_self_path_bit_identical(self, scorer):
        sc, est = scorer
        X = est.X_
        ex = np.arange(len(X))
        assert np.array_equal(sc.score_new(X, exclude=ex), est.scores_)
        assert np.array_equal(
            sc.score_new(X, min_pts=7, exclude=ex), est.materialization_.lof(7)
        )

    def test_self_path_bit_identical_memmap(self, fitted_store):
        path, est = fitted_store
        sc = OnlineScorer.from_path(path, mmap=True)
        assert np.array_equal(
            sc.score_new(est.X_, exclude=np.arange(len(est.X_))), est.scores_
        )

    def test_deep_cluster_point_scores_near_one(self, scorer):
        sc, est = scorer
        # The dense cluster of the fixture is centered at (40, 10).
        score = sc.score_new([[40.0, 10.0]], min_pts=6)[0]
        assert 0.8 < score < 1.3

    def test_far_point_scores_high(self, scorer):
        sc, _ = scorer
        assert sc.score_new([[200.0, 200.0]], min_pts=6)[0] > 5.0

    def test_feature_mismatch_rejected(self, scorer):
        sc, _ = scorer
        with pytest.raises(ValidationError, match="features"):
            sc.score_new([[1.0, 2.0, 3.0]])

    def test_min_pts_above_bound_rejected(self, scorer):
        sc, _ = scorer
        with pytest.raises(ValidationError):
            sc.score_new([[0.0, 0.0]], min_pts=99)

    def test_store_without_snapshot_rejected(self, tmp_path, two_density_clusters):
        mat = MaterializationDB.materialize(two_density_clusters, 5)
        save_model(tmp_path / "m.rlof", mat)  # no X
        with pytest.raises(StoreMismatchError, match="snapshot"):
            OnlineScorer(load_model(tmp_path / "m.rlof"))

    def test_distinct_mode_duplicate_query(self, tmp_path):
        rng = np.random.default_rng(9)
        X = np.vstack([np.repeat([[1.0, 1.0]], 6, axis=0), rng.normal(4, 1, (40, 2))])
        est = LocalOutlierFactor(min_pts=4, duplicate_mode="distinct").fit(X)
        est.save(tmp_path / "d.rlof")
        sc = OnlineScorer.from_path(tmp_path / "d.rlof")
        assert np.array_equal(
            sc.score_new(X, exclude=np.arange(len(X))), est.scores_
        )
        # A query co-located with the duplicate pile still gets a finite
        # score: its neighborhood radius is the 4-distinct-distance.
        assert np.isfinite(sc.score_new([[1.0, 1.0]], min_pts=4)[0])
        # Coordinates whose distances all overflow to inf: no distinct
        # location is reachable, so the radius does not exist.
        with pytest.raises(ValidationError, match="distinct coordinate"):
            sc.score_new([[1e200, 1e200]], min_pts=4)

    def test_exclude_validation(self, scorer):
        sc, _ = scorer
        with pytest.raises(ValidationError, match="one entry per query row"):
            sc.score_new([[0.0, 0.0]], exclude=[1, 2])
        with pytest.raises(ValidationError, match="stored object ids"):
            sc.score_new([[0.0, 0.0]], exclude=[sc.mat.n_points])

    def test_unknown_aggregate_in_metadata_rejected(self, fitted_store):
        path, _ = fitted_store
        model = load_model(path)
        model.estimator = dict(model.estimator, aggregate="bogus")
        with pytest.raises(ValidationError, match="aggregate"):
            OnlineScorer(model)


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)
        cache.get("b")  # evicted -> miss
        assert cache.get("a") == 1 and cache.get("c") == 3  # survivors
        assert cache.cache_info() == {
            "hits": 3, "misses": 1, "size": 2, "capacity": 2,
        }

    def test_zero_capacity_disables(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert len(cache) == 0
        cache.get("a")
        assert cache.misses == 1 and cache.hits == 0

    def test_clear_resets_counters(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.cache_info()["hits"] == 0
        assert cache.cache_info()["misses"] == 0

    def test_hit_miss_counters_deterministic(self, scorer):
        sc, _ = scorer
        Q = np.random.default_rng(7).uniform(0.0, 40.0, size=(6, 2))
        obs.enable()
        sc.score_new(Q)  # 6 misses
        sc.score_new(Q)  # 6 hits
        sc.score_new(Q[:3])  # 3 hits
        assert sc.cache.misses == 6
        assert sc.cache.hits == 9
        assert obs.counter("serve.cache.misses") == 6
        assert obs.counter("serve.cache.hits") == 9
        assert obs.counter("serve.points_scored") == 15

    def test_cache_key_includes_min_pts(self, scorer):
        sc, _ = scorer
        q = [[3.0, 3.0]]
        sc.score_new(q, min_pts=4)
        sc.score_new(q, min_pts=5)
        assert sc.cache.hits == 0 and sc.cache.misses == 2

    def test_use_cache_false_bypasses(self, scorer):
        sc, _ = scorer
        q = [[3.0, 3.0]]
        a = sc.score_new(q, use_cache=False)
        b = sc.score_new(q, use_cache=False)
        assert np.array_equal(a, b)
        assert sc.cache.hits == 0 and sc.cache.misses == 0


class TestConcurrency:
    def test_threads_bit_identical_and_counters_exact(self, scorer):
        sc, _ = scorer
        rng = np.random.default_rng(8)
        Q = rng.uniform(0.0, 40.0, size=(10, 2))
        serial = OnlineScorer(sc.model)  # fresh cache, same store
        want = serial.score_new(Q)

        n_threads, rounds = 8, 5
        results = {}
        errors = []
        obs.enable()
        obs.reset()

        def hammer(tid):
            try:
                out = [sc.score_new(Q) for _ in range(rounds)]
                results[tid] = out
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for out in results.values():
            for arr in out:
                assert np.array_equal(arr, want)
        # Every distinct point is computed exactly once (the cache holds
        # all 10), every other lookup hits: no wall-clock, no tolerance.
        total = n_threads * rounds * len(Q)
        assert sc.cache.misses == len(Q)
        assert sc.cache.hits == total - len(Q)
        assert obs.counter("serve.cache.misses") == len(Q)
        assert obs.counter("serve.cache.hits") == total - len(Q)
        assert obs.counter("serve.points_scored") == total


class TestClassifyNew:
    def test_bounds_bracket_exact_scores(self, scorer):
        sc, _ = scorer
        Q = np.random.default_rng(10).uniform(-5.0, 45.0, size=(25, 2))
        res = sc.classify_new(Q, min_pts=6, threshold=1.5)
        exact = sc.score_new(Q, min_pts=6, use_cache=False)
        assert np.all(res.lower <= exact + 1e-12)
        assert np.all(exact <= res.upper + 1e-12)
        assert np.array_equal(res.labels, np.where(exact > 1.5, -1, 1))
        assert res.pruned + res.exact == len(Q)
        # Exact scores only where the bracket straddled the threshold.
        assert np.all(np.isnan(res.scores[np.isnan(res.scores)]))

    def test_obvious_points_pruned(self, scorer):
        sc, _ = scorer
        # Deep in the dense cluster and absurdly far away: both brackets
        # should decide without the exact kernels.
        obs.enable()
        res = sc.classify_new(
            [[40.0, 10.0], [1e4, 1e4]], min_pts=6, threshold=2.0
        )
        assert list(res.labels) == [1, -1]
        assert res.pruned == 2 and res.exact == 0
        assert obs.counter("serve.bounds.pruned") == 2
        assert obs.counter("serve.bounds.exact") == 0

    def test_grid_brackets_aggregated_score(self, scorer):
        sc, _ = scorer
        Q = np.random.default_rng(12).uniform(0.0, 40.0, size=(15, 2))
        res = sc.classify_new(Q)
        agg = sc.score_new(Q, use_cache=False)
        assert np.all(res.lower <= agg + 1e-12)
        assert np.all(agg <= res.upper + 1e-12)


class TestHTTPServer:
    @pytest.fixture
    def server(self, fitted_store):
        path, est = fitted_store
        srv = make_server(path, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv, est
        srv.shutdown()
        srv.server_close()

    def _request(self, srv, path, payload=None):
        port = srv.server_address[1]
        url = f"http://127.0.0.1:{port}{path}"
        data = None if payload is None else json.dumps(payload).encode()
        try:
            with urllib.request.urlopen(
                urllib.request.Request(url, data=data), timeout=10
            ) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_score_endpoint_matches_scorer(self, server):
        srv, est = server
        points = [[40.0, 10.0], [100.0, 100.0]]
        status, body = self._request(srv, "/score", {"points": points})
        assert status == 200
        want = srv.scorer.score_new(np.asarray(points))
        assert body["scores"] == [float(s) for s in want]
        assert body["aggregate"] == "max"

    def test_score_endpoint_single_min_pts(self, server):
        srv, _ = server
        status, body = self._request(
            srv, "/score", {"points": [[40.0, 10.0]], "min_pts": 5}
        )
        assert status == 200 and body["min_pts"] == [5]

    def test_health_model_stats(self, server):
        srv, _ = server
        status, body = self._request(srv, "/healthz")
        assert (status, body["status"]) == (200, "ok")
        status, body = self._request(srv, "/model")
        assert status == 200 and body["kind"] == "estimator"
        status, body = self._request(srv, "/stats")
        assert status == 200 and "cache" in body

    def test_malformed_requests_get_400(self, server):
        srv, _ = server
        port = srv.server_address[1]
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/score", data=b"{not json"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        status, body = self._request(srv, "/score", {"points": [[1.0]]})
        assert status == 400 and "features" in body["error"]
        status, body = self._request(srv, "/score", {"wrong": 1})
        assert status == 400

    @pytest.mark.parametrize("length", [b"-1", b"abc"], ids=["negative", "non-integer"])
    def test_bad_content_length_gets_400_and_worker_survives(self, server, length):
        srv, _ = server
        port = srv.server_address[1]
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            sock.sendall(
                b"POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Length: " + length + b"\r\n\r\n"
            )
            # The server answers and closes: a body of unknown extent
            # leaves nothing to keep alive. A read that blocked on the
            # body would time out here instead.
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length must be a non-negative integer" in reply
        status, _ = self._request(srv, "/score", {"points": [[40.0, 10.0]]})
        assert status == 200

    def test_oversize_body_gets_413_and_worker_survives(self, server):
        srv, _ = server
        port = srv.server_address[1]
        length = str(MAX_BODY_BYTES + 1).encode()
        with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
            # Only the headers go out: a server that tried to read the
            # declared body would block here until the timeout.
            sock.sendall(
                b"POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Length: " + length + b"\r\n\r\n"
            )
            reply = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b"exceeds the" in reply
        status, _ = self._request(srv, "/score", {"points": [[40.0, 10.0]]})
        assert status == 200

    def test_unknown_path_404(self, server):
        srv, _ = server
        status, _ = self._request(srv, "/nope")
        assert status == 404
        status, _ = self._request(srv, "/nope", {"points": [[0.0, 0.0]]})
        assert status == 404  # POST to anything but /score

    def test_max_requests_shutdown(self, fitted_store):
        path, _ = fitted_store
        srv = make_server(path, port=0, max_requests=1)
        thread = threading.Thread(target=srv.serve_forever)
        thread.start()
        status, _ = self._request(srv, "/score", {"points": [[0.0, 0.0]]})
        assert status == 200
        thread.join(timeout=10)
        assert not thread.is_alive()
        srv.server_close()


def _http_request(srv, path, payload=None):
    port = srv.server_address[1]
    url = f"http://127.0.0.1:{port}{path}"
    data = None if payload is None else json.dumps(payload).encode()
    try:
        with urllib.request.urlopen(
            urllib.request.Request(url, data=data), timeout=10
        ) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


class TestBatcher:
    def test_max_batch_coalesces_bit_identically(self, scorer):
        sc, _ = scorer
        rng = np.random.default_rng(21)
        chunks = [rng.uniform(0.0, 40.0, size=(m, 2)) for m in (1, 2, 1)]
        want = [sc.score_new(c, use_cache=False) for c in chunks]
        # max_batch == total points and a generous window: the batcher
        # deterministically waits until all three requests are gathered,
        # then runs exactly one stacked kernel call.
        batcher = ScoreBatcher(lambda: sc, batch_window_ms=5000.0, max_batch=4)
        try:
            futures = [batcher.submit(c, None) for c in chunks]
            got = [f.result() for f in futures]
        finally:
            batcher.close()
        for g, w in zip(got, want):
            assert np.array_equal(np.asarray(g), w)  # bit-identical
        assert batcher.requests == 3
        assert batcher.batches == 1
        assert batcher.coalesced == 2
        assert batcher.points == 4

    def test_mixed_min_pts_grouped_per_selector(self, scorer):
        sc, _ = scorer
        rng = np.random.default_rng(22)
        a = rng.uniform(0.0, 40.0, size=(2, 2))
        b = rng.uniform(0.0, 40.0, size=(2, 2))
        want_a = sc.score_new(a, min_pts=5, use_cache=False)
        want_b = sc.score_new(b, use_cache=False)
        batcher = ScoreBatcher(lambda: sc, batch_window_ms=5000.0, max_batch=4)
        try:
            fa = batcher.submit(a, 5)
            fb = batcher.submit(b, None)
            ga, gb = fa.result(), fb.result()
        finally:
            batcher.close()
        assert np.array_equal(np.asarray(ga), want_a)
        assert np.array_equal(np.asarray(gb), want_b)
        # Different min_pts selectors cannot share a stacked call.
        assert batcher.batches == 2
        assert batcher.coalesced == 0

    def test_submit_validates_eagerly(self, scorer):
        sc, _ = scorer
        batcher = ScoreBatcher(lambda: sc, batch_window_ms=5000.0, max_batch=8)
        try:
            with pytest.raises(ValidationError):
                batcher.submit([[1.0]], None)  # wrong dimensionality
            with pytest.raises(ValidationError):
                batcher.submit([[0.0, 0.0]], 10_000)  # min_pts out of range
            # A rejected request never reaches the queue (no poisoning).
            assert batcher.queue_depth() == 0
        finally:
            batcher.close()

    def test_closed_batcher_rejects(self, scorer):
        sc, _ = scorer
        batcher = ScoreBatcher(lambda: sc, batch_window_ms=0.0, max_batch=1)
        batcher.close()
        with pytest.raises(ServeError):
            batcher.submit([[0.0, 0.0]], None)
        # score() refuses on both of its paths: an idle worker (would
        # have run inline) and a busy one (would have queued).
        assert not batcher._score_lock.locked()
        with pytest.raises(ServeError):
            batcher.score([[0.0, 0.0]], None)
        running = threading.Lock()
        running.acquire()  # a score in progress
        batcher._score_lock = running
        with pytest.raises(ServeError):
            batcher.score([[0.0, 0.0]], None)
        running.release()
        assert batcher.requests == 0

    def test_close_flushes_a_batch_still_in_its_window(self, scorer):
        sc, _ = scorer
        q = np.asarray([[40.0, 10.0], [3.0, 4.0]])
        want = sc.score_new(q, use_cache=False)
        batcher = ScoreBatcher(lambda: sc, batch_window_ms=5000.0, max_batch=64)
        pending = batcher.submit(q, None)
        batcher.close()  # the sentinel ends the window early
        assert not batcher._thread.is_alive()
        assert np.array_equal(pending.result(), want)
        batcher.close()  # idempotent
        assert (batcher.requests, batcher.batches) == (1, 1)

    def test_idle_score_runs_inline_on_the_callers_thread(self, scorer):
        sc, _ = scorer
        q = np.random.default_rng(23).uniform(0.0, 40.0, size=(2, 2))
        want = sc.score_new(q, use_cache=False)
        resolved_on = []

        def scorer_ref():
            resolved_on.append(threading.get_ident())
            return sc

        batcher = ScoreBatcher(scorer_ref, max_batch=8)
        queued = []
        put = batcher._queue.put

        def noting_put(item, *args, **kwargs):
            queued.append(item)
            return put(item, *args, **kwargs)

        batcher._queue.put = noting_put
        obs.enable()
        obs.reset()
        try:
            got = batcher.score(q, None)
        finally:
            batcher.close()
        assert np.array_equal(got, want)  # bit-identical
        # Scored on this thread; only close()'s sentinel was ever queued.
        assert resolved_on == [threading.get_ident()]
        assert queued == [None]
        assert (batcher.requests, batcher.batches, batcher.coalesced) == (1, 1, 0)
        assert (batcher.points, batcher.inline) == (2, 1)
        assert batcher.stats()["inline"] == 1
        assert obs.counter("serve.batch.requests") == 1
        assert obs.counter("serve.batch.batches") == 1
        assert obs.counter("serve.batch.inline") == 1

    def test_requests_behind_a_running_score_coalesce(self, scorer):
        sc, _ = scorer
        rng = np.random.default_rng(24)
        chunks = [rng.uniform(0.0, 40.0, size=(m, 2)) for m in (1, 2, 1)]
        want = [sc.score_new(c, use_cache=False) for c in chunks]
        batcher = ScoreBatcher(lambda: sc, max_batch=8)
        queued = threading.Semaphore(0)
        put = batcher._queue.put

        def noting_put(item, *args, **kwargs):
            put(item, *args, **kwargs)
            queued.release()

        batcher._queue.put = noting_put
        got = [None] * len(chunks)

        def call(i):
            got[i] = batcher.score(chunks[i], None)

        callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
        # The test holds the scoring lock, standing in for a running
        # score: every call must queue, and all three are queued before
        # the lock is let go.
        with batcher._score_lock:
            for t in callers:
                t.start()
            for _ in callers:
                assert queued.acquire(timeout=30)
        for t in callers:
            t.join(timeout=30)
            assert not t.is_alive()
        batcher.close()
        for g, w in zip(got, want):
            assert np.array_equal(g, w)  # bit-identical
        assert (batcher.requests, batcher.batches, batcher.coalesced) == (3, 1, 2)
        assert (batcher.points, batcher.inline) == (4, 0)

    def test_inline_failure_releases_the_lock(self, scorer, monkeypatch):
        sc, _ = scorer
        q = np.asarray([[40.0, 10.0]])
        want = sc.score_new(q, use_cache=False)

        class Boom(Exception):
            pass

        real = sc.score_new
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise Boom("kernel failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(sc, "score_new", fails_once)
        batcher = ScoreBatcher(lambda: sc, max_batch=8)
        try:
            with pytest.raises(Boom):
                batcher.score(q, None)
            assert not batcher._score_lock.locked()
            got = batcher.score(q, None)
        finally:
            batcher.close()
        assert np.array_equal(got, want)
        # Both calls ran inline: the failure left the worker idle.
        assert (batcher.inline, batcher.batches) == (2, 2)

    def test_hot_swap_between_inline_calls_is_seen(self, scorer, tmp_path):
        sc, _ = scorer
        other_path = tmp_path / "other.rlof"
        X = np.random.default_rng(25).normal(loc=20.0, scale=4.0, size=(80, 2))
        LocalOutlierFactor(min_pts=(4, 10)).fit(X).save(other_path)
        other = OnlineScorer.from_path(other_path)
        q = np.asarray([[20.0, 10.0]])
        want_before = sc.score_new(q, use_cache=False)
        want_after = other.score_new(q, use_cache=False)
        assert not np.array_equal(want_before, want_after)
        current = [sc]
        batcher = ScoreBatcher(lambda: current[0], max_batch=8)
        try:
            before = batcher.score(q, None)
            current[0] = other
            after = batcher.score(q, None)
        finally:
            batcher.close()
        assert np.array_equal(before, want_before)
        assert np.array_equal(after, want_after)
        assert batcher.inline == 2

    def test_batch_counters_registered(self, scorer):
        sc, _ = scorer
        obs.enable()
        obs.reset()
        batcher = ScoreBatcher(lambda: sc, batch_window_ms=5000.0, max_batch=2)
        try:
            futures = [
                batcher.submit([[40.0, 10.0]], None),
                batcher.submit([[1.0, 1.0]], None),
            ]
            for f in futures:
                f.result()
        finally:
            batcher.close()
        assert obs.counter("serve.batch.requests") == 2
        assert obs.counter("serve.batch.batches") == 1
        assert obs.counter("serve.batch.coalesced") == 1
        assert obs.counter("serve.batch.inline") == 0


class TestKeepAliveAndAdmin:
    @pytest.fixture
    def server(self, fitted_store):
        path, est = fitted_store
        srv = make_server(path, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv, est
        srv.shutdown()
        srv.server_close()

    def test_keep_alive_reuses_one_connection(self, server):
        srv, _ = server
        port = srv.server_address[1]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            for _ in range(3):
                conn.request(
                    "POST", "/score",
                    body=json.dumps({"points": [[40.0, 10.0]]}),
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                # HTTP/1.1 with an exact Content-Length: the connection
                # survives, so the second and third request would raise
                # here if the server had closed it.
                assert resp.status == 200 and resp.version == 11
                json.loads(resp.read())
        finally:
            conn.close()

    def test_stats_surfaces_server_and_batcher(self, server):
        srv, _ = server
        status, _ = _http_request(srv, "/score", {"points": [[40.0, 10.0]]})
        assert status == 200
        status, body = _http_request(srv, "/stats")
        assert status == 200
        assert set(body["cache"]) == {"hits", "misses", "size", "capacity"}
        info = body["server"]
        assert info["pid"] > 0 and info["workers"] == 1
        assert info["reloads"] == 0 and info["active_requests"] >= 0
        assert info["batcher"]["max_batch"] == 64
        assert info["batcher"]["queue_depth"] >= 0
        # A lone request on an idle worker is scored inline, and counts
        # as a one-request batch.
        counts = {k: info["batcher"][k] for k in ("requests", "batches", "inline", "points")}
        assert counts == {"requests": 1, "batches": 1, "inline": 1, "points": 1}

    def test_model_reports_fingerprint(self, server):
        srv, _ = server
        status, body = _http_request(srv, "/model")
        assert status == 200
        assert body["fingerprint"] == store_fingerprint(srv.scorer.model.header)

    def test_admin_reload_swaps_scorer(self, server):
        srv, _ = server
        before = srv.scorer
        points = [[40.0, 10.0], [100.0, 100.0]]
        want = before.score_new(np.asarray(points))
        status, body = _http_request(srv, "/admin/reload", {})
        assert status == 200 and body["reloads"] == 1
        assert srv.scorer is not before
        assert body["fingerprint"] == store_fingerprint(srv.scorer.model.header)
        # Same file, same model: the swap is invisible to scores.
        status, body = _http_request(srv, "/score", {"points": points})
        assert status == 200
        assert body["scores"] == [float(s) for s in want]

    def test_admin_reload_bad_store_keeps_old_scorer(self, server, tmp_path):
        srv, _ = server
        bad = tmp_path / "garbage.rlof"
        bad.write_bytes(b"not a store at all")
        before = srv.scorer
        status, body = _http_request(srv, "/admin/reload", {"path": str(bad)})
        assert status == 500 and "error" in body
        assert srv.scorer is before  # the fleet never loses its model
        status, _ = _http_request(srv, "/score", {"points": [[40.0, 10.0]]})
        assert status == 200


class TestHotSwapStress:
    def test_hammer_with_reload_bit_identical_and_counted(self, fitted_store):
        path, _ = fitted_store
        srv = make_server(path, port=0, max_batch=16)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        port = srv.server_address[1]
        serial = OnlineScorer.from_path(path)
        rng = np.random.default_rng(33)
        pool = rng.uniform(0.0, 40.0, size=(12, 2))
        n_threads, rounds = 6, 4
        requests = []
        for t in range(n_threads):
            for r in range(rounds):
                idx = rng.integers(0, len(pool), size=1 + (t + r) % 3)
                requests.append(pool[idx])  # mixed sizes, repeats: hits
        expected = [serial.score_new(q, use_cache=False) for q in requests]

        obs.enable()
        obs.reset()
        results = [None] * len(requests)
        errors = []

        def hammer(tid):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                for j in range(tid * rounds, (tid + 1) * rounds):
                    conn.request(
                        "POST", "/score",
                        body=json.dumps({"points": requests[j].tolist()}),
                    )
                    resp = conn.getresponse()
                    payload = json.loads(resp.read())
                    if resp.status != 200:
                        raise AssertionError(payload)
                    results[j] = payload["scores"]
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
            finally:
                conn.close()

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        # Hot-swap the store while the hammer runs: in-flight requests
        # must finish against whichever scorer they entered with.
        n_reloads = 3
        for _ in range(n_reloads):
            status, body = _http_request(srv, "/admin/reload", {})
            assert status == 200
        for t in threads:
            t.join()
        srv.shutdown()
        assert srv.wait_drained(timeout=10.0)
        srv.server_close()
        assert not errors
        # Bit-identity: every response equals serial scoring, no matter
        # which batch, thread, or scorer generation served it.
        for got, want in zip(results, expected):
            assert got == [float(s) for s in want]
        # Exact accounting under any interleaving of swaps and batches:
        # every point is scored once and looked up in exactly one cache.
        total_points = sum(len(q) for q in requests)
        assert obs.counter("serve.points_scored") == total_points
        assert (
            obs.counter("serve.cache.hits") + obs.counter("serve.cache.misses")
        ) == total_points
        assert obs.counter("serve.batch.requests") == len(requests)
        # Each stacked call (inline ones included) answers one request
        # plus the ones that rode along with it.
        assert obs.counter("serve.batch.requests") == (
            obs.counter("serve.batch.batches") + obs.counter("serve.batch.coalesced")
        )
        assert obs.counter("serve.reloads") == n_reloads

    def test_stream_refit_reloads_race_scores_with_exact_counters(
        self, fitted_store, tmp_path
    ):
        """The streaming lifecycle under concurrent /score traffic:
        drift-triggered background refits hot-swap the model mid-hammer,
        single-flight is preserved, the drift counters are exact (every
        ingest is one check, every post-seeding check detects at
        drift_factor=0), and every response is bit-identical to serial
        scoring under one of the model generations that served."""
        path, _ = fitted_store
        reservoir, window, cooldown = 4, 16, 8
        srv = make_server(
            path,
            port=0,
            stream={
                "window": window,
                "check_every": 1,
                "drift_factor": 0.0,
                "cooldown": cooldown,
                "reservoir": reservoir,
                "seed": 0,
                "store_dir": tmp_path / "refits",
            },
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        port = srv.server_address[1]
        rng = np.random.default_rng(44)
        n_threads, rounds = 4, 8
        points = rng.uniform(0.0, 40.0, size=(n_threads * rounds, 2))

        obs.enable()
        obs.reset()
        results = [None] * len(points)
        errors = []

        def hammer(tid):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            try:
                for j in range(tid * rounds, (tid + 1) * rounds):
                    conn.request(
                        "POST", "/score",
                        body=json.dumps({"points": [points[j].tolist()]}),
                    )
                    resp = conn.getresponse()
                    payload = json.loads(resp.read())
                    if resp.status != 200:
                        raise AssertionError(payload)
                    results[j] = payload["scores"]
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)
            finally:
                conn.close()

        threads = [
            threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stream = srv.stream
        assert stream.wait_refit(timeout=120.0)
        srv.shutdown()
        assert srv.wait_drained(timeout=10.0)
        assert not errors
        n = len(points)
        refits = len(stream.refits)
        # Single-flight: one refit at a time, each separated by at least
        # `cooldown` ingests, so the count is bounded and at least one
        # fired once the window exceeded the store's MinPts upper bound.
        assert 1 <= refits <= n // cooldown
        assert stream.stats()["refit_active"] is False
        # Exact drift accounting under any interleaving: observe() is
        # serialized by the detector lock, every request carries its
        # served score, check_every=1 => one check per ingest, and the
        # first check seeds the reference instead of voting.
        assert obs.counter("stream.ingested") == n
        assert obs.counter("stream.window.inserts") == n
        assert obs.counter("stream.window.evictions") == n - window
        assert obs.counter("stream.drift.checks") == n
        assert obs.counter("stream.drift.detected") == n - 1
        assert obs.counter("stream.ingest.errors") == 0
        assert obs.counter("stream.refits") == refits
        assert obs.counter("stream.swaps") == refits
        assert obs.counter("serve.reloads") == refits
        # Every client point is scored exactly once, plus the detector's
        # internal reference passes: 1 seeding point, `reservoir` points
        # per swap install.
        assert obs.counter("serve.points_scored") == n + 1 + reservoir * refits
        srv.server_close()
        # Bit-identity across generations: each response equals serial
        # scoring under one of the stores that served during the race.
        recs = stream.refits
        gens = [OnlineScorer.from_path(p) for p in [path] + [r.path for r in recs]]
        for got, q in zip(results, points):
            wants = [
                [float(s) for s in g.score_new(q[None, :], use_cache=False)]
                for g in gens
            ]
            assert got in wants
        # The lineage chain survives concurrency: each refit's parent is
        # the fingerprint it actually replaced.
        assert recs[0].parent == store_fingerprint(load_model(path).header)
        for prev, cur in zip(recs, recs[1:]):
            assert cur.parent == prev.fingerprint


class TestStreamHandover:
    def test_every_store_is_loaded_once(self, fitted_store, tmp_path):
        """``--stream`` starts the detector on the server's own scorer,
        and each refit hands the scorer it loaded to the server: one
        store load at start-up plus exactly one per refit."""
        path, _ = fitted_store
        obs.enable()
        srv = make_server(
            path,
            port=0,
            stream={
                "window": 16,
                "check_every": 1,
                "drift_factor": 0.0,
                "cooldown": 8,
                "reservoir": 4,
                "seed": 0,
                "store_dir": tmp_path / "refits",
                "background": False,
            },
        )
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            stream = srv.stream
            assert stream.serving is srv.scorer
            assert obs.counter("store.loads") == 1
            points = np.random.default_rng(45).uniform(0.0, 40.0, size=(40, 2))
            for q in points:
                status, _ = _http_request(srv, "/score", {"points": [q.tolist()]})
                assert status == 200
            refits = len(stream.refits)
            assert refits >= 2
            assert obs.counter("store.loads") == 1 + refits
            assert obs.counter("serve.reloads") == refits
            assert srv.scorer is stream.serving
            assert srv.scorer.model.path == stream.refits[-1].path
        finally:
            srv.shutdown()
            srv.server_close()

    def test_reload_store_is_adopted_by_the_stream(self, fitted_store, tmp_path):
        """A store installed through ``/reload`` becomes the detector's
        model too: drift is judged under it and the next refit names it
        as lineage parent."""
        path_a, _ = fitted_store
        path_b = tmp_path / "b.rlof"
        X_b = np.random.default_rng(46).uniform(0.0, 40.0, size=(60, 2))
        LocalOutlierFactor(min_pts=(4, 10)).fit(X_b).save(path_b)
        srv = make_server(
            path_a,
            port=0,
            stream={
                "window": 16,
                "check_every": 1000,
                "reservoir": 4,
                "seed": 0,
                "store_dir": tmp_path / "refits",
                "background": False,
            },
        )
        try:
            stream = srv.stream
            srv.reload_store(path_b)
            fingerprint_b = store_fingerprint(load_model(path_b).header)
            assert stream.serving is srv.scorer
            assert stream.fingerprint == fingerprint_b
            stream.observe_many(X_b[:20])
            assert stream.request_refit("manual")
            assert stream.refits[-1].parent == fingerprint_b
        finally:
            srv.server_close()

    def test_reload_overlapping_a_refit_leaves_one_model(self, fitted_store, tmp_path):
        """A reload that arrives while a refit is swapping its store in
        waits until the refit has adopted it too, so the server and the
        detector end on the same model (the reload's, which came last)."""
        path_a, _ = fitted_store
        path_b = tmp_path / "b.rlof"
        X_b = np.random.default_rng(46).uniform(0.0, 40.0, size=(60, 2))
        LocalOutlierFactor(min_pts=(4, 10)).fit(X_b).save(path_b)
        srv = make_server(
            path_a,
            port=0,
            stream={
                "window": 16,
                "check_every": 1000,
                "reservoir": 4,
                "seed": 0,
                "store_dir": tmp_path / "refits",
                "background": False,
            },
        )
        stream = srv.stream
        install = stream._swap_cb
        swapped, release = threading.Event(), threading.Event()

        def held_install(scorer):
            reloads = install(scorer)
            swapped.set()
            release.wait(timeout=10.0)
            return reloads

        stream._swap_cb = held_install
        try:
            stream.observe_many(X_b[:20])
            refit = threading.Thread(target=stream.request_refit, args=("manual",))
            refit.start()
            assert swapped.wait(timeout=10.0)
            # The refit has installed its store and not yet adopted it.
            reload = threading.Thread(target=srv.reload_store, args=(path_b,))
            reload.start()
            reload.join(timeout=0.2)
            release.set()
            refit.join(timeout=10.0)
            reload.join(timeout=10.0)
            assert not refit.is_alive() and not reload.is_alive()
            assert len(stream.refits) == 1
            assert stream.serving is srv.scorer
            assert stream.fingerprint == store_fingerprint(load_model(path_b).header)
        finally:
            release.set()
            srv.server_close()


class TestDrainOnShutdown:
    def test_max_requests_drains_concurrent_inflight(self, fitted_store):
        path, _ = fitted_store
        srv = make_server(path, port=0, max_requests=3)
        thread = threading.Thread(target=srv.serve_forever)
        thread.start()
        statuses = []
        errors = []

        def one(i):
            try:
                status, body = _http_request(
                    srv, "/score", {"points": [[float(i), float(i)]]}
                )
                statuses.append((status, body))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        workers = [threading.Thread(target=one, args=(i,)) for i in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert srv.wait_drained(timeout=10.0)
        srv.server_close()
        # The request that tripped the limit and both others all got
        # complete responses: shutdown drained instead of cutting off.
        assert not errors
        assert [s for s, _ in statuses] == [200, 200, 200]


class TestFleetCLI:
    @pytest.mark.skipif(
        not fork_available(), reason="fleet mode needs the fork start method"
    )
    def test_multi_worker_fleet_serves_and_terminates(self, fitted_store):
        path, _ = fitted_store
        want = OnlineScorer.from_path(path).score_new(
            np.asarray([[40.0, 10.0], [100.0, 100.0]])
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(path),
                "--workers", "2", "--port", "0", "--max-batch", "8",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = {}

            def read_banner():
                banner["line"] = proc.stdout.readline()

            reader = threading.Thread(target=read_banner, daemon=True)
            reader.start()
            reader.join(timeout=30)
            line = banner.get("line", "")
            assert "http://127.0.0.1:" in line, f"no banner: {line!r}"
            assert "workers=2" in line
            port = int(line.split("http://127.0.0.1:")[1].split()[0])
            url = f"http://127.0.0.1:{port}"
            pids = set()
            for _ in range(6):
                with urllib.request.urlopen(f"{url}/stats", timeout=30) as r:
                    body = json.loads(r.read())
                assert body["server"]["workers"] == 2
                pids.add(body["server"]["pid"])
            assert pids  # at least one worker answered; distribution of
            # accepts across workers is the kernel's business, not ours
            req = urllib.request.Request(
                f"{url}/score",
                data=json.dumps(
                    {"points": [[40.0, 10.0], [100.0, 100.0]]}
                ).encode(),
            )
            with urllib.request.urlopen(req, timeout=30) as r:
                body = json.loads(r.read())
            assert body["scores"] == [float(s) for s in want]
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=15)
        # SIGTERM on the parent took the whole fleet down: the port no
        # longer accepts connections.
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=5)


def _overwrite_under_traffic(port, path, newer, n_reloads):
    """Hammer ``/score`` on ``port`` from four keep-alive connections;
    once traffic flows, save the fitted estimator ``newer`` over
    ``path`` (an atomic rename under the served map) and post
    ``/admin/reload`` ``n_reloads`` times. Returns the requests, their
    replies and the reload bodies."""
    rng = np.random.default_rng(61)
    pool = rng.uniform(0.0, 40.0, size=(10, 2))
    n_threads, rounds = 4, 12
    requests = [
        pool[rng.integers(0, len(pool), size=1 + j % 3)]
        for j in range(n_threads * rounds)
    ]
    replies = [None] * len(requests)
    errors = []
    flowing = threading.Event()
    done = []

    def hammer(tid):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            for j in range(tid, len(requests), n_threads):
                conn.request(
                    "POST", "/score",
                    body=json.dumps({"points": requests[j].tolist()}),
                )
                resp = conn.getresponse()
                payload = json.loads(resp.read())
                if resp.status != 200:
                    raise AssertionError(payload)
                replies[j] = payload["scores"]
                done.append(j)
                if len(done) >= 8:
                    flowing.set()
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)
            flowing.set()
        finally:
            conn.close()

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    assert flowing.wait(timeout=60)
    newer.save(path)
    reloads = []
    for _ in range(n_reloads):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            conn.request("POST", "/admin/reload", body=b"{}")
            resp = conn.getresponse()
            reloads.append((resp.status, json.loads(resp.read())))
        finally:
            conn.close()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert not errors
    return requests, replies, reloads


class TestOverwriteUnderTraffic:
    """A refit renamed over a served, memory-mapped store: every reply
    is the old store's score or the new one's, never a mix, and a reload
    serves the new store."""

    @pytest.fixture
    def stores(self, fitted_store, tmp_path, two_density_clusters):
        path, _ = fitted_store
        old_copy = tmp_path / "old.rlof"
        old_copy.write_bytes(path.read_bytes())
        shifted = two_density_clusters * 1.5 + 2.0
        newer = LocalOutlierFactor(min_pts=(4, 10)).fit(shifted)
        new_copy = tmp_path / "new.rlof"
        newer.save(new_copy)
        return path, newer, OnlineScorer.from_path(old_copy), OnlineScorer.from_path(new_copy)

    @staticmethod
    def _assert_old_or_new(requests, replies, old, new):
        seen = set()
        for q, got in zip(requests, replies):
            want_old = [float(s) for s in old.score_new(q, use_cache=False)]
            want_new = [float(s) for s in new.score_new(q, use_cache=False)]
            assert want_old != want_new
            assert got in (want_old, want_new)
            seen.add("old" if got == want_old else "new")
        return seen

    def test_in_process_mmap_server(self, stores):
        path, newer, old, new = stores
        srv = make_server(path, port=0, mmap=True, max_batch=8)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            port = srv.server_address[1]
            requests, replies, reloads = _overwrite_under_traffic(
                port, path, newer, n_reloads=1
            )
            assert [status for status, _ in reloads] == [200]
            assert reloads[0][1]["fingerprint"] == store_fingerprint(new.model.header)
            assert "old" in self._assert_old_or_new(requests, replies, old, new)
            # After the reload every reply is the new store's.
            probe = requests[:4]
            after = [_http_request(srv, "/score", {"points": q.tolist()}) for q in probe]
            for q, (status, body) in zip(probe, after):
                assert status == 200
                assert body["scores"] == [
                    float(s) for s in new.score_new(q, use_cache=False)
                ]
        finally:
            srv.shutdown()
            srv.server_close()

    @pytest.mark.skipif(
        not fork_available(), reason="fleet mode needs the fork start method"
    )
    def test_two_worker_fleet(self, stores):
        path, newer, old, new = stores
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(path),
                "--workers", "2", "--port", "0", "--max-batch", "8",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = {}
            reader = threading.Thread(
                target=lambda: banner.update(line=proc.stdout.readline()),
                daemon=True,
            )
            reader.start()
            reader.join(timeout=30)
            line = banner.get("line", "")
            assert "http://127.0.0.1:" in line, f"no banner: {line!r}"
            port = int(line.split("http://127.0.0.1:")[1].split()[0])
            # Each reload reaches whichever worker accepts it; the other
            # keeps serving its map of the replaced file.
            requests, replies, reloads = _overwrite_under_traffic(
                port, path, newer, n_reloads=4
            )
            want = store_fingerprint(new.model.header)
            for status, body in reloads:
                assert status == 200 and body["fingerprint"] == want
            self._assert_old_or_new(requests, replies, old, new)
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait(timeout=15)
