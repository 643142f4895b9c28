"""Hostile input on the wire: a live ``/score`` endpoint under fuzzing.

Hypothesis sends a running :func:`~repro.serve.make_server` requests
that are invalid by construction: bodies that are not JSON (or not
UTF-8), point arrays of the wrong shape or type, NaN/inf coordinates,
and ``min_pts``/``scorer`` fields of the wrong type or out of range.
The contract:

* every reply is well-formed JSON with a 4xx status and an ``error``
  message, so no error path escapes as a dropped connection or a 500;
* a valid ``/score`` afterwards still answers 200 with the bits of
  in-process scoring. An error path that leaked the batcher's scoring
  lock would leave every later request queued behind a score that never
  ends, so this also shows that none does.

Examples are few and the server is shared by the module, so the wall
adds little to the suite's time.
"""

import http.client
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import LocalOutlierFactor
from repro.scorers import list_scorers
from repro.serve import OnlineScorer, make_server

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A well-formed request and the model's feature count.
VALID = [[40.0, 10.0], [3.0, 4.0]]
D = 2


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    rng = np.random.default_rng(7)
    X = np.vstack([
        rng.uniform(0.0, 20.0, size=(60, D)),
        rng.normal(loc=(40.0, 10.0), scale=0.3, size=(40, D)),
    ])
    path = tmp_path_factory.mktemp("fuzz") / "est.rlof"
    LocalOutlierFactor(min_pts=(4, 10)).fit(X).save(path)
    srv = make_server(path, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    want = OnlineScorer.from_path(path).score_new(np.asarray(VALID), use_cache=False)
    yield srv, [float(s) for s in want]
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=30)


def post(srv, body: bytes):
    """POST ``body`` to /score on a fresh connection -> (status, parsed)."""
    conn = http.client.HTTPConnection("127.0.0.1", srv.server_address[1], timeout=30)
    try:
        conn.request("POST", "/score", body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def assert_rejected(srv, want, body: bytes) -> None:
    status, payload = post(srv, body)
    assert 400 <= status < 500, (status, payload, body[:200])
    assert isinstance(payload, dict) and isinstance(payload.get("error"), str)
    # The worker still serves, with the same bits as in-process scoring.
    status, payload = post(srv, json.dumps({"points": VALID}).encode())
    assert status == 200, payload
    assert payload["scores"] == want


def _is_valid_request(body: bytes) -> bool:
    try:
        request = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError):
        return False
    return isinstance(request, dict) and "points" in request


def _is_scorable(points) -> bool:
    """Whether ``points`` would pass validation (e.g. numeric strings)."""
    try:
        arr = np.asarray(points, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return False
    return (arr.ndim == 2 and arr.shape[0] >= 1 and arr.shape[1] == D
            and bool(np.all(np.isfinite(arr))))


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=8),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@settings(**SETTINGS)
@given(body=st.one_of(
    st.binary(max_size=64),
    st.integers(min_value=0, max_value=40).map(
        lambda cut: json.dumps({"points": VALID}).encode()[:cut]
    ),
    st.sampled_from([b"[" * 5000, b'{"points": ' + b"[" * 5000]),
))
def test_malformed_bodies_get_4xx(live, body):
    assume(not _is_valid_request(body))
    assert_rejected(*live, body)


@settings(**SETTINGS)
@given(points=st.one_of(
    st.just([]),
    st.just([[]]),
    finite,
    junk,
    st.lists(finite, min_size=1, max_size=4).filter(lambda row: len(row) != D),
    st.lists(st.lists(finite, min_size=1, max_size=4), min_size=1, max_size=3).filter(
        lambda rows: any(len(row) != D for row in rows)
    ),
    st.lists(st.lists(st.lists(finite, min_size=D, max_size=D), min_size=1,
                      max_size=2), min_size=1, max_size=2),
    st.lists(st.lists(junk, min_size=D, max_size=D), min_size=1, max_size=2).filter(
        lambda rows: any(v is not None and not isinstance(v, bool) for row in rows
                         for v in row)
    ),
    st.integers(min_value=10 ** 309, max_value=10 ** 400).map(lambda big: [[big, 0]]),
))
def test_wrong_shapes_and_types_get_4xx(live, points):
    assume(not _is_scorable(points))
    assert_rejected(*live, json.dumps({"points": points}).encode())


@settings(**SETTINGS)
@given(
    rows=st.lists(
        st.lists(st.one_of(finite, st.sampled_from([math.nan, math.inf, -math.inf])),
                 min_size=D, max_size=D),
        min_size=1, max_size=3,
    ).filter(lambda rows: not all(math.isfinite(v) for row in rows for v in row)),
    overflow=st.booleans(),
)
def test_non_finite_coordinates_get_4xx(live, rows, overflow):
    body = json.dumps({"points": rows}).encode()  # NaN/Infinity tokens
    if overflow:
        # Literals beyond the double range parse to inf too.
        body = body.replace(b"-Infinity", b"-1e999").replace(b"Infinity", b"1e999")
    assert_rejected(*live, body)


@settings(**SETTINGS)
@given(field=st.one_of(
    st.tuples(st.just("min_pts"), st.one_of(
        st.integers(max_value=0),
        st.integers(min_value=11),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=6),
        st.booleans(),
        st.lists(st.integers(min_value=4, max_value=10), max_size=2),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    )),
    st.tuples(st.just("scorer"), st.one_of(
        st.text(max_size=10).filter(lambda name: name not in list_scorers()),
        st.integers(),
        st.floats(allow_nan=False),
        st.booleans(),
        st.lists(st.just("lof"), max_size=2),
    )),
))
def test_wrong_selector_types_get_4xx(live, field):
    name, value = field
    assert_rejected(*live, json.dumps({"points": VALID, name: value}).encode())
