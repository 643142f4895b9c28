"""The server's request-head reader against the stdlib's parser.

``_Handler.parse_request`` reads the request line by the stdlib's rules
and the header fields with :func:`repro.serve.read_fields`, without the
``email`` package. Here both parsers run on the same bytes, each
through a handler on an in-memory ``rfile``/``wfile``. They must agree
on the return value, every byte written (error replies and the interim
``100 Continue``), ``command``, ``path``, ``request_version``,
``close_connection``, the bytes consumed from ``rfile``, and
``headers.get`` for the fields the server reads.

Two differences are deliberate and asserted on their own:

* a ``Content-Length`` must be ``1*DIGIT`` (RFC 9110 §8.6), and
  repeated ``Content-Length`` fields must agree; ``int()`` on the
  stdlib's first value accepted ``+10``, ``1_0`` and padded forms;
* a bare CR in a header line is a 400 (RFC 9112 §2.2), where the
  ``email`` parser starts a new header line at it.

A live server then answers every kind of request with
:func:`http.client.parse_headers` and the ``email`` feed parser patched
to raise, so serving never reaches them.
"""

import email.feedparser
import http.client
import io
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import LocalOutlierFactor
from repro.serve import MAX_BODY_BYTES, MAX_HEAD_LINE, MAX_HEAD_LINES, _Handler, make_server

#: The fields the server reads.
FIELDS = ("Content-Length", "Connection", "Expect", "Content-Type")


def parse_with(parse, data: bytes):
    """Run ``parse`` on a fresh handler reading ``data``: everything the
    rest of the request's handling sees."""
    handler = _Handler.__new__(_Handler)
    handler.rfile = io.BytesIO(data)
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    handler.date_time_string = lambda timestamp=None: "Thu, 01 Jan 1970 00:00:00 GMT"
    handler.raw_requestline = handler.rfile.readline(65537)
    ok = parse(handler)
    headers = handler.__dict__.get("headers")
    return {
        "ok": ok,
        "written": handler.wfile.getvalue(),
        "command": handler.command,
        "path": handler.__dict__.get("path"),
        "request_version": handler.request_version,
        "close_connection": handler.close_connection,
        "consumed": handler.rfile.tell(),
        "fields": None if headers is None else {name: headers.get(name) for name in FIELDS},
    }, handler


def assert_same(data: bytes):
    ours, handler = parse_with(_Handler.parse_request, data)
    oracle, _ = parse_with(BaseHTTPRequestHandler.parse_request, data)
    assert ours == oracle
    return ours, handler


HEAD = "POST /score HTTP/1.1\r\nHost: x\r\n"

EXPLICIT = {
    "mixed-case names": HEAD + "content-LENGTH: 12\r\nCONNECTION: Close\r\nexpect: nothing\r\n\r\n",
    "repeated fields": HEAD + "Content-Type: a\r\nContent-Length: 3\r\ncontent-type: b\r\n"
                              "Content-Length: 4\r\n\r\n",
    "obs-fold": HEAD + "Content-Type: text/\r\n plain;\r\n\tcharset=x\r\nX: y\r\n\r\n",
    "obs-fold after a repeat": HEAD + "Connection: a\r\nconnection: b\r\n  c\n\r\n",
    "fold of an empty value": HEAD + "Content-Type:\r\n x \r\n\r\n",
    "bare LF line endings": "POST /score HTTP/1.1\nContent-Length: 2\nConnection: close\n\n",
    "HTTP/1.0": "POST /score HTTP/1.0\r\nContent-Length: 2\r\n\r\n",
    "HTTP/1.0 keep-alive": "GET /stats HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    "two-word GET": "GET /\r\nHost: x\r\n\r\n",
    "two-word POST": "POST /score\r\n\r\n",
    "HTTP/2.0": "GET / HTTP/2.0\r\nHost: x\r\n\r\n",
    "bad version": "GET / HTTP/1.x\r\n\r\n",
    "not HTTP": "GET / FOO/1.1\r\n\r\n",
    "four words": "GET / x HTTP/1.1\r\n\r\n",
    "double-slash path": "GET //x//y HTTP/1.1\r\n\r\n",
    "slashes only": "GET /// HTTP/1.1\r\n\r\n",
    "expect 100-continue": HEAD + "Expect: 100-Continue\r\nContent-Length: 2\r\n\r\n{}",
    "expect on HTTP/1.0": "POST / HTTP/1.0\r\nExpect: 100-continue\r\n\r\n",
    "latin-1 bytes": HEAD + "Content-Type: caf\xe9 \xff\xa0\r\nX-\xe9: dropped\r\n"
                            "Connection: close\r\n\r\n",
    "skipped lines": HEAD + " leading fold\r\n:no name\r\n fold of nothing\r\nFrom someone\r\n"
                            "Connection: close\r\n\r\n",
    "a line that is no field ends the fields": HEAD + "Content-Type: a\r\nBad Name: b\r\n"
                                                     "Connection: close\r\n\r\n",
    "space before the colon": HEAD + "Content-Length : 5\r\nConnection: close\r\n\r\n",
    "no blank line": HEAD + "Content-Length: 2",
    "empty head": "",
    "blank request line": "\r\n",
    "whitespace request line": " \t \r\n",
    "65,536-byte line": HEAD + "X: " + "a" * (MAX_HEAD_LINE - 5) + "\r\n\r\n",
    "65,537-byte line": "GET / HTTP/1.1\r\nX: " + "a" * (MAX_HEAD_LINE - 4) + "\r\n\r\n",
    "99 headers": "GET / HTTP/1.1\r\n" + "X: y\r\n" * (MAX_HEAD_LINES - 1) + "\r\n",
    "100 headers": "GET / HTTP/1.1\r\n" + "X: y\r\n" * MAX_HEAD_LINES + "\r\n",
    "101 headers": "GET / HTTP/1.1\r\n" + "X: y\r\n" * (MAX_HEAD_LINES + 1) + "\r\n",
    "101 headers after a non-field": "GET / HTTP/1.1\r\nnot a field\r\n" + "X: y\r\n" * 100 + "\r\n",
}


@pytest.mark.parametrize("text", list(EXPLICIT.values()), ids=list(EXPLICIT))
def test_explicit_heads_match_the_stdlib(text):
    assert_same(text.encode("latin-1") + b"body")


def test_limits_answer_431_with_the_stdlib_text():
    for text, explain in (
        (EXPLICIT["65,537-byte line"], b"got more than 65536 bytes when reading header line"),
        (EXPLICIT["101 headers"], b"got more than 100 headers"),
    ):
        ours, _ = assert_same(text.encode("latin-1"))
        assert ours["written"].startswith(b"HTTP/1.1 431 ")
        assert explain in ours["written"] and ours["close_connection"]


def test_continue_is_sent_before_the_body_is_read():
    ours, _ = assert_same(EXPLICIT["expect 100-continue"].encode())
    assert ours["ok"] and ours["written"].startswith(b"HTTP/1.1 100 Continue\r\n")


# -- the deliberate differences -------------------------------------------------


@pytest.mark.parametrize(
    "values, stdlib, ours",
    [
        (["10"], 10, 10),
        ([" 10 \t"], 10, 10),
        (["010"], 10, 10),
        (["10", "10"], 10, 10),
        (["10", "010"], 10, 10),
        ([], 0, 0),
        (["+10"], 10, -1),
        (["1_0"], 10, -1),
        (["\xa010"], 10, -1),
        (["10\x0c"], 10, -1),
        (["\xb2"], None, -1),
        (["-1"], -1, -1),
        ([""], None, -1),
        (["10, 10"], None, -1),
        (["10", "11"], 10, -1),
        (["10", "+10"], 10, -1),
        (["9" * 5000], None, -1),
    ],
)
def test_content_length_must_be_digits_and_agree(values, stdlib, ours):
    text = HEAD + "".join(f"Content-Length: {v}\r\n" for v in values) + "\r\n"
    parsed, handler = assert_same(text.encode("latin-1"))
    assert parsed["ok"]
    first = parsed["fields"]["Content-Length"]
    try:  # what the server read before: int() on the first value
        old = 0 if first is None else int(first)
    except ValueError:
        old = None
    assert old == stdlib
    assert handler._content_length() == ours


def test_bare_cr_in_a_header_line_is_400():
    data = (HEAD + "X: a\rContent-Length: 5\r\n\r\n").encode()
    ours, _ = parse_with(_Handler.parse_request, data)
    oracle, _ = parse_with(BaseHTTPRequestHandler.parse_request, data)
    # The email parser splits the line at the CR: a field is smuggled in.
    assert oracle["ok"] and oracle["fields"]["Content-Length"] == "5"
    assert ours["ok"] is False and ours["close_connection"]
    assert ours["written"].startswith(b"HTTP/1.1 400 Bad request\r\n")
    assert b"bare CR in a header line" in ours["written"]


# -- generated heads --------------------------------------------------------------


def _any_case(name: str):
    return st.tuples(*[st.sampled_from([c.lower(), c.upper()]) for c in name]).map("".join)


NAMES = st.one_of(
    st.sampled_from(FIELDS + ("Host", "From")).flatmap(_any_case),
    st.text(
        st.characters(min_codepoint=0x21, max_codepoint=0x7E, blacklist_characters=":"),
        min_size=1, max_size=8,
    ),
)
VALUES = st.one_of(
    st.sampled_from(["close", "keep-alive", "100-continue", "Close", "10", " 7 ", "", "a b"]),
    st.text(
        st.characters(min_codepoint=0, max_codepoint=0xFF, blacklist_characters="\r\n"),
        max_size=12,
    ),
)
EOL = st.sampled_from(["\r\n", "\n"])
LINES = st.one_of(
    st.tuples(NAMES, st.sampled_from(["", " ", "\t", "  "]), VALUES, EOL).map(lambda t: "{}:{}{}{}".format(*t)),
    st.tuples(st.sampled_from([" ", "\t"]), VALUES, EOL).map("".join),
    st.tuples(
        st.sampled_from([":no name", "From someone", "not a field", "Bad Name: x", "\xe9: x"]),
        EOL,
    ).map("".join),
)
REQUEST_LINES = st.tuples(
    st.sampled_from(["GET", "POST", "PUT", "get"]),
    st.sampled_from(["/", "/score", "//x", "///a//b", "/stats?x=1"]),
    st.sampled_from([
        " HTTP/1.1", " HTTP/1.0", " HTTP/0.9", " HTTP/1.10", " HTTP/2.0", " HTTP/3.1",
        " HTTP/1", " HTTP/x.y", " FOO/1.1", " x HTTP/1.1", "",
    ]),
    EOL,
).map(lambda t: "{} {}{}{}".format(*t))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(REQUEST_LINES, st.lists(LINES, max_size=8), st.sampled_from(["\r\n", "\n", ""]))
def test_generated_heads_match_the_stdlib(request_line, lines, end):
    assert_same((request_line + "".join(lines) + end).encode("latin-1") + b"body")


# -- a live server without the email parser ---------------------------------------------


@pytest.fixture
def live(tmp_path, two_density_clusters, monkeypatch):
    path = tmp_path / "est.rlof"
    LocalOutlierFactor(min_pts=(4, 10)).fit(two_density_clusters).save(path)
    srv = make_server(path, port=0)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()

    def refuse(*args, **kwargs):
        raise AssertionError("the email parser was called")

    monkeypatch.setattr(http.client, "parse_headers", refuse)
    monkeypatch.setattr(email.feedparser.FeedParser, "feed", refuse)
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=30)


def exchange(srv, request: bytes):
    """Send one raw request and read until the server closes: the
    replies, without any client-side header parser."""
    with socket.create_connection(("127.0.0.1", srv.server_address[1]), timeout=10) as sock:
        sock.sendall(request)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply
            reply += chunk


def post(path: str, body: bytes, length=None) -> bytes:
    length = str(len(body)).encode() if length is None else length
    return (
        b"POST " + path.encode() + b" HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
        b"Connection: close\r\nContent-Length: " + length + b"\r\n\r\n" + body
    )


def test_serving_never_calls_the_email_parser(live):
    srv = live
    want = srv.scorer.score_new([[40.0, 10.0]], use_cache=False)
    reply = exchange(srv, post("/score", json.dumps({"points": [[40.0, 10.0]]}).encode()))
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    assert json.loads(body)["scores"] == [float(s) for s in want]
    for path, key in (("/healthz", b'"status": "ok"'), ("/stats", b'"cache"')):
        reply = exchange(srv, f"GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode())
        assert reply.startswith(b"HTTP/1.1 200 ") and key in reply
    reply = exchange(srv, post("/score", b"{not json"))
    assert reply.startswith(b"HTTP/1.1 400 ") and b"bad request body" in reply
    reply = exchange(srv, post("/score", b"", length=str(MAX_BODY_BYTES + 1).encode()))
    assert reply.startswith(b"HTTP/1.1 413 ") and b"exceeds the" in reply
