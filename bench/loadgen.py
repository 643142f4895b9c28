"""HTTP load generator: one selectors loop over a few keep-alive connections.

Everything runs on the calling thread. Requests are pre-encoded bytes, so
JSON encoding never sits inside a timed interval.

* :func:`open_loop` sends request ``i`` at the fixed due time
  ``t0 + i / rate`` on whichever connection is idle, and times it from
  that due time. A stalled server therefore also delays the requests
  queued behind it, and that wait is counted. The generator's own
  lateness is the delay between the moment a request could have gone out
  (due, with a connection free) and the moment it did.
* :func:`closed_loop` keeps every connection busy: each sends its next
  request as soon as its previous response lands.
* :func:`ceiling` is :func:`closed_loop` against ``GET /healthz``: the
  highest request rate this generator reaches against a trivial
  endpoint.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

#: Seconds a single response may take before the run is aborted.
IO_TIMEOUT_S = 60.0


@dataclass
class Result:
    """One request: when it was due, sent and answered, and the reply.

    ``status`` is the HTTP status, or 0 when the connection failed.
    """

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes


def post(path: str, body: bytes) -> bytes:
    """Encode one keep-alive ``POST`` with a JSON body."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def get(path: str) -> bytes:
    """Encode one keep-alive ``GET``."""
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


def _parse_response(buf: bytearray) -> Optional[Tuple[int, bytes, int]]:
    """``(status, body, consumed)`` once a full response is buffered."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).decode("latin-1").split("\r\n")
    status = int(head[0].split()[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    total = end + 4 + length
    if len(buf) < total:
        return None
    return status, bytes(buf[end + 4:total]), total


class _Conn:
    """A non-blocking keep-alive connection carrying one request at a time."""

    def __init__(self, addr, sel: selectors.BaseSelector):
        self.addr = addr
        self.sel = sel
        self.job: Optional[Tuple[int, float, float]] = None  # index, due, sent
        self.free_since = time.perf_counter()
        self._connect()

    def _connect(self) -> None:
        self.sock = socket.create_connection(self.addr, timeout=IO_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.inbuf = bytearray()
        self.out = b""
        self.sel.register(self.sock, selectors.EVENT_READ, self)

    def reconnect(self) -> None:
        self.close()
        self._connect()

    def close(self) -> None:
        try:
            self.sel.unregister(self.sock)
        except (KeyError, ValueError):
            pass
        self.sock.close()

    def send(self, index: int, due: float, payload: bytes) -> None:
        self.job = (index, due, time.perf_counter())
        self.out = payload
        self.flush()

    def flush(self) -> None:
        while self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                break
            self.out = self.out[sent:]
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.out else 0)
        self.sel.modify(self.sock, events, self)

    def on_ready(self, mask: int) -> Optional[Result]:
        """Advance I/O; returns the finished :class:`Result`, if any."""
        if mask & selectors.EVENT_WRITE:
            self.flush()
        if not mask & selectors.EVENT_READ:
            return None
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            if self.job is None:  # an idle keep-alive connection was closed
                self.reconnect()
                return None
            raise ConnectionError("server closed the connection")
        self.inbuf += chunk
        parsed = _parse_response(self.inbuf)
        if parsed is None:
            return None
        status, body, consumed = parsed
        del self.inbuf[:consumed]
        return self._finish(status, body)

    def _finish(self, status: int, body: bytes) -> Result:
        index, due, sent = self.job
        self.job = None
        self.free_since = time.perf_counter()
        return Result(index, due, sent, self.free_since, status, body)

    def fail(self) -> Optional[Result]:
        """Record the in-flight request (if any) as failed and reconnect."""
        result = None if self.job is None else self._finish(0, b"")
        self.reconnect()
        return result


def _drive(
    addr,
    n_conns: int,
    next_job: Callable[[float, bool], Optional[Tuple[int, float, bytes]]],
    wake_at: Callable[[], Optional[float]],
) -> Tuple[List[Result], List[float]]:
    """The shared event loop.

    ``next_job(now, idle)`` hands out the next request for an idle
    connection, or None when nothing is due yet. ``wake_at()`` is the next
    due time to wake for (None: wait for I/O only). Returns the results
    and, per request, the generator's own lateness in seconds.
    """
    sel = selectors.DefaultSelector()
    conns = [_Conn(addr, sel) for _ in range(max(1, n_conns))]
    idle = deque(conns)
    results: List[Result] = []
    late: List[float] = []
    try:
        while True:
            now = time.perf_counter()
            while idle:
                job = next_job(now, True)
                if job is None:
                    break
                index, due, payload = job
                conn = idle.popleft()
                late.append(max(0.0, now - max(due, conn.free_since)))
                try:
                    conn.send(index, due, payload)
                except OSError:
                    results.append(conn.fail())
                    idle.append(conn)
                    continue
                now = time.perf_counter()
            busy = len(conns) - len(idle)
            wake = wake_at()
            if busy == 0 and wake is None:
                return results, late
            timeout = IO_TIMEOUT_S if wake is None or not idle else max(0.0, wake - now)
            events = sel.select(timeout)
            if not events and busy and (wake is None or not idle):
                raise TimeoutError(f"no response within {IO_TIMEOUT_S} s")
            for key, mask in events:
                conn = key.data
                try:
                    result = conn.on_ready(mask)
                except OSError:
                    result = conn.fail()
                if result is not None:
                    results.append(result)
                    idle.append(conn)
    finally:
        for conn in conns:
            conn.close()
        sel.close()


def open_loop(
    addr, payloads: Sequence[bytes], rate: float, conns: int = 2
) -> Tuple[List[Result], List[float]]:
    """Send ``payloads[i]`` at ``t0 + i / rate``; see the module docstring.

    Returns the results in completion order and the generator's lateness
    (seconds) per request.
    """
    t0 = time.perf_counter() + 0.01
    state = {"i": 0}

    def due(i: int) -> float:
        return t0 + i / rate

    def next_job(now: float, _idle: bool):
        i = state["i"]
        if i >= len(payloads) or due(i) > now:
            return None
        state["i"] = i + 1
        return i, due(i), payloads[i]

    def wake_at():
        i = state["i"]
        return due(i) if i < len(payloads) else None

    return _drive(addr, conns, next_job, wake_at)


def closed_loop(
    addr, payload_at: Callable[[int], bytes], seconds: float, conns: int = 2
) -> Tuple[List[Result], float]:
    """Keep ``conns`` requests in flight for ``seconds``.

    ``payload_at(i)`` builds request ``i``. Returns the results and the
    measured duration (from the first send to the last response).
    """
    start = time.perf_counter()
    stop = start + seconds
    state = {"i": 0}

    def next_job(now: float, _idle: bool):
        if now >= stop:
            return None
        i = state["i"]
        state["i"] = i + 1
        return i, now, payload_at(i)

    results, _ = _drive(addr, conns, next_job, lambda: None)
    end = max((r.done for r in results), default=time.perf_counter())
    return results, end - start


def ceiling(addr, seconds: float = 0.5, conns: int = 2) -> float:
    """Requests per second this generator reaches on ``GET /healthz``."""
    payload = get("/healthz")
    results, elapsed = closed_loop(addr, lambda i: payload, seconds, conns)
    ok = sum(1 for r in results if r.status == 200)
    return ok / elapsed if elapsed > 0 else 0.0
