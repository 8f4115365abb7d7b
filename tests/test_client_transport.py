"""The remote client's kept-alive socket, checked against scripted raw-socket servers.

Each server reads whole requests and answers each with the next scripted
reply bytes, so these cases pin what the client sends and which replies it
reads, refuses or reconnects after, not what a server library does.
"""

import gc
import gzip
import json
import re
import socket
import threading
import time
import zlib

import pytest
import requests

from conftest import make_state, send_split
from rsp.policy import (
    _MAX_BODY,
    _MAX_HEADERS,
    _MAX_LINE,
    ProposalRequest,
    RemoteBackend,
    TransportError,
    _WireReader,
)

VALUE = b'{"value": 0.25}'


def _reply(body=VALUE, *headers, version="HTTP/1.1", status="200 OK", length=True):
    """Reply bytes: the status line, the headers given, Content-Length unless
    ``length`` is false, and the body."""
    lines = [f"{version} {status}", *headers]
    if length:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _chunked(body, size=5):
    chunks = [body[i : i + size] for i in range(0, len(body), size)]
    return b"".join(b"%x;ext=1\r\n%s\r\n" % (len(c), c) for c in chunks) + b"0\r\nX-Trailer: t\r\n\r\n"


class ScriptedServer:
    """A loopback server that answers each request with the next script entry.

    An entry is ``(reply bytes, then)``: after sending the bytes, ``"keep"``
    waits for the next request on the connection, ``"close"`` closes it and
    ``"hang"`` reads nothing more until the server stops. With ``split``
    each reply is sent with every line cut in two. ``requests`` holds each
    request's raw bytes, head and body; ``connections`` counts accepted
    connections; ``closed`` is set whenever a connection has ended.
    """

    def __init__(self, script, host="127.0.0.1", family=socket.AF_INET, split=False):
        self.script = list(script)
        self.split = split
        self.requests: list[bytes] = []
        self.connections = 0
        self.closed = threading.Event()
        self._stopping = threading.Event()
        self._open: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._listener = socket.create_server((host, 0), family=family)
        self._listener.settimeout(0.02)
        self.port = self._listener.getsockname()[1]
        self._start(self._accept)

    def _start(self, target, *args):
        thread = threading.Thread(target=target, args=args, daemon=True)
        self._threads.append(thread)
        thread.start()

    def _accept(self):
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            self._open.append(conn)
            self._start(self._serve, conn)

    def _serve(self, conn):
        try:
            with conn, conn.makefile("rb") as stream:
                while True:
                    head = stream.readline()
                    while head and not head.endswith(b"\r\n\r\n"):
                        line = stream.readline()
                        if not line:
                            return  # the client closed the connection
                        head += line
                    if not head:
                        return
                    length = re.search(rb"(?i)\r\ncontent-length: *(\d+)", head)
                    self.requests.append(head + stream.read(int(length[1]) if length else 0))
                    reply, then = self.script.pop(0)
                    if self.split:
                        send_split(conn, reply)
                    else:
                        conn.sendall(reply)
                    if then == "close":
                        return
                    if then == "hang":
                        self._stopping.wait()
                        return
        except OSError:
            pass  # cut off by stop(), or reset by the client
        finally:
            self.closed.set()

    def stop(self):
        self._stopping.set()
        for conn in self._open:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed
        for thread in self._threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        self._listener.close()

    @property
    def url(self):
        return f"http://127.0.0.1:{self.port}"


@pytest.fixture()
def scripted():
    servers = []

    def start(script, **kwargs):
        servers.append(ScriptedServer(script, **kwargs))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


@pytest.fixture()
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr("rsp.policy.time.sleep", slept.append)
    return slept


def test_each_request_is_one_send(scripted, monkeypatch):
    server = scripted([(_reply(), "keep")] * 2 + [(_reply(b'{"proposals": []}'), "keep")])
    sends = []
    for name in ("send", "sendall"):
        original = getattr(socket.socket, name)

        def recording(sock, data, *args, _original=original):
            if sock.getpeername()[1] == server.port:
                sends.append(bytes(data))
            return _original(sock, data, *args)

        monkeypatch.setattr(socket.socket, name, recording)
    remote = RemoteBackend(server.url)
    remote.predict_value(make_state())
    remote.predict_value(make_state())
    remote.propose_steps(ProposalRequest(state=make_state(), n_samples=2, temperature=1.0, seed=0))
    assert sends == server.requests
    assert [send.split(b" ", 2)[1] for send in sends] == [b"/value", b"/value", b"/propose"]


def test_fifty_calls_share_one_connection(scripted):
    server = scripted([(_reply(), "keep")] * 50)
    remote = RemoteBackend(server.url)
    for _ in range(50):
        assert remote.predict_value(make_state()).value == 0.25
    assert (server.connections, len(server.requests)) == (1, 50)


def test_a_connection_the_server_closed_while_idle_is_replaced_without_a_retry(scripted, sleeps):
    server = scripted([(_reply(), "close"), (_reply(b'{"value": 0.5}'), "keep")])
    remote = RemoteBackend(server.url, backoff=5.0)
    assert remote.predict_value(make_state()).value == 0.25
    assert server.closed.wait(timeout=10)
    assert remote.predict_value(make_state()).value == 0.5
    assert (server.connections, len(server.requests)) == (2, 2)
    assert sleeps == []


@pytest.mark.parametrize(
    "version, headers, connections",
    [
        ("HTTP/1.0", (), 2),
        ("HTTP/1.1", ("Connection: close",), 2),
        ("HTTP/1.0", ("Connection: keep-alive",), 1),
        ("HTTP/1.1", ("Connection: keep-alive",), 1),
    ],
    ids=["1.0", "1.1-close", "1.0-keep-alive", "1.1-keep-alive"],
)
def test_the_reply_decides_whether_the_connection_is_kept(scripted, sleeps, version, headers, connections):
    then = "close" if connections == 2 else "keep"
    server = scripted([(_reply(VALUE, *headers, version=version), then)] * 2)
    remote = RemoteBackend(server.url)
    for _ in range(2):
        assert remote.predict_value(make_state()).value == 0.25
    assert server.connections == connections
    assert sleeps == []


# (id, reply bytes, what the server does next). Each is sent whole under its
# id and with every line cut in two under its id with "-split".
READABLE_REPLIES = [
    ("chunked", _reply(_chunked(VALUE), "Transfer-Encoding: chunked", length=False), "keep"),
    ("gzip", _reply(gzip.compress(VALUE), "Content-Encoding: gzip"), "keep"),
    ("deflate", _reply(zlib.compress(VALUE), "Content-Encoding: deflate"), "keep"),
    ("raw-deflate", _reply(zlib.compress(VALUE)[2:-4], "Content-Encoding: deflate"), "keep"),
    ("chunked-gzip", _reply(_chunked(gzip.compress(VALUE)), "Transfer-Encoding: chunked", "Content-Encoding: gzip",
                            length=False), "keep"),
    ("to-eof", _reply(VALUE, length=False), "close"),
    ("100-continue", b"HTTP/1.1 100 Continue\r\n\r\n" + _reply(), "keep"),
    ("longest-header-line", _reply(VALUE, "X-Pad: " + "a" * (_MAX_LINE - 9)), "keep"),
    ("most-headers", _reply(VALUE, *[f"X-Pad-{i}: a" for i in range(_MAX_HEADERS - 1)]), "keep"),
]


@pytest.mark.parametrize(
    "reply, then, split",
    [pytest.param(reply, then, False, id=name) for name, reply, then in READABLE_REPLIES]
    + [pytest.param(reply, then, True, id=f"{name}-split") for name, reply, then in READABLE_REPLIES],
)
def test_replies_the_client_reads(scripted, reply, then, split):
    server = scripted([(reply, then)], split=split)
    assert RemoteBackend(server.url).predict_value(make_state()).value == 0.25


@pytest.mark.parametrize(
    "reply, then, error",
    [
        (_reply(VALUE, "Content-Encoding: br"), "keep", "unsupported Content-Encoding 'br'"),
        (_reply(VALUE, "Content-Encoding: gzip"), "keep", "cannot decode gzip"),
        (_reply(gzip.compress(VALUE)[:-6], "Content-Encoding: gzip"), "keep", "cut short"),
        (_reply(VALUE, "Transfer-Encoding: gzip", length=False), "keep", "unsupported Transfer-Encoding"),
        (_reply(b"zz\r\n" + VALUE, "Transfer-Encoding: chunked", length=False), "keep", "malformed chunk size"),
        (_reply(VALUE)[:-5], "close", "inside the reply body"),
        (b"HTTP/1.1 200 OK\r\nContent-Le", "close", "inside the reply head"),
        (b"", "close", "inside the reply head"),
        (b"HTTP/1.1 OK\r\n\r\n", "close", "malformed status line"),
        (b"HTTP/2.0 200 OK\r\n\r\n", "close", "malformed status line"),
        (b"<html>oops</html>\r\n\r\n", "close", "malformed status line"),
        (_reply(VALUE, "no colon here"), "keep", "malformed header line"),
        (_reply(VALUE, ": 15"), "keep", "malformed header line"),
        (_reply(VALUE, "Content-Length : 15"), "keep", "malformed header line"),
        (_reply(VALUE, "Content-Length\t: 15"), "keep", "malformed header line"),
        (_reply(VALUE, "Content Length: 15"), "keep", "malformed header line"),
        (_reply(VALUE, "X-A: 1", " X-B: 2"), "keep", "malformed header line"),
        (_reply(VALUE, "Content-Length: 3"), "keep", "malformed Content-Length"),
        (_reply(VALUE, "X-Pad: " + "a" * (_MAX_LINE - 8)), "keep", f"reply line over {_MAX_LINE} bytes"),
        (_reply(VALUE, *[f"X-Pad-{i}: a" for i in range(_MAX_HEADERS)]), "keep", f"more than {_MAX_HEADERS} headers"),
        (_reply(b"", f"Content-Length: {_MAX_BODY + 1}", length=False), "hang", f"over {_MAX_BODY} bytes"),
        (_reply(b"", "Content-Length: 1" + "0" * 30, length=False), "hang", "malformed Content-Length"),
        (_reply(b"%x\r\n" % (_MAX_BODY + 1), "Transfer-Encoding: chunked", length=False), "hang",
         f"over {_MAX_BODY} bytes"),
        (lambda: _reply(b"x" * (_MAX_BODY + 1), length=False), "close", f"over {_MAX_BODY} bytes"),
        (_reply(b"5\r\nabcdeXY\r\n0\r\n\r\n", "Transfer-Encoding: chunked", length=False), "keep",
         "chunk data not followed by a line end"),
    ],
    ids=["unknown-encoding", "not-gzip", "gzip-cut-short", "unknown-transfer-encoding", "bad-chunk-size",
         "cut-in-body", "cut-in-head", "no-reply", "status-without-code", "http-2", "not-http",
         "header-without-colon", "header-with-empty-name", "space-before-colon", "tab-before-colon",
         "space-in-name", "folded-line", "conflicting-lengths", "header-line-too-long", "too-many-headers",
         "body-too-large", "length-too-long", "chunked-body-too-large", "to-eof-body-too-large",
         "chunk-without-line-end"],
)
def test_replies_the_client_refuses(scripted, reply, then, error):
    # The timeout is far above the test's run time: a refusal that waited
    # for more bytes would fail with a timeout, not the error named here.
    # A callable reply is built only when its case runs (the 16 MiB body).
    server = scripted([(reply() if callable(reply) else reply, then)])
    with pytest.raises(TransportError, match="failed after 1 attempts") as failure:
        RemoteBackend(server.url, timeout=30, max_attempts=1).predict_value(make_state())
    assert isinstance(failure.value.__cause__, requests.ConnectionError)
    assert error in str(failure.value.__cause__)


class _OneBytePerRecv:
    """A socket stand-in whose every ``recv`` returns the next one byte."""

    def __init__(self, data: bytes) -> None:
        self._data, self._at = data, 0

    def recv(self, size: int) -> bytes:
        self._at += 1
        return self._data[self._at - 1 : self._at]


def test_a_head_arriving_one_byte_per_recv_is_read_in_linear_time():
    # Over 100 KB in about 10**5 receives: a reader that scans its whole
    # buffer again on each receive does about 5 * 10**9 byte steps here and
    # takes tens of seconds, a linear one a fraction of a second. The
    # reader is the one both ends use, so this covers the server too.
    head = b"HTTP/1.1 200 OK\r\n" + b"".join(b"X-Pad-%02d: %s\r\n" % (i, b"a" * 1024) for i in range(_MAX_HEADERS))
    assert len(head) > 100_000
    reader = _WireReader(_OneBytePerRecv(head + b"\r\n" + VALUE), "reply")
    started = time.thread_time()
    assert reader.line() == b"HTTP/1.1 200 OK"
    assert reader.headers() == [(f"x-pad-{i:02d}", "a" * 1024) for i in range(_MAX_HEADERS)]
    assert reader.exactly(len(VALUE)) == VALUE
    assert time.thread_time() - started < 2.0


def test_a_refused_reply_closes_the_connection_and_the_retry_succeeds(scripted, sleeps):
    server = scripted([(_reply(VALUE, "Content-Encoding: br"), "keep"), (_reply(), "keep")])
    assert RemoteBackend(server.url, backoff=0.01).predict_value(make_state()).value == 0.25
    assert (server.connections, len(server.requests)) == (2, 2)
    assert sleeps == [0.01]


def test_a_read_timeout_is_retried_then_a_transport_error(scripted, sleeps):
    server = scripted([(b"", "hang")] * 3)
    with pytest.raises(TransportError, match="failed after 3 attempts") as failure:
        RemoteBackend(server.url, timeout=0.1, backoff=0.01).predict_value(make_state())
    assert isinstance(failure.value.__cause__, requests.ConnectionError)
    assert (server.connections, len(server.requests)) == (3, 3)
    assert sleeps == [0.01, 0.02]


def test_a_200_reply_that_is_not_json_fails_without_a_retry(scripted, sleeps):
    # JSON nested too deep for the decoder is refused like any other
    # (the message shows the body's first 200 bytes)
    for body, shown in [
        (b"<html>oops</html>", "<html>oops</html>'"),
        (b"[" * 100_000 + b"]" * 100_000, "[" * 200 + "'"),
    ]:
        server = scripted([(_reply(body, "Content-Type: text/html"), "keep")] * 3)
        with pytest.raises(TransportError, match=re.escape(f"/value reply is not JSON: b'{shown}")):
            RemoteBackend(server.url).predict_value(make_state())
        assert len(server.requests) == 1
        assert sleeps == []


def _has_ipv6_loopback():
    try:
        with socket.create_server(("::1", 0), family=socket.AF_INET6):
            return True
    except OSError:
        return False


@pytest.mark.skipif(not _has_ipv6_loopback(), reason="no IPv6 loopback")
def test_an_ipv6_host_is_sent_in_brackets(scripted):
    server = scripted([(_reply(), "keep")], host="::1", family=socket.AF_INET6)
    assert RemoteBackend(f"http://[::1]:{server.port}").predict_value(make_state()).value == 0.25
    assert f"\r\nHost: [::1]:{server.port}\r\n".encode() in server.requests[0]


def test_closing_the_session_or_dropping_the_client_closes_the_socket(scripted):
    server = scripted([(_reply(), "keep")] * 2)
    remote = RemoteBackend(server.url)
    remote.predict_value(make_state())
    session, _, _ = remote._endpoint("/value")
    session.close()
    assert server.closed.wait(timeout=10)
    server.closed.clear()
    remote.predict_value(make_state())  # a fresh socket after the close
    del remote, session
    gc.collect()
    assert server.closed.wait(timeout=10)
    assert server.connections == 2


def test_only_a_plain_unproxied_url_gets_the_kept_alive_socket(monkeypatch):
    from rsp.transport import KeptAliveAdapter

    for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    assert type(RemoteBackend("http://127.0.0.1:1")._endpoint("/value")[1]) is KeptAliveAdapter
    assert type(RemoteBackend("https://127.0.0.1:1")._endpoint("/value")[1]) is requests.adapters.HTTPAdapter
    monkeypatch.setenv("http_proxy", "http://127.0.0.1:2")
    assert type(RemoteBackend("http://127.0.0.1:1")._endpoint("/value")[1]) is requests.adapters.HTTPAdapter
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    assert type(RemoteBackend("http://127.0.0.1:1")._endpoint("/value")[1]) is KeptAliveAdapter


def test_every_round_trip_passes_the_adapters_send(scripted, monkeypatch):
    server = scripted([(_reply(), "keep")] * 5)
    send, seen = requests.adapters.HTTPAdapter.send, []

    def recording(adapter, request, **kwargs):
        response = send(adapter, request, **kwargs)
        seen.append((request.path_url, response.status_code, json.loads(response.content)))
        return response

    monkeypatch.setattr(requests.adapters.HTTPAdapter, "send", recording)
    remote = RemoteBackend(server.url)
    for _ in range(5):
        remote.predict_value(make_state())
    assert seen == [("/value", 200, {"value": 0.25})] * 5
