"""The reference server's HTTP/1.1 edges, checked over raw sockets.

Each case sends exactly the bytes it shows and reads the replies itself, so
it pins what the server does with them, not what a client library sends.
The server closes a connection after a refusal; where the refused request
leaves a body unread, that close may arrive as a reset, which counts as
closed.
"""

import json
import re
import socket
import struct
import sys
import time
from email.utils import parsedate_to_datetime

import pytest

from rsp.policy import _MAX_BODY, VERSION_HEADER, WIRE_VERSION
from rsp.server import serve_backend
from rsp.toyenv import Mode, ToyBackend, toy_corpus, toy_state_decoder
from conftest import send_split, stop_server

STATE = toy_corpus(1, 0)[0].root_state()
BODY = json.dumps({"state": STATE.render()}).encode()
PROPOSE = json.dumps(
    {"state": STATE.render(), "n_samples": 2, "temperature": 1.0, "seed": 3}
).encode()


@pytest.fixture(scope="module")
def served():
    toy = ToyBackend(mode=Mode.ORACLE)
    server = serve_backend(toy, toy_state_decoder(toy))
    yield server, {"value": toy.predict_value(STATE).value}
    stop_server(server)


class Connection:
    """One client connection that sends raw bytes and reads whole replies."""

    def __init__(self, server):
        self.sock = socket.create_connection(server.server_address, timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("rb")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stream.close()
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def reply(self) -> tuple[int, dict, bytes]:
        """The next reply's status code, headers (names in lower case) and
        body."""
        status = self.stream.readline()
        assert status.startswith(b"HTTP/1.1 "), status
        headers = {}
        while (line := self.stream.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.stream.read(int(headers.get("content-length", 0)))
        return int(status.split()[1]), headers, body

    def closed_by_server(self) -> bool:
        """Whether the server has closed the connection; a connection it
        keeps open times out here instead."""
        try:
            return self.stream.read(1) == b""
        except ConnectionResetError:
            return True


def post(path="/value", body=BODY, version="HTTP/1.1", headers=()) -> bytes:
    lines = [f"POST {path} {version}", f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _refused_with_close(server, data: bytes, delivery: str = "whole") -> int:
    with Connection(server) as connection:
        if delivery == "split":
            send_split(connection.sock, data)
        else:
            connection.send(data)
        code, headers, _ = connection.reply()
        assert headers.get("connection", "").lower() == "close"
        assert connection.closed_by_server()
    return code


def _over_the_limit(length) -> bytes:
    return f"POST /value HTTP/1.1\r\nContent-Length: {length}\r\nExpect: 100-continue\r\n\r\n".encode()


# (id, request bytes, status). Each is sent whole under its id and, when
# under 64 KiB, with every line cut in two under its id with "-split"; the
# status must not depend on how the bytes arrive. A refused header line
# ends its request, so the server has read all of it when it answers.
PROTOCOL_ERRORS = [
    ("request-line-over-65536-bytes", b"POST /" + b"v" * 65536, 414),
    ("four-word-request-line", b"POST /value extra HTTP/1.1\r\n", 400),
    ("header-line-over-65536-bytes", b"POST /value HTTP/1.1\r\nX-Long: " + b"h" * 65536, 431),
    ("over-100-headers", b"POST /value HTTP/1.1\r\n" + b"".join(b"X-%d: 1\r\n" % i for i in range(101)), 431),
    ("get", b"GET /value HTTP/1.1\r\n\r\n", 501),
    ("put", b"PUT /value HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501),
    # no body follows a length over the limit, and the 413 comes before any 100 Continue
    ("content-length-10**30", _over_the_limit(10**30), 413),
    ("content-length-over-the-limit", _over_the_limit(_MAX_BODY + 1), 413),
    ("content-length-of-5000-digits", _over_the_limit("9" * 5000), 413),
    # the header-line rule (RFC 9112 sections 5.1 and 5.2)
    ("header-without-colon", b"POST /value HTTP/1.1\r\nno colon here\r\n", 400),
    ("header-with-empty-name", b"POST /value HTTP/1.1\r\n: 5\r\n", 400),
    ("space-before-colon", b"POST /value HTTP/1.1\r\nContent-Length : 5\r\n", 400),
    ("tab-before-colon", b"POST /value HTTP/1.1\r\nContent-Length\t: 5\r\n", 400),
    ("space-in-name", b"POST /value HTTP/1.1\r\nContent Length: 5\r\n", 400),
    ("folded-line", b"POST /value HTTP/1.1\r\nX-A: 1\r\n X-B: 2\r\n", 400),
    ("folded-line-after-tab", b"POST /value HTTP/1.1\r\nX-A: 1\r\n\tContent-Length: 5\r\n", 400),
]


@pytest.mark.parametrize(
    "data, code, delivery",
    [pytest.param(data, code, "whole", id=name) for name, data, code in PROTOCOL_ERRORS]
    + [
        pytest.param(data, code, "split", id=f"{name}-split")
        for name, data, code in PROTOCOL_ERRORS
        if len(data) < 65536
    ],
)
def test_protocol_errors_are_answered_and_close(served, data, code, delivery):
    server, _ = served
    assert _refused_with_close(server, data, delivery) == code


@pytest.mark.parametrize(
    "data, code",
    [
        (b"POST /value\r\n", 400),
        (b"POST /value HTTP/1.x\r\n", 400),
        (b"POST /value HTTPS/1.1\r\n", 400),
        (b"POST /value HTTP/1\r\n", 400),
        (b"POST /value HTTP/01234567890.1\r\n", 400),
        (b"POST /value HTTP/2.0\r\n", 505),
    ],
    ids=["no-version", "version-letters", "version-scheme", "version-no-minor", "version-too-long", "http2"],
)
def test_a_bad_version_is_answered_with_a_status_line_and_closes(served, data, code):
    # Not an HTTP/0.9 reply: a bare body without status line or headers.
    server, _ = served
    assert _refused_with_close(server, data) == code


def test_two_different_content_lengths_are_refused(served):
    server, _ = served
    data = post(headers=[f"Content-Length: {len(BODY) + 1}"])
    assert _refused_with_close(server, data) == 400


@pytest.mark.parametrize("length", [f"+{len(BODY)}", f"{len(BODY)}.0"], ids=["signed", "decimal"])
def test_a_content_length_that_is_not_plain_digits_is_refused(served, length):
    server, _ = served
    data = f"POST /value HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode() + BODY
    assert _refused_with_close(server, data) == 400


@pytest.mark.parametrize("coding", ["chunked", "identity"])
def test_any_transfer_encoding_is_refused(served, coding):
    server, _ = served
    data = post(headers=[f"Transfer-Encoding: {coding}"])
    assert _refused_with_close(server, data) == 400


def test_a_body_at_the_limit_is_served(served):
    server, expected = served
    with Connection(server) as connection:
        connection.send(post(body=BODY + b" " * (_MAX_BODY - len(BODY))))
        code, _, body = connection.reply()
    assert (code, json.loads(body)) == (200, expected)


def test_equal_repeated_content_lengths_are_served(served):
    server, expected = served
    with Connection(server) as connection:
        connection.send(post(headers=[f"Content-Length: {len(BODY)}"]))
        code, _, body = connection.reply()
    assert (code, json.loads(body)) == (200, expected)


def test_expect_100_continue_is_answered_before_the_body_is_read(served):
    server, expected = served
    head, _, body = post(headers=["Expect: 100-continue"]).partition(b"\r\n\r\n")
    with Connection(server) as connection:
        connection.send(head + b"\r\n\r\n")
        assert connection.reply() == (100, {}, b"")
        connection.send(body)
        code, headers, reply = connection.reply()
        assert (code, json.loads(reply)) == (200, expected)
        assert "connection" not in headers
        connection.send(post())  # still open
        assert connection.reply()[0] == 200


def test_http_1_0_closes_after_the_reply_unless_asked_to_keep_alive(served):
    server, expected = served
    with Connection(server) as connection:
        connection.send(post(version="HTTP/1.0"))
        code, headers, body = connection.reply()
        assert (code, json.loads(body)) == (200, expected)
        assert headers["connection"].lower() == "close"
        assert connection.closed_by_server()
    with Connection(server) as connection:
        for _ in range(2):
            connection.send(post(version="HTTP/1.0", headers=["Connection: keep-alive"]))
            code, _, body = connection.reply()
            assert (code, json.loads(body)) == (200, expected)


def test_an_http_1_1_client_may_ask_to_close(served):
    server, _ = served
    with Connection(server) as connection:
        connection.send(post(headers=["Connection: close"]))
        code, headers, _ = connection.reply()
        assert code == 200 and headers["connection"].lower() == "close"
        assert connection.closed_by_server()


def test_header_names_match_in_any_case(served):
    server, expected = served
    head = f"POST /value HTTP/1.1\r\ncontent-LENGTH: {len(BODY)}\r\n\r\n"
    with Connection(server) as connection:
        connection.send(head.encode() + BODY)
        code, _, body = connection.reply()
        assert (code, json.loads(body)) == (200, expected)
        # the version header is read whatever its case: version 0 is refused
        connection.send(post(headers=[f"{VERSION_HEADER.upper()}: 0"]))
        code, _, body = connection.reply()
        assert code == 400 and "wire version" in json.loads(body)["error"]


def test_a_leading_double_slash_collapses_to_one(served):
    server, expected = served
    with Connection(server) as connection:
        connection.send(post(path="//value"))
        code, _, body = connection.reply()
    assert (code, json.loads(body)) == (200, expected)


def test_pipelined_requests_are_answered_in_order_on_one_connection(served):
    server, expected = served
    with Connection(server) as connection:
        connection.send(post() + post(path="/propose", body=PROPOSE) + post())
        replies = [connection.reply() for _ in range(3)]
    assert [code for code, _, _ in replies] == [200, 200, 200]
    assert json.loads(replies[0][2]) == json.loads(replies[2][2]) == expected
    assert len(json.loads(replies[1][2])["proposals"]) == 2


def test_a_request_cut_short_gets_no_reply_and_is_closed(served):
    # RFC 9112 section 6.3: a message that ends before its Content-Length is incomplete
    server, _ = served
    for data, replies in [
        (b"POST /val", b""),
        (b"POST /value HTTP/1.1\r\nContent-Le", b""),
        (post()[:-10], b""),
        (post(headers=["Expect: 100-continue"])[:-10], b"HTTP/1.1 100 Continue\r\n\r\n"),
    ]:
        with Connection(server) as connection:
            connection.send(data)
            connection.sock.shutdown(socket.SHUT_WR)
            assert connection.stream.read() == replies, data


def test_a_request_cut_short_by_a_reset_is_closed_without_an_error():
    # a client that resets its connection mid-request has cut the request short
    toy = ToyBackend(mode=Mode.ORACLE)
    server = serve_backend(toy, toy_state_decoder(toy))
    errors, finished = [], []
    server.handle_error = lambda request, address: errors.append(sys.exc_info()[1])
    shutdown_request = server.shutdown_request
    server.shutdown_request = lambda request: (shutdown_request(request), finished.append(request))
    try:
        sock = socket.create_connection(server.server_address, timeout=10)
        sock.sendall(b"POST /value HTTP/1.1\r\nContent-Le")
        time.sleep(0.05)  # the server reads that much, then waits for the rest
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()  # with a zero linger time, a close sends a reset
        deadline = time.monotonic() + 10
        while not finished and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        stop_server(server)
    assert len(finished) == 1 and errors == []


def test_a_request_sent_one_byte_at_a_time_is_served(served):
    server, expected = served
    with Connection(server) as connection:
        for byte in post():
            connection.send(bytes([byte]))
        code, _, body = connection.reply()
    assert (code, json.loads(body)) == (200, expected)


@pytest.mark.parametrize(
    "path, body, code",
    [
        ("/value", BODY, 200),
        ("/propose", PROPOSE, 200),
        ("/value", b"{not json", 400),
        ("/nowhere", BODY, 404),
    ],
)
def test_every_reply_carries_the_protocol_headers(served, path, body, code):
    server, _ = served
    with Connection(server) as connection:
        connection.send(post(path=path, body=body))
        got, headers, reply = connection.reply()
    assert got == code
    assert headers["content-type"] == "application/json"
    assert int(headers["content-length"]) == len(reply)
    assert headers[VERSION_HEADER] == WIRE_VERSION
    assert re.fullmatch(r"[A-Z][a-z]{2}, \d\d [A-Z][a-z]{2} \d{4} \d\d:\d\d:\d\d GMT", headers["date"])
    assert abs(parsedate_to_datetime(headers["date"]).timestamp() - time.time()) < 60
    json.loads(reply)


def test_the_date_is_formatted_once_a_second_and_right_across_its_boundary(served, monkeypatch):
    server, expected = served
    now, formatted = [999_999_999.5], []
    strftime = time.strftime
    monkeypatch.setattr("rsp.server.time.time", lambda: now[0])
    monkeypatch.setattr("rsp.server.time.strftime", lambda *a: formatted.append(a) or strftime(*a))
    dates = []
    with Connection(server) as connection:
        for now[0] in (999_999_999.5, 999_999_999.999, 1_000_000_000.0, 1_000_000_000.75):
            connection.send(post())
            code, headers, body = connection.reply()
            assert (code, json.loads(body)) == (200, expected)
            dates.append(headers["date"])
    assert dates == ["Sun, 09 Sep 2001 01:46:39 GMT"] * 2 + ["Sun, 09 Sep 2001 01:46:40 GMT"] * 2
    assert len(formatted) == 2  # once for each second
