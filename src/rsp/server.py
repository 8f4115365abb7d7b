"""The reference server: serves an in-process backend over the wire protocol
(used for tests and for exposing the toy environment to external clients).

A /propose body with ``"with_values": true`` is answered with a ``values``
list as well: for each proposal, the value the backend attached to it, or
else the backend's ``predict_value`` for the state plus that step, computed
in the same request.

The handler reads each request through one ``rsp.policy._WireReader`` on its
socket, and writes each reply, status line, headers and JSON body, in one
send, with the server's Date value. Connections are kept alive between
requests, and each request body is read in full before the reply, so the
next request starts where this one ends. A request that breaks the protocol
edges listed in the README is answered with ``Connection: close``, and the
connection closes; one cut short by the end of the stream gets no reply.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
import time

from .core import EngineError, ReasoningState, json_field, parse_json
from .policy import VERSION_HEADER, WIRE_VERSION, PolicyValueBackend, ProposalRequest, _step_to_wire
from .policy import _HTTP_VERSION, _MAX_BODY, _CutShort, _keeps_alive, _Malformed, _OverLimit, _WireReader

logger = logging.getLogger(__name__)

# Seconds between the reference server's checks for shutdown(), and so the
# longest shutdown() waits.
SERVER_POLL_INTERVAL = 0.02


def _proposal_request_from_wire(state: ReasoningState, body: dict) -> ProposalRequest:
    """The /propose fields, taken only as the JSON kinds the client sends:
    ``n_samples`` an integer, ``temperature`` a finite number, ``seed`` an
    integer or null and ``with_values``, when present, a boolean. Anything
    else is a ValueError."""
    return ProposalRequest(
        state=state,
        n_samples=json_field(body, "n_samples", (int,)),
        temperature=float(json_field(body, "temperature", (float,))),
        seed=json_field(body, "seed", (int, None), None),
        with_values=json_field(body, "with_values", (bool,), False),
    )


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Content Too Large",
            414: "URI Too Long", 431: "Request Header Fields Too Large", 500: "Internal Server Error",
            501: "Not Implemented", 505: "HTTP Version Not Supported"}
_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


class _BackendRequestHandler(socketserver.BaseRequestHandler):
    def setup(self) -> None:
        # Pipelined replies, or a 100 Continue and its reply, are back-to-back writes.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = _WireReader(self.request, "request")

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except (_CutShort, ConnectionError):
            pass  # a request cut short, by its end or a reset, is not served (RFC 9112 section 6.3)

    def _serve_one(self) -> bool:
        """Read one request and answer it; whether to read another."""
        self.keep_alive = False  # until the request has been read
        try:
            line = self.reader.line()
        except _OverLimit:
            return self._reply(414, {"error": "request line too long"})
        words = line.split()
        version = _HTTP_VERSION.fullmatch(words[2]) if len(words) == 3 else None
        if version is None:
            return self._reply(400, {"error": f"bad request line {line[:200]!r}"})
        version = (int(version[1]), int(version[2]))
        if version >= (2, 0):
            return self._reply(505, {"error": "HTTP version not supported"})
        try:
            pairs = self.reader.headers()
        except _OverLimit as exc:
            return self._reply(431, {"error": str(exc)})
        except _Malformed as exc:
            return self._reply(400, {"error": str(exc)})
        headers = self.headers = {}
        for name, value in pairs:  # the first value of a repeated name is kept
            if headers.setdefault(name, value) != value and name == "content-length":
                return self._reply(400, {"error": "conflicting Content-Length values"})
        if "transfer-encoding" in headers:
            return self._reply(400, {"error": "Transfer-Encoding is not supported"})
        if words[0] != b"POST":
            return self._reply(501, {"error": f"unsupported method {words[0].decode('latin-1')!r}"})
        # Refused unread. int() may refuse over 4300 digits, so over 20 are not parsed.
        length = headers.get("content-length", "")
        if length.isdecimal() and (len(length) > 20 or int(length) > _MAX_BODY):
            return self._reply(413, {"error": f"body over {_MAX_BODY} bytes"})
        self.keep_alive = _keeps_alive(version, headers.get("connection", ""))
        if version >= (1, 1) and headers.get("expect", "").lower() == "100-continue":
            self.request.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        path = words[1].decode("latin-1")  # a leading // is not a scheme-less URL here
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        return self._answer()

    def _read_body(self) -> bytes | None:
        """The body by its Content-Length; None when that is missing or not digits."""
        length = self.headers.get("content-length", "")
        return self.reader.exactly(int(length)) if length.isdecimal() else None

    def _reply(self, code: int, payload: dict) -> bool:
        """Send the reply in one write; whether the connection stays open."""
        blob = json.dumps(payload).encode()
        close = "" if self.keep_alive else "Connection: close\r\n"
        self.request.sendall(
            f"HTTP/1.1 {code} {_REASONS[code]}\r\nDate: {self.server.http_date()}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(blob)}\r\n"
            f"{VERSION_HEADER}: {WIRE_VERSION}\r\n{close}\r\n".encode() + blob
        )
        return self.keep_alive

    def _answer(self) -> bool:
        raw = self._read_body()
        if raw is None:
            # Where this request ends is unknown, so nothing after it on the
            # connection can be read as a request.
            self.keep_alive = False
            return self._reply(400, {"error": "Content-Length missing or invalid"})
        if self.path not in ("/propose", "/value"):
            return self._reply(404, {"error": f"unknown path {self.path}"})
        # A client without the header (curl, say) is served; one that sends
        # another version would misread the replies.
        version = self.headers.get(VERSION_HEADER, WIRE_VERSION)
        if version != WIRE_VERSION:
            return self._reply(400, {"error": f"wire version {version!r} is not {WIRE_VERSION!r}"})
        # A request that cannot be parsed, or that the backend rejects by
        # contract, fails the same way on every attempt: answer 4xx so the
        # client does not retry it. Only unexpected failures are 500s.
        try:
            body = parse_json(raw)
            state = self.server.state_decoder(json_field(body, "state", (str,)))
            if self.path == "/propose":
                request = _proposal_request_from_wire(state, body)
        except (ValueError, KeyError, TypeError, EngineError) as exc:
            return self._reply(400, {"error": f"bad request: {exc}"})
        try:
            backend = self.server.backend
            if self.path == "/propose":
                proposals = backend.propose_steps(request)
                payload = {"proposals": [_step_to_wire(p.step) for p in proposals]}
                if request.with_values:
                    payload["values"] = [
                        backend.predict_value(
                            ReasoningState(state.question_id, state.question_text, state.steps + (p.step,))
                        ).value
                        if p.value is None
                        else p.value
                        for p in proposals
                    ]
            else:
                payload = {"value": backend.predict_value(state).value}
        except EngineError as exc:
            return self._reply(400, {"error": str(exc)})
        except Exception as exc:  # a server fault: the client may retry
            logger.exception("wire server: %s failed", self.path)
            return self._reply(500, {"error": str(exc)})
        return self._reply(200, payload)


class _BackendServer(socketserver.ThreadingTCPServer):
    """A threading TCP server for ``backend`` whose server_close() also ends
    the connections it keeps alive, so no handler thread serves after it."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, backend: PolicyValueBackend, state_decoder) -> None:
        self.backend = backend
        self.state_decoder = state_decoder
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._date = (None, "")  # (second, its Date value), the last formatted
        super().__init__(address, _BackendRequestHandler)

    def http_date(self) -> str:
        """The current time as a Date header value, in English whatever the
        locale; formatted once per second of ``time.time()``. Threads that
        race here at worst format one second twice."""
        second = int(time.time())
        date = self._date  # read once: another thread may replace it
        if date[0] != second:
            t = time.gmtime(second)
            date = self._date = (
                second, time.strftime(f"{_DAYS[t.tm_wday]}, %d {_MONTHS[t.tm_mon - 1]} %Y %H:%M:%S GMT", t)
            )
        return date[1]

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        # Shut down, not close: each handler thread then reads end-of-stream
        # and closes its own socket.
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer already went away


def serve_backend(backend: PolicyValueBackend, state_decoder, host: str = "127.0.0.1", port: int = 0) -> _BackendServer:
    """Expose ``backend`` over HTTP; returns the (already started) server.

    ``state_decoder`` maps a rendered state string back to a ReasoningState
    the backend understands. The server is a socketserver threading TCP
    server with the handler above; it does not load ``http.server``. The
    caller owns shutdown(), which stops accepting connections, and
    server_close(), which also closes the kept-alive ones.
    """
    server = _BackendServer((host, port), backend, state_decoder)
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": SERVER_POLL_INTERVAL}, daemon=True
    ).start()
    return server
