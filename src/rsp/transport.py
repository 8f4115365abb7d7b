"""One kept-alive HTTP/1.1 socket under the remote client's ``requests`` adapter.

``RemoteBackend`` mounts ``KeptAliveAdapter`` on its session for a plain
``http://`` base URL that no proxy applies to. Each request still goes
through ``requests.adapters.HTTPAdapter.send``, with its prepared headers,
timeout handling and error mapping; only the hooks that ``send`` calls for
the connection (``get_connection_with_tls_context``) and for the reply
(``build_response``) are replaced, so the round trip itself is one
``sendall`` and a read of the reply on a socket this module owns.

Imported when a remote client builds its session, never with ``rsp``.
"""

from __future__ import annotations

import select
import socket
import weakref
import zlib
from typing import NamedTuple
from urllib.parse import urlsplit

import requests
from requests.adapters import HTTPAdapter
from requests.structures import CaseInsensitiveDict
from requests.utils import get_encoding_from_headers
from urllib3.exceptions import ProtocolError

from .policy import _HTTP_VERSION, _MAX_BODY, _MAX_HEADERS, _MAX_LINE

_RECV_SIZE = 1 << 16
# What a session using this adapter offers; requests' own default also
# offers br and zstd when their packages are installed.
ACCEPT_ENCODING = "gzip, deflate"


class _Reply(NamedTuple):
    status: int
    reason: str
    headers: dict[str, str]  # names lower-cased
    body: bytes  # read in full and decoded


def _is_readable(sock: socket.socket) -> bool:
    """Whether a read on ``sock`` would not block: data or end of stream waits."""
    if hasattr(select, "poll"):  # select() refuses descriptors past FD_SETSIZE
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _inflate(body: bytes, wbits: int) -> bytes:
    """``body`` decompressed, refused past ``_MAX_BODY`` bytes or cut short."""
    inflater = zlib.decompressobj(wbits)
    data = inflater.decompress(body, _MAX_BODY + 1)
    if len(data) > _MAX_BODY or not inflater.eof:
        raise ProtocolError("compressed reply body is cut short or over the size limit")
    return data


def _decoded(body: bytes, encoding: str) -> bytes:
    """``body`` under its Content-Encoding: the ``gzip`` and ``deflate``
    that ``ACCEPT_ENCODING`` offers (deflate zlib-wrapped or raw), or none."""
    try:
        if encoding in ("gzip", "x-gzip"):
            return _inflate(body, 16 + zlib.MAX_WBITS)
        if encoding == "deflate":
            try:
                return _inflate(body, zlib.MAX_WBITS)
            except zlib.error:
                return _inflate(body, -zlib.MAX_WBITS)
    except zlib.error as exc:
        raise ProtocolError(f"cannot decode {encoding} reply body: {exc}") from None
    if encoding not in ("", "identity"):
        raise ProtocolError(f"unsupported Content-Encoding {encoding!r}")
    return body


class KeptAliveConnection:
    """One socket to one ``http://`` host, reused across requests.

    Stands where ``send`` expects a urllib3 connection pool: ``urlopen``
    does a whole round trip and returns the reply with its body read.
    Before a request reuses the socket, a socket that is readable (the
    server closed the idle connection, or sent what was not asked for) is
    dropped and a new one opened. Any failure closes the socket. A socket
    left open is closed when this object is collected, as urllib3's pools
    close theirs.
    """

    def __init__(self, base_url: str) -> None:
        parts = urlsplit(base_url)
        host, port = parts.hostname, parts.port or 80
        self._address = (host, port)
        if not host.isascii():
            host = host.encode("idna").decode("ascii")
        host = f"[{host}]" if ":" in host else host
        self._host = host if port == 80 else f"{host}:{port}"
        self._sock: socket.socket | None = None
        self._close_sock = None  # the finalizer that closes _sock
        self._read_timeout = None
        self._buffer = bytearray()

    def close(self) -> None:
        if self._sock is not None:
            self._close_sock()
            self._sock = None
        self._buffer.clear()

    def urlopen(self, method: str, url: str, body=None, headers=None, timeout=None, **_) -> _Reply:
        try:
            return self._round_trip(method, url, body or b"", headers or {}, timeout)
        except BaseException:
            self.close()
            raise

    def _round_trip(self, method, url, body, headers, timeout) -> _Reply:
        if self._sock is not None and _is_readable(self._sock):
            self.close()
        if self._sock is None:
            sock = socket.create_connection(self._address, timeout.connect_timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._read_timeout = sock, timeout.connect_timeout
            self._close_sock = weakref.finalize(self, sock.close)
        if timeout.read_timeout != self._read_timeout:
            self._read_timeout = timeout.read_timeout
            self._sock.settimeout(self._read_timeout)
        head = [f"{method} {url} HTTP/1.1", f"Host: {self._host}"]
        head += [f"{name}: {value}" for name, value in headers.items()]
        self._sock.sendall(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        status = 100
        while status < 200:  # an interim 1xx reply is followed by the real one
            version, status, reason = self._read_status_line()
            reply_headers = self._read_headers()
        body, keep_alive = self._read_body(version, status, reply_headers)
        if not keep_alive or self._buffer:
            self.close()  # the server closes, or sent more than one reply
        encoding = reply_headers.get("content-encoding", "").lower()
        return _Reply(status, reason, reply_headers, _decoded(body, encoding))

    def _fill(self) -> bool:
        """Read what the socket has into the buffer; False at end of stream."""
        chunk = self._sock.recv(_RECV_SIZE)
        self._buffer += chunk
        return bool(chunk)

    def _read_line(self) -> bytes:
        """The next line without its end, refused past ``_MAX_LINE`` bytes."""
        buffer = self._buffer
        while (end := buffer.find(b"\n", 0, _MAX_LINE)) < 0:
            if len(buffer) >= _MAX_LINE:
                raise ProtocolError(f"reply line over {_MAX_LINE} bytes")
            if not self._fill():
                raise ProtocolError("connection closed inside the reply head")
        line = bytes(buffer[:end]).removesuffix(b"\r")
        del buffer[: end + 1]
        return line

    def _read_exactly(self, size: int) -> bytes:
        buffer = self._buffer
        while len(buffer) < size:
            if not self._fill():
                raise ProtocolError(f"connection closed inside the reply body ({len(buffer)} of {size} bytes)")
        data = bytes(buffer[:size])
        del buffer[:size]
        return data

    def _read_status_line(self) -> tuple[tuple[int, int], int, str]:
        line = self._read_line()
        version, _, rest = line.partition(b" ")
        code, _, reason = rest.partition(b" ")
        match = _HTTP_VERSION.fullmatch(version)
        if match is None or match[1] != b"1" or len(code) != 3 or not code.isdigit():
            raise ProtocolError(f"malformed status line {line[:200]!r}")
        return (1, int(match[2])), int(code), reason.decode("latin-1").strip()

    def _read_headers(self) -> dict[str, str]:
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            line = self._read_line()
            if not line:
                return headers
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise ProtocolError(f"malformed header line {line[:200]!r}")
            name, value = name.strip().lower(), value.strip()
            previous = headers.get(name)
            headers[name] = value if previous in (None, value) else f"{previous}, {value}"
        raise ProtocolError(f"more than {_MAX_HEADERS} headers")

    def _read_body(self, version, status, headers) -> tuple[bytes, bool]:
        """The body, raw as sent, and whether the connection stays open."""
        connection = {token.strip() for token in headers.get("connection", "").lower().split(",")}
        keep_alive = "keep-alive" in connection if version == (1, 0) else "close" not in connection
        if status in (204, 304):
            return b"", keep_alive
        if "transfer-encoding" in headers:
            if headers["transfer-encoding"].lower() != "chunked":
                raise ProtocolError(f"unsupported Transfer-Encoding {headers['transfer-encoding']!r}")
            return self._read_chunked(), keep_alive
        length = headers.get("content-length")
        if length is None:
            while self._fill():  # the body runs to the end of the stream
                if len(self._buffer) > _MAX_BODY:
                    raise ProtocolError(f"reply body over {_MAX_BODY} bytes")
            return self._read_exactly(len(self._buffer)), False
        # Refused unread, as the server refuses a request body; over 20 digits is not parsed.
        if not length.isdecimal() or len(length) > 20:
            raise ProtocolError(f"malformed Content-Length {length[:200]!r}")
        if int(length) > _MAX_BODY:
            raise ProtocolError(f"reply body over {_MAX_BODY} bytes")
        return self._read_exactly(int(length)), keep_alive

    def _read_chunked(self) -> bytes:
        body = bytearray()
        while True:
            size = self._read_line().partition(b";")[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise ProtocolError(f"malformed chunk size {size[:200]!r}")
            size = int(size, 16)
            if size == 0:
                break
            if len(body) + size > _MAX_BODY:
                raise ProtocolError(f"reply body over {_MAX_BODY} bytes")
            body += self._read_exactly(size)
            if self._read_line():
                raise ProtocolError("chunk data not followed by a line end")
        self._read_headers()  # trailers, read and dropped
        return bytes(body)


class KeptAliveAdapter(HTTPAdapter):
    """``HTTPAdapter`` whose requests to ``base_url`` share one kept-alive socket.

    ``send`` is requests' own; it gets ``KeptAliveConnection`` as its
    connection and maps the ``OSError`` and urllib3 ``ProtocolError`` that
    a failed round trip raises to ``requests.ConnectionError``. The
    session's ``close()`` closes the socket.
    """

    def __init__(self, base_url: str) -> None:
        super().__init__()
        self._connection = KeptAliveConnection(base_url)

    def get_connection_with_tls_context(self, request, verify, proxies=None, cert=None):
        return self._connection

    def build_response(self, req, resp: _Reply) -> requests.Response:
        response = requests.Response()
        response.status_code = resp.status
        response.reason = resp.reason
        response.headers = CaseInsensitiveDict(resp.headers)
        response.encoding = get_encoding_from_headers(response.headers)
        response._content = resp.body
        response._content_consumed = True
        response.url = req.url
        response.request = req
        response.connection = self
        return response

    def close(self) -> None:
        super().close()
        self._connection.close()
