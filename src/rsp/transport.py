"""One kept-alive HTTP/1.1 socket under the remote client's ``requests`` adapter.

``RemoteBackend`` mounts ``KeptAliveAdapter`` on its session for a plain
``http://`` base URL that no proxy applies to. Each request still goes
through ``requests.adapters.HTTPAdapter.send``, with its prepared headers,
timeout handling and error mapping. Only the hooks that ``send`` calls are
replaced:

- ``get_connection_with_tls_context`` returns the one kept-alive socket, so
  the round trip itself is one ``sendall`` and a read of the reply on a
  socket this module owns;
- ``cert_verify`` does nothing, as there is no certificate on plain http;
- ``request_url`` returns each URL's path as requests first worked it out,
  kept for the few URLs a client sends to, instead of parsing it again;
- ``build_response`` fills a ``requests.Response`` field by field, without
  the empty cookie jar and header dictionary its constructor makes first.

The reply head is read in one pass once the empty line that ends it is in
the buffer, which is almost always after the first read.

Imported when a remote client builds its session, never with ``rsp``.
"""

from __future__ import annotations

import re
import select
import socket
import weakref
import zlib
from datetime import timedelta
from functools import cached_property
from typing import NamedTuple
from urllib.parse import urlsplit

import requests
from requests.adapters import HTTPAdapter
from requests.cookies import cookiejar_from_dict
from requests.structures import CaseInsensitiveDict
from requests.utils import get_encoding_from_headers
from urllib3.exceptions import ProtocolError

from .policy import _HTTP_VERSION, _MAX_BODY, _MAX_HEADERS, _MAX_LINE

_RECV_SIZE = 1 << 16
# What a session using this adapter offers; requests' own default also
# offers br and zstd when their packages are installed.
ACCEPT_ENCODING = "gzip, deflate"
# The end of a head's last line and the empty line after it; a head that
# starts with an empty line is caught before this search.
_HEAD_END = re.compile(rb"\n\r?\n")
# URLs whose path KeptAliveAdapter.request_url keeps: a client sends to two.
_KEPT_PATHS = 8


class _Reply(NamedTuple):
    status: int
    reason: str
    headers: dict[str, str]  # names lower-cased
    body: bytes  # read in full and decoded


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
        self._poller = None  # _sock registered for reading, where select.poll exists
        self._read_timeout = None
        self._buffer = bytearray()

    def close(self) -> None:
        if self._sock is not None:
            self._close_sock()
            self._sock = self._poller = None
        self._buffer.clear()

    def urlopen(self, method: str, url: str, body=None, headers=None, timeout=None, **_) -> _Reply:
        try:
            return self._round_trip(method, url, body or b"", headers or {}, timeout)
        except BaseException:
            self.close()
            raise

    def _connect(self, connect_timeout) -> None:
        sock = socket.create_connection(self._address, connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._read_timeout = sock, connect_timeout
        self._close_sock = weakref.finalize(self, sock.close)
        if hasattr(select, "poll"):  # select() refuses descriptors past FD_SETSIZE
            self._poller = select.poll()
            self._poller.register(sock, select.POLLIN)

    def _is_readable(self) -> bool:
        """Whether a read would not block: data or end of stream waits."""
        if self._poller is not None:
            return bool(self._poller.poll(0))
        return bool(select.select([self._sock], [], [], 0)[0])

    def _round_trip(self, method, url, body, headers, timeout) -> _Reply:
        if self._sock is not None and self._is_readable():
            self.close()
        if self._sock is None:
            self._connect(timeout.connect_timeout)
        if timeout.read_timeout != self._read_timeout:
            self._read_timeout = timeout.read_timeout
            self._sock.settimeout(self._read_timeout)
        # A CaseInsensitiveDict keeps each (name, value) pair as sent in
        # _store; reading them there saves a lookup per name.
        pairs = headers._store.values() if isinstance(headers, CaseInsensitiveDict) else headers.items()
        head = "".join([f"{name}: {value}\r\n" for name, value in pairs])
        self._sock.sendall(f"{method} {url} HTTP/1.1\r\nHost: {self._host}\r\n{head}\r\n".encode("latin-1") + body)
        status = 100
        while status < 200:  # an interim 1xx reply is followed by the real one
            (version, status, reason), reply_headers = self._read_head()
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

    def _read_head(self, status_line: bool = True) -> tuple[tuple | None, dict[str, str]]:
        """The next head: its status line's (version, code, reason), or None
        for a trailer section, and its headers, names lower-cased.

        Read in one pass once the empty line that ends it is in the buffer.
        Until then each read re-checks the lines already complete, so a
        fault shows as soon as its line has arrived, and the buffer stays
        within the limits on line length and header count.
        """
        buffer = self._buffer
        while (span := _head_span(buffer)) is None:
            if buffer:
                *lines, partial = bytes(buffer).split(b"\n")
                _parse_head(lines, status_line)
                if len(partial) >= _MAX_LINE:
                    raise ProtocolError(f"reply line over {_MAX_LINE} bytes")
            if not self._fill():
                raise ProtocolError("connection closed inside the reply head")
        start, end = span
        # An empty head still has an (empty, malformed) status line.
        lines = bytes(buffer[:start]).split(b"\n") if start or status_line else []
        del buffer[:end]
        return _parse_head(lines, status_line)

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
        self._read_head(status_line=False)  # trailers, read and dropped
        return bytes(body)


def _head_span(buffer: bytearray) -> tuple[int, int] | None:
    """Where the head at the start of ``buffer`` ends: the end of its last
    line and the end of the empty line after it; None until that empty line
    is in the buffer. The first empty line ends it, with or without its
    carriage return."""
    if buffer.startswith((b"\n", b"\r\n")):
        return 0, buffer.index(b"\n") + 1
    match = _HEAD_END.search(buffer)
    return None if match is None else match.span()


def _parse_head(lines: list[bytes], status_line: bool) -> tuple[tuple | None, dict[str, str]]:
    """A head's lines, each without its line feed, read in order: the status
    line when ``status_line`` is set, then up to ``_MAX_HEADERS`` headers.
    The first fault in that order is a ProtocolError."""
    status = None
    if status_line and lines:
        line = _unended(lines[0])
        version, _, rest = line.partition(b" ")
        code, _, reason = rest.partition(b" ")
        match = _HTTP_VERSION.fullmatch(version)
        if match is None or match[1] != b"1" or len(code) != 3 or not code.isdigit():
            raise ProtocolError(f"malformed status line {line[:200]!r}")
        status = (1, int(match[2])), int(code), reason.decode("latin-1").strip()
    headers: dict[str, str] = {}
    for line in lines[status_line : status_line + _MAX_HEADERS + 1]:
        line = _unended(line)
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise ProtocolError(f"malformed header line {line[:200]!r}")
        name, value = name.strip().lower(), value.strip()
        previous = headers.get(name)
        headers[name] = value if previous in (None, value) else f"{previous}, {value}"
    if len(lines) - status_line > _MAX_HEADERS:
        raise ProtocolError(f"more than {_MAX_HEADERS} headers")
    return status, headers


def _unended(line: bytes) -> bytes:
    """``line`` without its carriage return, refused past ``_MAX_LINE`` bytes."""
    if len(line) >= _MAX_LINE:
        raise ProtocolError(f"reply line over {_MAX_LINE} bytes")
    return line.removesuffix(b"\r")


class _Response(requests.Response):
    """A ``requests.Response`` for a reply read in full, set up field by
    field; its cookie jar, which nothing here fills, and its encoding are
    made when first read."""

    cookies = cached_property(lambda self: cookiejar_from_dict({}))
    encoding = cached_property(lambda self: get_encoding_from_headers(self.headers))
    _next = raw = None
    elapsed = timedelta(0)

    def __init__(self, reply: _Reply, request, adapter: HTTPAdapter) -> None:
        headers = CaseInsensitiveDict.__new__(CaseInsensitiveDict)
        headers._store = {name: (name, value) for name, value in reply.headers.items()}
        self.headers = headers
        self.status_code = reply.status
        self.reason = reply.reason
        self._content = reply.body
        self._content_consumed = True
        self.history = []
        self.url = request.url
        self.request = request
        self.connection = adapter


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
        self._paths: dict[str, str] = {}  # request URL -> what request_url made of it

    def get_connection_with_tls_context(self, request, verify, proxies=None, cert=None):
        return self._connection

    def cert_verify(self, conn, url, verify, cert) -> None:
        """Nothing to verify or load: the socket is plain ``http://``."""

    def request_url(self, request, proxies) -> str:
        # The session's proxies are fixed and none applies here, so the
        # answer depends on the URL alone.
        path = self._paths.get(request.url)
        if path is None:
            path = super().request_url(request, proxies)
            if len(self._paths) < _KEPT_PATHS:
                self._paths[request.url] = path
        return path

    def build_response(self, req, resp: _Reply) -> requests.Response:
        return _Response(resp, req, self)

    def close(self) -> None:
        super().close()
        self._connection.close()
