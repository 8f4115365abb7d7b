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

The reply is read through ``rsp.policy._WireReader``, the reader the
reference server reads requests with, so both ends share one line rule, one
header-line rule and the same limits. The reader's refusals reach ``send``
as urllib3 ``ProtocolError``s. This module keeps the client's own rules:
the status line, repeated header values joined, and the body by
``Content-Length``, by chunks or to the end of the stream.

Imported when a remote client builds its session, never with ``rsp``.
"""

from __future__ import annotations

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

from .policy import _HTTP_VERSION, _MAX_BODY, _CutShort, _Malformed, _WireReader

# What a session using this adapter offers; requests' own default also
# offers br and zstd when their packages are installed.
ACCEPT_ENCODING = "gzip, deflate"
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
        self._reader: _WireReader | None = None  # reads _sock

    def close(self) -> None:
        if self._sock is not None:
            self._close_sock()
            self._sock = self._poller = self._reader = None

    def urlopen(self, method: str, url: str, body=None, headers=None, timeout=None, **_) -> _Reply:
        try:
            return self._round_trip(method, url, body or b"", headers or {}, timeout)
        except (_CutShort, _Malformed) as exc:  # the reader's refusals, as urllib3 names them
            self.close()
            raise ProtocolError(str(exc)) from None
        except BaseException:
            self.close()
            raise

    def _connect(self, connect_timeout) -> None:
        sock = socket.create_connection(self._address, connect_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock, self._read_timeout = sock, connect_timeout
        self._reader = _WireReader(sock, "reply")
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
        reader = self._reader
        status = 100
        while status < 200:  # an interim 1xx reply is followed by the real one
            line = reader.line()
            version, _, rest = line.partition(b" ")
            code, _, reason = rest.partition(b" ")
            match = _HTTP_VERSION.fullmatch(version)
            if match is None or match[1] != b"1" or len(code) != 3 or not code.isdigit():
                raise ProtocolError(f"malformed status line {line[:200]!r}")
            status = int(code)
            reply_headers: dict[str, str] = {}
            for name, value in reader.headers():  # the values of a repeated name are joined
                previous = reply_headers.get(name)
                reply_headers[name] = value if previous in (None, value) else f"{previous}, {value}"
        body, keep_alive = self._read_body((1, int(match[2])), status, reply_headers)
        if not keep_alive or reader.buffer:
            self.close()  # the server closes, or sent more than one reply
        encoding = reply_headers.get("content-encoding", "").lower()
        return _Reply(status, reason.decode("latin-1").strip(), reply_headers, _decoded(body, encoding))

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
        reader = self._reader
        length = headers.get("content-length")
        if length is None:
            while reader.fill():  # the body runs to the end of the stream
                if len(reader.buffer) > _MAX_BODY:
                    raise ProtocolError(f"reply body over {_MAX_BODY} bytes")
            return reader.exactly(len(reader.buffer)), False
        # Refused unread, as the server refuses a request body; over 20 digits is not parsed.
        if not length.isdecimal() or len(length) > 20:
            raise ProtocolError(f"malformed Content-Length {length[:200]!r}")
        if int(length) > _MAX_BODY:
            raise ProtocolError(f"reply body over {_MAX_BODY} bytes")
        return reader.exactly(int(length)), keep_alive

    def _read_chunked(self) -> bytes:
        reader = self._reader
        body = bytearray()
        while True:
            size = reader.line().partition(b";")[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise ProtocolError(f"malformed chunk size {size[:200]!r}")
            size = int(size, 16)
            if size == 0:
                break
            if len(body) + size > _MAX_BODY:
                raise ProtocolError(f"reply body over {_MAX_BODY} bytes")
            body += reader.exactly(size)
            if reader.line():
                raise ProtocolError("chunk data not followed by a line end")
        reader.headers()  # trailers, read and dropped
        return bytes(body)


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
