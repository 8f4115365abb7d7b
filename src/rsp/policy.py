"""Policy/value backend interface and the HTTP wire protocol.

A backend proposes candidate next steps for a state and predicts a scalar
value in [-1, 1] for a state. Everything above this interface (search,
inference, data generation) is backend-agnostic.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

from .core import (
    ContractViolation,
    EngineError,
    MalformedStepError,
    ReasoningState,
    Step,
    StepKind,
    json_field,
    parse_json,
)

if TYPE_CHECKING:
    import socket

    import requests
    from requests.adapters import HTTPAdapter

logger = logging.getLogger(__name__)

WIRE_VERSION = "1"
VERSION_HEADER = "x-rsp-version"
BACKEND_URL_ENV = "RSP_BACKEND_URL"

# A positive temperature at or below this requests the deterministic
# (mode-seeking) proposal ordering from a backend.
DETERMINISTIC_TEMPERATURE = 1e-6


class TransportError(EngineError):
    """The remote backend could not be reached or kept failing."""


@dataclass(frozen=True)
class ProposalRequest:
    """A request for up to ``n_samples`` distinct next steps.

    ``with_values`` tells the backend that the caller is about to value
    every proposed state, so it may attach those values to the proposals.
    """

    state: ReasoningState
    n_samples: int
    temperature: float
    seed: int | None = None
    with_values: bool = False

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ContractViolation("n_samples must be >= 1")
        if not self.temperature > 0.0:
            raise ContractViolation("temperature must be > 0")
        if self.seed is not None and not isinstance(self.seed, int):
            raise ContractViolation(f"seed must be an integer or None, not {self.seed!r}")


@dataclass(frozen=True)
class Proposal:
    """A proposed next step; ``value``, when a backend attaches one, is the
    value of the requesting state plus this step, and lies in [-1, 1] like
    a ``ValuePrediction`` (anything else, NaN included, is a
    ContractViolation)."""

    step: Step
    value: float | None = None

    def __post_init__(self) -> None:
        if self.value is not None and not -1.0 <= self.value <= 1.0:
            raise ContractViolation(f"attached value must lie in [-1, 1], not {self.value!r}")


@dataclass(frozen=True)
class ValuePrediction:
    value: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.value <= 1.0:
            raise ContractViolation("predicted value must lie in [-1, 1]")


class PolicyValueBackend(ABC):
    """Interface every proposal/value provider implements.

    Implementations must be safe for concurrent calls and must never
    propose steps for a terminal state.
    """

    @abstractmethod
    def propose_steps(self, request: ProposalRequest) -> list[Proposal]:
        """Return up to n_samples proposals, pairwise distinct by step text.

        An empty list signals a dead end: the state has no legal
        continuation. Duplicate completions must be merged, not repeated.

        When ``request.with_values`` is set, a backend may attach to each
        proposal the value of ``request.state`` plus that step: the same
        number ``predict_value`` returns for that state. Callers use an
        attached value in place of ``predict_value`` and ask
        ``predict_value`` for any proposal without one. A backend that
        attaches nothing is correct, only slower over a wire.
        """

    @abstractmethod
    def predict_value(self, state: ReasoningState) -> ValuePrediction:
        """Return the scalar value estimate for ``state``.

        The value must be a function of the state: equal states get equal
        values. Searches rely on this and ask for each distinct state's
        value at most once per search (tree search stores it on the node,
        beam search memoizes it for the call, greedy decoding asks none).
        """


def dedupe_proposals(proposals: list[Proposal]) -> list[Proposal]:
    """Merge proposals whose step text is identical, keeping the first."""
    seen: set[str] = set()
    unique: list[Proposal] = []
    for proposal in proposals:
        if proposal.step.text not in seen:
            seen.add(proposal.step.text)
            unique.append(proposal)
    return unique


def _from_reply(what: str, record, key: str, kinds: tuple, default=...):
    """``json_field`` for a server's reply: a misfit is a TransportError."""
    try:
        return json_field(record, key, kinds, default)
    except ValueError as exc:
        raise TransportError(f"{what}: {exc}") from None


def _step_from_wire(payload) -> Step:
    """A proposal as the client reads it: a JSON object whose ``kind`` is a
    step kind, ``text`` a string, ``mean_log_prob`` a finite number,
    ``contains_code`` and ``code_errored`` booleans when present and
    ``code_output`` a string or null. Anything else is a TransportError. A
    proposal that reads but breaks a step's contract, a text that cannot be
    read one way or a ``kind`` other than its text's included, is a
    ContractViolation."""
    # The kind, answer and code fields are read from the text; a v1 payload's
    # are checked, never read, so they cannot disagree.
    try:
        kind = StepKind(json_field(payload, "kind", (str,)))
        text = json_field(payload, "text", (str,))
        mean_log_prob = float(json_field(payload, "mean_log_prob", (float,)))
        for key, kinds in (("contains_code", (bool,)), ("code_errored", (bool,)), ("code_output", (str, None))):
            json_field(payload, key, kinds, None)
        step = Step(text, mean_log_prob)
    except ValueError as exc:  # a field json_field refuses, or an unknown kind
        raise TransportError(f"malformed proposal: {exc}") from None
    except MalformedStepError as exc:
        raise ContractViolation(str(exc)) from None
    if step.kind is not kind:
        raise ContractViolation(f"proposal of kind {kind.value!r} has the text of kind {step.kind.value!r}")
    return step


def _step_to_wire(step: Step) -> dict:
    return {
        "kind": step.kind.value,
        "text": step.text,
        "mean_log_prob": step.mean_log_prob,
        "contains_code": step.contains_code,
        "code_errored": step.code_errored,
        "code_output": step.code_output,
        "answer": step.answer.normalized if step.answer else None,
    }


def _value_from_wire(raw) -> ValuePrediction:
    """The one reader for a value that came over the wire, whether a /value
    answer or a value attached to a proposal.

    A non-number, a JSON boolean included, is a TransportError; a value
    outside [-1, 1] is clamped with a warning; NaN fails ValuePrediction's
    range check.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TransportError(f"backend returned non-numeric value: {raw!r}")
    if raw < -1.0 or raw > 1.0:
        logger.warning("clamping out-of-range value %r from backend", raw)
        raw = max(-1.0, min(1.0, raw))
    return ValuePrediction(value=float(raw))


# json.dumps(..., allow_nan=False) builds an encoder like this on every call.
_REQUEST_JSON = json.JSONEncoder(allow_nan=False)


def _with_body(template: requests.PreparedRequest, blob: bytes) -> requests.PreparedRequest:
    """A new request that is ``template`` with ``blob`` as its body: what
    ``template.copy()`` then ``prepare_body(blob, None)`` make, for less.
    requests stores headers as (name, value) pairs under lower-cased names,
    and that store is copied whole rather than one header at a time. No
    cookie jar is copied: a prepared request carries its cookies in its
    headers. Whatever a ``send`` hook does to the request stays with it."""
    request = type(template)()
    request.method, request.url, request.hooks = template.method, template.url, template.hooks
    kind = type(template.headers)
    headers = request.headers = kind.__new__(kind)
    headers._store = template.headers._store.copy()
    headers["Content-Length"] = str(len(blob))
    request.body = blob
    return request


class RemoteBackend(PolicyValueBackend):
    """Client for a model server speaking the JSON wire protocol.

    POST /propose  {"state","n_samples","temperature","seed"[,"with_values"]}
                   -> {"proposals":[...][,"values":[float,...]]}
    POST /value    {"state"} -> {"value": float}

    A propose request that asks for values carries ``"with_values": true``;
    every other request leaves the key out. A server that honours it answers
    with a ``values`` list aligned with ``proposals``, each the value of the
    state plus that proposal; one that ignores it answers without the list,
    and the caller then asks /value for each. A ``values`` entry that is not
    a list of the proposals' length is a TransportError. /value answers and
    attached values go through one reader (``_value_from_wire``). A 200
    reply whose body is not JSON, or not a JSON object, or a proposal
    ``_step_from_wire`` refuses, is a TransportError that is not retried.

    The base URL must be ``http://`` or ``https://`` with a host; anything
    else is a ContractViolation when the client is built. Requests carry the
    protocol version header; transient failures are retried up to
    ``max_attempts`` times with exponential backoff. Each
    thread keeps one session, and so one persistent connection, and reads
    the environment's proxy, CA bundle and netrc settings when its session
    is created. It also prepares one request per endpoint, once, and one
    timeout object; each call sends a new request made from the prepared
    one, with its own copy of the headers and only the body replaced, so
    what a ``send`` hook does to one request stays with it. Every call goes
    through the session's adapter's ``send``: redirects are not followed (a
    3xx is fatal, like any other non-200 below 500) and no cookies are kept.
    A body holding a non-finite number is a ContractViolation before
    anything is sent.

    For an ``http://`` base URL that no proxy applies to, that adapter is
    ``rsp.transport.KeptAliveAdapter``: requests' own ``send``, whose hooks
    for the connection, certificate check, request path and reply are
    replaced, over one kept-alive socket that carries each request in one
    send and reads the reply itself. An ``https://`` or proxied URL keeps
    requests' stock adapter.

    ``requests`` and ``rsp.transport`` are imported when the first client
    is built or its first session made, not with this module, so a process
    that only serves or searches in process never loads the HTTP client
    stack.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        max_attempts: int = 3,
        backoff: float = 0.25,
    ) -> None:
        # Loaded here, not with the module: only the remote client needs it.
        import requests  # noqa: F401

        try:
            parts = urlsplit(base_url)
            parts.port  # a port that is not a number in range raises here
        except ValueError:
            parts = None
        if parts is None or parts.scheme not in ("http", "https") or not parts.hostname:
            raise ContractViolation(
                f"backend URL must be http(s)://host[:port][/path], not {base_url!r}"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff = backoff
        self._local = threading.local()

    def _endpoint(self, path: str) -> tuple[requests.Session, HTTPAdapter, requests.PreparedRequest]:
        """This thread's session, the adapter it sends through, and the
        prepared request for ``path``, each built once per thread."""
        import requests

        local = self._local
        prepared = getattr(local, "prepared", None)
        if prepared is None:
            session = requests.Session()
            # Resolve the environment's proxy (and no_proxy), CA bundle and
            # netrc settings for base_url once, here: with trust_env on,
            # requests re-reads them from os.environ on every request.
            settings = session.merge_environment_settings(
                self.base_url, {}, None, None, None
            )
            session.proxies = settings["proxies"]
            session.verify = settings["verify"]
            session.auth = requests.utils.get_netrc_auth(self.base_url)
            session.trust_env = False
            if self.base_url.startswith("http://") and not requests.utils.select_proxy(
                self.base_url, session.proxies
            ):
                from .transport import ACCEPT_ENCODING, KeptAliveAdapter

                session.mount(self.base_url, KeptAliveAdapter(self.base_url))
                session.headers["Accept-Encoding"] = ACCEPT_ENCODING
            local.adapter = session.get_adapter(self.base_url)
            local.session = session
            # Built once: send() makes one from a number on every call.
            local.timeout = requests.adapters.TimeoutSauce(connect=self.timeout, read=self.timeout)
            prepared = local.prepared = {}
        template = prepared.get(path)
        if template is None:
            # Prepared as a JSON post, so it carries Content-Type and the
            # headers come in the order a json= post sends them; each send
            # replaces the placeholder body.
            template = prepared[path] = local.session.prepare_request(
                requests.Request(
                    "POST",
                    f"{self.base_url}{path}",
                    headers={VERSION_HEADER: WIRE_VERSION},
                    json={},
                )
            )
        return local.session, local.adapter, template

    def _post(self, path: str, body: dict) -> dict:
        import requests

        try:
            blob = _REQUEST_JSON.encode(body).encode()
        except ValueError:
            bad = ", ".join(
                f"{key}={value!r}"
                for key, value in body.items()
                if isinstance(value, float) and not math.isfinite(value)
            )
            raise ContractViolation(f"POST {path}: {bad} is not a finite number") from None
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                session, adapter, template = self._endpoint(path)
                response = adapter.send(
                    _with_body(template, blob),
                    timeout=self._local.timeout,
                    verify=session.verify,
                    cert=session.cert,
                    proxies=session.proxies,
                )
                content = response.content  # read in full: the connection can be reused
            except (requests.RequestException, ValueError) as exc:
                last_error = exc
                continue
            if response.status_code >= 500:
                last_error = TransportError(f"{path} returned {response.status_code}")
                continue
            if response.status_code != 200:
                raise TransportError(f"{path} returned {response.status_code}: {response.text[:200]}")
            break
        else:
            raise TransportError(f"POST {path} failed after {self.max_attempts} attempts") from last_error
        # A reply that does not parse would not parse on a retry either.
        try:
            reply = parse_json(content)
        except ValueError:
            raise TransportError(f"{path} reply is not JSON: {content[:200]!r}") from None
        # read as the one field of a record, so the reply must be an object
        return _from_reply(f"{path} reply", {"reply": reply}, "reply", (dict,))

    def propose_steps(self, request: ProposalRequest) -> list[Proposal]:
        if request.state.has_answer:
            raise ContractViolation("cannot propose steps for a terminal state")
        proposals: list[Proposal] = []
        attempts = 0
        # Re-request once on duplicate shortfall, never exceeding 2x the
        # requested sample budget in total draws.
        while len(proposals) < request.n_samples and attempts < 2 * request.n_samples:
            want = request.n_samples - len(proposals)
            body = {
                "state": request.state.render(),
                "n_samples": want,
                "temperature": request.temperature,
                "seed": None if request.seed is None else request.seed + attempts,
            }
            if request.with_values:
                body["with_values"] = True
            payload = self._post("/propose", body)
            raw = _from_reply("backend response lacks a proposals list", payload, "proposals", (list,))
            if not raw:
                break  # dead end: the server has no legal continuation
            attempts += len(raw)
            attached = None
            if request.with_values:
                misaligned = "backend values do not align with its proposals"
                attached = _from_reply(misaligned, payload, "values", (list,), None)
                if attached is not None and len(attached) != len(raw):
                    raise TransportError(misaligned)
            values = [None] * len(raw) if attached is None else [_value_from_wire(v).value for v in attached]
            proposals = dedupe_proposals(
                proposals
                + [
                    Proposal(step=_step_from_wire(p), value=v)
                    for p, v in zip(raw, values)
                ]
            )
            if len(raw) < want:
                break  # backend is out of distinct candidates
        # An empty list is a dead-end signal, passed through to the caller.
        return proposals[: request.n_samples]

    def predict_value(self, state: ReasoningState) -> ValuePrediction:
        payload = self._post("/value", {"state": state.render()})
        return _value_from_wire(payload.get("value"))


# Limits as in http.server: bytes in the request line or a header line, header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_MAX_BODY = 1 << 24  # bytes in a request body: far above any rendered state
_RECV_SIZE = 1 << 16
_HTTP_VERSION = re.compile(rb"HTTP/(\d{1,10})\.(\d{1,10})")
_BLOCK_END = re.compile(rb"\n\r?\n")  # a line's end and the empty line after it


def _keeps_alive(version: tuple[int, int], connection: str) -> bool:
    """Whether a message leaves its connection open, by its HTTP version and
    the tokens of its Connection value: before HTTP/1.1 only with a
    keep-alive token, from 1.1 on unless with a close token (RFC 9112
    sections 9.3 and 9.6)."""
    tokens = {token.strip() for token in connection.lower().split(",")}
    return "keep-alive" in tokens if version < (1, 1) else "close" not in tokens


class _CutShort(Exception):
    """The stream ended before what was asked of it."""


class _Malformed(Exception):
    """What arrived cannot be read: a header line broke the header-line rule,
    or (as ``_OverLimit``) a line or a header block broke its limit."""


class _OverLimit(_Malformed):
    """A line or a header block broke its limit."""


class _WireReader:
    """The HTTP/1.1 reads both ends of the wire make on one socket: a line, a
    header block, or exactly n bytes, each refused as soon as a limit breaks.

    Bytes received past a read stay in ``buffer`` for the next one. A read
    keeps its scan position between receives, so its work is linear in the
    bytes received however they arrive. ``name`` ("request" or "reply")
    names the message in refusals.
    """

    def __init__(self, sock: socket.socket, name: str) -> None:
        self._recv = sock.recv
        self._name = name
        self.buffer = bytearray()

    def fill(self) -> bool:
        """Receive what the socket has into the buffer; False at end of stream."""
        chunk = self._recv(_RECV_SIZE)
        self.buffer += chunk
        return bool(chunk)

    def line(self) -> bytes:
        """The next line without its LF or CRLF, refused past ``_MAX_LINE`` bytes."""
        buffer, scanned = self.buffer, 0
        while (end := buffer.find(b"\n", scanned, _MAX_LINE)) < 0:
            if len(buffer) >= _MAX_LINE:
                raise _OverLimit(f"{self._name} line over {_MAX_LINE} bytes")
            scanned = len(buffer)
            if not self.fill():
                raise _CutShort(f"connection closed inside the {self._name} head")
        line = bytes(buffer[:end]).removesuffix(b"\r")
        del buffer[: end + 1]
        return line

    def headers(self) -> list[tuple[str, str]]:
        """The header lines up to the empty line that ends them, as (name,
        value) pairs with names lower-cased. Refused past ``_MAX_HEADERS``
        lines, and at a line with no colon, an empty name, or a space or
        other non-printing character in the name, such as the tab or space
        before a colon or the leading space of a folded line (RFC 9112
        sections 5.1 and 5.2).

        After each receive the lines that have arrived whole are checked in
        order, from one decode; the buffer then holds only the partial line
        after them, so no byte is searched twice.
        """
        buffer, pairs, scanned = self.buffer, [], 0
        while not buffer.startswith((b"\n", b"\r\n")):
            end = _BLOCK_END.search(buffer, scanned)
            last = end.start() if end else buffer.rfind(b"\n", scanned)  # the last whole line's end
            if last >= 0:
                lines = buffer[:last].decode("latin-1").split("\n")
                room = _MAX_HEADERS - len(pairs)
                for line in lines[:room]:
                    if len(line) >= _MAX_LINE:
                        raise _OverLimit(f"{self._name} line over {_MAX_LINE} bytes")
                    name, colon, value = line.partition(":")  # the value's strip() takes any CR
                    if not colon or not name or " " in name or not name.isprintable():
                        raise _Malformed(f"malformed header line {line[:200]!r}")
                    pairs.append((name.lower(), value.strip()))
                if len(lines) > room:
                    raise _OverLimit(f"more than {_MAX_HEADERS} headers")
            if end:
                del buffer[: end.end()]
                return pairs
            del buffer[: last + 1]
            if len(buffer) >= _MAX_LINE:
                raise _OverLimit(f"{self._name} line over {_MAX_LINE} bytes")
            scanned = len(buffer)
            if not self.fill():
                raise _CutShort(f"connection closed inside the {self._name} head")
        del buffer[: buffer.index(b"\n") + 1]  # an empty first line: no headers
        return pairs

    def exactly(self, size: int) -> bytes:
        """The next ``size`` bytes, refused if the stream ends first."""
        buffer = self.buffer
        while len(buffer) < size:
            if not self.fill():
                raise _CutShort(f"connection closed inside the {self._name} body ({len(buffer)} of {size} bytes)")
        data = bytes(buffer[:size])
        del buffer[:size]
        return data


def __getattr__(name: str):
    if name != "serve_backend":  # loaded on first use: only a server needs rsp.server
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .server import serve_backend
    return serve_backend
