"""Seeded, bounded fuzzing of both ends of the wire.

The server gets a few hundred mutated raw requests; each must be answered
with a documented status, or closed unanswered, without a traceback or a
hang. The client gets a few hundred mutated 200 replies; each must end as
a TransportError, a ContractViolation or a success. Every case comes from
one ``random.Random`` seed, so a failure names the seed and case number
that reproduce it.
"""

import json
import logging
import random
import re
import socket

import pytest

from conftest import answer_step, code_step, make_state, stop_server
from rsp.core import ContractViolation
from rsp.policy import ProposalRequest, RemoteBackend, TransportError, _step_to_wire
from rsp.server import serve_backend
from rsp.toyenv import Mode, ToyBackend, generate_problem, toy_state_decoder
from test_client_transport import ScriptedServer

CASES = 300
# Every status the reference server documents (README, Remote backends).
DOCUMENTED = {100, 200, 400, 404, 413, 414, 431, 501, 505}
# Bytes that move a parser between its states.
PUNCTUATION = [b"\r\n", b"\n", b"\r", b":", b" ", b"\t", b"0", b"9", b"-", b"/", b"HTTP/1.1", b"\r\n\r\n",
               b'"', b"{", b"}", b"[", b",", b"\x00", b"\xff"]


def _mutate(rng: random.Random, data: bytes, inserts: list[bytes]) -> bytes:
    """``data`` with one to three random edits: a byte changed, a span cut,
    repeated or replaced with a piece from ``inserts``, or the end cut off."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(data) + 1)
        j = min(len(data), i + rng.randint(1, 24))
        edit = rng.randrange(6)
        if edit == 0 and data:
            i = min(i, len(data) - 1)
            data = data[:i] + bytes([rng.randrange(256)]) + data[i + 1 :]
        elif edit == 1:
            data = data[:i] + data[j:]
        elif edit == 2:
            data = data[:j] + data[i:j] + data[j:]
        elif edit == 3:
            data = data[:i] + rng.choice(inserts) + data[i:]
        elif edit == 4:
            data = data[:i] + rng.choice(inserts) + data[j:]
        else:
            data = data[:i]
    return data


# --- server ---------------------------------------------------------------

STATE = generate_problem(42).root_state()


def _request(path: str, body: dict, *headers: str) -> bytes:
    blob = json.dumps(body).encode()
    lines = [f"POST {path} HTTP/1.1", "Host: 127.0.0.1", "x-rsp-version: 1",
             "Content-Type: application/json", f"Content-Length: {len(blob)}", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + blob


REQUESTS = [
    _request("/value", {"state": STATE.render()}),
    _request("/propose", {"state": STATE.render(), "n_samples": 3, "temperature": 1.0, "seed": 7}),
    _request("/propose", {"state": STATE.render(), "n_samples": 5, "temperature": 0.5, "seed": None,
                          "with_values": True}, "Connection: keep-alive"),
]
SERVER_INSERTS = PUNCTUATION + [
    b"Content-Length: 5\r\n", b"Content-Length: 99999999999999999999999\r\n", b"Content-Length: +3\r\n",
    b"Transfer-Encoding: chunked\r\n", b"Expect: 100-continue\r\n", b"Connection: close\r\n",
    b"x-rsp-version: 0\r\n", b"GET", b"HTTP/2.0", b"HTTP/1.0", b"//", b"/nowhere",
    b"X-Long: " + b"a" * 70_000 + b"\r\n", b"".join(b"X-%d: 1\r\n" % i for i in range(101)),
    b'"n_samples": true', b'"temperature": 1e999', b'"seed": "7"', b'"state": 5',
]


def _replies(data: bytes) -> tuple[list[int], bool]:
    """The status of each whole reply in ``data``, and whether what follows
    them is empty. A body is read by its Content-Length."""
    codes = []
    while data:
        head, sep, rest = data.partition(b"\r\n\r\n")
        if not sep:
            return codes, False
        status, *lines = head.split(b"\r\n")
        match = re.fullmatch(rb"HTTP/1\.1 (\d{3}) [A-Za-z ]+", status)
        if match is None:
            return codes, False
        length = 0
        for line in lines:
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        if len(rest) < length:
            return codes, False
        codes.append(int(match[1]))
        data = rest[length:]
    return codes, True


@pytest.fixture()
def fuzz_server(caplog):
    toy = ToyBackend(mode=Mode.ORACLE)
    server = serve_backend(toy, toy_state_decoder(toy))
    faults = []
    server.handle_error = lambda request, address: faults.append(address)  # where a traceback would print
    with caplog.at_level(logging.ERROR, logger="rsp.server"):
        yield server, faults
    stop_server(server)
    assert faults == [], "a handler raised"
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR] == []


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_requests_get_a_documented_status_or_a_close(fuzz_server, seed):
    server, faults = fuzz_server
    rng = random.Random(seed)
    for case in range(CASES // 2):
        data = _mutate(rng, rng.choice(REQUESTS), SERVER_INSERTS)
        with socket.create_connection(server.server_address, timeout=10) as sock:
            try:
                sock.sendall(data)
                sock.shutdown(socket.SHUT_WR)  # the server sees the end of what was sent
            except OSError:
                pass  # already refused and closed mid-send
            received, reset = b"", False
            while True:
                try:
                    chunk = sock.recv(1 << 16)
                except TimeoutError:
                    pytest.fail(f"seed {seed} case {case}: no reply and no close in 10 s to {data[:300]!r}")
                except ConnectionResetError:
                    reset = True  # the server closed with part of the request unread
                    break
                if not chunk:
                    break
                received += chunk
        codes, whole = _replies(received)
        where = f"seed {seed} case {case}: {data[:300]!r} -> {received[:300]!r}"
        assert whole or reset, where
        assert set(codes) <= DOCUMENTED, where
        assert not faults, where


# --- client ---------------------------------------------------------------

def _reply(body: bytes, *headers: str) -> bytes:
    lines = ["HTTP/1.1 200 OK", "Content-Type: application/json", *headers, f"Content-Length: {len(body)}"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


PROPOSALS = {"proposals": [_step_to_wire(code_step("one")), _step_to_wire(answer_step("7"))], "values": [0.5, -0.25]}
REPLIES = [
    ("/value", _reply(b'{"value": 0.25}', "x-rsp-version: 1")),
    ("/value", _reply(b'{"value": 0.25}', "Connection: keep-alive", "Date: Sun, 09 Sep 2001 01:46:40 GMT")),
    ("/propose", _reply(json.dumps(PROPOSALS).encode(), "x-rsp-version: 1")),
]
CLIENT_INSERTS = PUNCTUATION + [
    b"Transfer-Encoding: chunked\r\n", b"Content-Encoding: gzip\r\n", b"Content-Length: 3\r\n",
    b"HTTP/1.1 100 Continue\r\n\r\n", b"HTTP/1.0", b"500 Oops", b"Connection: close\r\n", b"NaN",
    b"1e999", b"true", b"null", b'"kind": "a"', b'"mean_log_prob": 0.5', b"Final Answer:",
]


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_replies_end_as_a_transport_error_a_contract_violation_or_success(seed):
    rng = random.Random(seed)
    cases = [rng.choice(REPLIES) for _ in range(CASES // 2)]
    cases = [(path, _mutate(rng, reply, CLIENT_INSERTS)) for path, reply in cases]
    server = ScriptedServer([(reply, "close") for _, reply in cases])
    try:
        for case, (path, reply) in enumerate(cases):
            remote = RemoteBackend(server.url, timeout=5, max_attempts=1)
            try:
                if path == "/value":
                    remote.predict_value(make_state())
                else:
                    # one sample: a reply that merges into fewer proposals asks for no more
                    remote.propose_steps(
                        ProposalRequest(state=make_state(), n_samples=1, temperature=1.0, seed=0, with_values=True)
                    )
            except (TransportError, ContractViolation):
                pass
            except Exception as exc:  # anything else escaping is the defect; name the case
                pytest.fail(f"seed {seed} case {case}: {reply[:300]!r} raised {exc!r}")
            finally:
                remote._endpoint(path)[0].close()
    finally:
        server.stop()
