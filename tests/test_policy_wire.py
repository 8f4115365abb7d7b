"""Wire-protocol client/server tests using stub HTTP servers."""

import base64
import http.client
import json
import re
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from rsp.cli import EXIT_BACKEND, EXIT_OK, main
from rsp.core import STEP_OPEN, ContractViolation, Reward, Step, apply_step, normalize_answer, answers_equivalent
from rsp.datagen import harvest_paths
from rsp.inference import greedy_decode, majority_vote, mcts_decode, sbs_decode
from rsp.mcts import SearchConfig, build_tree, mc_rollout_estimate
from rsp.policy import (
    BACKEND_URL_ENV,
    Proposal,
    ProposalRequest,
    RemoteBackend,
    TransportError,
    VERSION_HEADER,
    WIRE_VERSION,
    _step_to_wire,
)
from rsp.server import SERVER_POLL_INTERVAL, serve_backend
from rsp.toyenv import (
    Mode,
    ToyBackend,
    corpus_to_records,
    generate_problem,
    toy_corpus,
    toy_state_decoder,
)
from conftest import ScriptedBackend, answer_step, code_step, make_state, stop_server


class _StubHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of (status, payload) responses; a 3xx
    redirects to /moved."""

    script: list[tuple[int, dict]] = []
    requests_seen: list[dict] = []
    headers_seen: list[dict] = []

    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        body = json.loads(raw or b"{}")
        type(self).requests_seen.append(
            {"method": self.command, "path": self.path, "body": body, "raw": raw}
        )
        type(self).headers_seen.append(dict(self.headers))
        status, payload = (
            self.script.pop(0) if self.script else (500, {"error": "script empty"})
        )
        data = json.dumps(payload).encode()
        self.send_response(status)
        if 300 <= status < 400:
            self.send_header("Location", "/moved")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def _start_stub(script):
    handler = type(
        "Handler", (_StubHandler,), {"script": list(script), "requests_seen": [], "headers_seen": []}
    )
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": SERVER_POLL_INTERVAL},
        daemon=True,
    ).start()
    return server, handler


def _url(server):
    return f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture()
def toy_served():
    problem = generate_problem(42)
    inner = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    server = serve_backend(inner, toy_state_decoder(inner))
    yield problem, inner, RemoteBackend(_url(server), backoff=0.01)
    stop_server(server)


def test_remote_matches_in_process_backend(toy_served):
    problem, inner, remote = toy_served
    request = ProposalRequest(
        state=problem.root_state(), n_samples=5, temperature=1.0, seed=9
    )
    assert [p.step for p in remote.propose_steps(request)] == [
        p.step for p in inner.propose_steps(request)
    ]
    local = inner.predict_value(problem.root_state()).value
    wire = remote.predict_value(problem.root_state()).value
    assert abs(local - wire) < 1e-12


def test_full_decode_over_the_wire(toy_served):
    problem, _, remote = toy_served
    report = sbs_decode(problem.root_state(), remote, beam_width=3, expansion_width=5, seed=1)
    assert report.answer is not None
    assert answers_equivalent(report.answer, normalize_answer(problem.gold_answer))


def test_client_sends_version_header():
    server, handler = _start_stub([(200, {"value": 0.25})])
    try:
        backend = RemoteBackend(_url(server), backoff=0.01)
        from conftest import make_state

        assert backend.predict_value(make_state()).value == 0.25
        assert handler.headers_seen[0].get(VERSION_HEADER) == WIRE_VERSION
        assert handler.requests_seen[0]["path"] == "/value"
        assert "state" in handler.requests_seen[0]["body"]
    finally:
        stop_server(server)


def test_server_errors_are_retried_then_succeed():
    server, handler = _start_stub(
        [(500, {"error": "transient"}), (503, {"error": "busy"}), (200, {"value": 0.5})]
    )
    try:
        backend = RemoteBackend(_url(server), backoff=0.01)
        from conftest import make_state

        assert backend.predict_value(make_state()).value == 0.5
        assert len(handler.requests_seen) == 3
    finally:
        stop_server(server)


def test_persistent_server_errors_become_transport_error():
    server, handler = _start_stub([(500, {"error": "down"})] * 5)
    try:
        backend = RemoteBackend(_url(server), backoff=0.01)
        from conftest import make_state

        with pytest.raises(TransportError):
            backend.predict_value(make_state())
        assert len(handler.requests_seen) == 3  # three attempts, then give up
    finally:
        stop_server(server)


def test_client_errors_are_not_retried():
    server, handler = _start_stub([(404, {"error": "no such route"})])
    try:
        backend = RemoteBackend(_url(server), backoff=0.01)
        from conftest import make_state

        with pytest.raises(TransportError):
            backend.predict_value(make_state())
        assert len(handler.requests_seen) == 1
    finally:
        stop_server(server)


def test_unreachable_host_is_transport_error():
    backend = RemoteBackend("http://127.0.0.1:1", backoff=0.01, max_attempts=2)
    from conftest import make_state

    with pytest.raises(TransportError):
        backend.predict_value(make_state())


def test_out_of_range_value_is_clamped():
    server, _ = _start_stub([(200, {"value": 1.7}), (200, {"value": -2.0})])
    try:
        backend = RemoteBackend(_url(server), backoff=0.01)
        from conftest import make_state

        assert backend.predict_value(make_state()).value == 1.0
        assert backend.predict_value(make_state()).value == -1.0
    finally:
        stop_server(server)


def test_duplicate_proposals_trigger_reraise_then_shortfall():
    dup = _step_to_wire(code_step(analysis="same"))
    other = _step_to_wire(code_step(analysis="other"))
    # first reply: two copies of the same step; second: a new one
    server, handler = _start_stub(
        [
            (200, {"proposals": [dup, dup]}),
            (200, {"proposals": [other]}),
        ]
    )
    try:
        backend = RemoteBackend(_url(server), backoff=0.01)
        from conftest import make_state

        request = ProposalRequest(state=make_state(), n_samples=2, temperature=1.0, seed=0)
        proposals = backend.propose_steps(request)
        texts = [p.step.text for p in proposals]
        assert len(texts) == len(set(texts)) == 2
        assert len(handler.requests_seen) == 2
    finally:
        stop_server(server)


def test_only_duplicates_yield_shortfall_without_error():
    dup = _step_to_wire(code_step(analysis="same"))
    server, _ = _start_stub([(200, {"proposals": [dup]})] * 8)
    try:
        backend = RemoteBackend(_url(server), backoff=0.01)
        from conftest import make_state

        request = ProposalRequest(state=make_state(), n_samples=3, temperature=1.0, seed=0)
        proposals = backend.propose_steps(request)
        assert len(proposals) == 1  # shortfall accepted after bounded attempts
    finally:
        stop_server(server)


def test_empty_proposals_signal_dead_end():
    server, _ = _start_stub([(200, {"proposals": []})])
    try:
        backend = RemoteBackend(_url(server), backoff=0.01)
        from conftest import make_state

        request = ProposalRequest(state=make_state(), n_samples=3, temperature=1.0, seed=0)
        assert backend.propose_steps(request) == []
    finally:
        stop_server(server)


def test_step_answer_comes_from_the_text_not_the_answer_field():
    # A v1 peer's "answer" field that disagrees with its own text: the text
    # wins, so the search reward and the training label grade the same answer.
    payload = _step_to_wire(answer_step("6"))
    payload["answer"] = "5"
    server, handler = _start_stub([(200, {"proposals": [payload]})])
    try:
        remote = RemoteBackend(_url(server), backoff=0.01)
        config = SearchConfig(n_simulations=4, expansion_width=5)
        tree = build_tree(make_state(), "6", remote, config, seed=0)
    finally:
        stop_server(server)
    assert len(handler.requests_seen) == 1
    (child,) = tree.root.children
    (path,) = harvest_paths([tree])
    assert child.reward == Reward(1.0)
    assert path.correct
    assert child.step.answer.normalized == "6"
    assert path.predicted_answer == child.step.answer


def test_server_close_cuts_off_kept_alive_clients():
    # More client threads than cores, each with its own kept-alive
    # connection, and a short switch interval: a connection the server lost
    # track of would still be answered after server_close().
    problem = generate_problem(42)
    inner = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    server = serve_backend(inner, toy_state_decoder(inner))
    accepted = _count_connections(server)
    remote = RemoteBackend(_url(server), backoff=0.01)
    state = problem.root_state()
    connected = threading.Barrier(5)
    closed = threading.Event()
    outcomes = []

    def client():
        remote.predict_value(state)
        connected.wait(timeout=30)
        closed.wait(timeout=30)
        try:
            remote.predict_value(state)
            outcomes.append("served")
        except TransportError:
            outcomes.append("cut off")

    threads = [threading.Thread(target=client) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        connected.wait(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        stop_server(server)
        closed.set()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert len(accepted) == 4
    assert outcomes == ["cut off"] * 4


def test_propose_on_terminal_state_is_contract_violation():
    from conftest import answer_step, make_state
    from rsp.core import ContractViolation

    backend = RemoteBackend("http://127.0.0.1:1", backoff=0.01)
    answered = make_state(steps=(answer_step(),))
    with pytest.raises(ContractViolation):
        backend.propose_steps(
            ProposalRequest(state=answered, n_samples=1, temperature=1.0, seed=0)
        )


def test_remote_search_runs_past_the_default_depth_budget():
    # an 11-step chain then an answer: deeper than the default budget of 8,
    # within the caller's budget of 12
    question = make_state()
    chain = [code_step(analysis=f"step {i}") for i in range(11)] + [answer_step("11")]
    proposals, state = {}, question
    for step in chain:
        proposals[state.render()] = [step]
        state = make_state(steps=state.steps + (step,))
    scripted = ScriptedBackend(proposals)

    def decode(rendered):
        blocks = re.findall(r"<step>.*?</step>", rendered, re.S)
        return make_state(
            question_text=rendered.partition(STEP_OPEN)[0],
            steps=tuple(Step(block) for block in blocks),
        )

    server = serve_backend(scripted, decode)
    try:
        remote = RemoteBackend(_url(server), backoff=0.01)
        over_wire = sbs_decode(question, remote, expansion_width=1, max_depth=12)
    finally:
        stop_server(server)
    in_process = sbs_decode(question, scripted, expansion_width=1, max_depth=12)
    assert over_wire.answer is not None and over_wire.answer.normalized == "11"
    assert over_wire.steps_taken == in_process.steps_taken == 12
    assert over_wire.path.render() == in_process.path.render()


class _Rejects(ScriptedBackend):
    """Scripted backend whose value calls raise the given exception."""

    def __init__(self, exc):
        super().__init__({})
        self.exc = exc

    def predict_value(self, state):
        raise self.exc


def _counting_decoder(calls, fail=None):
    def decode(rendered):
        calls.append(rendered)
        if fail is not None:
            raise fail
        return make_state(question_text=rendered.partition(STEP_OPEN)[0])

    return decode


def test_rejected_state_fails_after_one_round_trip(monkeypatch):
    sleeps = []
    monkeypatch.setattr("rsp.policy.time.sleep", sleeps.append)
    calls = []
    decode = _counting_decoder(calls, fail=ContractViolation("unknown question"))
    server = serve_backend(ScriptedBackend({}), decode)
    try:
        remote = RemoteBackend(_url(server), backoff=5.0)
        with pytest.raises(TransportError, match="400"):
            remote.predict_value(make_state())
    finally:
        stop_server(server)
    assert len(calls) == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "exc, status, attempts",
    [(ContractViolation("not this state"), 400, 1), (RuntimeError("bug"), 500, 3)],
)
def test_backend_failures_map_to_client_or_server_errors(monkeypatch, exc, status, attempts):
    sleeps = []
    monkeypatch.setattr("rsp.policy.time.sleep", sleeps.append)
    calls = []
    server = serve_backend(_Rejects(exc), _counting_decoder(calls))
    try:
        response = requests.post(f"{_url(server)}/value", json={"state": "q"}, timeout=10)
        assert response.status_code == status
        calls.clear()
        with pytest.raises(TransportError):
            RemoteBackend(_url(server), backoff=5.0).predict_value(make_state())
    finally:
        stop_server(server)
    assert len(calls) == attempts
    assert len(sleeps) == attempts - 1


def test_malformed_requests_are_client_errors():
    bad = [
        ("/value", b"{not json"),
        ("/value", b"[1, 2]"),
        ("/value", b"{}"),
        ("/propose", b'{"state": "q"}'),
        ("/propose", b'{"state": "q", "n_samples": "many", "temperature": 1.0}'),
        ("/propose", b'{"state": "q", "n_samples": 0, "temperature": 1.0}'),
        ("/value", b"[" * 100_000 + b"]" * 100_000),  # deeper than the JSON decoder recurses
    ]
    server = serve_backend(ScriptedBackend({}), _counting_decoder([]))
    try:
        for path, body in bad:
            response = requests.post(f"{_url(server)}{path}", data=body, timeout=10)
            assert response.status_code == 400, body
            assert "error" in response.json()
    finally:
        stop_server(server)


# Each field replaces its valid value in a /propose body for the toy
# backend; every body fails the same way on every attempt.
_MISTYPED_PROPOSE_FIELDS = [
    ("seed", b"[1]"),
    ("seed", b'{"a": 1}'),
    ("seed", b"1.5"),
    ("seed", b'"abc"'),
    ("seed", b"true"),
    ("n_samples", b"2.7"),
    ("n_samples", b"true"),
    ("n_samples", b'"2"'),
    ("temperature", b'"1"'),
    ("temperature", b"Infinity"),
    ("temperature", b"1e400"),
    ("temperature", b"1" + b"0" * 400),
    ("temperature", b"true"),
    ("with_values", b'"yes"'),
    ("with_values", b"1"),
    ("with_values", b"null"),
]


def _propose_body(state, **raw_fields):
    fields = {"n_samples": b"2", "temperature": b"1.0", "seed": b"7"}
    fields.update(raw_fields)
    return b"{" + b", ".join(
        [b'"state": ' + json.dumps(state.render()).encode()]
        + [b'"' + key.encode() + b'": ' + value for key, value in fields.items()]
    ) + b"}"


@pytest.mark.parametrize(
    "field, raw",
    _MISTYPED_PROPOSE_FIELDS,
    ids=[f"{field}={raw.decode()[:20]}" for field, raw in _MISTYPED_PROPOSE_FIELDS],
)
def test_mistyped_propose_fields_are_client_errors(toy_served, field, raw):
    problem, _, remote = toy_served
    body = _propose_body(problem.root_state(), **{field: raw})
    with requests.Session() as session:
        response = session.post(f"{remote.base_url}/propose", data=body, timeout=10)
        assert response.status_code == 400, response.text
        assert field in response.json()["error"]


@pytest.mark.parametrize(
    "step, error",
    [
        (None, "rendered state lacks a question id"),
        (code_step("work"), "step text does not name an operation"),
        (code_step("Apply juggle."), "unknown opening operation 'juggle'"),
    ],
    ids=["no-question-id", "step-without-operation", "unknown-opening-operation"],
)
def test_a_state_the_toy_cannot_read_is_a_client_error(toy_served, step, error):
    problem, _, remote = toy_served
    state = "what?" if step is None else apply_step(problem.root_state(), step).render()
    body = json.dumps({"state": state, "n_samples": 2, "temperature": 1.0}).encode()
    with requests.Session() as session:
        response = session.post(f"{remote.base_url}/propose", data=body, timeout=10)
    assert response.status_code == 400, response.text
    assert error in response.json()["error"]


@pytest.mark.parametrize("path", ["/propose", "/value"])
@pytest.mark.parametrize("state", [b"5", b"null", b'["q"]'], ids=["int", "null", "list"])
def test_a_state_that_is_not_a_string_is_a_client_error_naming_it(toy_served, path, state):
    _, _, remote = toy_served
    body = b'{"state": ' + state + b', "n_samples": 2, "temperature": 1.0}'
    with requests.Session() as session:
        response = session.post(f"{remote.base_url}{path}", data=body, timeout=10)
    assert response.status_code == 400, response.text
    assert "state must be a string" in response.json()["error"]


@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"seed": b"null"},
        {"seed": b"-3"},
        {"temperature": b"1"},
        {"temperature": b"1e-07"},
        {"with_values": b"true"},
        {"with_values": b"false"},
    ],
    ids=repr,
)
def test_well_typed_propose_fields_are_served(toy_served, fields):
    problem, inner, remote = toy_served
    body = _propose_body(problem.root_state(), **fields)
    with requests.Session() as session:
        response = session.post(f"{remote.base_url}/propose", data=body, timeout=10)
    assert response.status_code == 200, response.text
    sent = json.loads(body)
    expected = inner.propose_steps(
        ProposalRequest(
            state=problem.root_state(),
            n_samples=sent["n_samples"],
            temperature=float(sent["temperature"]),
            seed=sent["seed"],
        )
    )
    payload = response.json()
    if sent["seed"] is None:  # an unseeded draw: only its size is fixed
        assert len(payload["proposals"]) == len(expected)
    else:
        assert payload["proposals"] == [_step_to_wire(p.step) for p in expected]
    assert ("values" in payload) == (sent.get("with_values") is True)


def _count_connections(server):
    """Record the client address of every connection the server accepts."""
    accepted = []
    get_request = server.get_request

    def counting():
        sock, address = get_request()
        accepted.append(address)
        return sock, address

    server.get_request = counting
    return accepted


def test_one_backend_keeps_one_connection():
    problem = generate_problem(42)
    inner = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    server = serve_backend(inner, toy_state_decoder(inner))
    accepted = _count_connections(server)
    try:
        remote = RemoteBackend(_url(server), backoff=0.01)
        request = ProposalRequest(
            state=problem.root_state(), n_samples=3, temperature=1.0, seed=1
        )
        for i in range(50):
            if i % 2:
                remote.predict_value(problem.root_state())
            else:
                assert remote.propose_steps(request)
    finally:
        stop_server(server)
    assert len(accepted) == 1


def test_replies_leave_the_connection_at_a_request_boundary():
    # Each refused request carries a body; a reply sent before that body is
    # read leaves it in the stream, where it would be parsed as the next
    # request on the kept-alive connection.
    server = serve_backend(ScriptedBackend({}), _counting_decoder([]))
    accepted = _count_connections(server)
    valid = json.dumps({"state": "q"}).encode()
    refused = [
        ("/nowhere", b'{"state": "' + b"x" * 4000 + b'"}', {}, 404),
        ("/value", b"{not json" + b" " * 4000, {}, 400),
        ("/value", valid, {VERSION_HEADER: "0"}, 400),
    ]
    try:
        with requests.Session() as session:
            for path, body, headers, status in refused:
                response = session.post(
                    f"{_url(server)}{path}", data=body, headers=headers, timeout=10
                )
                assert response.status_code == status, path
                assert "error" in response.json()
                response = session.post(f"{_url(server)}/value", data=valid, timeout=10)
                assert response.status_code == 200, path
                assert response.json() == {"value": 0.0}
    finally:
        stop_server(server)
    assert len(accepted) == 1


def test_missing_content_length_is_a_client_error_that_closes():
    server = serve_backend(ScriptedBackend({}), _counting_decoder([]))
    try:
        connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=10)
        connection.putrequest("POST", "/value")
        connection.endheaders()
        response = connection.getresponse()
        assert response.status == 400
        assert response.getheader("Connection") == "close"
        assert "Content-Length" in json.loads(response.read())["error"]
        connection.close()
    finally:
        stop_server(server)


def test_wire_version_mismatch_is_refused_without_retry(monkeypatch):
    sleeps = []
    monkeypatch.setattr("rsp.policy.time.sleep", sleeps.append)
    calls = []
    server = serve_backend(ScriptedBackend({}), _counting_decoder(calls))
    send, sent = requests.adapters.HTTPAdapter.send, []

    def send_as_version_0(adapter, request, **kwargs):
        sent.append(request.url)
        request.headers[VERSION_HEADER] = "0"
        return send(adapter, request, **kwargs)

    try:
        remote = RemoteBackend(_url(server), backoff=5.0)
        with monkeypatch.context() as patch:
            patch.setattr(requests.adapters.HTTPAdapter, "send", send_as_version_0)
            with pytest.raises(TransportError, match="400"):
                remote.predict_value(make_state())
        assert len(sent) == 1
        assert sleeps == []
        assert calls == []  # refused before the state is decoded
        # a client that sends no version header (curl, say) is served
        response = requests.post(f"{_url(server)}/value", json={"state": "q"}, timeout=10)
        assert response.status_code == 200
        assert response.headers[VERSION_HEADER] == WIRE_VERSION
    finally:
        stop_server(server)
    assert len(calls) == 1


def test_a_send_hook_that_changes_the_request_leaves_the_next_request_alone(monkeypatch, toy_served):
    # each call sends a request of its own, so what a hook does to one
    # (here, the version header a mismatch test rewrites) stays with it
    problem, inner, remote = toy_served
    send, seen = requests.adapters.HTTPAdapter.send, []

    def rewriting(adapter, request, **kwargs):
        seen.append((request, dict(request.headers), request.body))
        request.headers[VERSION_HEADER] = "0"
        request.headers["X-Added"] = "1"
        del request.headers["Accept"]
        return send(adapter, request, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(requests.adapters.HTTPAdapter, "send", rewriting)
        for _ in range(2):
            with pytest.raises(TransportError, match="400"):
                remote.predict_value(problem.root_state())
    (first, first_headers, first_body), (second, second_headers, second_body) = seen
    assert first is not second
    assert first_headers == second_headers and first_body == second_body
    assert second_headers[VERSION_HEADER] == WIRE_VERSION
    assert "Accept" in second_headers and "X-Added" not in second_headers
    assert remote.predict_value(problem.root_state()) == inner.predict_value(problem.root_state())


def _dead_proxy_env(monkeypatch, no_proxy=None):
    # A proxy on a port nothing listens on; lower-case names take precedence.
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.setenv(name, "http://127.0.0.1:1")
    for name in ("no_proxy", "NO_PROXY", "all_proxy", "ALL_PROXY"):
        monkeypatch.delenv(name, raising=False)
    if no_proxy is not None:
        monkeypatch.setenv("NO_PROXY", no_proxy)


def test_environment_proxy_is_honoured(monkeypatch):
    server, handler = _start_stub([(200, {"value": 0.25})])
    try:
        _dead_proxy_env(monkeypatch)
        with pytest.raises(TransportError):
            RemoteBackend(_url(server), backoff=0.01, max_attempts=1).predict_value(make_state())
        assert handler.requests_seen == []  # the request went to the proxy
    finally:
        stop_server(server)


def test_no_proxy_bypasses_the_environment_proxy(monkeypatch):
    server, _ = _start_stub([(200, {"value": 0.25})])
    try:
        _dead_proxy_env(monkeypatch, no_proxy="127.0.0.1")
        remote = RemoteBackend(_url(server), backoff=0.01, max_attempts=1)
        assert remote.predict_value(make_state()).value == 0.25
    finally:
        stop_server(server)


def test_environment_is_read_once_per_session(monkeypatch):
    lookups = []
    original = requests.utils.get_environ_proxies

    def counting(*args, **kwargs):
        lookups.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(requests.sessions, "get_environ_proxies", counting)
    monkeypatch.setattr(requests.utils, "get_environ_proxies", counting)
    _dead_proxy_env(monkeypatch, no_proxy="127.0.0.1")
    server, handler = _start_stub([(200, {"value": 0.25})] * 50)
    try:
        remote = RemoteBackend(_url(server), backoff=0.01, max_attempts=1)
        for _ in range(50):
            assert remote.predict_value(make_state()).value == 0.25
    finally:
        stop_server(server)
    assert len(handler.requests_seen) == 50
    assert len(lookups) == 1


def test_netrc_and_ca_bundle_settings_are_kept(monkeypatch, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password secret\n", encoding="utf-8")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "ca.pem"))
    verify = []
    send = requests.adapters.HTTPAdapter.send

    def recording(adapter, request, **kwargs):
        verify.append(kwargs["verify"])
        return send(adapter, request, **kwargs)

    monkeypatch.setattr(requests.adapters.HTTPAdapter, "send", recording)
    server, handler = _start_stub([(200, {"value": 0.25})])
    try:
        remote = RemoteBackend(_url(server), backoff=0.01)
        assert remote.predict_value(make_state()).value == 0.25
    finally:
        stop_server(server)
    assert verify == [str(tmp_path / "ca.pem")]
    auth = base64.b64encode(b"user:secret").decode()
    assert handler.headers_seen[0]["Authorization"] == f"Basic {auth}"


def test_client_sends_exactly_these_requests(monkeypatch, tmp_path):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login user password secret\n", encoding="utf-8")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    proposals = [_step_to_wire(code_step(analysis=a)) for a in ("a", "b")]
    server, handler = _start_stub([(200, {"value": 0.25}), (200, {"proposals": proposals})])
    try:
        remote = RemoteBackend(_url(server), backoff=0.01)
        remote.predict_value(make_state())
        remote.propose_steps(
            ProposalRequest(state=make_state(), n_samples=2, temperature=0.7, seed=3)
        )
    finally:
        stop_server(server)
    value_body = b'{"state": "<question>\\nwhat\\n</question>\\n"}'
    propose_body = (
        b'{"state": "<question>\\nwhat\\n</question>\\n", '
        b'"n_samples": 2, "temperature": 0.7, "seed": 3}'
    )
    assert [(r["method"], r["path"], r["raw"]) for r in handler.requests_seen] == [
        ("POST", "/value", value_body),
        ("POST", "/propose", propose_body),
    ]
    named = ("x-rsp-version", "Content-Type", "Content-Length", "Authorization")
    for headers, length in zip(handler.headers_seen, ("44", "91")):
        assert {name.lower() for name in headers} == {
            "host", "user-agent", "accept-encoding", "accept", "connection",
            "x-rsp-version", "content-type", "content-length", "authorization",
        }
        assert {name: headers[name] for name in named} == {
            "x-rsp-version": "1",
            "Content-Type": "application/json",
            "Content-Length": length,
            "Authorization": "Basic dXNlcjpzZWNyZXQ=",
        }


def test_each_endpoint_is_prepared_once_per_thread(monkeypatch, toy_served):
    problem, _, remote = toy_served
    prepared = []
    prepare = requests.Session.prepare_request

    def counting(session, request):
        prepared.append(request.url)
        return prepare(session, request)

    monkeypatch.setattr(requests.Session, "prepare_request", counting)
    request = ProposalRequest(state=problem.root_state(), n_samples=3, temperature=1.0, seed=1)

    def fifty_of_each():
        for _ in range(50):
            remote.predict_value(problem.root_state())
            remote.propose_steps(request)

    fifty_of_each()
    assert len(prepared) == 2
    thread = threading.Thread(target=fifty_of_each)
    thread.start()
    thread.join(timeout=30)
    assert len(prepared) == 4


def test_a_redirect_is_fatal_and_not_followed(monkeypatch):
    sleeps = []
    monkeypatch.setattr("rsp.policy.time.sleep", sleeps.append)
    server, handler = _start_stub([(307, {"error": "moved"}), (200, {"value": 0.25})])
    try:
        with pytest.raises(TransportError, match="307"):
            RemoteBackend(_url(server), backoff=5.0).predict_value(make_state())
    finally:
        stop_server(server)
    assert [r["path"] for r in handler.requests_seen] == ["/value"]
    assert sleeps == []


def test_non_finite_numbers_are_refused_before_the_wire(monkeypatch):
    sleeps = []
    monkeypatch.setattr("rsp.policy.time.sleep", sleeps.append)
    server, handler = _start_stub([(200, {"proposals": []})])
    request = ProposalRequest(state=make_state(), n_samples=2, temperature=float("inf"), seed=0)
    try:
        with pytest.raises(ContractViolation, match="temperature=inf"):
            RemoteBackend(_url(server), backoff=5.0).propose_steps(request)
    finally:
        stop_server(server)
    assert handler.requests_seen == []
    assert sleeps == []
    # the in-process toy backend still samples at this temperature
    problem = generate_problem(42)
    toy = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    assert toy.propose_steps(
        ProposalRequest(state=problem.root_state(), n_samples=2, temperature=float("inf"), seed=0)
    )


# --- values attached to proposals --------------------------------------------


def _record_bodies(monkeypatch):
    """Record (path, JSON body) of every request the client sends."""
    sent = []
    send = requests.adapters.HTTPAdapter.send

    def recording(adapter, request, **kwargs):
        sent.append((request.path_url, json.loads(request.body)))
        return send(adapter, request, **kwargs)

    monkeypatch.setattr(requests.adapters.HTTPAdapter, "send", recording)
    return sent


def test_attached_values_equal_separate_value_answers(toy_served):
    problem, inner, remote = toy_served
    state = problem.root_state()
    for seed in range(3):
        request = ProposalRequest(
            state=state, n_samples=5, temperature=1.0, seed=seed, with_values=True
        )
        proposals = remote.propose_steps(request)
        assert [p.step for p in proposals] == [p.step for p in inner.propose_steps(request)]
        for proposal in proposals:
            child = apply_step(state, proposal.step)
            assert proposal.value is not None
            assert proposal.value == remote.predict_value(child).value
            assert proposal.value == inner.predict_value(child).value
        state = apply_step(state, proposals[0].step)
    # asked without values, the same proposals come back bare
    request = ProposalRequest(state=problem.root_state(), n_samples=5, temperature=1.0, seed=0)
    assert all(p.value is None for p in remote.propose_steps(request))


class _AttachesToEveryOther(ScriptedBackend):
    """Attaches values, then drops them from every second proposal."""

    def propose_steps(self, request):
        proposals = super().propose_steps(request)
        return [Proposal(step=p.step) if i % 2 else p for i, p in enumerate(proposals)]


@pytest.mark.parametrize("backend_type", [ScriptedBackend, _AttachesToEveryOther], ids=["all", "mixed"])
def test_the_server_asks_predict_value_only_for_proposals_without_a_value(backend_type):
    state = make_state()
    steps = [code_step(analysis=a) for a in ("a", "b", "c")]
    children = [state.render() + step.text for step in steps]
    values = dict(zip(children, (0.5, -0.25, 0.75)))
    backend = backend_type({state.render(): steps}, values, attach_values=True)
    server = serve_backend(backend, _counting_decoder([]))
    try:
        remote = RemoteBackend(_url(server), backoff=0.01)
        request = ProposalRequest(state=state, n_samples=3, temperature=1.0, seed=0, with_values=True)
        proposals = remote.propose_steps(request)
    finally:
        stop_server(server)
    assert [(p.step, p.value) for p in proposals] == [(s, values[c]) for s, c in zip(steps, children)]
    # only the proposals that came back bare were valued one by one
    assert backend.value_calls == ([] if backend_type is ScriptedBackend else [children[1]])


def _wire_decode(name, state, backend, seed):
    if name == "mcts":
        return mcts_decode(state, backend, seed=seed)
    return sbs_decode(state, backend, beam_width=int(name[-1]), expansion_width=5, seed=seed)


def _report_fields(report):
    return (report.answer, report.path, report.steps_taken, report.candidates_returned)


def _serve_corpus(corpus, honour_values=True):
    """The reference server over an oracle toy backend; without
    ``honour_values`` it drops the request's with_values key, as a server
    that predates it would."""
    inner = ToyBackend.for_corpus(corpus, mode=Mode.ORACLE)
    server = serve_backend(inner, toy_state_decoder(inner))
    if not honour_values:
        handler = server.RequestHandlerClass

        def read_body(self):
            raw = handler._read_body(self)
            if raw is None or self.path != "/propose":
                return raw
            body = json.loads(raw)
            body.pop("with_values", None)
            return json.dumps(body).encode()

        server.RequestHandlerClass = type("Predates", (handler,), {"_read_body": read_body})
    return inner, server


@pytest.mark.parametrize("honour_values", [True, False], ids=["honoured", "ignored"])
@pytest.mark.parametrize("name", ["sbs1", "sbs3", "mcts"])
def test_value_guided_decodes_over_the_wire(monkeypatch, name, honour_values):
    # a server that honours with_values is never asked /value; one that
    # ignores it is, and the decodes are the same either way
    corpus = toy_corpus(4, seed=11)
    inner, server = _serve_corpus(corpus, honour_values)
    sent = _record_bodies(monkeypatch)
    try:
        remote = RemoteBackend(_url(server), backoff=0.01)
        over_wire = [_wire_decode(name, p.root_state(), remote, seed=i) for i, p in enumerate(corpus)]
    finally:
        stop_server(server)
    in_process = [_wire_decode(name, p.root_state(), inner, seed=i) for i, p in enumerate(corpus)]
    assert [_report_fields(r) for r in over_wire] == [_report_fields(r) for r in in_process]
    proposes = [body for path, body in sent if path == "/propose"]
    assert proposes and all(body["with_values"] is True for body in proposes)
    value_requests = len(sent) - len(proposes)
    assert value_requests == 0 if honour_values else value_requests > 0


def test_greedy_and_majority_requests_carry_no_with_values(monkeypatch, toy_served):
    problem, inner, remote = toy_served
    sent = _record_bodies(monkeypatch)
    state = problem.root_state()
    assert greedy_decode(state, remote).path == greedy_decode(state, inner).path
    assert majority_vote(state, remote, k=3, seed=2).path == majority_vote(state, inner, k=3, seed=2).path
    assert mc_rollout_estimate(state, problem.gold_answer, remote, n_rollouts=2, seed=1) == (
        mc_rollout_estimate(state, problem.gold_answer, inner, n_rollouts=2, seed=1)
    )
    assert sent
    assert all(path == "/propose" and "with_values" not in body for path, body in sent)


@pytest.mark.parametrize(
    "payload",
    [
        {"values": [0.5]},
        {"values": [0.5, 0.25, 0.0]},
        {"values": 0.5},
        {"values": None},
    ],
    ids=["short", "long", "scalar", "null"],
)
def test_values_that_do_not_align_are_transport_errors(payload):
    proposals = [_step_to_wire(code_step(analysis=a)) for a in ("a", "b")]
    server, _ = _start_stub([(200, {"proposals": proposals, **payload})])
    request = ProposalRequest(
        state=make_state(), n_samples=2, temperature=1.0, seed=0, with_values=True
    )
    try:
        with pytest.raises(TransportError, match="align"):
            RemoteBackend(_url(server), backoff=0.01).propose_steps(request)
    finally:
        stop_server(server)


def _read_value_over(path, raw):
    """Serve ``raw`` as a /value answer or as a value attached to one
    proposal, and read it through the client."""
    if path == "/value":
        reply = {"value": raw}
    else:
        reply = {"proposals": [_step_to_wire(code_step())], "values": [raw]}
    server, _ = _start_stub([(200, reply)])
    try:
        remote = RemoteBackend(_url(server), backoff=0.01)
        if path == "/value":
            return remote.predict_value(make_state()).value
        request = ProposalRequest(
            state=make_state(), n_samples=1, temperature=1.0, seed=0, with_values=True
        )
        (proposal,) = remote.propose_steps(request)
        return proposal.value
    finally:
        stop_server(server)


@pytest.mark.parametrize("path", ["/value", "/propose"])
@pytest.mark.parametrize("raw", [True, False, "0.5", None, [0.5], {"v": 0.5}], ids=repr)
def test_wire_values_must_be_numbers(path, raw):
    with pytest.raises(TransportError, match="non-numeric"):
        _read_value_over(path, raw)


@pytest.mark.parametrize("path", ["/value", "/propose"])
@pytest.mark.parametrize(
    "raw, read",
    [(1.7, 1.0), (-2, -1.0), (float("inf"), 1.0), (10**400, 1.0), (0.25, 0.25), (-1, -1.0)],
    ids=["1.7", "-2", "inf", "10**400", "0.25", "-1"],
)
def test_wire_values_out_of_range_are_clamped_with_a_warning(caplog, path, raw, read):
    with caplog.at_level("WARNING", logger="rsp.policy"):
        assert _read_value_over(path, raw) == read
    clamped = [r for r in caplog.records if "clamping" in r.getMessage()]
    assert len(clamped) == (0 if -1 <= raw <= 1 else 1)


@pytest.mark.parametrize("path", ["/value", "/propose"])
def test_wire_value_nan_is_refused(path):
    with pytest.raises(ContractViolation, match=r"\[-1, 1\]"):
        _read_value_over(path, float("nan"))


_PROPOSAL = _step_to_wire(code_step())


@pytest.mark.parametrize(
    "path, reply",
    [
        ("/propose", {"proposals": ["abc"]}),
        ("/propose", {"proposals": [{**_PROPOSAL, "mean_log_prob": "abc"}]}),
        ("/propose", {"proposals": [{**_PROPOSAL, "mean_log_prob": None}]}),
        ("/propose", {"proposals": [{**_PROPOSAL, "mean_log_prob": True}]}),
        ("/propose", {"proposals": [{**_PROPOSAL, "mean_log_prob": -(10**400)}]}),
        ("/propose", {"proposals": [{**_PROPOSAL, "mean_log_prob": float("nan")}]}),
        ("/propose", {"proposals": [{k: v for k, v in _PROPOSAL.items() if k != "mean_log_prob"}]}),
        ("/propose", {"proposals": [{**_PROPOSAL, "contains_code": 1}]}),
        ("/propose", {"proposals": [{**_PROPOSAL, "code_errored": "no"}]}),
        ("/propose", {"proposals": [{**_PROPOSAL, "code_output": 5}]}),
        ("/propose", [_PROPOSAL]),
        ("/value", [0.5]),
        ("/value", "0.5"),
    ],
    ids=[
        "proposal-string", "mlp-string", "mlp-null", "mlp-bool", "mlp-huge", "mlp-nan", "mlp-missing",
        "contains-code-int", "code-errored-string", "code-output-int", "propose-list",
        "value-list", "value-string",
    ],
)
def test_malformed_replies_are_transport_errors_without_retry(path, reply):
    server, handler = _start_stub([(200, reply)] * 3)
    try:
        remote = RemoteBackend(_url(server), backoff=0.01)
        with pytest.raises(TransportError):
            if path == "/value":
                remote.predict_value(make_state())
            else:
                remote.propose_steps(
                    ProposalRequest(state=make_state(), n_samples=1, temperature=1.0, seed=0)
                )
        assert len(handler.requests_seen) == 1
    finally:
        stop_server(server)


def test_a_malformed_proposal_fails_its_question_and_the_run_goes_on(tmp_path, monkeypatch):
    corpus = toy_corpus(2, seed=3)
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        "".join(json.dumps(row) + "\n" for row in corpus_to_records(corpus)), encoding="utf-8"
    )
    server, handler = _start_stub([(200, {"proposals": ["abc"]})] * 2)
    out = tmp_path / "report.json"
    try:
        monkeypatch.setenv(BACKEND_URL_ENV, _url(server))
        assert main(["solve", str(dataset), "--backend", "remote", "--out", str(out)]) == EXIT_OK
    finally:
        stop_server(server)
    reports = json.loads(out.read_text())["reports"]
    assert [e["correct"] for e in reports] == [False, False]
    assert all("not a JSON object" in e["error"] for e in reports)
    assert len(handler.requests_seen) == 2


@pytest.mark.parametrize(
    "proposal",
    [{**_PROPOSAL, "mean_log_prob": 0.5}, {**_PROPOSAL, "text": "no step delimiters"}],
    ids=["positive-mlp", "undelimited-text"],
)
def test_generate_calls_a_backend_contract_breach_a_backend_error(tmp_path, monkeypatch, capsys, proposal):
    # every setting was checked before the first tree, so a ContractViolation
    # while trees are built is the backend's, not the configuration's
    corpus = toy_corpus(2, seed=3)
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        "".join(json.dumps(row) + "\n" for row in corpus_to_records(corpus)), encoding="utf-8"
    )
    server, handler = _start_stub([(200, {"proposals": [proposal]})])
    out = tmp_path / "gen.jsonl"
    try:
        monkeypatch.setenv(BACKEND_URL_ENV, _url(server))
        code = main(["generate", str(dataset), "--backend", "remote", "--out", str(out)])
    finally:
        stop_server(server)
    assert code == EXIT_BACKEND
    assert capsys.readouterr().err.startswith("backend error: ")
    assert len(handler.requests_seen) == 1
    assert not out.exists()
