"""Only the remote client loads the HTTP client stack, and only a server
loads the server.

Checked in a fresh interpreter, since this test process has long since
imported ``requests`` and ``rsp.server`` itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_child(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports rsp from ``SRC``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )


# Runs in the child: import rsp and run in-process commands, which load
# neither the server nor the HTTP client stack; import serve_backend from
# rsp.policy, where it is re-exported; serve a toy backend and answer one
# /value request over http.client, then build the remote client. Writes what
# it saw as JSON to argv[2].
_CHILD = r"""
import http.client
import json
import os
import sys

import rsp
from rsp import cli
from rsp.policy import RemoteBackend
from rsp.toyenv import Mode, ToyBackend, toy_corpus, toy_state_decoder

work, result_path = sys.argv[1], sys.argv[2]
dataset = os.path.join(work, "ds.jsonl")
codes = [
    cli.main(["toydata", "--n", "3", "--seed", "0", "--out", dataset]),
    cli.main(["solve", dataset, "--strategy", "sbs", "--b1", "3"]),
    cli.main(["generate", dataset, "--out", os.path.join(work, "gen.jsonl")]),
]
in_process = sorted(name for name in ("socketserver", "rsp.server", "requests") if name in sys.modules)

from rsp.policy import serve_backend
import rsp.server

re_exported = serve_backend is rsp.server.serve_backend

toy = ToyBackend(mode=Mode.ORACLE)
server = serve_backend(toy, toy_state_decoder(toy))
try:
    state = toy_corpus(1, 0)[0].root_state()
    connection = http.client.HTTPConnection(*server.server_address, timeout=10)
    connection.request(
        "POST",
        "/value",
        body=json.dumps({"state": state.render()}),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    served = (response.status, json.loads(response.read())["value"])
    connection.close()
    before = sorted(name for name in ("requests", "urllib3") if name in sys.modules)

    host, port = server.server_address
    remote = RemoteBackend(f"http://{host}:{port}", backoff=0.01)
    after_build = "requests" in sys.modules
    remote_value = remote.predict_value(state).value
finally:
    server.shutdown()
    server.server_close()

with open(result_path, "w", encoding="utf-8") as handle:
    json.dump(
        {
            "codes": codes,
            "loaded_in_process": in_process,
            "re_exported": re_exported,
            "served": served,
            "loaded_before_client": before,
            "requests_after_client": after_build,
            "remote_value": remote_value,
            "toy_value": toy.predict_value(state).value,
        },
        handle,
    )
"""


def test_only_the_remote_client_loads_requests(tmp_path):
    result_path = tmp_path / "result.json"
    child = _run_child(_CHILD, str(tmp_path), str(result_path))
    assert child.returncode == 0, child.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["codes"] == [0, 0, 0]
    assert result["loaded_in_process"] == []
    assert result["re_exported"] is True
    assert result["served"] == [200, result["toy_value"]]
    assert result["loaded_before_client"] == []
    assert result["requests_after_client"] is True
    assert result["remote_value"] == result["toy_value"]


# Runs in the child: import rsp, then serve a toy backend and answer one
# /value request over a raw socket. Prints whether http.server was loaded
# after each, as JSON.
_SERVER_CHILD = r"""
import json
import socket
import sys

import rsp
from rsp.server import serve_backend
from rsp.toyenv import Mode, ToyBackend, toy_corpus, toy_state_decoder

after_import = "http.server" in sys.modules
toy = ToyBackend(mode=Mode.ORACLE)
server = serve_backend(toy, toy_state_decoder(toy))
try:
    body = json.dumps({"state": toy_corpus(1, 0)[0].root_state().render()}).encode()
    with socket.create_connection(server.server_address, timeout=10) as sock:
        sock.sendall(
            b"POST /value HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        with sock.makefile("rb") as reply:
            status = reply.readline().split()[1].decode()
            reply.read()
finally:
    server.shutdown()
    server.server_close()
print(json.dumps([after_import, status, "http.server" in sys.modules]))
"""


def test_serving_does_not_load_http_server():
    child = _run_child(_SERVER_CHILD)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [False, "200", False]


# Runs in the child: import rsp, then ask a port that nothing listens on for
# one value through the remote client. Prints the outcome and which of the
# client and server modules were loaded, as JSON.
_CLIENT_CHILD = r"""
import json
import socket
import sys

import rsp
from rsp.policy import RemoteBackend, TransportError
from rsp.toyenv import toy_corpus

with socket.socket() as unused:  # nothing listens on the port once this closes
    unused.bind(("127.0.0.1", 0))
    port = unused.getsockname()[1]
try:
    RemoteBackend(f"http://127.0.0.1:{port}", max_attempts=1).predict_value(toy_corpus(1, 0)[0].root_state())
    outcome = "answered"
except TransportError:
    outcome = "TransportError"
modules = ("requests", "rsp.transport", "rsp.server", "socketserver")
print(json.dumps([outcome] + [name for name in modules if name in sys.modules]))
"""


def test_a_remote_client_loads_no_server():
    child = _run_child(_CLIENT_CHILD)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == ["TransportError", "requests", "rsp.transport"]
