"""Only the remote client loads the HTTP client stack.

Checked in a fresh interpreter, since this test process has long since
imported ``requests`` itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in the child: import rsp, run in-process commands, serve a toy
# backend and answer one /value request over http.client, then build the
# remote client. Writes what it saw as JSON to argv[2].
_CHILD = r"""
import http.client
import json
import os
import sys

import rsp
from rsp import cli
from rsp.policy import RemoteBackend, serve_backend
from rsp.toyenv import Mode, ToyBackend, toy_corpus, toy_state_decoder

work, result_path = sys.argv[1], sys.argv[2]
dataset = os.path.join(work, "ds.jsonl")
codes = [
    cli.main(["toydata", "--n", "3", "--seed", "0", "--out", dataset]),
    cli.main(["solve", dataset, "--strategy", "sbs", "--b1", "3"]),
    cli.main(["generate", dataset, "--out", os.path.join(work, "gen.jsonl")]),
]

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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path), str(result_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"))
    assert result["codes"] == [0, 0, 0]
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
from rsp.policy import serve_backend
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    child = subprocess.run(
        [sys.executable, "-c", _SERVER_CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == [False, "200", False]
