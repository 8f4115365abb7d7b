"""Reference wire server for the solve-wire workload, run as a child process.

Usage: python3 wire_server.py <src directory>

Serves an oracle-mode toy backend with ``rsp.policy.serve_backend`` and
``toy_state_decoder``. Both are wrapped so the time the server spends in
the backend and in decoding rendered states is totalled. Prints
{"port": n} once listening, then answers commands read from stdin, one per
line: "stats" prints the totals as JSON, "reset" zeroes them, and "quit" or
end of input shuts the server down.
"""

from __future__ import annotations

import json
import sys
import threading
from time import perf_counter_ns


class ServerClock:
    """Totals shared by the server's request threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.totals = {"requests": 0, "backend_ns": 0, "decode_ns": 0}

    def add(self, key: str, ns: int, requests: int = 0) -> None:
        with self.lock:
            self.totals[key] += ns
            self.totals["requests"] += requests

    def snapshot(self) -> dict:
        with self.lock:
            return dict(self.totals)


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    from rsp.policy import PolicyValueBackend, serve_backend
    from rsp.toyenv import Mode, ToyBackend, toy_state_decoder

    clock = ServerClock()
    toy = ToyBackend(mode=Mode.ORACLE)
    decode_state = toy_state_decoder(toy)

    class TimedBackend(PolicyValueBackend):
        def propose_steps(self, request):
            started = perf_counter_ns()
            try:
                return toy.propose_steps(request)
            finally:
                clock.add("backend_ns", perf_counter_ns() - started)

        def predict_value(self, state):
            started = perf_counter_ns()
            try:
                return toy.predict_value(state)
            finally:
                clock.add("backend_ns", perf_counter_ns() - started)

    def timed_decode(rendered: str):
        # Every request decodes exactly one state, so this also counts requests.
        started = perf_counter_ns()
        try:
            return decode_state(rendered)
        finally:
            clock.add("decode_ns", perf_counter_ns() - started, requests=1)

    server = serve_backend(TimedBackend(), timed_decode)
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                print(json.dumps(clock.snapshot()), flush=True)
            elif command == "reset":
                clock.reset()
                print("{}", flush=True)
            elif command == "quit":
                break
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
