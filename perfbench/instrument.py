"""Outside-in instrumentation: counters and spans at the boundaries of ``rsp``.

Nothing here edits the package. Counting wraps the backend interface and
the HTTP adapter that the remote client sends through; spans wrap calls the
benchmark makes and, in the traced run only, module attributes that the
search and decoding loops look up at call time.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from urllib.parse import urlsplit

import requests.adapters

from rsp.policy import PolicyValueBackend

from stats import self_times

# Spans whose individual durations are kept for percentiles.
TIMED_SPANS = ("backend.propose", "backend.value", "wire.rtt")


class NullTracer:
    """Stand-in used when tracing is off: calls straight through."""

    enabled = False
    item = None

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def flush(self) -> None:
        pass


class Tracer:
    """Records spans (name, start, end, parent, item) in memory.

    Spans gather in a buffer. ``flush`` is called between items: it folds
    the buffer into running totals and keeps the first ``retain`` flushes
    whole, so memory stays bounded on long runs while a sample of complete
    span trees can still be written out.
    """

    enabled = True

    def __init__(self, retain: int = 20, clock=perf_counter_ns) -> None:
        self.clock = clock
        self.item = None
        self.buffer: list[list] = []
        self.stack: list[int] = []
        self.retain = retain
        self.kept: list[list] = []
        self.flushes = 0
        # name -> [count, total ns, self ns]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.durations: dict[str, array] = {name: array("q") for name in TIMED_SPANS}
        # span name -> ns spent in backend spans nested anywhere below it
        self.backend_within: Counter = Counter()
        # item id -> (item span ns, backend ns inside the item)
        self.items: dict[int, tuple[int, int]] = {}

    def call(self, name, fn, *args, **kwargs):
        record = [name, 0, 0, self.stack[-1] if self.stack else -1, self.item]
        self.stack.append(len(self.buffer))
        self.buffer.append(record)
        record[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self.clock()
            self.stack.pop()

    def wrap(self, name, fn):
        call = self.call

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    def flush(self) -> None:
        if self.stack:
            raise RuntimeError("flush called inside an open span")
        spans = self.buffer
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        backend_ns = 0
        for index, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            total = self.totals[name]
            total[0] += 1
            total[1] += duration
            total[2] += selfs[index]
            if name in self.durations:
                self.durations[name].append(duration)
            if name.startswith("backend."):
                backend_ns += duration
                seen = set()
                while parent >= 0:
                    ancestor = spans[parent][0]
                    if ancestor not in seen:
                        seen.add(ancestor)
                        self.backend_within[ancestor] += duration
                    parent = spans[parent][3]
        for name, start, end, parent, item in spans:
            if parent < 0 and name == "bench.item":
                self.items[item] = (end - start, backend_ns)
        if self.flushes < self.retain:
            offset = len(self.kept)
            for name, start, end, parent, item in spans:
                self.kept.append([name, start, end, parent + offset if parent >= 0 else -1, item])
        self.flushes += 1
        self.buffer = []

    def count(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def total_ns(self, name: str) -> int:
        return self.totals[name][1] if name in self.totals else 0

    def layer_self_ns(self) -> Counter:
        """Self time summed per layer; span names are '<layer>.<what>'."""
        layers: Counter = Counter()
        for name, (_, _, self_ns) in self.totals.items():
            layers[name.split(".", 1)[0]] += self_ns
        return layers


@contextmanager
def patched(tracer, targets):
    """Temporarily replace ``owner.attr`` with a traced wrapper.

    ``targets`` holds (owner, attribute, span name). An attribute the
    package no longer has is skipped, and its metrics then read 0.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class CountingBackend(PolicyValueBackend):
    """Delegating backend that counts calls and dead ends.

    With a tracer enabled, each call is also recorded as a span.
    """

    def __init__(self, inner: PolicyValueBackend, tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.propose_calls = 0
        self.value_calls = 0
        self.dead_ends = 0

    def propose_steps(self, request):
        self.propose_calls += 1
        proposals = self.tracer.call("backend.propose", self.inner.propose_steps, request)
        if not proposals:
            self.dead_ends += 1
        return proposals

    def predict_value(self, state):
        self.value_calls += 1
        return self.tracer.call("backend.value", self.inner.predict_value, state)


class WireCounter:
    """Counts HTTP round trips at the ``requests`` transport adapter.

    Installed as a patch of ``HTTPAdapter.send``, the call through which
    every request of a ``requests`` session leaves the process. A retry is a
    send of the same method, URL and body right after a failed attempt.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.round_trips = 0
        self.request_bytes = 0
        self.response_bytes = 0
        self.statuses: Counter = Counter()
        self.by_path: Counter = Counter()
        self.retried_paths: Counter = Counter()
        self._last_failed = None

    @property
    def retries(self) -> int:
        return sum(self.retried_paths.values())

    @property
    def body_bytes(self) -> int:
        return self.request_bytes + self.response_bytes

    @contextmanager
    def installed(self):
        original = requests.adapters.HTTPAdapter.send
        counter = self

        def send(adapter, request, **kwargs):
            return counter.tracer.call("wire.rtt", counter._send, original, adapter, request, kwargs)

        requests.adapters.HTTPAdapter.send = send
        try:
            yield self
        finally:
            requests.adapters.HTTPAdapter.send = original

    def _send(self, original, adapter, request, kwargs):
        body = request.body or b""
        if isinstance(body, str):
            body = body.encode()
        key = (request.method, request.url, body)
        path = urlsplit(request.url).path
        if key == self._last_failed:
            self.retried_paths[path] += 1
        self.round_trips += 1
        self.request_bytes += len(body)
        self.by_path[path] += 1
        try:
            response = original(adapter, request, **kwargs)
            content = response.content  # read the body inside the timed call
        except Exception:
            self.statuses["error"] += 1
            self._last_failed = key
            raise
        self.response_bytes += len(content)
        self.statuses[response.status_code] += 1
        self._last_failed = key if response.status_code >= 500 else None
        return response
