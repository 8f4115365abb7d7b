"""Shared test helpers: step factories, a scripted backend, a server
stopper, split wire delivery, and the acceptance-criteria summary printer."""

from __future__ import annotations

import sys
import time

from rsp.core import ReasoningState, Step
from rsp.policy import PolicyValueBackend, Proposal, ProposalRequest, ValuePrediction


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, after the normal report."""
    module = sys.modules.get("test_acceptance")
    if module is None or not getattr(module, "RESULTS", None):
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(module.CRITERIA):
        outcome = module.RESULTS.get(number)
        label = "PASS" if outcome else ("FAIL" if outcome is False else "SKIP")
        terminalreporter.write_line(
            f"{label}  criterion {number:2d}: {module.CRITERIA[number]}"
        )


def stop_server(server) -> None:
    """Stop a test HTTP server: end its serve loop, then close its listening
    socket and (for the reference server) its kept-alive connections."""
    server.shutdown()
    server.server_close()


def send_split(sock, data: bytes) -> None:
    """Send ``data`` with each of its lines cut in two, pausing between the
    pieces, so the reader receives every line in parts."""
    for line in data.splitlines(keepends=True):
        for piece in (line[: len(line) // 2], line[len(line) // 2 :]):
            if piece:
                sock.sendall(piece)
                time.sleep(0.001)


def code_step(
    analysis: str = "work",
    code: str = "x = 1",
    output: str = "1",
    mean_log_prob: float = -0.5,
    errored: bool = False,
) -> Step:
    """A rendered code step; with ``errored`` an exception line ends its
    output, which is what makes ``Step.code_errored`` true."""
    if errored:
        output += "\nNameError: name 'x' is not defined"
    return Step.code_step(
        analysis=analysis,
        code=code,
        output=output,
        mean_log_prob=mean_log_prob,
    )


def answer_step(
    answer: str = "42",
    analysis: str = "done",
    mean_log_prob: float = -0.1,
) -> Step:
    return Step.answer_step(analysis=analysis, answer=f" ${answer}$", mean_log_prob=mean_log_prob)


def make_state(
    question_id: str = "q-1",
    question_text: str = "<question>\nwhat\n</question>\n",
    steps: tuple[Step, ...] = (),
) -> ReasoningState:
    return ReasoningState(
        question_id=question_id, question_text=question_text, steps=steps
    )


class ScriptedBackend(PolicyValueBackend):
    """Backend driven by explicit tables keyed on rendered state text.

    proposals: rendered text -> list of Step (returned up to n_samples, in
    table order; missing key means dead end). values: rendered text -> float
    (missing key defaults to 0.0). With ``attach_values``, a request that
    asks for values gets each proposal's value attached from the same
    table. Calls are recorded for assertions.
    """

    def __init__(
        self,
        proposals: dict[str, list[Step]],
        values: dict[str, float] | None = None,
        attach_values: bool = False,
    ):
        self.proposals = proposals
        self.values = values or {}
        self.attach_values = attach_values
        self.propose_calls: list[str] = []
        self.value_calls: list[str] = []

    def propose_steps(self, request: ProposalRequest) -> list[Proposal]:
        rendered = request.state.render()
        self.propose_calls.append(rendered)
        steps = self.proposals.get(rendered, [])[: request.n_samples]
        if request.with_values and self.attach_values:
            return [Proposal(step=s, value=self.values.get(rendered + s.text, 0.0)) for s in steps]
        return [Proposal(step=s) for s in steps]

    def predict_value(self, state: ReasoningState) -> ValuePrediction:
        rendered = state.render()
        self.value_calls.append(rendered)
        return ValuePrediction(value=self.values.get(rendered, 0.0))
