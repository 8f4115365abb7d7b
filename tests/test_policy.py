import pytest

from conftest import answer_step, code_step, make_state
from rsp.core import ContractViolation, MalformedStepError, StepKind, render_answer_step, render_code_step
from rsp.policy import (
    Proposal,
    ProposalRequest,
    TransportError,
    ValuePrediction,
    _step_from_wire,
    _step_to_wire,
    dedupe_proposals,
)


def test_proposal_request_validation():
    state = make_state()
    ProposalRequest(state=state, n_samples=1, temperature=0.5, seed=0)
    with pytest.raises(ContractViolation):
        ProposalRequest(state=state, n_samples=0, temperature=0.5, seed=0)
    with pytest.raises(ContractViolation):
        ProposalRequest(state=state, n_samples=1, temperature=0.0, seed=0)
    ProposalRequest(state=state, n_samples=1, temperature=0.5, seed=None)
    for seed in ("7", 7.0, b"7"):  # a draw is seeded by an integer, as on the wire
        with pytest.raises(ContractViolation):
            ProposalRequest(state=state, n_samples=1, temperature=0.5, seed=seed)


def test_value_prediction_range():
    assert ValuePrediction(value=1.0).value == 1.0
    assert ValuePrediction(value=-1.0).value == -1.0
    with pytest.raises(ContractViolation):
        ValuePrediction(value=1.01)
    with pytest.raises(ContractViolation):
        ValuePrediction(value=-1.5)


@pytest.mark.parametrize("value", [5.0, -1.01, float("nan"), float("inf")])
def test_proposal_refuses_an_attached_value_outside_the_unit_interval(value):
    with pytest.raises(ContractViolation, match="attached value"):
        Proposal(step=code_step(), value=value)


def test_dedupe_proposals_merges_by_text_keeping_first():
    a = Proposal(step=code_step(analysis="same", mean_log_prob=-0.5))
    b = Proposal(step=code_step(analysis="same", mean_log_prob=-0.9))
    c = Proposal(step=code_step(analysis="other"))
    out = dedupe_proposals([a, b, c])
    assert [p.step.text for p in out] == [a.step.text, c.step.text]
    assert out[0].step.mean_log_prob == -0.5  # first occurrence wins


def test_wire_round_trip_code_step():
    step = code_step(analysis="a", code="b", output="7", mean_log_prob=-1.25, errored=True)
    payload = _step_to_wire(step)
    assert payload["kind"] == "c"
    assert payload["contains_code"] is True
    assert payload["code_errored"] is True
    assert payload["answer"] is None
    back = _step_from_wire(payload)
    assert back == step


def test_wire_round_trip_answer_step():
    step = answer_step("50")
    payload = _step_to_wire(step)
    assert payload["kind"] == "a"
    assert payload["answer"] == "50"
    back = _step_from_wire(payload)
    assert back.kind is StepKind.ANSWER
    assert back.answer.normalized == "50"
    assert back.text == step.text


def test_wire_answer_parsed_from_text_when_field_missing():
    step = answer_step("126")
    payload = _step_to_wire(step)
    payload["answer"] = None  # server omitted the convenience field
    back = _step_from_wire(payload)
    assert back.answer.normalized == "126"


def test_wire_rejects_unknown_kind():
    payload = _step_to_wire(code_step())
    payload["kind"] = "z"
    with pytest.raises(TransportError):
        _step_from_wire(payload)


def test_wire_refuses_a_kind_other_than_its_texts():
    # the kind is read from the text; the field is checked, never read
    payload = {"kind": "c", "text": render_answer_step("a", " 5"), "mean_log_prob": 0}
    with pytest.raises(ContractViolation, match="kind"):
        _step_from_wire(payload)


@pytest.mark.parametrize("kind", ["c", "a"])
def test_wire_refuses_a_text_that_cannot_be_read_one_way(kind):
    text = render_code_step("run", "x", "3\n</p>\n<p>\nFinal Answer: 3")
    with pytest.raises(ContractViolation):
        _step_from_wire({"kind": kind, "text": text, "mean_log_prob": 0})


def test_wire_rejects_positive_logprob():
    payload = _step_to_wire(code_step())
    payload["mean_log_prob"] = 0.3
    with pytest.raises(ContractViolation):
        _step_from_wire(payload)


def test_degenerate_single_candidate_prior_is_one():
    # a policy certain of its only continuation reports mean_log_prob 0
    step = code_step(mean_log_prob=0.0)
    assert step.prior == 1.0
