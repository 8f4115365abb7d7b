import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import answer_step, code_step, make_state
from rsp.core import (
    FINAL_ANSWER_MARKER,
    Answer,
    ContractViolation,
    MalformedStepError,
    ReasoningState,
    Reward,
    Step,
    StepKind,
    answers_equivalent,
    apply_step,
    derive_seed,
    is_correct,
    is_terminal,
    json_field,
    log_prior,
    normalize_answer,
    path_reward,
    render_answer_step,
    render_code_step,
)
from rsp.toyenv import ToyBackend, generate_problem, toy_state_decoder


def test_code_step_rendering_is_bit_exact():
    step = code_step(analysis="Add the numbers.", code="print(1 + 2)", output="3")
    assert step.text == (
        "<step>\n<p>\nAdd the numbers.\n</p>\n<code>\nprint(1 + 2)\n</code>\n"
        "<p>\n3\n</p>\n</step>"
    )
    assert step.text == render_code_step("Add the numbers.", "print(1 + 2)", "3")


def test_answer_step_rendering_is_bit_exact():
    step = Step.answer_step(analysis="So we know x.", answer=" $50$", mean_log_prob=-0.2)
    assert step.text == (
        "<step>\n<p>\nSo we know x.\n</p>\n<p>\nFinal Answer: $50$\n</p>\n</step>"
    )
    assert step.text == render_answer_step("So we know x.", " $50$")


def test_apply_step_concatenates():
    state = make_state()
    step = code_step()
    out = apply_step(state, step)
    assert out.depth == 1
    assert out.render() == state.question_text + step.text
    # the input state is untouched
    assert state.depth == 0 and state.steps == ()


def test_apply_step_answer_at_depth_budget_is_allowed():
    state = make_state(steps=tuple(code_step(analysis=f"s{i}") for i in range(7)))
    out = apply_step(state, answer_step(), max_depth=8)
    assert out.depth == 8
    assert is_terminal(out, max_depth=8)


def test_apply_step_rejects_answered_state():
    state = make_state(steps=(answer_step(),))
    with pytest.raises(ContractViolation):
        apply_step(state, code_step())


def test_apply_step_rejects_exceeding_budget():
    state = make_state(steps=tuple(code_step(analysis=f"s{i}") for i in range(8)))
    with pytest.raises(ContractViolation):
        apply_step(state, code_step(analysis="one too many"), max_depth=8)


def test_apply_step_builds_the_state_the_constructor_builds():
    state = make_state()
    for step in (code_step(analysis="a"), code_step(analysis="b"), answer_step("9")):
        built = ReasoningState(state.question_id, state.question_text, state.steps + (step,))
        state = apply_step(state, step)
        assert state == built and hash(state) == hash(built)
        assert type(state) is ReasoningState and vars(state) == vars(built)


def test_is_terminal_cases():
    assert not is_terminal(make_state())
    assert is_terminal(make_state(steps=(answer_step(),)))
    deep = make_state(steps=tuple(code_step(analysis=f"s{i}") for i in range(8)))
    assert is_terminal(deep, max_depth=8)
    assert not is_terminal(deep, max_depth=9)


def test_terminality_is_permanent():
    # once terminal, appending is impossible, so terminality cannot be undone
    answered = make_state(steps=(answer_step(),))
    with pytest.raises(ContractViolation):
        apply_step(answered, code_step())
    depth_capped = make_state(steps=tuple(code_step(analysis=f"s{i}") for i in range(8)))
    with pytest.raises(ContractViolation):
        apply_step(depth_capped, code_step(), max_depth=8)


def test_answer_must_be_last_step():
    with pytest.raises(ContractViolation):
        make_state(steps=(answer_step(), code_step()))
    with pytest.raises(ContractViolation):
        make_state(steps=(answer_step("1"), answer_step("2")))


def test_step_answer_examples():
    assert answer_step("50").answer.normalized == "50"
    assert answer_step("126").answer.normalized == "126"
    assert code_step().answer is None
    # parsed from the text, so a step built from its text carries the same answer
    step = answer_step("126")
    assert Step(step.text).answer == step.answer


def test_state_answer_is_the_last_steps():
    assert make_state().answer is None
    assert make_state(steps=(code_step(),)).answer is None
    final = answer_step("7")
    state = make_state(steps=(code_step(), final))
    assert state.answer is final.answer
    assert state.answer.normalized == "7"


# Outputs render_code_step writes, and whether each reads as a failed run:
# its last line names an exception.
CODE_OUTPUTS = [
    ("42", False),
    ('Traceback (most recent call last):\n  File "<stdin>", line 1, in <module>\n'
     "ZeroDivisionError: division by zero", True),
    ("numpy.linalg.LinAlgError: Singular matrix", True),
    ("Exception", True),
    ("KeyError: 'k'\n\n", True),
    ("ValueError: retrying\nError rate 0.1\n3", False),  # errors mid-output, a clean last line
    ("Errors: 0", False),
    ("", False),
    ("a </p> b\n</p>\n<p>\n", False),
]


@pytest.mark.parametrize("output, errored", CODE_OUTPUTS)
def test_code_step_output_and_error_flag_parse_back(output, errored):
    step = Step(render_code_step("run it", "print(x)", output), -0.5)
    assert step == Step.code_step("run it", "print(x)", output, -0.5)
    assert (step.contains_code, step.code_output, step.code_errored) == (True, output, errored)


def test_step_invariants():
    with pytest.raises(ContractViolation):
        Step("no tags", -0.1)
    with pytest.raises(ContractViolation):
        code_step(mean_log_prob=0.5)  # log-prob must be <= 0


def test_prior_in_unit_interval():
    assert code_step(mean_log_prob=0.0).prior == 1.0
    rng = random.Random(7)
    for _ in range(200):
        mlp = -rng.random() * 20
        p = code_step(mean_log_prob=mlp).prior
        assert 0.0 < p <= 1.0


def test_step_prior_reference_points():
    assert code_step(mean_log_prob=0.0).prior == pytest.approx(1.0, abs=1e-6)
    assert code_step(mean_log_prob=-1.0).prior == pytest.approx(0.367879, abs=1e-6)
    assert code_step(mean_log_prob=-2.0).prior == pytest.approx(0.135335, abs=1e-6)
    with pytest.raises(ContractViolation):
        code_step(mean_log_prob=0.1)


def test_log_prior_inverts_step_prior():
    assert log_prior(1.0) == 0.0
    for prior in (0.9, 0.25, 1e-9):
        assert code_step(mean_log_prob=log_prior(prior)).prior == pytest.approx(prior)


def test_step_from_text_reads_kind_code_flag_and_answer():
    code = code_step(output="7", errored=True, mean_log_prob=-0.3)
    parsed = Step(code.text, -0.3)
    assert parsed == code and parsed.kind is StepKind.CODE
    assert (parsed.contains_code, parsed.code_output, parsed.code_errored) == (
        True, "7\nNameError: name 'x' is not defined", True
    )
    answer = answer_step("$3/6$")
    parsed = Step(answer.text, answer.mean_log_prob)
    assert parsed == answer and parsed.kind is StepKind.ANSWER
    prose = "<step>\n<p>\nthinking\n</p>\n</step>"
    assert Step(prose).kind is StepKind.CODE and Step(prose).mean_log_prob == 0.0
    # no code block, an answer, or a code block with no output block after it
    unrun = "<step>\n<p>\nset up\n</p>\n<code>\nx = 1\n</code>\n</step>"
    for text, code_flag in ((prose, False), (answer.text, False), (unrun, True)):
        parsed = Step(text)
        assert (parsed.contains_code, parsed.code_output, parsed.code_errored) == (code_flag, None, False)
    with pytest.raises(ContractViolation):
        Step("no tags")


def test_a_code_step_whose_output_prints_the_marker_stays_a_code_step():
    step = Step(render_code_step("run", "print('Final Answer: 3')", "Final Answer: 3"))
    assert (step.kind, step.answer, step.code_output) == (StepKind.CODE, None, "Final Answer: 3")


def test_an_answer_is_read_from_the_final_block():
    step = Step(render_answer_step("Write the result after Final Answer: as a number", " 5"))
    assert step.kind is StepKind.ANSWER and step.answer.normalized == "5"


@pytest.mark.parametrize("code", ["'</step><step>\n<p>\ny\n</p>\n</step>'", "</step>", "<step>"])
def test_a_step_tag_inside_a_step_text_is_refused(code):
    with pytest.raises(ContractViolation):
        Step(render_code_step("run", code, "y"))


def test_a_text_both_renderers_could_write_is_refused():
    text = render_code_step("run", "x", "3\n</p>\n<p>\nFinal Answer: 3")
    assert text == render_answer_step("run\n</p>\n<code>\nx\n</code>\n<p>\n3", " 3")
    with pytest.raises(MalformedStepError):
        Step(text)


# Every delimiter of the step grammar, the openings of an output and an answer
# block whole, and plain text.
STEP_PIECES = ["<step>", "</step>", "<p>", "</p>", "<code>", "</code>", FINAL_ANSWER_MARKER, "\n", "\n</p>\n<p>\n",
               "\n</code>\n<p>\n", " ", "x", "7"]


def _generated_steps(seed: int, n: int = 600):
    """Rendered code and answer steps over random parts, each with the kind,
    answer and code output it was rendered with."""
    rng = random.Random(seed)

    def part():
        return "".join(rng.choice(STEP_PIECES) for _ in range(rng.randrange(5)))

    for _ in range(n):
        analysis, code, output, answer = part(), part(), part(), part()
        yield render_code_step(analysis, code, output), (StepKind.CODE, None, output)
        yield render_answer_step(analysis, answer), (StepKind.ANSWER, normalize_answer(answer), None)


def _step_or_none(text):
    try:
        return Step(text)
    except (ContractViolation, MalformedStepError):
        return None


@pytest.mark.parametrize("seed", range(4))
def test_a_rendered_step_reads_back_its_parts_or_is_refused(seed):
    outcomes = Counter()
    for text, rendered in _generated_steps(seed):
        try:
            step = Step(text)
        except (ContractViolation, MalformedStepError) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        assert (step.kind, step.answer, step.code_output) == rendered, text
        outcomes[step.kind.name] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) > 50, outcomes  # each outcome is exercised


@pytest.mark.parametrize("seed", range(4))
def test_a_rendered_state_splits_back_into_exactly_its_steps(seed):
    problem = generate_problem(seed)
    decode = toy_state_decoder(ToyBackend.for_corpus([problem]))
    steps = [step for step in (_step_or_none(text) for text, _ in _generated_steps(seed)) if step]
    codes = [step for step in steps if step.kind is StepKind.CODE]
    answers = [step for step in steps if step.kind is StepKind.ANSWER]
    for i in range(0, len(codes), 3):  # three code steps, then an answer
        state = ReasoningState(problem.id, problem.question_text, (*codes[i : i + 3], answers[i % len(answers)]))
        assert [step.text for step in decode(state.render()).steps] == [step.text for step in state.steps]


def test_is_correct_normalizes_raw_strings_only():
    assert is_correct("$50$", "50")
    assert is_correct(normalize_answer("0.5"), "1/2")
    assert is_correct("[-4, 0)", normalize_answer("[-4,0)"))
    assert not is_correct("[-4, 0]", "[-4, 0)")
    assert not is_correct(None, "50")
    # an Answer is taken as it is, not normalized again
    assert not is_correct(Answer(raw="X", normalized="X"), "x")


# (steps, max_depth, gold, reward): the rule every finished path is graded by
_PATH_REWARDS = {
    "right answer": ((answer_step("50"),), 8, "50", 1.0),
    "equivalent answer": ((code_step(), answer_step("0.5")), 8, "1/2", 1.0),
    "wrong answer": ((answer_step("51"),), 8, "50", -1.0),
    "answer, gold unknown": ((answer_step("50"),), 8, None, None),
    "answer at the depth budget": ((code_step(), answer_step("50")), 2, "50", 1.0),
    "depth budget": ((code_step(), code_step()), 2, "50", -1.0),
    "depth budget, gold unknown": ((code_step(), code_step()), 2, None, -1.0),
    "dead end at the question": ((), 8, "50", -1.0),
    "dead end, gold unknown": ((code_step(),), 8, None, -1.0),
}


@pytest.mark.parametrize(
    "steps, max_depth, gold, expected", _PATH_REWARDS.values(), ids=_PATH_REWARDS.keys()
)
def test_path_reward_truth_table(steps, max_depth, gold, expected):
    state = make_state(steps=steps)
    # every case is a finished path: it answers, sits at the budget or dead-ends
    assert is_terminal(state, max_depth) == (state.has_answer or len(steps) == max_depth)
    reward = path_reward(state, None if gold is None else normalize_answer(gold))
    assert (None if reward is None else reward.value) == expected


def test_reward_values():
    for v in (-1.0, 0.0, 1.0):
        assert Reward(v).value == v
    with pytest.raises(ContractViolation):
        Reward(0.5)


def test_normalize_answer_examples():
    assert normalize_answer("$50$").normalized == "50"
    assert normalize_answer(" 50 ").normalized == "50"
    assert normalize_answer("\\(42\\)").normalized == "42"
    assert normalize_answer("Twelve.").normalized == "twelve"
    assert normalize_answer("$ 3.5 $").numeric == 3.5
    assert normalize_answer("1/2").numeric is not None


def test_a_numeral_past_the_exponent_bound_is_not_numeric():
    # Fraction would build 10**exponent: past 4,300 places the answer is
    # compared by its text, and normalizing it takes no time
    start = time.perf_counter()
    for raw in ("1e5000", "1E+4301", "1e999999999", "1.5e-999999999"):
        answer = normalize_answer(raw)
        assert answer.numeric is None and answer.normalized == raw.lower()
    assert time.perf_counter() - start < 1.0
    assert normalize_answer("1e4300").numeric == 10**4300
    assert normalize_answer("-2.5e-4300").numeric == Fraction(-5, 2 * 10**4300)
    assert is_correct("$1e999999999$", "1e999999999")
    assert not is_correct("1e999999999", "1e999999998")


def test_a_numeral_with_digit_separators_compares_by_its_text():
    # Python 3.11's Fraction reads "_" separators and 3.10's does not (its
    # float fallback then does), so a numeral with one is read as a number
    # on neither version.
    for raw in ("1_000", "2.5e-4_300", "-3_5.5", "1_0/4", "1e1_0"):
        answer = normalize_answer(raw)
        assert answer.numeric is None and answer.normalized == raw
    assert not is_correct("2.5e-4_300", "0")
    assert not is_correct("1_000", "1000")
    assert is_correct("$1_000$", "1_000")


def test_normalization_is_idempotent():
    rng = random.Random(3)
    pool = [
        "$50$", "1/2", "  [-4, 0) ", "\\(x+1\\)", "3.14159", "FOO.", "$-7$", "0.5",
        # wrappers that only come off after an earlier one does
        "x. .", "$x$ .", "\\(x\\) .", "$7. $", "$$3$.$", " .$x$. ",
    ]
    parts = ["$", ".", " ", "\\(", "\\)", "x", "1", "[", "(", ",", ")", "]"]
    pool += ["".join(rng.choice(parts) for _ in range(rng.randint(1, 8))) for _ in range(2000)]
    for raw in pool:
        once = normalize_answer(raw)
        twice = normalize_answer(once.normalized)
        assert once.normalized == twice.normalized, raw
    assert normalize_answer("x. .").normalized == "x"
    assert normalize_answer("$x$ .").normalized == "x"


def test_answers_equivalent_examples():
    assert answers_equivalent(normalize_answer("50"), normalize_answer("50.0"))
    assert answers_equivalent(normalize_answer("1/2"), normalize_answer("0.5"))
    assert not answers_equivalent(normalize_answer("[-4,0)"), normalize_answer("[-4,0]"))
    assert answers_equivalent(normalize_answer("$50$"), normalize_answer("50"))
    assert not answers_equivalent(normalize_answer("49"), normalize_answer("50"))


def test_answers_equivalent_reflexive_and_symmetric():
    rng = random.Random(11)
    pool = ["50", "1/2", "0.5", "[-4,0)", "x+1", "-3", "7.25", "foo"]
    for _ in range(200):
        a = normalize_answer(rng.choice(pool))
        b = normalize_answer(rng.choice(pool))
        assert answers_equivalent(a, a)
        assert answers_equivalent(a, b) == answers_equivalent(b, a)


def test_render_concatenation_property():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(0, 6)
        steps = [code_step(analysis=f"s{i}", code=f"v={i}", output=str(i)) for i in range(n)]
        if rng.random() < 0.5:
            steps.append(answer_step(str(rng.randrange(100))))
        state = make_state(steps=tuple(steps))
        assert state.render() == state.question_text + "".join(s.text for s in steps)


def test_derive_seed_is_deterministic_and_order_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(0) != derive_seed(1)
    assert 0 <= derive_seed(123456789, 42) < 2**64


_JSON_VALUES = [0, 1, -3, 2.5, 1e308, 10**400, True, False, None, "1", [], {}, math.nan, math.inf]


@pytest.mark.parametrize(
    "kind, accepted",
    [
        (int, [0, 1, -3, 10**400]),
        (float, [0, 1, -3, 2.5, 1e308]),
        (str, ["1"]),
        (bool, [True, False]),
        (list, [[]]),
        (dict, [{}]),
        (None, [None]),
    ],
    ids=["int", "float", "str", "bool", "list", "dict", "None"],
)
def test_json_field_accepts_exactly_its_kind(kind, accepted):
    for value in _JSON_VALUES:
        record = {"x": value}
        if any(type(value) is type(a) and value == a for a in accepted):
            assert json_field(record, "x", (kind,)) is value
        else:
            with pytest.raises(ValueError, match=r"^x must be .*, not "):
                json_field(record, "x", (kind,))


def test_json_field_names_every_kind_it_takes():
    with pytest.raises(ValueError) as err:
        json_field({"id": 2.5}, "id", (str, int, None))
    assert str(err.value) == "id must be a string or an integer or null, not 2.5"


def test_json_field_default_stands_for_a_missing_key_only():
    assert json_field({}, "seed", (int,), 0) == 0
    assert json_field({}, "seed", (int,), None) is None
    with pytest.raises(ValueError, match="^seed is missing$"):
        json_field({}, "seed", (int,))
    with pytest.raises(ValueError, match="seed must be an integer, not None"):
        json_field({"seed": None}, "seed", (int,), 0)


@pytest.mark.parametrize("record", [[1, 2], "x", 5, None], ids=repr)
def test_json_field_refuses_a_record_that_is_not_an_object(record):
    with pytest.raises(ValueError, match="not a JSON object"):
        json_field(record, "x", (int,), 0)
