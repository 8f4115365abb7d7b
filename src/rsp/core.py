"""Domain types shared by every other module.

A reasoning attempt is a question followed by a sequence of rendered steps.
A step is its text and its generation log-probability. Its text is either a
code step (analysis + code + execution output) or an answer step (analysis +
final answer), and one reader of its final block tells which, and reads the
answer. States are immutable; the transition is plain text concatenation.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction


class EngineError(Exception):
    """Base class for errors raised by this package."""


class ContractViolation(EngineError):
    """A caller or a backend broke a documented precondition."""


class MalformedStepError(EngineError):
    """A step text that cannot be read one way."""


STEP_OPEN = "<step>"
STEP_CLOSE = "</step>"
FINAL_ANSWER_MARKER = "Final Answer:"

# Forced-termination depth when the caller supplies no explicit budget.
DEFAULT_MAX_DEPTH = 8


class StepKind(Enum):
    CODE = "c"
    ANSWER = "a"


_ANSWER = StepKind.ANSWER  # read per rollout step: 7 ns against 100 ns for the member


def render_code_step(analysis: str, code: str, output: str) -> str:
    """Render a code step in the canonical XML block layout."""
    return (
        f"{STEP_OPEN}\n<p>\n{analysis}\n</p>\n"
        f"<code>\n{code}\n</code>\n"
        f"<p>\n{output}\n</p>\n{STEP_CLOSE}"
    )


def render_answer_step(analysis: str, answer: str) -> str:
    """Render an answer step; ``answer`` is placed verbatim after the marker."""
    return (
        f"{STEP_OPEN}\n<p>\n{analysis}\n</p>\n"
        f"<p>\n{FINAL_ANSWER_MARKER}{answer}\n</p>\n{STEP_CLOSE}"
    )


# Where render_answer_step's answer block and render_code_step's output block
# open, and where both close the step.
_ANSWER_OPEN = f"\n</p>\n<p>\n{FINAL_ANSWER_MARKER}"
_OUTPUT_OPEN = "\n</code>\n<p>\n"
_BLOCK_CLOSE = f"\n</p>\n{STEP_CLOSE}"
_CODE_OUTPUT_RE = re.compile(f"{re.escape(_OUTPUT_OPEN)}(.*){re.escape(_BLOCK_CLOSE)}\\Z", re.S)
_EXCEPTION_LINE_RE = re.compile(r"[\w.]*(?:Error|Exception)(?::|\Z)")


def _read_final_block(text: str) -> Answer | None:
    """The answer of an answer step's text, None for a code step's.

    A text is an answer step when it holds the answer block's opening; its
    answer is all from there to the closing. A text with two output
    openings, or with an answer opening twice, beside an output opening or
    not closed as a block, could be read two ways: MalformedStepError.
    """
    if text.count(_OUTPUT_OPEN) > 1:
        raise MalformedStepError("step text holds two code output blocks")
    if _ANSWER_OPEN not in text:
        return None
    start = text.find(_ANSWER_OPEN) + len(_ANSWER_OPEN)
    if _OUTPUT_OPEN in text or _ANSWER_OPEN in text[start:] or not text.endswith(_BLOCK_CLOSE):
        raise MalformedStepError("step text holds an answer block that is not its one final block")
    return normalize_answer(text[start : -len(_BLOCK_CLOSE)])


@dataclass(frozen=True)
class Step:
    """One rendered reasoning step plus its generation log-probability.

    ``mean_log_prob`` is the mean per-token log-probability the generator
    assigned to the step text; it must be <= 0 so that the derived prior
    exp(mean_log_prob) lands in (0, 1].

    The rest is derived from the text, which is the whole step: ``kind`` and
    ``answer`` (an answer step's final answer, None for a code step) at
    construction, and ``contains_code``, ``code_output`` and
    ``code_errored`` on first read. A text with ``<step>`` anywhere but at
    its start or ``</step>`` anywhere but at its end is a ContractViolation,
    and one that cannot be read one way a MalformedStepError.
    """

    text: str
    mean_log_prob: float = 0.0
    kind: StepKind = field(init=False, compare=False)
    answer: Answer | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        text = self.text
        # <step> only at the start, and the first </step> found at the end
        if text.rfind(STEP_OPEN) != 0 or not 0 < text.find(STEP_CLOSE) == len(text) - len(STEP_CLOSE):
            raise ContractViolation(f"step text must be one {STEP_OPEN}...{STEP_CLOSE} block, with neither tag inside")
        if self.mean_log_prob > 0.0:
            raise ContractViolation("mean_log_prob must be <= 0")
        answer = _read_final_block(text)
        object.__setattr__(self, "kind", StepKind.CODE if answer is None else StepKind.ANSWER)
        object.__setattr__(self, "answer", answer)

    @property
    def prior(self) -> float:
        return math.exp(self.mean_log_prob)

    @cached_property
    def contains_code(self) -> bool:
        """A code step with a ``<code>`` block; an answer step never has one."""
        return self.kind is StepKind.CODE and "<code>" in self.text

    @cached_property
    def code_output(self) -> str | None:
        """The ``<p>`` block after ``</code>``, as ``render_code_step`` writes it, or None."""
        match = self.contains_code and _CODE_OUTPUT_RE.search(self.text)
        return match.group(1) if match else None

    @cached_property
    def code_errored(self) -> bool:
        """The last line of the output names an exception, as Python prints
        it: a name ending in Error or Exception, alone or before a colon."""
        last_line = (self.code_output or "").rstrip().rpartition("\n")[2]
        return bool(_EXCEPTION_LINE_RE.match(last_line))

    @classmethod
    def code_step(
        cls, analysis: str, code: str, output: str, mean_log_prob: float
    ) -> "Step":
        """A step as ``render_code_step`` writes it; ``output`` decides ``code_errored``."""
        return cls(render_code_step(analysis, code, output), mean_log_prob)

    @classmethod
    def answer_step(cls, analysis: str, answer: str, mean_log_prob: float) -> "Step":
        return cls(render_answer_step(analysis, answer), mean_log_prob)


@dataclass(frozen=True)
class ReasoningState:
    """A question plus the steps taken so far.

    At most one answer step may be present and it must be last.
    """

    question_id: str
    question_text: str
    steps: tuple[Step, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for i, step in enumerate(self.steps):
            if step.kind is StepKind.ANSWER and i != len(self.steps) - 1:
                raise ContractViolation("answer step must be the last step")

    @property
    def depth(self) -> int:
        return len(self.steps)

    @property
    def has_answer(self) -> bool:
        return bool(self.steps) and self.steps[-1].kind is _ANSWER

    @property
    def answer(self) -> Answer | None:
        """The final answer: the last step's, None when there is none."""
        return self.steps[-1].answer if self.steps else None

    def render(self) -> str:
        """Question text followed by each step's text, concatenated in order."""
        return self.question_text + "".join(step.text for step in self.steps)


@dataclass(frozen=True)
class Answer:
    """A final answer in raw and normalized form.

    ``numeric`` holds an exact rational when the normalized text parses as
    one, a float for other finite reals, and None for non-numeric answers.
    """

    raw: str
    normalized: str
    numeric: Fraction | float | None = None


@dataclass(frozen=True)
class Reward:
    """Terminal rewards are +/-1; non-terminal steps earn 0."""

    value: float

    def __post_init__(self) -> None:
        if self.value not in (-1.0, 0.0, 1.0):
            raise ContractViolation("reward must be one of -1, 0, +1")


_INTERVAL_RE = re.compile(
    r"^([\[(])\s*([^,\s][^,]*?)\s*,\s*([^,\s][^,]*?)\s*([\])])$"
)


def _strip_wrappers(text: str) -> str:
    """Strip surrounding whitespace, TeX math delimiters and trailing
    periods, in any nesting, until none is left."""
    prev = None
    while prev != text:
        prev = text
        text = text.strip().rstrip(".").strip()
        if len(text) >= 4 and text.startswith("\\(") and text.endswith("\\)"):
            text = text[2:-2]
            continue
        if len(text) >= 2 and text.startswith("$") and text.endswith("$"):
            text = text[1:-1]
    return text


# Fraction(text) builds 10**exponent, so a numeral whose exponent exceeds
# this in magnitude (Python's own limit on the digits of an integer string)
# is not numeric; it compares by its text.
_MAX_EXPONENT = 4300


def _parse_numeric(text: str) -> Fraction | float | None:
    if "_" in text:
        return None  # Fraction reads digit separators on Python 3.11, not 3.10
    _, e, exponent = text.rpartition("e")
    digits = exponent.lstrip("+-").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > _MAX_EXPONENT):
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def normalize_answer(raw: str) -> Answer:
    """Normalize an answer string for comparison.

    Strips surrounding whitespace, TeX math delimiters and trailing periods,
    lowercases the text, canonicalizes simple interval notation, and parses
    a numeric form when one exists (none for a numeral with ``_`` digit
    separators, nor past an exponent of 4,300 in magnitude). Idempotent:
    normalizing the normalized text yields the same result.
    """
    text = _strip_wrappers(raw).lower()
    interval = _INTERVAL_RE.match(text)
    if interval:
        left, lo, hi, right = interval.groups()
        text = f"{left}{lo},{hi}{right}"
        return Answer(raw=raw, normalized=text, numeric=None)
    return Answer(raw=raw, normalized=text, numeric=_parse_numeric(text))


def answers_equivalent(a: Answer, b: Answer) -> bool:
    """True when two normalized answers denote the same value.

    Numeric answers compare exactly as rationals; if either side parsed only
    as a float the comparison allows 1e-9 relative tolerance. Non-numeric
    answers compare by normalized text, so interval bracket types matter.
    """
    if a.numeric is not None and b.numeric is not None:
        if isinstance(a.numeric, Fraction) and isinstance(b.numeric, Fraction):
            return a.numeric == b.numeric
        return math.isclose(
            float(a.numeric), float(b.numeric), rel_tol=1e-9, abs_tol=1e-12
        )
    return a.normalized == b.normalized


def as_answer(value: str | Answer) -> Answer:
    """``value`` itself when it is already an Answer, else its normalized form."""
    return value if isinstance(value, Answer) else normalize_answer(value)


def is_correct(predicted: str | Answer | None, gold: str | Answer) -> bool:
    """Grade a predicted answer against the gold answer.

    Raw strings on either side are normalized first; Answers are compared
    as they are. A missing prediction (None) is never correct.
    """
    return predicted is not None and answers_equivalent(
        as_answer(predicted), as_answer(gold)
    )


def log_prior(prior: float) -> float:
    """Mean log-prob whose ``Step.prior`` is ``prior``; exactly 0 for a
    certain step, so that round trip stays at prior 1."""
    return math.log(prior) if prior < 1.0 else 0.0


def is_terminal(state: ReasoningState, max_depth: int = DEFAULT_MAX_DEPTH) -> bool:
    """A state is terminal once it answers or exhausts the depth budget."""
    steps = state.steps  # has_answer and depth, read once: every rollout step asks
    return len(steps) >= max_depth or (bool(steps) and steps[-1].kind is _ANSWER)


_WIN, _LOSS = Reward(1.0), Reward(-1.0)  # frozen, so shared: grading a path builds none


def path_reward(state: ReasoningState, gold: Answer | None) -> Reward | None:
    """The outcome reward of a finished path: +1 for an answer equivalent to
    ``gold``, -1 for any other answer and for none (a dead end or the depth
    budget), None for an answer when no gold answer is known."""
    if gold is None and state.has_answer:
        return None
    return _WIN if is_correct(state.answer, gold) else _LOSS


def apply_step(
    state: ReasoningState, step: Step, max_depth: int = DEFAULT_MAX_DEPTH
) -> ReasoningState:
    """Append one step, enforcing that the source state could still act.

    The new state skips the constructor's check that only the last step
    answers: the source state passed it, and one that answered is refused
    here, so only the appended step can answer.
    """
    steps = state.steps
    if steps and steps[-1].kind is _ANSWER:
        raise ContractViolation("cannot extend a state that already answered")
    if len(steps) >= max_depth:
        raise ContractViolation("cannot extend a state at the depth budget")
    child = object.__new__(ReasoningState)
    fields = child.__dict__
    fields["question_id"] = state.question_id
    fields["question_text"] = state.question_text
    fields["steps"] = steps + (step,)
    return child


def derive_seed(*parts: int) -> int:
    """Mix integers into a stable derived seed (FNV-1a over the parts)."""
    acc = 0xCBF29CE484222325
    for part in parts:
        for byte in int(part).to_bytes(8, "little", signed=True):
            acc ^= byte
            acc = (acc * 0x100000001B3) % (1 << 64)
    return acc


_JSON_KINDS = {int: "an integer", float: "a finite number", str: "a string",
               bool: "a boolean", list: "a list", dict: "an object", None: "null"}


def parse_json(text: str | bytes):
    """``json.loads(text)``, with JSON nested too deep to read (the decoder's
    RecursionError) a ValueError like any other malformed JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None


def json_field(record, key: str, kinds: tuple, default=...):
    """``record[key]`` if it is JSON of one of ``kinds``, or ``default`` when
    the key is missing (the default, ``...``, makes the key required). The
    kinds: ``int`` is an integer and a boolean is not one, ``float`` a finite
    number, integers included, ``None`` null, and ``str``, ``bool``,
    ``list`` and ``dict`` exactly those. Anything else, a ``record`` that is
    not an object included, is a ValueError naming the key, kinds and value."""
    if type(record) is not dict:
        raise ValueError(f"not a JSON object: {record!r:.200}")
    if key not in record:
        if default is ...:
            raise ValueError(f"{key} is missing")
        return default
    value = record[key]
    for kind in kinds:
        if kind is float:  # abs(x) <= max is false for NaN and inf, and exact for a huge integer
            if type(value) in (int, float) and abs(value) <= sys.float_info.max:
                return value
        elif value is None if kind is None else type(value) is kind:
            return value
    raise ValueError(f"{key} must be {' or '.join(_JSON_KINDS[k] for k in kinds)}, not {value!r:.200}")
