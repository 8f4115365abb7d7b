"""Finite toy environment with an exact value oracle.

Problems are small integer puzzles: starting from a known value, apply a
fixed number of additive operations (one per step), then state the result.
The first move selects a branch: exactly one "golden" first operation leads
to the target no matter how the remaining operations are ordered, while
every "trap" first operation shifts the sum permanently off target. All
later levels apply the remaining operation multiset in any order, so every
non-root subtree has a single outcome. That makes edge values exactly
enumerable while leaving a real search problem (and a greedy trap) at the
root.

The whole state graph is enumerable, so expected rewards under the base
policy can be computed by backward induction and used as a stand-in for a
trained value model.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .core import (
    Answer,
    ContractViolation,
    ReasoningState,
    Step,
    is_correct,
    log_prior,
    normalize_answer,
)
from .policy import (
    DETERMINISTIC_TEMPERATURE,
    PolicyValueBackend,
    Proposal,
    ProposalRequest,
    ValuePrediction,
)

_ERROR_OUTPUT = "NameError: name 'value' is not defined"

_OP_LABEL_RE = re.compile(r"\nApply (.+?)\.\n")
_QUESTION_ID_RE = re.compile(r'<question id="([^"]+)">')
_STEP_BLOCK_RE = re.compile(r"<step>.*?</step>", re.S)


class ActionKind(Enum):
    OP = "op"
    ANSWER = "answer"


@dataclass(frozen=True)
class ToyAction:
    """One legal move: an arithmetic operation or stating the answer."""

    label: str
    kind: ActionKind
    prob: float
    value_before: int
    value_after: int
    errored: bool = False
    answer_text: str | None = None

    @cached_property
    def proposal(self) -> Proposal:
        """The proposal of this action's rendered step; built on first read
        and shared, because a Proposal is frozen and rollouts revisit states."""
        log_prob = log_prior(self.prob)
        if self.kind is ActionKind.ANSWER:
            step = Step.answer_step(
                analysis=f"The value is now {self.value_before}.",
                answer=f" ${self.answer_text}$",
                mean_log_prob=log_prob,
            )
        else:
            delta = self.value_after - self.value_before
            expr = (
                f"value = {self.value_before} + {delta}"
                if delta >= 0
                else f"value = {self.value_before} - {-delta}"
            )
            step = Step.code_step(
                analysis=f"Apply {self.label}.",
                code=f"{expr}\nprint(value)",
                output=_ERROR_OUTPUT if self.errored else str(self.value_after),
                mean_log_prob=log_prob,
            )
        return Proposal(step=step)


class ToyProblem:
    """Base class: a finite, enumerable single-question environment.

    Subclasses implement ``actions_at(history)`` where ``history`` is the
    tuple of operation labels applied so far. Probabilities at each state
    sum to 1 and every reachable terminal states an answer. The returned
    list may be shared between callers, who must not mutate it.
    """

    id: str
    question_text: str
    gold_answer: str
    horizon: int
    greedy_trap: bool

    def __init__(self) -> None:
        self._value_memo: dict[tuple[str, ...], float] = {}
        self._sampler_memo: dict[tuple[tuple[str, ...], float], _Sampler] = {}

    def actions_at(self, history: tuple[str, ...]) -> list[ToyAction]:
        raise NotImplementedError

    @cached_property
    def gold(self) -> Answer:
        """``gold_answer`` normalized, once, when first graded against."""
        return normalize_answer(self.gold_answer)

    def sampler(self, history: tuple[str, ...], temperature: float) -> "_Sampler":
        """Proposal sampler over ``actions_at(history)`` at ``temperature``;
        memoized because rollouts revisit states."""
        key = (history, temperature)
        sampler = self._sampler_memo.get(key)
        if sampler is None:
            sampler = _Sampler(self.actions_at(history), temperature)
            self._sampler_memo[key] = sampler
        return sampler

    def step_for(self, action: ToyAction) -> Step:
        """Rendered step for an action."""
        return action.proposal.step

    def root_state(self) -> ReasoningState:
        return ReasoningState(question_id=self.id, question_text=self.question_text)


class OpChainProblem(ToyProblem):
    """Generated additive-operation puzzle with a golden/trap root split."""

    def __init__(
        self,
        problem_id: str,
        start_value: int,
        root_ops: list[tuple[str, int, float, bool]],
        golden_label: str,
        rest_ops: list[tuple[str, int, bool]],
        greedy_trap: bool,
    ) -> None:
        super().__init__()
        self._actions_memo: dict[tuple[str, ...], list[ToyAction]] = {}
        self.id = problem_id
        self.start_value = start_value
        self.root_ops = root_ops  # (label, delta, prob, errored)
        self.golden_label = golden_label
        self.rest_ops = rest_ops  # (label, delta, errored)
        self.greedy_trap = greedy_trap
        self.horizon = 1 + len(rest_ops)
        golden_delta = next(d for l, d, _, _ in root_ops if l == golden_label)
        self.target = start_value + golden_delta + sum(d for _, d, _ in rest_ops)
        self.gold_answer = str(self.target)
        ops_desc = ", ".join(f"{l}" for l, _, _ in rest_ops)
        self.question_text = (
            f'<question id="{self.id}">\n'
            f"Start with {start_value}. Choose one opening operation, then apply "
            f"each of the remaining operations ({ops_desc}) exactly once, one per "
            f"step, and state the final value.\n"
            f"</question>\n"
        )

    def actions_at(self, history: tuple[str, ...]) -> list[ToyAction]:
        actions = self._actions_memo.get(history)
        if actions is None:
            actions = self._actions_memo[history] = self._build_actions(history)
        return actions

    def _build_actions(self, history: tuple[str, ...]) -> list[ToyAction]:
        value = self.start_value
        if not history:
            return [
                ToyAction(
                    label=label,
                    kind=ActionKind.OP,
                    prob=prob,
                    value_before=value,
                    value_after=value + delta,
                    errored=errored,
                )
                for label, delta, prob, errored in self.root_ops
            ]
        first, rest_used = history[0], history[1:]
        root = {label: delta for label, delta, _, _ in self.root_ops}
        if first not in root:
            raise ContractViolation(f"{self.id}: unknown opening operation {first!r}")
        value += root[first]
        remaining = {label: (delta, errored) for label, delta, errored in self.rest_ops}
        for label in rest_used:
            if label not in remaining:
                raise ContractViolation(f"{self.id}: illegal operation {label!r}")
            value += remaining.pop(label)[0]
        if remaining:
            # After a wrong opening move any answer is wrong, so the puzzle
            # tolerates answering before the operations run out. That keeps
            # incorrect answered paths shallow enough for a small search
            # budget to harvest while never touching correct-path structure:
            # after the golden opening the only legal answer comes once
            # every operation has been applied.
            early_answer = first != self.golden_label
            weight = len(remaining) + (0.5 if early_answer else 0.0)
            prob = 1.0 / weight
            actions = [
                ToyAction(
                    label=label,
                    kind=ActionKind.OP,
                    prob=prob,
                    value_before=value,
                    value_after=value + delta,
                    errored=errored,
                )
                for label, (delta, errored) in remaining.items()
            ]
            if early_answer:
                actions.append(
                    ToyAction(
                        label="answer",
                        kind=ActionKind.ANSWER,
                        prob=0.5 / weight,
                        value_before=value,
                        value_after=value,
                        answer_text=str(value),
                    )
                )
            return actions
        return [
            ToyAction(
                label="answer",
                kind=ActionKind.ANSWER,
                prob=1.0,
                value_before=value,
                value_after=value,
                answer_text=str(value),
            )
        ]


class TableProblem(ToyProblem):
    """Hand-built environment from an explicit history -> actions table."""

    def __init__(
        self,
        problem_id: str,
        gold_answer: str,
        table: dict[tuple[str, ...], list[ToyAction]],
        question_text: str | None = None,
    ) -> None:
        super().__init__()
        self.id = problem_id
        self.gold_answer = gold_answer
        self.table = table
        self.greedy_trap = False
        self.horizon = max((len(h) for h in table), default=0) + 1
        self.question_text = question_text or (
            f'<question id="{self.id}">\nReach the value {gold_answer}.\n</question>\n'
        )

    def actions_at(self, history: tuple[str, ...]) -> list[ToyAction]:
        try:
            return self.table[history]
        except KeyError:
            raise ContractViolation(f"{self.id}: no actions for history {history!r}")


def toy_true_value(problem: ToyProblem, history: tuple[str, ...] = ()) -> float:
    """Exact expected terminal reward under the base policy, by backward
    induction over the finite state graph."""
    cached = problem._value_memo.get(history)
    if cached is not None:
        return cached
    total = 0.0
    for action in problem.actions_at(history):
        if action.kind is ActionKind.ANSWER:
            outcome = 1.0 if is_correct(action.answer_text, problem.gold) else -1.0
        else:
            outcome = toy_true_value(problem, history + (action.label,))
        total += action.prob * outcome
    problem._value_memo[history] = total
    return total


def generate_problem(problem_seed: int) -> OpChainProblem:
    """Deterministically build one puzzle from a single integer seed."""
    rng = random.Random(problem_seed)
    # Capped at 3 so a default 40-simulation tree always reaches an answer:
    # inside the winning subtree every continuation is equally good, so
    # selection spreads breadth-first and the frontier needs about
    # sum(3!/(3-k)!) ~ 16 expansions to hit the deepest answer node.
    n_rest = rng.randint(2, 3)  # operations after the opening move
    n_traps = rng.randint(2, 4)
    rest_deltas = rng.sample(range(1, 10), n_rest)
    golden_delta = rng.randint(1, 9)
    # A trap opening may answer early, so no trap delta may let any subset
    # of the remaining operations reach the target: exclude every value of
    # golden_delta + sum(subset of rest_deltas). This keeps trap subtrees
    # uniformly incorrect.
    forbidden = {
        golden_delta + sum(combo)
        for size in range(n_rest + 1)
        for combo in itertools.combinations(rest_deltas, size)
    }
    trap_deltas = rng.sample(
        [d for d in range(1, 26) if d not in forbidden], n_traps
    )
    start_value = rng.randint(1, 9)
    greedy_trap = rng.random() < 0.4

    # Trap weights sit just under the golden weight: greedy still picks the
    # golden op on non-trap puzzles, but a cold (untrained-value) search
    # spends enough visits inside trap subtrees to harvest incorrect
    # answered paths, keeping generated training data roughly balanced.
    golden_weight = 3.0 if not greedy_trap else 1.0
    weights = [golden_weight] + [
        (3.0 if greedy_trap and i == 0 else rng.uniform(1.5, 2.5))
        for i in range(n_traps)
    ]
    labels = [f"add {golden_delta} first"] + [
        f"add {d} instead" for d in trap_deltas
    ]
    deltas = [golden_delta] + trap_deltas
    errored = [rng.random() < 0.15 for _ in range(1 + n_traps)]
    total = sum(weights)
    root_ops = [
        (labels[i], deltas[i], weights[i] / total, errored[i])
        for i in range(1 + n_traps)
    ]
    order = list(range(len(root_ops)))
    rng.shuffle(order)
    root_ops = [root_ops[i] for i in order]

    rest_ops = [
        (f"add {d}", d, rng.random() < 0.15) for d in rest_deltas
    ]
    return OpChainProblem(
        problem_id=f"toy-{problem_seed:010d}",
        start_value=start_value,
        root_ops=root_ops,
        golden_label=labels[0],
        rest_ops=rest_ops,
        greedy_trap=greedy_trap,
    )


def problem_from_id(problem_id: str) -> OpChainProblem:
    """Rebuild a generated problem from its self-describing id."""
    m = isinstance(problem_id, str) and re.fullmatch(r"toy-(\d+)", problem_id)
    if not m:
        raise ContractViolation(f"not a generated toy problem id: {problem_id!r}")
    return generate_problem(int(m.group(1)))


def toy_corpus(n: int, seed: int) -> list[OpChainProblem]:
    """Deterministic corpus of ``n`` problems; always contains at least one
    problem whose highest-probability (greedy) path is incorrect."""
    if n < 1:
        raise ContractViolation(f"a toy corpus needs at least one problem, not {n}")
    rng = random.Random(seed)
    problems: list[OpChainProblem] = []
    ids: set[str] = set()
    while len(problems) < n:
        problem = generate_problem(rng.randrange(2**31))
        if problem.id in ids:
            continue
        ids.add(problem.id)
        problems.append(problem)
    while not any(p.greedy_trap for p in problems):
        problem = generate_problem(rng.randrange(2**31))
        if problem.greedy_trap:
            problems[-1] = problem
    return problems


def corpus_to_records(problems: list[ToyProblem]) -> list[dict]:
    return [
        {"id": p.id, "question": p.question_text, "gold_answer": p.gold_answer}
        for p in problems
    ]


class Mode(Enum):
    COLD = "cold"      # value model before any training: predicts 0
    ORACLE = "oracle"  # exact expected reward, a perfectly trained model


_COLD_VALUE = ValuePrediction(value=0.0)  # frozen, so every cold prediction shares it


@dataclass
class ToyBackend(PolicyValueBackend):
    """Policy/value provider over toy problems.

    The proposal distribution applies temperature to the per-state action
    table (p ** (1/t), renormalized) and samples without replacement, so a
    request for n >= branching distinct steps returns every legal move.
    Referentially transparent given (state, seed). Safe for concurrent use:
    every cache (the problem map, each problem's action lists, samplers and
    exact values, and the step-text-to-label memo) is a dictionary whose
    entries are computed from their key alone and never mutated after
    insertion, so racing threads at worst compute an entry twice and store
    equal values, as they may each problem's normalized gold answer and
    each action's proposal. A sampler's picks are a pure function of the
    request, so it holds no generator state to share.
    """

    problems: dict[str, ToyProblem] = field(default_factory=dict)
    mode: Mode = Mode.COLD
    # step text -> operation label, for code steps seen by decode_state
    _labels: dict[str, str] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def for_corpus(cls, corpus: list[ToyProblem], mode: Mode = Mode.COLD) -> "ToyBackend":
        return cls(problems={p.id: p for p in corpus}, mode=mode)

    def problem_for(self, question_id: str) -> ToyProblem:
        problem = self.problems.get(question_id)
        if problem is None:
            problem = problem_from_id(question_id)
            self.problems[question_id] = problem
        return problem

    def decode_state(self, state: ReasoningState) -> tuple[ToyProblem, tuple[str, ...], Answer | None]:
        """Map a state to (problem, op-label history, answer or None)."""
        problem = self.problem_for(state.question_id)
        steps = state.steps
        # Only the last step can answer, and a code step's answer is None.
        answered = steps[-1].answer if steps else None
        known = self._labels
        labels = []
        for step in steps[:-1] if answered else steps:
            label = known.get(step.text)
            if label is None:
                m = _OP_LABEL_RE.search(step.text)
                if not m:
                    raise ContractViolation("step text does not name an operation")
                label = known[step.text] = m.group(1)
            labels.append(label)
        return problem, tuple(labels), answered

    def propose_steps(self, request: ProposalRequest) -> list[Proposal]:
        problem, history, answered = self.decode_state(request.state)
        if answered is not None:
            raise ContractViolation("cannot propose steps for an answered state")
        chosen = problem.sampler(history, request.temperature).sample(
            request.n_samples, request.seed
        )
        return [action.proposal for action in chosen]

    def predict_value(self, state: ReasoningState) -> ValuePrediction:
        if self.mode is Mode.COLD:
            return _COLD_VALUE
        return ValuePrediction(value=self.true_value(state))

    def true_value(self, state: ReasoningState) -> float:
        """Exact expected reward of a state, independent of ``mode``."""
        problem, history, answered = self.decode_state(state)
        if answered is not None:
            return 1.0 if is_correct(answered, problem.gold) else -1.0
        return toy_true_value(problem, history)


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment
_MASK64 = (1 << 64) - 1
_UNIT = 2.0**-53


def _splitmix_uniform(state: int) -> float:
    """SplitMix64's output for ``state`` (taken mod 2**64), as a float in
    [0, 1) from its top 53 bits."""
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return ((z ^ (z >> 31)) >> 11) * _UNIT


class _Sampler:
    """Draws up to n distinct actions from one action table at one
    temperature, without replacement.

    The weights, their total and their running sums are computed once. Draw
    i of a request is SplitMix64's output i from the seed taken mod 2**64
    (64 bits of OS entropy when the seed is None), so the picks are a pure
    function of (actions, temperature, n, seed), whatever other calls or
    threads do. The last action left is taken without a draw, which could
    pick nothing else.
    """

    def __init__(self, actions: list[ToyAction], temperature: float) -> None:
        self.actions = actions
        self.deterministic = temperature <= DETERMINISTIC_TEMPERATURE
        if self.deterministic:
            ranked = sorted(range(len(actions)), key=lambda i: (-actions[i].prob, i))
            self.ranked = [actions[i] for i in ranked]
            return
        # Temperature-adjusted weights computed in log space for small t.
        logs = [math.log(a.prob) / temperature for a in actions]
        peak = max(logs, default=0.0)  # no actions: a dead end, see sample()
        self.weights = [math.exp(l - peak) for l in logs]
        self.total = sum(self.weights)
        self.cumulative: list[float] = []
        acc = 0.0
        for weight in self.weights:
            acc += weight
            self.cumulative.append(acc)

    def sample(self, n: int, seed: int | None) -> list[ToyAction]:
        actions = self.actions
        if self.deterministic:
            return self.ranked[:n]
        if len(actions) <= 1:
            return actions[:n]  # the only legal move or none, whatever the draw
        if seed is None:
            seed = int.from_bytes(os.urandom(8), "little")
        if n == 1:
            # First running sum above the mark; the last action when rounding
            # leaves the mark at or above every sum.
            chosen = bisect_right(self.cumulative, _splitmix_uniform(seed + _GAMMA) * self.total)
            return [actions[min(chosen, len(actions) - 1)]]
        weights = self.weights
        picked: list[ToyAction] = []
        alive = list(range(len(actions)))
        state = seed
        for _ in range(min(n, len(actions))):
            if len(alive) == 1:  # the last action left, whatever its mark: no draw
                picked.append(actions[alive[0]])
                break
            total = sum(weights[i] for i in alive)
            state += _GAMMA
            mark = _splitmix_uniform(state) * total
            acc = 0.0
            chosen = alive[-1]
            for i in alive:
                acc += weights[i]
                if mark < acc:
                    chosen = i
                    break
            picked.append(actions[chosen])
            alive.remove(chosen)
        return picked


def toy_state_decoder(backend: ToyBackend):
    """Decoder mapping rendered state text back to a ReasoningState.

    Used to serve a toy backend over the wire protocol: the question id is
    embedded in the question tag, and each step is parsed from its block,
    so its kind, answer and code fields are the toy's own. Generation
    log-probs are not in the text, and the toy backend does not read them.
    """

    # Step text -> its parsed Step, growing with the distinct steps served,
    # as the backend's label memo does. It pays only because served states
    # repeat their blocks: each state carries every step of the path to it,
    # and searches ask about states that share those paths. On perfbench's
    # solve-wire (seed 1), 93.5% of the blocks decoded in the first 500
    # decodes had been decoded before, and 98.9% over 4,500.
    parsed: dict[str, Step] = {}

    def decode(rendered: str) -> ReasoningState:
        m = _QUESTION_ID_RE.search(rendered)
        if not m:
            raise ContractViolation("rendered state lacks a question id")
        problem = backend.problem_for(m.group(1))
        steps = []
        for block in _STEP_BLOCK_RE.findall(rendered):
            step = parsed.get(block)
            if step is None:
                step = parsed[block] = Step(block)
            steps.append(step)
        return ReasoningState(
            question_id=problem.id, question_text=problem.question_text, steps=tuple(steps)
        )

    return decode
