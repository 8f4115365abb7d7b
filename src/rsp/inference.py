"""Value-guided decoding strategies.

All strategies return an InferenceReport. Step-level beam search keeps the
best B1 partial solutions, extending each with B2 sampled proposals and
scoring extensions with the value model. Tree decoding first builds a
search tree (model-only evaluation: no reward peeking at inference time),
then sweeps it top-down by stored edge values. ``DECODERS`` maps each
strategy name to its decoder, all called the same way; ``rsp solve`` runs
every strategy through it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import (
    DEFAULT_MAX_DEPTH,
    Answer,
    ContractViolation,
    ReasoningState,
    answers_equivalent,
    is_terminal,
)
from .mcts import (
    EvaluationMode,
    SearchConfig,
    SearchNode,
    SearchTree,
    build_tree,
    iter_nodes,
    propose_children,
    sample_path,
)
from .policy import DETERMINISTIC_TEMPERATURE, PolicyValueBackend

@dataclass(frozen=True)
class BeamCandidate:
    """A partial or finished solution plus its current value score."""

    state: ReasoningState
    score: float
    terminal: bool


@dataclass(frozen=True)
class InferenceReport:
    """What one decode decided: ``path`` is the chosen final state, out of
    ``candidates_returned`` candidates. ``tree`` is the tree a tree decode
    swept, None for the other strategies."""

    path: ReasoningState
    candidates_returned: int
    tree: SearchTree | None = field(default=None, repr=False, compare=False)

    @property
    def answer(self) -> Answer | None:
        """The path's answer, None when it did not answer."""
        return self.path.answer

    @property
    def steps_taken(self) -> int:
        return self.path.depth


def _beam(start: list, width: int, extend, score) -> tuple[list, list[list]]:
    """Keep the best ``width`` members level by level: finished members
    carry over, each unfinished one is replaced by ``extend(member)``, and
    the pool, sorted best ``score`` first (ties in pool order), is cut to
    ``width``. Stops once every member is finished or the pool is empty;
    returns the last level kept and every level kept."""
    kept, history = start, []
    while any(not member.terminal for member in kept):
        pool = []
        for member in kept:
            if member.terminal:
                pool.append(member)
            else:
                pool.extend(extend(member))
        if not pool:
            break
        pool.sort(key=lambda member: -score(member))
        kept = pool[:width]
        history.append(kept)
    return kept, history


def sbs_search(
    question: ReasoningState,
    backend: PolicyValueBackend,
    beam_width: int,
    expansion_width: int,
    max_depth: int = DEFAULT_MAX_DEPTH,
    temperature: float = 1.0,
    seed: int = 0,
) -> tuple[list[BeamCandidate], list[list[BeamCandidate]]]:
    """Step-level beam search; returns the final beam and per-step history.

    Every live candidate is extended by up to ``expansion_width`` steps
    from ``propose_children``, each extension scored by the value model
    (each distinct state once per call, from the value attached to its
    proposal when the backend attaches one); the pooled extensions (plus
    finished candidates, whose scores are frozen) are cut back to the best
    ``beam_width`` by score, ties resolved by insertion order. Stops when
    every candidate is finished, the depth budget runs out, or all live
    candidates dead-end.
    """
    if beam_width < 1 or expansion_width < 1:
        raise ContractViolation("beam_width and expansion_width must be >= 1")
    if is_terminal(question, max_depth):
        raise ContractViolation("cannot decode from a terminal state")
    rng = random.Random(seed)
    # Each distinct state is valued once per search: the starting copies of
    # the question, and candidates that sample the same step, meet equal
    # extensions.
    scores: dict[ReasoningState, float] = {}

    def extend(candidate: BeamCandidate) -> list[BeamCandidate]:
        extensions = []
        for proposal, extended, terminal in propose_children(
            candidate.state, backend, expansion_width, temperature, max_depth, rng
        ):
            score = scores.get(extended)
            if score is None:
                score = proposal.value
                if score is None:
                    score = backend.predict_value(extended).value
                scores[extended] = score
            extensions.append(BeamCandidate(extended, score, terminal))
        return extensions

    start = [BeamCandidate(state=question, score=0.0, terminal=False)] * beam_width
    return _beam(start, beam_width, extend, lambda c: c.score)


def sbs_decode(
    question: ReasoningState,
    backend: PolicyValueBackend,
    beam_width: int = 1,
    expansion_width: int = 5,
    max_depth: int = DEFAULT_MAX_DEPTH,
    temperature: float = 1.0,
    seed: int = 0,
) -> InferenceReport:
    """Step-level beam search decode; returns the top-scored candidate."""
    beam, _ = sbs_search(
        question, backend, beam_width, expansion_width, max_depth, temperature, seed
    )
    return InferenceReport(beam[0].state, len(beam))


def greedy_decode(
    question: ReasoningState,
    backend: PolicyValueBackend,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> InferenceReport:
    """Follow the backend's single most likely step until termination.

    This is beam search with one candidate and one extension, whose pool of
    one is never cut, so it sends the same proposal requests (seeds drawn
    from ``Random(0)``) and asks for no values.
    """
    if is_terminal(question, max_depth):
        raise ContractViolation("cannot decode from a terminal state")
    state = sample_path(
        question, backend, DETERMINISTIC_TEMPERATURE, max_depth, random.Random(0)
    )
    return InferenceReport(state, 1)


def q_sweep(root: SearchNode, beam_width: int) -> tuple[SearchNode, list[list[SearchNode]]]:
    """Top-down sweep of a built tree by stored edge values.

    From the current candidate set, pool every child of the unfinished
    candidates (finished ones carry forward at their stored value), rank by
    edge value with insertion-order ties, and keep the best ``beam_width``.
    Returns the final best node and the retained set per level.
    """
    if beam_width < 1:
        raise ContractViolation("beam_width must be >= 1")
    kept, history = _beam([root], beam_width, lambda n: n.children, lambda n: n.stats.q())
    return kept[0], history


def inference_search_config(**overrides) -> SearchConfig:
    """Search settings for decode-time trees: model-only evaluation and the
    lower sampling temperature used when building inference trees."""
    settings = {
        "evaluation": EvaluationMode.MODEL_ONLY,
        "temperature": DEFAULT_TEMPERATURES["mcts"],
    }
    settings.update(overrides)
    return SearchConfig(**settings)


def count_terminal_nodes(tree: SearchTree) -> int:
    return sum(1 for node in iter_nodes(tree.root) if node.terminal)


def decode_tree(tree: SearchTree, beam_width: int = 1) -> InferenceReport:
    """Sweep an already-built tree and report its best path and the tree."""
    best, _ = q_sweep(tree.root, beam_width)
    return InferenceReport(best.state, count_terminal_nodes(tree), tree)


def mcts_decode(
    question: ReasoningState,
    backend: PolicyValueBackend,
    config: SearchConfig | None = None,
    beam_width: int = 1,
    seed: int = 0,
) -> InferenceReport:
    """Build a model-only-evaluation tree, then decode it by edge values."""
    config = config or inference_search_config()
    if config.evaluation is not EvaluationMode.MODEL_ONLY:
        raise ContractViolation(
            "decode-time trees must use model-only evaluation; rewards are "
            "unobservable at inference"
        )
    tree = build_tree(question, None, backend, config, seed)
    return decode_tree(tree, beam_width)


def majority_vote(
    question: ReasoningState,
    backend: PolicyValueBackend,
    k: int = 5,
    temperature: float = 1.0,
    max_depth: int = DEFAULT_MAX_DEPTH,
    seed: int = 0,
) -> InferenceReport:
    """Sample k full paths and return the most common answer.

    Answers are grouped by equivalence; the largest group wins, with ties
    going to the group whose first member finished earliest. Paths without
    an answer do not vote.
    """
    if k < 1:
        raise ContractViolation("k must be >= 1")
    if is_terminal(question, max_depth):
        raise ContractViolation("cannot decode from a terminal state")
    rng = random.Random(seed)
    finals: list[ReasoningState] = [
        sample_path(question, backend, temperature, max_depth, rng) for _ in range(k)
    ]
    groups: list[dict] = []  # {"answer": Answer, "count": int, "first": int}
    for index, state in enumerate(finals):
        answer = state.answer
        if answer is None:
            continue
        for group in groups:
            if answers_equivalent(group["answer"], answer):
                group["count"] += 1
                break
        else:
            groups.append({"answer": answer, "count": 1, "first": index})
    if not groups:
        return InferenceReport(finals[0], k)
    winner = max(groups, key=lambda g: (g["count"], -g["first"]))
    return InferenceReport(finals[winner["first"]], k)


# Every strategy by name, each called as
# (question, backend, config, seed, beam_width, k). ``config`` gives the
# proposals per step, the depth budget and the sampling temperature; greedy
# reads only the depth budget, and mcts builds its tree under all of it.
# Each decoder raises ContractViolation on a terminal question.
DECODERS = {
    "greedy": lambda question, backend, config, seed, beam_width, k: greedy_decode(
        question, backend, config.max_depth
    ),
    "sbs": lambda question, backend, config, seed, beam_width, k: sbs_decode(
        question, backend, beam_width, config.expansion_width, config.max_depth,
        config.temperature, seed,
    ),
    "mcts": lambda question, backend, config, seed, beam_width, k: mcts_decode(
        question, backend, config, beam_width, seed
    ),
    "maj": lambda question, backend, config, seed, beam_width, k: majority_vote(
        question, backend, k, config.temperature, config.max_depth, seed
    ),
}

# The temperature each strategy samples at when none is set: decode-time
# trees sample below the 1.0 of beam search, majority vote and training-time
# trees, and greedy always takes the most likely step, whatever the setting.
DEFAULT_TEMPERATURES = {"greedy": DETERMINISTIC_TEMPERATURE, "sbs": 1.0, "mcts": 0.6, "maj": 1.0}
