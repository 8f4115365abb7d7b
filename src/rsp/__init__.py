"""Value-guided step-level tree search for multi-step reasoning.

The package builds search trees over step-by-step solutions with a
policy/value backend behind a small interface, extracts per-step value
targets from the trees for training data, and decodes answers at
inference time with value-guided beam search or tree search.
"""

from .core import (
    Answer,
    ContractViolation,
    EngineError,
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
    normalize_answer,
)
from .datagen import (
    DatasetManifest,
    FilterLevel,
    SolutionPath,
    classify_solution,
    export_jsonl,
    filter_solutions,
    harvest_paths,
    select_for_round,
)
from .inference import (
    BeamCandidate,
    InferenceReport,
    greedy_decode,
    inference_search_config,
    majority_vote,
    mcts_decode,
    q_sweep,
    sbs_decode,
    sbs_search,
)
from .mcts import (
    EvaluationMode,
    SearchConfig,
    SearchNode,
    SearchTree,
    SnapshotError,
    build_tree,
    mc_rollout_estimate,
    q_targets,
    snapshot_to_tree,
    tree_to_snapshot,
)
from .policy import (
    PolicyValueBackend,
    Proposal,
    ProposalRequest,
    RemoteBackend,
    TransportError,
    ValuePrediction,
)
from .toyenv import Mode, ToyBackend, generate_problem, toy_corpus, toy_true_value

__all__ = [
    "Answer",
    "BeamCandidate",
    "ContractViolation",
    "DatasetManifest",
    "EngineError",
    "EvaluationMode",
    "FilterLevel",
    "InferenceReport",
    "MalformedStepError",
    "Mode",
    "PolicyValueBackend",
    "Proposal",
    "ProposalRequest",
    "ReasoningState",
    "RemoteBackend",
    "Reward",
    "SearchConfig",
    "SearchNode",
    "SearchTree",
    "SnapshotError",
    "SolutionPath",
    "Step",
    "StepKind",
    "ToyBackend",
    "TransportError",
    "ValuePrediction",
    "answers_equivalent",
    "apply_step",
    "build_tree",
    "classify_solution",
    "derive_seed",
    "export_jsonl",
    "filter_solutions",
    "generate_problem",
    "greedy_decode",
    "harvest_paths",
    "inference_search_config",
    "is_correct",
    "is_terminal",
    "majority_vote",
    "mc_rollout_estimate",
    "mcts_decode",
    "normalize_answer",
    "q_sweep",
    "q_targets",
    "sbs_decode",
    "sbs_search",
    "select_for_round",
    "snapshot_to_tree",
    "toy_corpus",
    "toy_true_value",
    "tree_to_snapshot",
]

__version__ = "0.1.0"
