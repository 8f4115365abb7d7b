"""Training-data extraction from built search trees.

Each answered terminal node of a tree yields one solution path whose
per-step regression targets are the running-average edge values, with the
terminal step anchored to its verified reward. Paths are deduplicated,
quality-filtered, and subsampled into a balanced round of value-model
training examples.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Sequence

from .core import (
    Answer,
    ContractViolation,
    Step,
    is_correct,
)
from .mcts import SearchNode, SearchTree, iter_nodes, value_target


class FilterLevel(Enum):
    # Correct paths, best first: a code output that already states the final
    # answer beats merely error-free code, which beats the rest.
    LEVEL1 = "level1"
    LEVEL2 = "level2"
    LEVEL3 = "level3"
    INCORRECT = "incorrect"
    # Every code-bearing step failed to execute; the stated answer cannot
    # have come from the computation, so the path is dropped entirely.
    REJECTED = "rejected"


@dataclass(frozen=True)
class SolutionPath:
    """One root-to-terminal path with training labels.

    ``per_step_targets`` aligns with ``steps``; inference paths that carry
    no targets leave it None.
    """

    question_id: str
    question_text: str
    steps: tuple[Step, ...]
    predicted_answer: Answer | None
    correct: bool | None = None
    filter_level: FilterLevel | None = None
    per_step_targets: tuple[float, ...] | None = None
    tree_id: int | None = None
    seed: int | None = None
    path_index: int | None = None

    def solution_text(self) -> str:
        """Rendered steps only; the dedup key across trees."""
        return "".join(step.text for step in self.steps)


def harvest_paths(trees: Sequence[SearchTree]) -> list[SolutionPath]:
    """One SolutionPath per visited, answered terminal node of each tree, in
    preorder, labeled correct when its node's reward (``path_reward``) is +1.

    Each step's target is its node's ``value_target``; a step without one
    (an answered node without a reward, say) is a ContractViolation.
    Terminal nodes that never answered (depth cutoffs, dead ends) carry no
    predicted answer and are not harvested.
    """
    paths: list[SolutionPath] = []
    for tree_id, tree in enumerate(trees):
        if tree.gold_answer is None:
            raise ContractViolation("cannot harvest a tree built without a gold answer")
        index = 0
        lineage: list[SearchNode] = []  # the nodes from the root down to the current one
        for node in iter_nodes(tree.root):
            del lineage[node.depth - tree.root.depth :]
            lineage.append(node)
            if (
                node.terminal
                and node.stats.visits > 0
                and node.state.has_answer
            ):
                targets = tuple(map(value_target, lineage[1:]))
                if None in targets:
                    depth = lineage[1 + targets.index(None)].depth
                    raise ContractViolation(f"the node at depth {depth} on an answered path has no value target")
                steps = tuple(n.step for n in lineage if n.step is not None)
                predicted = steps[-1].answer
                paths.append(
                    SolutionPath(
                        question_id=tree.question.question_id,
                        question_text=tree.question.question_text,
                        steps=steps,
                        predicted_answer=predicted,
                        correct=node.reward.value > 0,
                        per_step_targets=targets,
                        tree_id=tree_id,
                        seed=tree.seed,
                        path_index=index,
                    )
                )
                index += 1
    return paths


def classify_solution(path: SolutionPath) -> FilterLevel:
    """Quality label for a single deduplicated path."""
    if path.correct is None:
        raise ContractViolation("cannot classify an unlabeled path")
    code_steps = [s for s in path.steps if s.contains_code]
    if code_steps and all(s.code_errored for s in code_steps):
        return FilterLevel.REJECTED
    if not path.correct:
        return FilterLevel.INCORRECT
    if path.predicted_answer is not None and any(
        is_correct(s.code_output, path.predicted_answer) for s in path.steps
    ):
        return FilterLevel.LEVEL1
    if not any(s.code_errored for s in path.steps):
        return FilterLevel.LEVEL2
    return FilterLevel.LEVEL3


def filter_solutions(paths: Sequence[SolutionPath]) -> list[SolutionPath]:
    """Deduplicate by full rendered text, drop all-code-error paths, and
    attach a quality level to every survivor. Incorrect paths pass through
    unmodified apart from their label."""
    seen: set[str] = set()
    survivors: list[SolutionPath] = []
    for path in paths:
        text = path.solution_text()
        if text in seen:
            continue
        seen.add(text)
        level = classify_solution(path)
        if level is FilterLevel.REJECTED:
            continue
        survivors.append(replace(path, filter_level=level))
    return survivors


_POSITIVE_PRIORITY = (FilterLevel.LEVEL1, FilterLevel.LEVEL2, FilterLevel.LEVEL3)


def select_for_round(
    paths: Sequence[SolutionPath], max_pos: int, max_neg: int, seed: int = 0
) -> list[SolutionPath]:
    """Pick up to max_pos correct paths (best level first, uniformly within
    a level) and up to max_neg incorrect paths, uniformly."""
    if max_pos < 0 or max_neg < 0:
        raise ContractViolation("selection caps must be >= 0")
    rng = random.Random(seed)
    chosen: list[SolutionPath] = []
    for level in _POSITIVE_PRIORITY:
        room = max_pos - len(chosen)
        if room <= 0:
            break
        group = [p for p in paths if p.filter_level is level]
        chosen.extend(group if len(group) <= room else rng.sample(group, room))
    negatives = [p for p in paths if p.filter_level is FilterLevel.INCORRECT]
    if len(negatives) > max_neg:
        negatives = rng.sample(negatives, max_neg)
    return chosen + negatives


@dataclass(frozen=True)
class DatasetManifest:
    round: int
    trees_per_question: int
    max_pos: int
    max_neg: int
    records: int
    pos_neg_ratio: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def build_manifest(
    paths: Sequence[SolutionPath],
    round_index: int,
    trees_per_question: int,
    max_pos: int,
    max_neg: int,
) -> DatasetManifest:
    positives = sum(1 for p in paths if p.correct)
    negatives = sum(1 for p in paths if p.correct is False)
    ratio = positives / negatives if negatives else None
    return DatasetManifest(
        round=round_index,
        trees_per_question=trees_per_question,
        max_pos=max_pos,
        max_neg=max_neg,
        records=len(paths),
        pos_neg_ratio=ratio,
    )


def manifest_path_for(out_path: Path) -> Path:
    return out_path.with_suffix(".manifest.json")


def export_jsonl(
    paths: Sequence[SolutionPath], out_path: Path | str, manifest: DatasetManifest
) -> tuple[Path, Path]:
    """Write one JSON object per path plus a manifest alongside.

    Records are ordered by (question_id, tree_id, path index), integer ids
    before string ids, so identical inputs produce byte-identical files.
    """
    out_path = Path(out_path)
    ordered = sorted(
        paths,
        key=lambda p: (
            isinstance(p.question_id, str), p.question_id, p.tree_id or 0, p.path_index or 0
        ),
    )
    lines = []
    for path in ordered:
        if path.per_step_targets is None or len(path.per_step_targets) != len(path.steps):
            raise ContractViolation("export requires aligned per-step targets")
        if path.correct is None or path.filter_level is None:
            raise ContractViolation("export requires labeled, filtered paths")
        record = {
            "question_id": path.question_id,
            "question": path.question_text,
            "steps": [
                {"text": step.text, "target_value": target}
                for step, target in zip(path.steps, path.per_step_targets)
            ],
            "label": "correct" if path.correct else "incorrect",
            "filter_level": path.filter_level.value,
            "tree_id": path.tree_id,
            "seed": path.seed,
        }
        lines.append(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
    out_path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    manifest_path = manifest_path_for(out_path)
    manifest_path.write_text(
        json.dumps(manifest.to_dict(), indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )
    return out_path, manifest_path
