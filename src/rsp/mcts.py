"""PUCT tree search over reasoning steps.

Each simulation selects a leaf by maximizing the PUCT score, expands it by
sampling candidate next steps from the backend, evaluates every new child,
and backs each child's value up its root path as a running average. Edge
values double as training targets for a value model and as the ranking key
for tree-based decoding.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from enum import Enum

from .core import (
    DEFAULT_MAX_DEPTH,
    Answer,
    ContractViolation,
    EngineError,
    ReasoningState,
    Reward,
    Step,
    apply_step,
    as_answer,
    is_terminal,
    json_field,
    log_prior,
    normalize_answer,
    path_reward,
)
from .policy import PolicyValueBackend, Proposal, ProposalRequest

SNAPSHOT_SCHEMA = "rsp-tree/1"


class SnapshotError(EngineError):
    """A tree snapshot is missing, malformed, or from another schema version."""


class EvaluationMode(Enum):
    """How a selected or newly created node is scored before backup."""

    # Terminal nodes contribute their reward, everything else the model value.
    # This is the training-time setting: verified outcomes anchor the search.
    TERMINAL_REWARD = "terminal_reward"
    # Every node is scored by the value model; used at inference time, when
    # answer correctness cannot be observed.
    MODEL_ONLY = "model_only"


@dataclass(frozen=True)
class SearchConfig:
    c_puct: float = 1.25
    n_simulations: int = 40
    expansion_width: int = 5
    max_depth: int = DEFAULT_MAX_DEPTH
    temperature: float = 1.0
    evaluation: EvaluationMode = EvaluationMode.TERMINAL_REWARD
    q_init: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.c_puct < math.inf:
            raise ContractViolation(f"c_puct must be a finite number > 0, not {self.c_puct!r}")
        if self.n_simulations < 1:
            raise ContractViolation("n_simulations must be >= 1")
        if self.expansion_width < 1:
            raise ContractViolation("expansion_width must be >= 1")
        if self.max_depth < 1:
            raise ContractViolation("max_depth must be >= 1")
        if not 0 < self.temperature < math.inf:
            raise ContractViolation(
                f"temperature must be a finite number > 0, not {self.temperature!r}"
            )
        if not math.isfinite(self.q_init):
            raise ContractViolation(f"q_init must be a finite number, not {self.q_init!r}")


@dataclass
class NodeStats:
    """Visit statistics for the edge leading into a node."""

    prior: float
    visits: int = 0
    total_value: float = 0.0
    model_value: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.prior <= 1.0:
            raise ContractViolation("prior must lie in (0, 1]")

    def q(self, q_init: float = 0.0) -> float:
        return self.total_value / self.visits if self.visits else q_init


@dataclass(eq=False)
class SearchNode:
    """One state in the tree; ``step`` is None only at the root."""

    state: ReasoningState
    stats: NodeStats
    step: Step | None = None
    children: list["SearchNode"] = field(default_factory=list)
    depth: int = 0
    terminal: bool = False
    reward: Reward | None = None
    # True once no simulation can reach an unexpanded, non-terminal leaf here:
    # the node is terminal, or every child is exhausted. A simulation updates
    # the marks from its leaf up while they change; a loaded snapshot has them
    # recomputed. build_tree stops once the root is exhausted.
    exhausted: bool = False


@dataclass(eq=False)
class SearchTree:
    root: SearchNode
    question: ReasoningState
    config: SearchConfig
    seed: int
    gold_answer: Answer | None
    simulations_run: int = 0
    total_backups: int = 0
    rng: random.Random = field(default_factory=random.Random, repr=False)


def puct_score(
    child: NodeStats, parent_visits: int, c_puct: float, q_init: float = 0.0
) -> float:
    """Exploitation (edge value) plus prior-weighted exploration bonus."""
    exploration = c_puct * child.prior * math.sqrt(parent_visits) / (1 + child.visits)
    return child.q(q_init) + exploration


def select(tree: SearchTree) -> list[SearchNode]:
    """Descend from the root by argmax PUCT; ties go to the earliest child.

    Returns the root-to-leaf path; the leaf has no children (it is either
    terminal or not yet expanded).
    """
    node = tree.root
    path = [node]
    c_puct, q_init = tree.config.c_puct, tree.config.q_init
    while node.children:
        # puct_score inlined, with its operation order, so scores match it
        # bit for bit; strict ">" keeps the earliest of equal scores.
        sqrt_n = math.sqrt(node.stats.visits)
        best, best_score = None, -math.inf
        for child in node.children:
            stats = child.stats
            visits = stats.visits
            q = stats.total_value / visits if visits else q_init
            score = q + c_puct * stats.prior * sqrt_n / (1 + visits)
            if best is None or score > best_score:
                best, best_score = child, score
        node = best
        path.append(node)
    return path


def propose_children(
    state: ReasoningState,
    backend: PolicyValueBackend,
    width: int,
    temperature: float,
    max_depth: int,
    rng: random.Random,
) -> list[tuple[Proposal, ReasoningState, bool]]:
    """Sample up to ``width`` next steps for ``state`` in one request, seeded
    from ``rng`` and asking for each child's value; returns ``(proposal,
    child state, terminal)`` for each proposal, in the backend's order."""
    seed = rng.randrange(2**63)
    request = ProposalRequest(state, width, temperature, seed, with_values=True)
    children = []
    for proposal in backend.propose_steps(request):
        child = apply_step(state, proposal.step, max_depth)
        children.append((proposal, child, is_terminal(child, max_depth)))
    return children


def expand(tree: SearchTree, leaf: SearchNode, backend: PolicyValueBackend) -> list[SearchNode]:
    """Create children for a non-terminal leaf from ``propose_children``.

    A child that answers or reaches the depth budget is terminal at creation,
    and a backend returning no proposals turns the leaf itself into a
    terminal dead end; each gets its ``path_reward`` against the tree's gold
    answer. A value the backend attaches to a proposal becomes the child's
    stored model value.
    """
    if leaf.terminal:
        raise ContractViolation("cannot expand a terminal node")
    if leaf.children:
        raise ContractViolation("node is already expanded")
    cfg = tree.config
    children = propose_children(
        leaf.state, backend, cfg.expansion_width, cfg.temperature, cfg.max_depth, tree.rng
    )
    if not children:
        leaf.terminal = True
        leaf.reward = path_reward(leaf.state, tree.gold_answer)
        return []
    for proposal, child_state, terminal in children:
        step = proposal.step
        child = SearchNode(
            state=child_state,
            stats=NodeStats(prior=step.prior, model_value=proposal.value),
            step=step,
            depth=child_state.depth,
            terminal=terminal,
            reward=path_reward(child_state, tree.gold_answer) if terminal else None,
            exhausted=terminal,
        )
        leaf.children.append(child)
    return leaf.children


def evaluate(node: SearchNode, backend: PolicyValueBackend, config: SearchConfig) -> float:
    """Score a node for backup according to the evaluation mode.

    A node's model value is asked of the backend once and stored; later
    evaluations of the same node reuse it (a value is a function of the
    state).
    """
    if config.evaluation is EvaluationMode.TERMINAL_REWARD and node.terminal:
        if node.reward is None:
            raise ContractViolation(
                "terminal node has no reward; training-mode search needs a gold answer"
            )
        return node.reward.value
    if node.stats.model_value is None:
        node.stats.model_value = backend.predict_value(node.state).value
    return node.stats.model_value


def backup(path: list[SearchNode], value: float) -> None:
    """Fold one evaluation into the running averages along a root path."""
    for node in path:
        node.stats.visits += 1
        node.stats.total_value += value


def _is_exhausted(node: SearchNode) -> bool:
    return node.terminal or (bool(node.children) and all(c.exhausted for c in node.children))


def _refresh_exhausted(path: list[SearchNode]) -> None:
    """Re-mark ``path`` from the leaf up while the marks change. Only the
    leaf's subtree changed, so nothing above an unchanged mark can change."""
    for node in reversed(path):
        exhausted = _is_exhausted(node)
        if exhausted == node.exhausted:
            return
        node.exhausted = exhausted


def run_simulation(tree: SearchTree, backend: PolicyValueBackend) -> None:
    """One select/expand/evaluate/backup cycle.

    A non-terminal leaf is expanded and every new child is evaluated and
    backed up its own path. A leaf that is terminal, or that the expansion
    turned into a dead end, is itself re-scored per the evaluation mode and
    backed up again; under model-only evaluation a revisited terminal leaf
    backs up its stored model value without asking the backend again.
    """
    path = select(tree)
    leaf = path[-1]
    revisit = leaf.terminal  # exhausted since it became terminal: no mark changes
    children = () if revisit else expand(tree, leaf, backend)
    for node in children or (leaf,):
        value = evaluate(node, backend, tree.config)
        if node is leaf:
            backup(path, value)
        else:  # the child's root path, extended in place
            path.append(node)
            backup(path, value)
            path.pop()
        tree.total_backups += 1
    if not revisit:
        _refresh_exhausted(path)
    tree.simulations_run += 1


def build_tree(
    question: ReasoningState,
    gold_answer: str | Answer | None,
    backend: PolicyValueBackend,
    config: SearchConfig | None = None,
    seed: int = 0,
) -> SearchTree:
    """Run up to n_simulations simulations from the question state.

    Stops early once every reachable leaf is terminal (the finite subtree is
    fully explored, so further simulations would only repeat backups).
    """
    config = config or SearchConfig()
    if is_terminal(question, config.max_depth):
        raise ContractViolation("cannot search from a terminal state")
    gold = None if gold_answer is None else as_answer(gold_answer)
    if config.evaluation is EvaluationMode.TERMINAL_REWARD and gold is None:
        raise ContractViolation("training-mode search requires a gold answer")
    root = SearchNode(
        state=question,
        stats=NodeStats(prior=1.0),
        depth=question.depth,
    )
    tree = SearchTree(
        root=root,
        question=question,
        config=config,
        seed=seed,
        gold_answer=gold,
        rng=random.Random(seed),
    )
    for _ in range(config.n_simulations):
        if tree.root.exhausted:
            break
        run_simulation(tree, backend)
    return tree


def sample_path(
    state: ReasoningState,
    backend: PolicyValueBackend,
    temperature: float,
    max_depth: int,
    rng: random.Random,
) -> ReasoningState:
    """Extend ``state`` one sampled step at a time, each request seeded from
    ``rng``, until the path answers, dead-ends or hits the depth budget; the
    last two leave the returned state without an answer."""
    propose, randrange = backend.propose_steps, rng.randrange
    while not is_terminal(state, max_depth):
        proposals = propose(ProposalRequest(state, 1, temperature, randrange(2**63)))
        if not proposals:
            break  # dead end: return the unanswered partial path
        state = apply_step(state, proposals[0].step, max_depth)
    return state


def mc_rollout_estimate(
    state: ReasoningState,
    gold_answer: str | Answer,
    backend: PolicyValueBackend,
    n_rollouts: int,
    seed: int = 0,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> float:
    """Average terminal reward over independent base-policy rollouts: each
    rollout samples a path at temperature 1 and scores its ``path_reward``."""
    if n_rollouts < 1:
        raise ContractViolation("n_rollouts must be >= 1")
    gold = as_answer(gold_answer)
    rng = random.Random(seed)
    total = 0.0
    for _ in range(n_rollouts):
        final = sample_path(state, backend, 1.0, max_depth, rng)
        total += path_reward(final, gold).value
    return total / n_rollouts


def iter_nodes(root: SearchNode) -> Iterator[SearchNode]:
    """Every node of the subtree under ``root``, in preorder: a node comes
    before its children, and children come in order. The walk keeps its own
    stack, so a tree of any depth is walked."""
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(node.children[::-1])
        yield node


def value_target(node: SearchNode) -> float | None:
    """The value-regression target of the edge into ``node``: a visited
    terminal's reward, or a visited non-terminal's edge average. None for an
    unvisited node or a terminal without a recorded reward."""
    if not node.stats.visits:
        return None
    if node.terminal:
        return None if node.reward is None else node.reward.value
    return node.stats.q()


def q_targets(tree: SearchTree) -> dict[SearchNode, float]:
    """The ``value_target`` of every non-root node that has one, in preorder."""
    return {
        node: target
        for node in iter_nodes(tree.root)
        if node is not tree.root and (target := value_target(node)) is not None
    }


def tree_to_snapshot(tree: SearchTree) -> dict:
    """Self-describing JSON document for a built tree (nodes in preorder).

    The document keeps only the question text of the root state, so a tree
    whose root state has steps is a ContractViolation.
    """
    if tree.root.state.steps:
        raise ContractViolation(
            f"{SNAPSHOT_SCHEMA} stores only the question, not the root's "
            f"{tree.root.state.depth} step(s); snapshot a tree built from a question"
        )
    nodes: list[dict] = []
    lineage: list[int] = []  # the ids from the root (depth 0) down to the current node
    for node in iter_nodes(tree.root):
        del lineage[node.depth :]
        lineage.append(len(nodes))
        nodes.append(
            {
                "id": lineage[-1],
                "parent_id": lineage[-2] if node.depth else None,
                "step_kind": node.step.kind.value if node.step else None,
                "step_text": node.step.text if node.step else None,
                "prior": node.stats.prior,
                "visits": node.stats.visits,
                "total_value": node.stats.total_value,
                "q": node.stats.q(tree.config.q_init) if node.stats.visits else None,
                "model_value": node.stats.model_value,
                "terminal": node.terminal,
                "reward": node.reward.value if node.reward else None,
                "depth": node.depth,
            }
        )
    return {
        "schema": SNAPSHOT_SCHEMA,
        "question_id": tree.question.question_id,
        "question_text": tree.question.question_text,
        "gold_answer": tree.gold_answer.raw if tree.gold_answer else None,
        "seed": tree.seed,
        "simulations_run": tree.simulations_run,
        "total_backups": tree.total_backups,
        "config": {**asdict(tree.config), "evaluation": tree.config.evaluation.value},
        "nodes": nodes,
    }


# The JSON kinds of a snapshot's fields, as tree_to_snapshot writes them, and
# the defaults of those that may be left out.
_DOC_FIELDS = {"question_id": (str, int), "question_text": (str,), "gold_answer": (str, None), "seed": (int,),
               "simulations_run": (int,), "total_backups": (int,), "config": (dict,), "nodes": (list,)}
_CONFIG_FIELDS = {"c_puct": (float,), "n_simulations": (int,), "expansion_width": (int,), "max_depth": (int,),
                  "temperature": (float,), "evaluation": (str,), "q_init": (float,)}
_NODE_FIELDS = {"id": (int,), "parent_id": (int, None), "step_kind": (str, None), "step_text": (str, None),
                "prior": (float,), "visits": (int,), "total_value": (float,), "q": (float, None),
                "model_value": (float, None), "terminal": (bool,), "reward": (float, None), "depth": (int,)}
_SNAPSHOT_DEFAULTS = {"gold_answer": None, "seed": 0, "simulations_run": 0, "total_backups": 0,
                      "q_init": 0.0, "step_kind": None, "model_value": None}


def _read_fields(record, table: dict) -> dict:
    return {key: json_field(record, key, kinds, _SNAPSHOT_DEFAULTS.get(key, ...)) for key, kinds in table.items()}


def snapshot_to_tree(doc) -> SearchTree:
    """Rebuild a SearchTree from a snapshot document.

    Steps are parsed from their text, so the tree harvests and filters as
    the built one did; ranking state (visits, totals, rewards, terminal
    flags, child order) is restored too, and each node's ``exhausted`` mark
    is recomputed from its children. A document that is not a JSON object,
    a field missing or not of its JSON kind (see ``_DOC_FIELDS``), a
    negative ``simulations_run`` or ``total_backups``, a second root, a
    repeated node id, a parent that is not an earlier node, a non-root node
    without a step, a root with a step kind, a ``step_kind`` other than its
    text's, negative visits, ``|total_value| > visits``, a
    ``model_value`` outside [-1, 1], a depth other than its path's step
    count (0 at the root) or a ``q`` other than ``total_value / visits``
    (null at zero visits) is a SnapshotError. So is a node that breaks the
    rules ``expand`` keeps: a node that answers or sits at the config's
    ``max_depth`` is terminal, any other terminal node is a dead end with
    no children, a non-terminal node has no reward, and a terminal node's
    reward, when one is stored, is its ``path_reward``. So, too, is any
    EngineError raised while rebuilding (a config the search refuses, a
    step text that is not a step).
    """
    try:
        schema = json_field(doc, "schema", (str,), None)
        if schema != SNAPSHOT_SCHEMA:
            raise SnapshotError(
                f"unsupported snapshot schema {schema!r}; this build reads {SNAPSHOT_SCHEMA!r}"
            )
        fields = _read_fields(doc, _DOC_FIELDS)
        for key in ("simulations_run", "total_backups"):
            if fields[key] < 0:
                raise SnapshotError(f"{key} is {fields[key]}; a count is >= 0")
        gold = None if fields["gold_answer"] is None else normalize_answer(fields["gold_answer"])
        config_fields = _read_fields(fields["config"], _CONFIG_FIELDS)
        config_fields["evaluation"] = EvaluationMode(config_fields["evaluation"])
        config = SearchConfig(**config_fields)
        question = ReasoningState(
            question_id=fields["question_id"], question_text=fields["question_text"]
        )
        by_id: dict[int, SearchNode] = {}
        root: SearchNode | None = None
        for entry in fields["nodes"]:
            entry = _read_fields(entry, _NODE_FIELDS)
            node_id, parent_id = entry["id"], entry["parent_id"]
            if node_id in by_id:
                raise SnapshotError(f"node id {node_id} appears twice")
            if parent_id is None:
                if root is not None:
                    raise SnapshotError("snapshot has a second root node")
                parent = None
            else:
                parent = by_id.get(parent_id)
                if parent is None:
                    raise SnapshotError(
                        f"node {node_id} names parent {parent_id}, "
                        "which is not an earlier node"
                    )
            visits, total_value = entry["visits"], entry["total_value"]
            if visits < 0 or abs(total_value) > visits:
                raise SnapshotError(
                    f"node {node_id} has visits {visits} and total value "
                    f"{total_value}; values lie in [-1, 1]"
                )
            if entry["model_value"] is not None and abs(entry["model_value"]) > 1.0:
                raise SnapshotError(f"node {node_id} has model value {entry['model_value']}; values lie in [-1, 1]")
            if entry["q"] != (total_value / visits if visits else None):
                raise SnapshotError(
                    f"node {node_id} has q {entry['q']}, not total value / visits"
                )
            stats = NodeStats(  # checks the prior's range before log_prior reads it
                prior=entry["prior"],
                visits=visits,
                total_value=total_value,
                model_value=entry["model_value"],
            )
            if entry["step_text"] is None:
                if parent is not None:
                    raise SnapshotError(f"non-root node {node_id} has no step")
                if entry["step_kind"] is not None:
                    raise SnapshotError(f"root node {node_id} has step kind {entry['step_kind']!r} but no step")
                step = None
                state = question
            else:
                if parent is None:
                    raise SnapshotError("non-root node without a parent")
                if parent.terminal:
                    raise SnapshotError(f"node {node_id} sits under terminal node {parent_id}")
                step = Step(entry["step_text"], log_prior(entry["prior"]))
                if entry["step_kind"] != step.kind.value:
                    raise SnapshotError(
                        f"node {node_id} has step kind {entry['step_kind']!r}, but its text is of kind {step.kind.value!r}"
                    )
                state = apply_step(parent.state, step, config.max_depth)
            if entry["depth"] != state.depth:
                raise SnapshotError(
                    f"node {node_id} has depth {entry['depth']}, but its path "
                    f"from the question has {state.depth} step(s)"
                )
            terminal, stored = entry["terminal"], entry["reward"]
            if not terminal and is_terminal(state, config.max_depth):
                where = "answers" if state.has_answer else f"is at the depth budget {config.max_depth}"
                raise SnapshotError(f"node {node_id} {where} but is not terminal")
            reward = path_reward(state, gold) if terminal else None
            if stored is not None and (reward is None or stored != reward.value):
                expected = "no reward" if reward is None else f"reward {reward.value}"
                raise SnapshotError(f"node {node_id} has reward {stored}, but its path has {expected}")
            node = SearchNode(
                state=state,
                stats=stats,
                step=step,
                depth=entry["depth"],
                terminal=terminal,
                reward=None if stored is None else reward,
            )
            by_id[node_id] = node
            if parent is None:
                root = node
            else:
                parent.children.append(node)
        if root is None:
            raise SnapshotError("snapshot has no root node")
    except SnapshotError:
        raise
    except (ValueError, OverflowError, EngineError) as exc:  # OverflowError: visits past float range
        raise SnapshotError(f"malformed snapshot: {exc}") from exc
    for node in reversed(by_id.values()):  # a document lists each child after its parent
        node.exhausted = _is_exhausted(node)
    return SearchTree(
        root=root,
        question=question,
        config=config,
        seed=fields["seed"],
        gold_answer=gold,
        simulations_run=fields["simulations_run"],
        total_backups=fields["total_backups"],
    )
