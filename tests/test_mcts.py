"""Tree-search unit tests: scoring, expansion, backup, snapshots, rollouts."""

import json
import math
import random
import sys
from collections import Counter

import pytest

from conftest import ScriptedBackend, answer_step, code_step, make_state
from rsp.core import ContractViolation, Reward, StepKind, apply_step, as_answer, derive_seed, render_answer_step
from rsp.datagen import FilterLevel, filter_solutions, harvest_paths
from rsp.inference import decode_tree, inference_search_config, q_sweep
from rsp.mcts import (
    EvaluationMode,
    NodeStats,
    SearchConfig,
    SearchNode,
    SearchTree,
    SnapshotError,
    backup,
    build_tree,
    evaluate,
    expand,
    iter_nodes,
    mc_rollout_estimate,
    puct_score,
    q_targets,
    run_simulation,
    sample_path,
    select,
    snapshot_to_tree,
    tree_to_snapshot,
)
from rsp.policy import PolicyValueBackend, Proposal, ProposalRequest, ValuePrediction, _step_from_wire
from rsp.toyenv import (
    ActionKind,
    Mode,
    TableProblem,
    ToyAction,
    ToyBackend,
    generate_problem,
    toy_corpus,
)


def fresh_tree(state=None, config=None, gold=None, seed=0):
    state = state or make_state()
    root = SearchNode(state=state, stats=NodeStats(prior=1.0), depth=state.depth)
    return SearchTree(
        root=root,
        question=state,
        config=config or SearchConfig(),
        seed=seed,
        gold_answer=gold,
        rng=random.Random(seed),
    )


def single_answer_problem(gold="7", correct=True):
    text = gold if correct else str(int(gold) + 1)
    action = ToyAction(
        label="answer",
        kind=ActionKind.ANSWER,
        prob=1.0,
        value_before=0,
        value_after=0,
        answer_text=text,
    )
    return TableProblem("tbl-1", gold, {(): [action]})


def test_puct_score_reference_point():
    child = NodeStats(prior=0.2, visits=1, total_value=0.5)
    assert puct_score(child, parent_visits=4, c_puct=1.25) == pytest.approx(
        0.75, abs=1e-6
    )


def test_puct_score_unvisited_child_under_unvisited_parent():
    child = NodeStats(prior=0.9)
    assert puct_score(child, parent_visits=0, c_puct=1.25, q_init=0.0) == 0.0


def test_puct_unvisited_child_uses_q_init():
    child = NodeStats(prior=0.5)
    score = puct_score(child, parent_visits=4, c_puct=1.0, q_init=-0.25)
    assert score == pytest.approx(-0.25 + 0.5 * 2.0, abs=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["c_puct", "q_init", "temperature"])
def test_search_config_rejects_non_finite_numbers(name, value):
    # a NaN score compares false both ways, so select would always take the
    # first child
    with pytest.raises(ContractViolation, match=name):
        SearchConfig(**{name: value})


def test_select_breaks_ties_toward_the_earlier_child():
    tree = fresh_tree()
    root = tree.root
    root.stats.visits = 2
    for text in ("first", "second"):
        child = SearchNode(
            state=apply_step(root.state, code_step(analysis=text)),
            stats=NodeStats(prior=0.5),
            step=code_step(analysis=text),
            depth=1,
        )
        root.children.append(child)
    path = select(tree)
    assert path == [root, root.children[0]]


def test_select_follows_the_puct_argmax():
    problem = generate_problem(17)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    tree = build_tree(
        problem.root_state(),
        problem.gold_answer,
        backend,
        SearchConfig(n_simulations=25),
        seed=3,
    )
    path = select(tree)
    cfg = tree.config
    for parent, chosen in zip(path, path[1:]):
        best = max(
            puct_score(c.stats, parent.stats.visits, cfg.c_puct, cfg.q_init)
            for c in parent.children
        )
        got = puct_score(chosen.stats, parent.stats.visits, cfg.c_puct, cfg.q_init)
        assert got == best
    assert not path[-1].children


def test_expand_creates_children_with_logprob_priors():
    steps = [code_step(analysis="a", mean_log_prob=-1.0), code_step(analysis="b", mean_log_prob=-2.0)]
    state = make_state()
    backend = ScriptedBackend({state.render(): steps})
    tree = fresh_tree(state, config=SearchConfig(evaluation=EvaluationMode.MODEL_ONLY))
    children = expand(tree, tree.root, backend)
    assert [c.stats.prior for c in children] == [
        pytest.approx(math.exp(-1.0)),
        pytest.approx(math.exp(-2.0)),
    ]
    assert all(c.depth == 1 and not c.terminal for c in children)


def test_expand_marks_answer_children_terminal_with_reward():
    from rsp.core import normalize_answer

    state = make_state()
    steps = [answer_step("50"), answer_step("51")]
    backend = ScriptedBackend({state.render(): steps})
    tree = fresh_tree(state, gold=normalize_answer("50"))
    right, wrong = expand(tree, tree.root, backend)
    assert right.terminal and right.reward == Reward(1.0)
    assert wrong.terminal and wrong.reward == Reward(-1.0)


def test_expand_without_gold_leaves_answer_reward_unset():
    state = make_state()
    backend = ScriptedBackend({state.render(): [answer_step("50")]})
    tree = fresh_tree(state, config=SearchConfig(evaluation=EvaluationMode.MODEL_ONLY))
    (child,) = expand(tree, tree.root, backend)
    assert child.terminal and child.reward is None


def test_expand_depth_budget_children_terminate_with_penalty():
    state = make_state()
    backend = ScriptedBackend({state.render(): [code_step()]})
    config = SearchConfig(max_depth=1, evaluation=EvaluationMode.MODEL_ONLY)
    tree = fresh_tree(state, config=config)
    (child,) = expand(tree, tree.root, backend)
    assert child.terminal and child.reward == Reward(-1.0)


def test_expand_dead_end_turns_leaf_terminal():
    state = make_state()
    backend = ScriptedBackend({})  # no proposals for any state
    tree = fresh_tree(state, config=SearchConfig(evaluation=EvaluationMode.MODEL_ONLY))
    assert expand(tree, tree.root, backend) == []
    assert tree.root.terminal and tree.root.reward == Reward(-1.0)


def test_expand_guards_against_reuse():
    state = make_state()
    backend = ScriptedBackend({state.render(): [code_step()]})
    tree = fresh_tree(state, config=SearchConfig(evaluation=EvaluationMode.MODEL_ONLY))
    expand(tree, tree.root, backend)
    with pytest.raises(ContractViolation):
        expand(tree, tree.root, backend)
    terminal = SearchNode(
        state=state, stats=NodeStats(prior=1.0), terminal=True, reward=Reward(-1.0)
    )
    with pytest.raises(ContractViolation):
        expand(tree, terminal, backend)


def test_evaluate_terminal_reward_mode_uses_rewards():
    config = SearchConfig(evaluation=EvaluationMode.TERMINAL_REWARD)
    backend = ScriptedBackend({}, values={})
    node = SearchNode(
        state=make_state(), stats=NodeStats(prior=1.0), terminal=True, reward=Reward(1.0)
    )
    assert evaluate(node, backend, config) == 1.0
    node.reward = Reward(-1.0)
    assert evaluate(node, backend, config) == -1.0
    assert backend.value_calls == []  # the model is never consulted


def test_evaluate_terminal_without_reward_is_a_contract_violation():
    config = SearchConfig(evaluation=EvaluationMode.TERMINAL_REWARD)
    node = SearchNode(state=make_state(), stats=NodeStats(prior=1.0), terminal=True)
    with pytest.raises(ContractViolation):
        evaluate(node, ScriptedBackend({}), config)


def test_evaluate_nonterminal_passes_model_value_through():
    state = make_state()
    config = SearchConfig(evaluation=EvaluationMode.TERMINAL_REWARD)
    backend = ScriptedBackend({}, values={state.render(): 0.42})
    node = SearchNode(state=state, stats=NodeStats(prior=1.0))
    assert evaluate(node, backend, config) == pytest.approx(0.42, abs=1e-6)
    assert node.stats.model_value == pytest.approx(0.42, abs=1e-6)


def test_evaluate_model_only_ignores_rewards():
    state = make_state()
    config = SearchConfig(evaluation=EvaluationMode.MODEL_ONLY)
    backend = ScriptedBackend({}, values={state.render(): 0.3})
    node = SearchNode(
        state=state, stats=NodeStats(prior=1.0), terminal=True, reward=Reward(-1.0)
    )
    assert evaluate(node, backend, config) == pytest.approx(0.3)


def test_backup_running_average_reference_point():
    root = SearchNode(state=make_state(), stats=NodeStats(prior=1.0))
    child = SearchNode(state=make_state(), stats=NodeStats(prior=0.5))
    for value in (1.0, 1.0, -1.0):
        backup([root, child], value)
    assert child.stats.visits == 3
    assert child.stats.q() == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert root.stats.q() == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_first_simulation_backs_up_every_new_child():
    state = make_state()
    steps = [code_step(analysis=f"s{i}") for i in range(3)]
    backend = ScriptedBackend({state.render(): steps})
    tree = fresh_tree(state, config=SearchConfig(evaluation=EvaluationMode.MODEL_ONLY))
    run_simulation(tree, backend)
    assert tree.simulations_run == 1
    assert tree.total_backups == 3
    assert tree.root.stats.visits == 3
    assert [c.stats.visits for c in tree.root.children] == [1, 1, 1]


def test_terminal_leaf_revisits_back_up_again():
    problem = single_answer_problem(correct=True)
    backend = ToyBackend.for_corpus([problem])
    tree = build_tree(
        problem.root_state(),
        problem.gold_answer,
        backend,
        SearchConfig(n_simulations=5),
    )
    # one expansion, then the run stops because the whole tree is terminal
    (child,) = tree.root.children
    assert child.terminal and child.reward == Reward(1.0)
    assert tree.simulations_run < 5
    before = child.stats.visits
    run_simulation(tree, backend)
    assert child.stats.visits == before + 1
    assert child.stats.q() == 1.0


def test_model_only_search_values_each_state_once():
    # question -> {answer (0.5), code step (0.25)}; the code step dead-ends.
    # Selection keeps landing on the answer leaf, and once on the dead end:
    # both back up their stored value instead of asking the backend again.
    state = make_state()
    answer, dead_end = answer_step(), code_step()
    answered = apply_step(state, answer)
    stuck = apply_step(state, dead_end)
    backend = ScriptedBackend(
        {state.render(): [answer, dead_end]},
        values={answered.render(): 0.5, stuck.render(): 0.25},
    )
    config = SearchConfig(n_simulations=6, evaluation=EvaluationMode.MODEL_ONLY)
    tree = build_tree(state, None, backend, config)
    leaf, stuck_node = tree.root.children
    assert leaf.terminal and stuck_node.terminal  # the dead end became terminal
    assert leaf.stats.visits >= 2 and stuck_node.stats.visits == 2
    assert sorted(backend.value_calls) == sorted({answered.render(), stuck.render()})
    assert leaf.stats.total_value == 0.5 * leaf.stats.visits
    assert stuck_node.stats.total_value == 0.25 * 2
    assert tree.total_backups > len(backend.value_calls)


def _branching_script(depth=3, width=3):
    """Every state below ``depth`` offers ``width`` code steps (the last an
    answer at the bottom), each child with its own value."""
    proposals, values = {}, {}
    frontier = [make_state()]
    for level in range(depth):
        next_frontier = []
        for state in frontier:
            steps = [
                answer_step(str(i)) if level == depth - 1 and i == width - 1
                else code_step(analysis=f"d{level} s{i}", output=str(i))
                for i in range(width)
            ]
            proposals[state.render()] = steps
            for i, step in enumerate(steps):
                child = apply_step(state, step)
                values[child.render()] = round(math.sin(len(values) + 1), 3)
                if step.kind is StepKind.CODE:
                    next_frontier.append(child)
        frontier = next_frontier
    return proposals, values


@pytest.mark.parametrize("evaluation", list(EvaluationMode))
def test_attached_values_build_the_same_tree_without_value_calls(evaluation):
    proposals, values = _branching_script()
    config = SearchConfig(n_simulations=12, expansion_width=3, evaluation=evaluation)
    gold = "2" if evaluation is EvaluationMode.TERMINAL_REWARD else None
    asking = ScriptedBackend(proposals, values)
    attaching = ScriptedBackend(proposals, values, attach_values=True)
    asked = build_tree(make_state(), gold, asking, config, seed=3)
    attached = build_tree(make_state(), gold, attaching, config, seed=3)
    assert asking.value_calls  # the same search without attached values asks
    assert attaching.value_calls == []
    assert attaching.propose_calls == asking.propose_calls
    asked_nodes = tree_to_snapshot(asked)["nodes"]
    attached_nodes = tree_to_snapshot(attached)["nodes"]
    assert len(attached_nodes) == len(asked_nodes)
    for a, b in zip(asked_nodes, attached_nodes):
        # a training-mode search stores the values attached to terminal
        # children too, where the asking search never asked
        if a["model_value"] is None:
            b = {**b, "model_value": None}
        assert b == a


def test_expand_asks_for_values_and_stores_them():
    state = make_state()
    steps = [code_step(analysis="a"), answer_step("1")]
    values = {apply_step(state, s).render(): v for s, v in zip(steps, (0.5, -0.25))}
    backend = ScriptedBackend({state.render(): steps}, values, attach_values=True)
    tree = fresh_tree(state, SearchConfig(evaluation=EvaluationMode.MODEL_ONLY))
    children = expand(tree, tree.root, backend)
    assert [c.stats.model_value for c in children] == [0.5, -0.25]
    assert backend.value_calls == []


def test_single_path_root_edge_converges_to_plus_one():
    problem = single_answer_problem(correct=True)
    backend = ToyBackend.for_corpus([problem])
    tree = build_tree(problem.root_state(), problem.gold_answer, backend)
    assert tree.root.children[0].stats.q() == 1.0
    assert tree.root.stats.q() == 1.0


def test_build_tree_is_deterministic_per_seed():
    problem = generate_problem(33)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    config = SearchConfig(n_simulations=30)
    snap_a = tree_to_snapshot(
        build_tree(problem.root_state(), problem.gold_answer, backend, config, seed=7)
    )
    snap_b = tree_to_snapshot(
        build_tree(problem.root_state(), problem.gold_answer, backend, config, seed=7)
    )
    assert snap_a == snap_b


def test_build_tree_stops_early_once_exhausted():
    problem = single_answer_problem()
    backend = ToyBackend.for_corpus([problem])
    tree = build_tree(
        problem.root_state(), problem.gold_answer, backend, SearchConfig(n_simulations=500)
    )
    assert tree.root.exhausted
    assert tree.simulations_run == 1
    assert tree.simulations_run <= tree.config.n_simulations


def test_build_tree_guards():
    problem = generate_problem(1)
    backend = ToyBackend.for_corpus([problem])
    answered = make_state(steps=(answer_step(),))
    with pytest.raises(ContractViolation):
        build_tree(answered, "42", backend)
    with pytest.raises(ContractViolation):
        build_tree(problem.root_state(), None, backend)  # training needs a gold


def test_model_only_build_needs_no_gold():
    problem = generate_problem(1)
    backend = ToyBackend.for_corpus([problem])
    config = SearchConfig(n_simulations=10, evaluation=EvaluationMode.MODEL_ONLY)
    tree = build_tree(problem.root_state(), None, backend, config)
    assert tree.simulations_run >= 1


def test_visit_counts_conserve_across_a_build():
    rng = random.Random(123)
    for _ in range(5):
        problem = generate_problem(rng.randrange(2**31))
        backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
        tree = build_tree(
            problem.root_state(),
            problem.gold_answer,
            backend,
            SearchConfig(n_simulations=40),
            seed=rng.randrange(2**31),
        )
        assert tree.root.stats.visits == tree.total_backups
        stack = [tree.root]
        while stack:
            node = stack.pop()
            stack.extend(node.children)
            if node.terminal:
                assert not node.children
                assert node.stats.visits >= 1
            elif node.children and node is not tree.root:
                assert node.stats.visits == 1 + sum(
                    c.stats.visits for c in node.children
                )


def _reference_simulation(tree, backend):
    """The simulation loop as first written, the reference for
    ``run_simulation``: each new child is backed up along a fresh
    ``path + [child]``, and the whole path is re-marked every simulation."""
    path = select(tree)
    leaf = path[-1]
    children = () if leaf.terminal else expand(tree, leaf, backend)
    for node in children or (leaf,):
        scored = path if node is leaf else path + [node]
        backup(scored, evaluate(node, backend, tree.config))
        tree.total_backups += 1
    for node in reversed(path):
        node.exhausted = node.terminal or (
            bool(node.children) and all(c.exhausted for c in node.children)
        )
    tree.simulations_run += 1


def _marks(tree):
    return [node.exhausted for node in iter_nodes(tree.root)]


def _run_in_lock_step(make_backend, state, gold, config, seed):
    """Run ``run_simulation`` and the reference loop on twin trees, as
    ``build_tree`` would, checking after every simulation that both trees
    snapshot alike and carry the same marks; returns the engine's tree,
    checked against ``build_tree``'s."""
    gold = None if gold is None else as_answer(gold)
    engine, reference = (fresh_tree(state, config, gold, seed) for _ in range(2))
    engine_backend, reference_backend = make_backend(), make_backend()
    for _ in range(config.n_simulations):
        if engine.root.exhausted:
            break
        run_simulation(engine, engine_backend)
        _reference_simulation(reference, reference_backend)
        assert tree_to_snapshot(engine) == tree_to_snapshot(reference)
        assert _marks(engine) == _marks(reference)
    assert reference.root.exhausted == engine.root.exhausted
    built = build_tree(state, gold, make_backend(), config, seed)
    assert tree_to_snapshot(built) == tree_to_snapshot(engine)
    assert _marks(built) == _marks(engine)
    return engine


@pytest.mark.parametrize("max_depth", [6, 8])
@pytest.mark.parametrize("width", [2, 3, 5])
@pytest.mark.parametrize("evaluation", list(EvaluationMode))
@pytest.mark.parametrize("mode", list(Mode))
def test_simulations_match_the_reference_loop(mode, evaluation, width, max_depth):
    rng = random.Random(derive_seed(width, max_depth, len(mode.value), len(evaluation.value)))
    config = SearchConfig(n_simulations=40, expansion_width=width, max_depth=max_depth, evaluation=evaluation)
    for _ in range(3):
        problem = generate_problem(rng.randrange(2**31))
        gold = problem.gold_answer if evaluation is EvaluationMode.TERMINAL_REWARD else None
        _run_in_lock_step(
            lambda: ToyBackend.for_corpus([problem], mode=mode),
            problem.root_state(), gold, config, rng.randrange(2**31),
        )


@pytest.mark.parametrize("evaluation", list(EvaluationMode))
def test_dead_ends_below_the_root_exhaust_it_as_the_reference_loop_does(evaluation):
    # root -> a (-> a1, a dead end at depth 2; a2 answers) and b -> b1 -> b2,
    # a dead end at depth 3: the search runs out of leaves in a few simulations
    root = make_state()
    a, b = code_step(analysis="a"), code_step(analysis="b")
    a1, a2 = code_step(analysis="a1"), answer_step("7")
    b1, b2 = code_step(analysis="b1"), code_step(analysis="b2")
    state_a, state_b = apply_step(root, a), apply_step(root, b)
    state_b1 = apply_step(state_b, b1)
    proposals = {
        root.render(): [a, b],
        state_a.render(): [a1, a2],
        state_b.render(): [b1],
        state_b1.render(): [b2],
    }
    values = {state_a.render(): 0.25, state_b.render(): -0.5, apply_step(state_a, a2).render(): 0.5}
    config = SearchConfig(n_simulations=40, expansion_width=2, evaluation=evaluation)
    tree = _run_in_lock_step(lambda: ScriptedBackend(proposals, values), root, "7", config, 5)
    assert tree.root.exhausted and tree.simulations_run < config.n_simulations
    dead_ends = [n for n in iter_nodes(tree.root) if n.terminal and not n.state.has_answer]
    assert sorted(n.depth for n in dead_ends) == [2, 3]


def test_mc_rollout_all_paths_correct_returns_one():
    problem = single_answer_problem(correct=True)
    backend = ToyBackend.for_corpus([problem])
    value = mc_rollout_estimate(
        problem.root_state(), problem.gold_answer, backend, n_rollouts=32
    )
    assert value == 1.0


def test_mc_rollout_fifty_fifty_converges_to_zero():
    actions = [
        ToyAction(
            label=f"a{i}", kind=ActionKind.ANSWER, prob=0.5,
            value_before=0, value_after=0, answer_text=text,
        )
        for i, text in enumerate(["7", "8"])
    ]
    problem = TableProblem("tbl-1", "7", {(): actions})
    backend = ToyBackend.for_corpus([problem])
    value = mc_rollout_estimate(
        problem.root_state(), problem.gold_answer, backend, n_rollouts=10_000, seed=1
    )
    assert abs(value - 0.0) <= 0.03


def test_mc_rollout_on_answered_state_scores_immediately():
    problem = single_answer_problem(correct=True)
    backend = ToyBackend.for_corpus([problem])
    action = problem.actions_at(())[0]
    answered = apply_step(problem.root_state(), problem.step_for(action))
    assert mc_rollout_estimate(answered, problem.gold_answer, backend, 1) == 1.0
    with pytest.raises(ContractViolation):
        mc_rollout_estimate(answered, problem.gold_answer, backend, 0)


def test_sample_path_stops_at_an_answer_a_dead_end_and_the_budget():
    root = make_state()
    a, b, win = code_step(analysis="a"), code_step(analysis="b"), answer_step("7")
    q_a = apply_step(root, a)
    q_ab = apply_step(q_a, b)
    backend = ScriptedBackend({root.render(): [a], q_a.render(): [b], q_ab.render(): [win]})
    requests = []
    propose = backend.propose_steps
    backend.propose_steps = lambda request: requests.append(request) or propose(request)
    draws = random.Random(5)
    seeds = [draws.randrange(2**63) for _ in range(5)]

    rng = random.Random(5)
    answered = sample_path(root, backend, 0.7, 8, rng)
    assert answered.steps == (a, b, win)
    capped = sample_path(root, backend, 0.7, 2, rng)  # the budget: no third request
    assert capped.steps == (a, b) and not capped.has_answer
    assert [(r.state, r.n_samples, r.temperature, r.seed) for r in requests] == [
        (root, 1, 0.7, seeds[0]), (q_a, 1, 0.7, seeds[1]), (q_ab, 1, 0.7, seeds[2]),
        (root, 1, 0.7, seeds[3]), (q_a, 1, 0.7, seeds[4]),
    ]
    assert sample_path(answered, backend, 0.7, 8, rng) is answered  # terminal: no request
    assert sample_path(capped, backend, 0.7, 2, rng) is capped
    assert len(requests) == 5

    stuck = ScriptedBackend({root.render(): [a]})  # q_a has no continuation
    assert sample_path(root, stuck, 0.7, 8, rng).steps == (a,)
    assert stuck.propose_calls == [root.render(), q_a.render()]


def test_q_targets_cover_visited_nodes_only():
    problem = generate_problem(21)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    tree = build_tree(
        problem.root_state(), problem.gold_answer, backend, SearchConfig(n_simulations=30)
    )
    targets = q_targets(tree)
    assert targets  # a 30-simulation tree always visits something
    assert tree.root not in targets
    stack = list(tree.root.children)
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.stats.visits == 0:
            assert node not in targets
        elif node.terminal:
            assert targets[node] == node.reward.value
            assert targets[node] in (-1.0, 1.0)
        else:
            assert targets[node] == node.stats.q()
            assert abs(targets[node]) <= 1.0


def test_q_targets_skip_terminals_without_rewards():
    problem = generate_problem(21)
    backend = ToyBackend.for_corpus([problem])
    config = SearchConfig(n_simulations=30, evaluation=EvaluationMode.MODEL_ONLY)
    tree = build_tree(problem.root_state(), None, backend, config)
    targets = q_targets(tree)
    rewardless = [
        n
        for n in targets
        if n.terminal and n.reward is None
    ]
    assert rewardless == []


def test_snapshot_round_trip_preserves_ranking_state():
    problem = generate_problem(44)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    tree = build_tree(
        problem.root_state(), problem.gold_answer, backend, SearchConfig(n_simulations=25), seed=5
    )
    doc = tree_to_snapshot(tree)
    wire = json.loads(json.dumps(doc))
    rebuilt = snapshot_to_tree(wire)
    assert tree_to_snapshot(rebuilt) == doc
    assert rebuilt.simulations_run == tree.simulations_run
    assert rebuilt.gold_answer == tree.gold_answer


@pytest.mark.parametrize("evaluation", list(EvaluationMode))
def test_a_loaded_snapshot_carries_the_built_trees_marks(evaluation):
    rng = random.Random(61)
    trees = []
    for mode in Mode:
        for width in (2, 3, 5):
            problem = generate_problem(rng.randrange(2**31))
            config = SearchConfig(n_simulations=60, expansion_width=width, evaluation=evaluation)
            backend = ToyBackend.for_corpus([problem], mode=mode)
            trees.append(build_tree(problem.root_state(), problem.gold_answer, backend, config, seed=rng.randrange(2**31)))
    problem = single_answer_problem()
    explored = build_tree(problem.root_state(), problem.gold_answer, ToyBackend.for_corpus([problem]))
    assert explored.root.exhausted
    for tree in trees + [explored]:
        loaded = snapshot_to_tree(json.loads(json.dumps(tree_to_snapshot(tree))))
        assert _marks(loaded) == _marks(tree)
    assert any(tree.root.exhausted for tree in trees) and not all(tree.root.exhausted for tree in trees)


def test_snapshot_round_trip_keeps_filter_levels():
    # each step's code output and error flag come back from its text, so a
    # loaded tree filters as the built one did: its all-code-errored paths
    # are still rejected
    corpus = toy_corpus(40, 7)
    backend = ToyBackend.for_corpus(corpus)
    built, loaded = [], []
    for i, problem in enumerate(corpus):
        tree = build_tree(
            problem.root_state(), problem.gold_answer, backend,
            SearchConfig(n_simulations=40), seed=derive_seed(1, i),
        )
        rebuilt = snapshot_to_tree(json.loads(json.dumps(tree_to_snapshot(tree))))
        for levels, source in ((built, tree), (loaded, rebuilt)):
            levels += [(p.solution_text(), p.filter_level) for p in filter_solutions(harvest_paths([source]))]
    assert loaded == built
    assert Counter(level for _, level in built) == {
        FilterLevel.LEVEL1: 62, FilterLevel.LEVEL3: 17, FilterLevel.INCORRECT: 140
    }


class ChainBackend(PolicyValueBackend):
    """One code step per state, and an answer step at ``answer_depth``."""

    def __init__(self, answer_depth: int):
        self.answer_depth = answer_depth

    def propose_steps(self, request):
        last = request.state.depth + 1 == self.answer_depth
        return [Proposal(answer_step("7") if last else code_step())]

    def predict_value(self, state):
        return ValuePrediction(0.0)


def test_a_tree_deeper_than_the_recursion_limit_snapshots_and_harvests():
    depth = sys.getrecursionlimit() + 100
    config = SearchConfig(n_simulations=depth + 100, expansion_width=1, max_depth=2 * depth)
    tree = build_tree(make_state(), "7", ChainBackend(depth), config)
    doc = tree_to_snapshot(tree)
    assert [n["depth"] for n in doc["nodes"]] == list(range(depth + 1))
    rebuilt = snapshot_to_tree(json.loads(json.dumps(doc)))
    assert tree_to_snapshot(rebuilt) == doc
    report = decode_tree(rebuilt)
    assert report.steps_taken == depth and report.candidates_returned == 1
    [path] = harvest_paths([rebuilt])
    assert len(path.steps) == len(path.per_step_targets) == depth
    assert path.correct and path.per_step_targets[-1] == 1.0


def test_snapshot_config_keys_are_in_a_fixed_order():
    problem = generate_problem(44)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    config = SearchConfig(n_simulations=3, evaluation=EvaluationMode.MODEL_ONLY)
    tree = build_tree(problem.root_state(), None, backend, config, seed=5)
    assert list(tree_to_snapshot(tree)["config"].items()) == [
        ("c_puct", 1.25),
        ("n_simulations", 3),
        ("expansion_width", 5),
        ("max_depth", 8),
        ("temperature", 1.0),
        ("evaluation", "model_only"),
        ("q_init", 0.0),
    ]


def _sweep_trace(tree, beam_width):
    q_init = tree.config.q_init
    best, levels = q_sweep(tree.root, beam_width, q_init)

    def key(node):
        return node.state.render(), node.stats.q(q_init)

    return key(best), [[key(n) for n in level] for level in levels]


@pytest.mark.parametrize(
    "config", [SearchConfig(), inference_search_config()], ids=["training", "inference"]
)
def test_loaded_snapshot_sweeps_like_the_built_tree(config):
    # dump -> JSON -> load must keep everything q_sweep ranks by: child
    # order, visits, totals and terminal flags, at every beam width
    training = config.evaluation is EvaluationMode.TERMINAL_REWARD
    for problem in toy_corpus(6, seed=2):
        backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
        gold = problem.gold_answer if training else None
        for seed in (0, 1):
            tree = build_tree(problem.root_state(), gold, backend, config, seed=seed)
            loaded = snapshot_to_tree(json.loads(json.dumps(tree_to_snapshot(tree))))
            for beam_width in (1, 2, 3):
                assert _sweep_trace(loaded, beam_width) == _sweep_trace(tree, beam_width)


def _second_root(nodes):
    nodes.append({**nodes[0], "id": len(nodes)})


def _negative_visits(nodes):
    nodes[1].update(visits=-1, total_value=0.0, q=None)


def _total_beyond_visits(nodes):
    nodes[1]["total_value"] = nodes[1]["visits"] + 0.5


def _unknown_parent(nodes):
    # a step-less entry under a parent id that no earlier node has
    nodes.append({**nodes[0], "id": len(nodes), "parent_id": len(nodes) + 7})


# The last node in preorder is a leaf, so doctoring it leaves every other
# node loadable.


def _stepless_child(nodes):
    nodes[-1]["step_text"] = None


def _repeated_id(nodes):
    nodes[-1]["id"] = nodes[1]["id"]


def _depth_skips_a_level(nodes):
    nodes[-1]["depth"] += 1


def _depths_shifted(nodes):
    # every parent/child gap stays 1, but the root is not at depth 0
    for node in nodes:
        node["depth"] += 3


def _q_off_the_average(nodes):
    nodes[-1]["q"] += 0.125


def _q_null_after_visits(nodes):
    nodes[-1]["q"] = None


def _q_without_visits(nodes):
    nodes[-1].update(visits=0, total_value=0.0)


def _answer_leaf(node, answer, terminal, reward):
    # the tree these corrupt (gold answer 28) has no answered node, so
    # these turn its last leaf into one
    node.update(
        step_kind="a",
        step_text=render_answer_step("done", f" {answer}"),
        terminal=terminal,
        reward=reward,
    )


def _answer_not_terminal(nodes):
    _answer_leaf(nodes[-1], "28", terminal=False, reward=None)


def _answer_reward_flipped(nodes):
    _answer_leaf(nodes[-1], "28", terminal=True, reward=-1.0)


def _answer_reward_zero(nodes):
    _answer_leaf(nodes[-1], "27", terminal=True, reward=0.0)


def _child_under_a_terminal_node(nodes):
    # the last leaf's parent, which has children, stored as a dead end
    nodes[nodes[-1]["parent_id"]].update(terminal=True, reward=-1.0)


def _reward_on_a_non_terminal_node(nodes):
    nodes[-1]["reward"] = -1.0


def _dead_end_that_wins(nodes):
    nodes[-1].update(terminal=True, reward=1.0)


def _model_value_out_of_range(nodes):
    nodes[-1]["model_value"] = 5.0


def _root_with_a_step_kind(nodes):
    # the root has no step, so it has no step kind either
    nodes[0]["step_kind"] = "a"


def _code_kind_on_an_answer(nodes):
    # the kind is read from the text; the field must agree with it
    _answer_leaf(nodes[-1], "28", terminal=True, reward=1.0)
    nodes[-1]["step_kind"] = "c"


@pytest.mark.parametrize(
    "corrupt",
    [
        _second_root,
        _negative_visits,
        _total_beyond_visits,
        _unknown_parent,
        _stepless_child,
        _repeated_id,
        _depth_skips_a_level,
        _depths_shifted,
        _q_off_the_average,
        _q_null_after_visits,
        _q_without_visits,
        _answer_not_terminal,
        _answer_reward_flipped,
        _answer_reward_zero,
        _child_under_a_terminal_node,
        _reward_on_a_non_terminal_node,
        _dead_end_that_wins,
        _model_value_out_of_range,
        _root_with_a_step_kind,
        _code_kind_on_an_answer,
    ],
)
def test_snapshot_rejects_inconsistent_nodes(corrupt):
    problem = generate_problem(44)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    tree = build_tree(
        problem.root_state(), problem.gold_answer, backend, SearchConfig(n_simulations=5), seed=5
    )
    doc = json.loads(json.dumps(tree_to_snapshot(tree)))
    snapshot_to_tree(doc)  # the untouched document loads
    corrupt(doc["nodes"])
    with pytest.raises(SnapshotError):
        snapshot_to_tree(doc)


def test_an_answer_kind_on_a_text_without_an_answer_is_refused():
    # a text without an answer block is a code step, so a kind from outside
    # the text that calls it an answer is refused, over the wire and in a snapshot
    text = "<step>\n<p>\nno marker here\n</p>\n</step>"
    with pytest.raises(ContractViolation, match="kind"):
        _step_from_wire({"kind": "a", "text": text, "mean_log_prob": -0.1})
    problem = generate_problem(44)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    tree = build_tree(
        problem.root_state(), problem.gold_answer, backend, SearchConfig(n_simulations=5), seed=5
    )
    doc = json.loads(json.dumps(tree_to_snapshot(tree)))
    doc["nodes"][-1].update(step_kind="a", step_text=text)
    with pytest.raises(SnapshotError, match="step kind"):
        snapshot_to_tree(doc)


@pytest.mark.parametrize(
    "answer, reward",
    [("28", 1.0), ("28", None), ("27", -1.0), (None, -1.0), (None, None)],
    ids=["right", "right-unrewarded", "wrong", "dead-end", "dead-end-unrewarded"],
)
def test_snapshot_loads_each_terminal_leaf_expand_could_make(answer, reward):
    # the leaf counterparts of the corruptions above, which the loader takes
    problem = generate_problem(44)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    tree = build_tree(
        problem.root_state(), problem.gold_answer, backend, SearchConfig(n_simulations=5), seed=5
    )
    doc = json.loads(json.dumps(tree_to_snapshot(tree)))
    if answer is None:
        doc["nodes"][-1].update(terminal=True, reward=reward)
    else:
        _answer_leaf(doc["nodes"][-1], answer, terminal=True, reward=reward)
    leaf = list(iter_nodes(snapshot_to_tree(doc).root))[-1]
    assert leaf.terminal and (leaf.reward is None if reward is None else leaf.reward.value == reward)
    assert tree_to_snapshot(snapshot_to_tree(doc)) == doc


def test_snapshot_rejects_nodes_past_the_config_depth_budget():
    problem = generate_problem(44)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    tree = build_tree(
        problem.root_state(), problem.gold_answer, backend, SearchConfig(n_simulations=5), seed=5
    )
    doc = json.loads(json.dumps(tree_to_snapshot(tree)))
    deepest = max(node["depth"] for node in doc["nodes"])
    assert deepest >= 2
    doc["config"]["max_depth"] = deepest - 1
    with pytest.raises(SnapshotError, match="depth budget"):
        snapshot_to_tree(doc)


def test_snapshot_refuses_a_tree_whose_root_state_has_steps():
    # the document keeps only the question text, so the root's steps would
    # be lost and the reloaded children would be one step short
    problem = generate_problem(44)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    root = problem.root_state()
    first = backend.propose_steps(ProposalRequest(root, 1, 1.0, seed=0))[0].step
    assert first.kind is StepKind.CODE
    config = SearchConfig(n_simulations=3, evaluation=EvaluationMode.MODEL_ONLY)
    tree = build_tree(apply_step(root, first), None, backend, config, seed=5)
    with pytest.raises(ContractViolation, match="root"):
        tree_to_snapshot(tree)


def test_snapshot_rejects_other_schema_versions():
    with pytest.raises(SnapshotError) as err:
        snapshot_to_tree({"schema": "rsp-tree/2", "nodes": []})
    assert "rsp-tree/2" in str(err.value)


def test_snapshot_rejects_malformed_documents():
    with pytest.raises(SnapshotError):
        snapshot_to_tree({"schema": "rsp-tree/1"})  # no nodes at all
    with pytest.raises(SnapshotError):
        snapshot_to_tree(
            {
                "schema": "rsp-tree/1",
                "question_id": "q-1",
                "question_text": "<question>\nq\n</question>\n",
                "config": {
                    "c_puct": 1.25,
                    "n_simulations": 1,
                    "expansion_width": 1,
                    "max_depth": 8,
                    "temperature": 1.0,
                    "evaluation": "model_only",
                },
                "nodes": [
                    {
                        "id": 0,
                        "parent_id": None,
                        "step_kind": "c",
                        "step_text": "<step>\norphan\n</step>",
                        "prior": 0.5,
                        "visits": 1,
                        "total_value": 0.5,
                        "q": 0.5,
                        "model_value": None,
                        "terminal": False,
                        "reward": None,
                        "depth": 1,
                    }
                ],
            }
        )
