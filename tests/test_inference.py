"""Decoding-strategy tests: beam search, tree sweeps, voting baselines."""

import pytest

from conftest import ScriptedBackend, answer_step, code_step, make_state
from rsp.core import ContractViolation, ReasoningState, apply_step, normalize_answer
from rsp.inference import (
    DECODERS,
    DEFAULT_TEMPERATURES,
    count_terminal_nodes,
    decode_tree,
    greedy_decode,
    inference_search_config,
    majority_vote,
    mcts_decode,
    q_sweep,
    sbs_decode,
    sbs_search,
)
from rsp.mcts import EvaluationMode, NodeStats, SearchConfig, SearchNode, build_tree
from rsp.policy import (
    DETERMINISTIC_TEMPERATURE,
    PolicyValueBackend,
    Proposal,
    ValuePrediction,
)
from rsp.toyenv import Mode, ToyBackend, generate_problem, toy_corpus


def tree_node(prior=0.5, visits=0, total=0.0, terminal=False, reward=None, depth=0):
    node = SearchNode(
        state=make_state(),
        stats=NodeStats(prior=prior, visits=visits, total_value=total),
        depth=depth,
        terminal=terminal,
    )
    if reward is not None:
        from rsp.core import Reward

        node.reward = Reward(reward)
    return node


class PathQueueBackend(PolicyValueBackend):
    """Replays one scripted step sequence per rollout (for sampling tests)."""

    def __init__(self, paths):
        self.paths = paths
        self.rollout = -1

    def propose_steps(self, request):
        if request.state.depth == 0:
            self.rollout += 1
        path = self.paths[self.rollout]
        if request.state.depth >= len(path):
            return []
        return [Proposal(step=path[request.state.depth])]

    def predict_value(self, state):
        return ValuePrediction(value=0.0)


def two_level_script(attach_values=False):
    """question -> {a: 0.8, b: 0.6}; a -> {answer 50: 0.9, d: 0.2}."""
    q = make_state()
    a = code_step(analysis="a")
    b = code_step(analysis="b")
    win = answer_step("50")
    d = code_step(analysis="d")
    q_a = apply_step(q, a)
    q_b = apply_step(q, b)
    proposals = {q.render(): [a, b], q_a.render(): [win, d], q_b.render(): [d]}
    values = {
        q_a.render(): 0.8,
        q_b.render(): 0.6,
        apply_step(q_a, win).render(): 0.9,
        apply_step(q_a, d).render(): 0.2,
        apply_step(q_b, d).render(): 0.1,
    }
    return q, ScriptedBackend(proposals, values, attach_values)


def test_sbs_follows_the_value_argmax():
    q, backend = two_level_script()
    beam, history = sbs_search(q, backend, beam_width=1, expansion_width=2)
    assert len(history) == 2
    assert history[0][0].score == 0.8  # kept "a", not "b"
    assert beam[0].terminal
    assert beam[0].state.answer.normalized == "50"


def test_sbs_values_each_distinct_state_once():
    # the beam starts as three copies of the question, so every level meets
    # each extension three times; ties keep insertion order, so the copies
    # stay together
    q, backend = two_level_script()
    beam, history = sbs_search(q, backend, beam_width=3, expansion_width=2)
    q_a = apply_step(q, code_step(analysis="a"))
    q_win = apply_step(q_a, answer_step("50"))
    assert [[(c.state, c.score, c.terminal) for c in level] for level in history] == [
        [(q_a, 0.8, False)] * 3,
        [(q_win, 0.9, True)] * 3,
    ]
    assert beam == history[-1]
    assert len(backend.value_calls) == len(set(backend.value_calls)) == 4


@pytest.mark.parametrize("beam_width", [1, 2, 3])
def test_sbs_scores_attached_values_without_value_calls(beam_width):
    q, asking = two_level_script()
    _, attaching = two_level_script(attach_values=True)
    want = sbs_search(q, asking, beam_width=beam_width, expansion_width=2)
    got = sbs_search(q, attaching, beam_width=beam_width, expansion_width=2)
    assert got == want
    assert asking.value_calls and attaching.value_calls == []
    assert attaching.propose_calls == asking.propose_calls


def test_a_value_attached_outside_the_unit_interval_stops_the_search():
    # sbs_search would rank on the value, and build_tree store it as a q
    q, backend = two_level_script(attach_values=True)
    backend.values = dict.fromkeys(backend.values, 5.0)
    with pytest.raises(ContractViolation, match="attached value"):
        sbs_search(q, backend, beam_width=1, expansion_width=2)
    with pytest.raises(ContractViolation, match="attached value"):
        build_tree(q, None, backend, inference_search_config(n_simulations=3), seed=0)


def test_sbs_decode_returns_the_top_candidate():
    q, backend = two_level_script()
    report = sbs_decode(q, backend, beam_width=2, expansion_width=2)
    assert report.answer is not None
    assert report.answer.normalized == "50"
    assert report.steps_taken == 2
    assert report.candidates_returned <= 2
    assert report.path.answer == report.answer


def test_sbs_finished_candidates_freeze_and_carry_forward():
    q = make_state()
    early = answer_step("9")  # finishes at depth 1
    slow = code_step(analysis="slow")
    slower = code_step(analysis="deeper")
    q_slow = apply_step(q, slow)
    proposals = {
        q.render(): [early, slow],
        q_slow.render(): [slower],
    }
    # the answer and the slow branch tie at level 1, so both stay on the beam
    values = {
        apply_step(q, early).render(): 0.7,
        q_slow.render(): 0.7,
        apply_step(q_slow, slower).render(): 0.1,
    }
    backend = ScriptedBackend(proposals, values)
    beam, history = sbs_search(q, backend, beam_width=2, expansion_width=2, max_depth=2)
    assert [c.score for c in history[0]] == [0.7, 0.7]
    assert history[0][0].terminal and not history[0][1].terminal
    # level 2: the finished candidate's frozen 0.7 beats the 0.1 extension
    assert [c.score for c in history[1]] == [0.7, 0.1]
    assert beam[0].state.has_answer
    assert beam[0].state.answer.normalized == "9"


def test_sbs_score_ties_keep_insertion_order():
    q = make_state()
    first = code_step(analysis="first")
    second = code_step(analysis="second")
    backend = ScriptedBackend(
        {q.render(): [first, second]},
        {
            apply_step(q, first).render(): 0.5,
            apply_step(q, second).render(): 0.5,
        },
    )
    beam, _ = sbs_search(q, backend, beam_width=1, expansion_width=2, max_depth=1)
    assert beam[0].state.steps[-1].text == first.text


def test_sbs_dead_ends_drop_out_of_the_pool():
    q = make_state()
    dead = code_step(analysis="dead")
    alive = code_step(analysis="alive")
    q_alive = apply_step(q, alive)
    win = answer_step("1")
    proposals = {
        q.render(): [dead, alive],
        q_alive.render(): [win],
        # no entry for the dead branch: proposing there yields nothing
    }
    # equal level-1 scores keep both branches on the beam
    values = {
        apply_step(q, dead).render(): 0.5,
        q_alive.render(): 0.5,
        apply_step(q_alive, win).render(): 0.4,
    }
    backend = ScriptedBackend(proposals, values)
    beam, _ = sbs_search(q, backend, beam_width=2, expansion_width=2)
    # the dead branch contributes nothing at level 2; only the answer remains
    assert len(beam) == 1
    assert beam[0].state.has_answer


def test_sbs_all_dead_ends_return_an_unanswered_beam():
    q = make_state()
    backend = ScriptedBackend({})
    report = sbs_decode(q, backend, beam_width=2, expansion_width=2)
    assert report.answer is None
    assert report.steps_taken == 0


def test_sbs_stops_at_the_depth_budget():
    q = make_state()
    chains = {}
    state = q
    for i in range(10):  # an endless chain that never answers
        step = code_step(analysis=f"c{i}")
        chains[state.render()] = [step]
        state = apply_step(state, step, max_depth=64)
    backend = ScriptedBackend(chains)
    beam, history = sbs_search(q, backend, beam_width=1, expansion_width=1, max_depth=3)
    assert len(history) == 3
    assert beam[0].terminal and not beam[0].state.has_answer


def test_sbs_pool_is_cut_to_beam_width():
    problem = generate_problem(12)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    beam, history = sbs_search(
        problem.root_state(), backend, beam_width=3, expansion_width=5, seed=2
    )
    assert all(len(level) <= 3 for level in history)
    for level in history:
        assert level[0].score == max(c.score for c in level)


def test_sbs_guards():
    q = make_state()
    backend = ScriptedBackend({})
    with pytest.raises(ContractViolation):
        sbs_search(q, backend, beam_width=0, expansion_width=1)
    with pytest.raises(ContractViolation):
        sbs_search(q, backend, beam_width=1, expansion_width=0)


@pytest.mark.parametrize("strategy", list(DECODERS))
def test_every_decoder_refuses_a_terminal_question(strategy):
    config = inference_search_config(max_depth=3)
    answered = make_state(steps=(answer_step(),))
    at_budget = make_state(steps=tuple(code_step(analysis=f"c{i}") for i in range(3)))
    for state in (answered, at_budget):
        backend = ScriptedBackend({})
        with pytest.raises(ContractViolation, match="from a terminal state"):
            DECODERS[strategy](state, backend, config, 0, 1, 3)
        assert backend.propose_calls == backend.value_calls == []


class RecordingBackend(PolicyValueBackend):
    """Passes calls through to ``inner`` and records every request."""

    def __init__(self, inner):
        self.inner = inner
        self.proposals: list[tuple] = []
        self.with_values: list[bool] = []
        self.values: list[ReasoningState] = []

    def propose_steps(self, request):
        self.proposals.append(
            (request.state, request.n_samples, request.temperature, request.seed)
        )
        self.with_values.append(request.with_values)
        return self.inner.propose_steps(request)

    def predict_value(self, state):
        self.values.append(state)
        return self.inner.predict_value(state)


def test_greedy_is_beam_one_at_deterministic_temperature():
    # the same proposal requests as a one-wide beam, and no value requests:
    # a pool of one is never cut
    for problem in toy_corpus(8, seed=6):
        inner = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
        greedy_backend, beam_backend = RecordingBackend(inner), RecordingBackend(inner)
        greedy = greedy_decode(problem.root_state(), greedy_backend)
        explicit = sbs_decode(
            problem.root_state(),
            beam_backend,
            beam_width=1,
            expansion_width=1,
            temperature=DETERMINISTIC_TEMPERATURE,
            seed=0,
        )
        assert greedy_backend.proposals == beam_backend.proposals
        assert greedy_backend.values == []
        assert greedy.path == explicit.path and greedy.answer == explicit.answer
        assert greedy.steps_taken == explicit.steps_taken
        assert greedy.candidates_returned == explicit.candidates_returned == 1


def test_only_value_guided_decodes_ask_for_values():
    problem = generate_problem(31)
    inner = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    decodes = {
        "greedy": (lambda b: greedy_decode(problem.root_state(), b), False),
        "maj": (lambda b: majority_vote(problem.root_state(), b, k=3), False),
        "sbs": (lambda b: sbs_decode(problem.root_state(), b, beam_width=2), True),
        "mcts": (lambda b: mcts_decode(problem.root_state(), b), True),
    }
    for name, (decode, asks) in decodes.items():
        backend = RecordingBackend(inner)
        decode(backend)
        assert backend.with_values and set(backend.with_values) == {asks}, name


def test_q_sweep_follows_the_stored_edge_values():
    root = tree_node(prior=1.0, visits=6, total=2.0)
    good = tree_node(visits=4, total=3.2, depth=1)
    bad = tree_node(visits=2, total=-1.0, depth=1)
    leaf = tree_node(visits=3, total=2.7, depth=2, terminal=True, reward=1.0)
    good.children = [leaf]
    root.children = [good, bad]
    best, history = q_sweep(root, beam_width=1)
    assert best is leaf
    assert history == [[good], [leaf]]


def test_q_sweep_terminal_candidates_carry_forward():
    root = tree_node(prior=1.0, visits=8, total=0.0)
    finished = tree_node(visits=2, total=1.6, depth=1, terminal=True)  # q = 0.8
    ongoing = tree_node(visits=4, total=3.6, depth=1)  # q = 0.9
    weak = tree_node(visits=1, total=0.1, depth=2, terminal=True)
    ongoing.children = [weak]
    root.children = [finished, ongoing]
    best, history = q_sweep(root, beam_width=2)
    assert history[0] == [ongoing, finished]
    # next level: the finished node's 0.8 beats the weak leaf's 0.1
    assert history[1][0] is finished
    assert best is finished


def test_q_sweep_settles_when_the_tree_runs_out():
    root = tree_node(prior=1.0, visits=3, total=0.0)
    better = tree_node(visits=2, total=1.0, depth=1)  # unexpanded, q = 0.5
    worse = tree_node(visits=1, total=-0.5, depth=1)
    root.children = [better, worse]
    best, history = q_sweep(root, beam_width=2)
    assert best is better
    assert len(history) == 1


def test_q_sweep_ranks_unvisited_nodes_at_q_init():
    root = tree_node(prior=1.0, visits=2, total=0.0)
    visited = tree_node(visits=2, total=-0.8, depth=1, terminal=True, reward=-1.0)
    fresh = tree_node(visits=0, depth=1, terminal=True, reward=-1.0)
    root.children = [visited, fresh]
    best, _ = q_sweep(root, beam_width=1)
    assert best is fresh  # q_init 0 outranks the visited -0.4


def test_q_sweep_guard():
    with pytest.raises(ContractViolation):
        q_sweep(tree_node(), beam_width=0)


def test_inference_search_config_defaults_and_overrides():
    config = inference_search_config()
    assert config.evaluation is EvaluationMode.MODEL_ONLY
    assert config.temperature == DEFAULT_TEMPERATURES["mcts"] == 0.6
    assert list(DEFAULT_TEMPERATURES) == list(DECODERS)
    custom = inference_search_config(n_simulations=7, temperature=0.9)
    assert custom.n_simulations == 7
    assert custom.temperature == 0.9
    assert custom.evaluation is EvaluationMode.MODEL_ONLY


def test_mcts_decode_rejects_reward_peeking_configs():
    problem = generate_problem(3)
    backend = ToyBackend.for_corpus([problem])
    config = SearchConfig(evaluation=EvaluationMode.TERMINAL_REWARD)
    with pytest.raises(ContractViolation):
        mcts_decode(problem.root_state(), backend, config)


def test_mcts_decode_with_oracle_values_finds_the_gold_answer():
    problem = generate_problem(19)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    report = mcts_decode(problem.root_state(), backend, seed=4)
    assert report.answer is not None
    from rsp.core import answers_equivalent

    assert answers_equivalent(report.answer, normalize_answer(problem.gold_answer))
    assert report.steps_taken == len(report.path.steps)


def test_decode_tree_reports_terminal_candidate_count():
    problem = generate_problem(19)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    from rsp.mcts import build_tree

    tree = build_tree(problem.root_state(), None, backend, inference_search_config(), seed=4)
    report = decode_tree(tree, beam_width=1)
    assert report.candidates_returned == count_terminal_nodes(tree)


def test_majority_vote_picks_the_most_common_answer():
    paths = [[answer_step(a)] for a in ["50", "50", "49", "50", "7"]]
    backend = PathQueueBackend(paths)
    report = majority_vote(make_state(), backend, k=5)
    assert report.answer.normalized == "50"
    assert report.candidates_returned == 5


def test_majority_vote_breaks_ties_by_earliest_finisher():
    paths = [[answer_step(a)] for a in ["49", "50", "50", "49"]]
    backend = PathQueueBackend(paths)
    report = majority_vote(make_state(), backend, k=4)
    assert report.answer.normalized == "49"


def test_majority_vote_ignores_unanswered_paths():
    paths = [[], [answer_step("50")], []]
    backend = PathQueueBackend(paths)
    report = majority_vote(make_state(), backend, k=3)
    assert report.answer.normalized == "50"


def test_majority_vote_with_no_answers_reports_failure():
    backend = PathQueueBackend([[], [], []])
    report = majority_vote(make_state(), backend, k=3)
    assert report.answer is None
    assert not report.path.has_answer


def test_majority_vote_k_one_and_guard():
    backend = PathQueueBackend([[answer_step("8")]])
    report = majority_vote(make_state(), backend, k=1)
    assert report.answer.normalized == "8"
    with pytest.raises(ContractViolation):
        majority_vote(make_state(), PathQueueBackend([]), k=0)


def test_reports_count_steps_and_candidates():
    problem = generate_problem(25)
    backend = ToyBackend.for_corpus([problem], mode=Mode.ORACLE)
    report = sbs_decode(problem.root_state(), backend, beam_width=3, expansion_width=5)
    assert report.steps_taken == len(report.path.steps)
    assert 1 <= report.candidates_returned <= 3
