"""End-to-end acceptance suite.

Each test checks one numbered claim about the engine and records the outcome
in RESULTS; the conftest terminal-summary hook prints one pass/fail line per
claim after the run. The toy environment supplies the ground truth: every
state's exact expected reward is computable by backward induction, so search
quality is judged against an independent oracle instead of golden files.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

from conftest import ScriptedBackend, answer_step, code_step, make_state
from rsp.cli import main
from rsp.core import (
    ContractViolation,
    ReasoningState,
    Reward,
    apply_step,
    derive_seed,
    normalize_answer,
    answers_equivalent,
    render_answer_step,
    render_code_step,
)
from rsp.datagen import FilterLevel, SolutionPath, classify_solution, filter_solutions
from rsp.inference import (
    decode_tree,
    greedy_decode,
    inference_search_config,
    mcts_decode,
    q_sweep,
    sbs_decode,
    sbs_search,
)
from rsp.mcts import (
    EvaluationMode,
    NodeStats,
    SearchConfig,
    SearchNode,
    build_tree,
    evaluate,
    mc_rollout_estimate,
    puct_score,
    run_simulation,
    snapshot_to_tree,
)
from rsp.toyenv import (
    ActionKind,
    Mode,
    ToyBackend,
    corpus_to_records,
    generate_problem,
    toy_corpus,
)

CRITERIA = {
    1: "search convergence: best root edge matches the exact state value",
    2: "estimator agreement: rollout mean and edge values track ground truth",
    3: "strategy ordering: wider value-guided search never scores worse",
    4: "beam search matches ten hand-traced executions level by level",
    5: "tree sweep matches ten hand-traced selections for widths 1..3",
    6: "solution filtering reproduces the reference labels and dedup",
    7: "exported step targets equal source-tree edge values bit for bit",
    8: "dataset generation is byte-identical across reruns",
    9: "scoring primitives reproduce the reference examples to 1e-6",
    10: "edge values stay bounded and visit counts conserve over 10k sims",
}
RESULTS: dict[int, bool] = {}


@contextmanager
def criterion(number: int):
    """Record pass/fail for the summary printer; failures still raise."""
    try:
        yield
    except BaseException:
        RESULTS[number] = False
        raise
    RESULTS[number] = True


# --- criterion 1: convergence of the tree search ---------------------------


def test_criterion_01_search_converges_to_exact_values():
    with criterion(1):
        problems = toy_corpus(20, seed=101)
        backend = ToyBackend.for_corpus(problems, mode=Mode.ORACLE)
        config = SearchConfig(n_simulations=2000)
        started = time.perf_counter()
        for index, problem in enumerate(problems):
            tree = build_tree(
                problem.root_state(),
                problem.gold_answer,
                backend,
                config,
                seed=derive_seed(101, index),
            )
            best = max(tree.root.children, key=lambda n: n.stats.visits)
            exact = backend.true_value(best.state)
            assert abs(best.stats.q() - exact) <= 0.05, problem.id
        assert time.perf_counter() - started < 60.0


# --- criterion 2: independent estimators agree ------------------------------


def _random_deeper_state(problem, rng):
    """Walk 1-2 non-answer actions down from the root, if possible."""
    state = problem.root_state()
    history: tuple[str, ...] = ()
    for _ in range(rng.randint(1, 2)):
        ops = [a for a in problem.actions_at(history) if a.kind is ActionKind.OP]
        if not ops:
            break
        action = ops[rng.randrange(len(ops))]
        state = apply_step(state, problem.step_for(action))
        history += (action.label,)
    return state


def test_criterion_02_rollout_and_edge_estimates_track_truth():
    with criterion(2):
        problems = toy_corpus(20, seed=202)
        backend = ToyBackend.for_corpus(problems, mode=Mode.ORACLE)
        rng = random.Random(202)
        states = [(p, p.root_state()) for p in problems]
        while len(states) < 50:
            problem = problems[rng.randrange(len(problems))]
            states.append((problem, _random_deeper_state(problem, rng)))

        within = 0
        for index, (problem, state) in enumerate(states):
            estimate = mc_rollout_estimate(
                state,
                problem.gold_answer,
                backend,
                n_rollouts=10_000,
                seed=derive_seed(202, index),
            )
            if abs(estimate - backend.true_value(state)) <= 0.03:
                within += 1
        assert within >= 48, f"only {within}/50 rollout estimates within 0.03"

        # The same ground truth must show up in the search statistics: after
        # a 2000-simulation budget every visited edge value agrees with the
        # exact value of the state it leads to.
        config = SearchConfig(n_simulations=2000)
        for index, problem in enumerate(problems[:10]):
            tree = build_tree(
                problem.root_state(),
                problem.gold_answer,
                backend,
                config,
                seed=derive_seed(202, index, 7),
            )
            stack = list(tree.root.children)
            while stack:
                node = stack.pop()
                stack.extend(node.children)
                if node.stats.visits == 0:
                    continue
                exact = backend.true_value(node.state)
                assert abs(node.stats.q() - exact) <= 0.1, problem.id


# --- criterion 3: more guided search never hurts ----------------------------


def test_criterion_03_strategy_accuracy_ordering():
    with criterion(3):
        problems = toy_corpus(200, seed=303)
        backend = ToyBackend.for_corpus(problems, mode=Mode.ORACLE)
        scores = {"greedy": 0, "sbs1": 0, "sbs3": 0, "mcts": 0}
        started = time.perf_counter()
        for index, problem in enumerate(problems):
            state = problem.root_state()
            gold = normalize_answer(problem.gold_answer)
            reports = {
                "greedy": greedy_decode(state, backend),
                "sbs1": sbs_decode(
                    state, backend, beam_width=1, expansion_width=5,
                    seed=derive_seed(303, index, 1),
                ),
                "sbs3": sbs_decode(
                    state, backend, beam_width=3, expansion_width=5,
                    seed=derive_seed(303, index, 3),
                ),
                "mcts": mcts_decode(
                    state, backend,
                    inference_search_config(n_simulations=40),
                    beam_width=1,
                    seed=derive_seed(303, index, 4),
                ),
            }
            for name, report in reports.items():
                if report.answer is not None and answers_equivalent(report.answer, gold):
                    scores[name] += 1
        elapsed = time.perf_counter() - started
        n = len(problems)
        accuracy = {name: count / n for name, count in scores.items()}
        assert accuracy["sbs3"] >= accuracy["sbs1"] >= accuracy["greedy"], accuracy
        assert accuracy["mcts"] >= accuracy["greedy"], accuracy
        assert elapsed < 300.0


# --- criterion 4: beam search against hand-traced executions ----------------
#
# The initial beam is beam_width copies of the question, so a deterministic
# backend proposes the same extensions for each copy and only exact score
# ties (kept in insertion order by the stable sort) or frozen finished
# candidates let distinct candidates coexist. The fixtures below exploit
# that deliberately; every retained level was traced by hand.


def _sbs_fixture_argmax_chain():
    q = make_state("sbs-f1")
    a, b = code_step(analysis="a"), code_step(analysis="b")
    c, d = code_step(analysis="c"), code_step(analysis="d")
    ans = answer_step(answer="50")
    s_a, s_b = apply_step(q, a), apply_step(q, b)
    s_ac, s_ad = apply_step(s_a, c), apply_step(s_a, d)
    s_acx = apply_step(s_ac, ans)
    backend = ScriptedBackend(
        proposals={q.render(): [a, b], s_a.render(): [c, d], s_ac.render(): [ans]},
        values={
            s_a.render(): 0.8, s_b.render(): 0.3,
            s_ac.render(): 0.9, s_ad.render(): 0.1,
            s_acx.render(): 0.95,
        },
    )
    history = [
        [(s_a, 0.8, False)],
        [(s_ac, 0.9, False)],
        [(s_acx, 0.95, True)],
    ]
    return dict(question=q, backend=backend, b1=1, b2=2, max_depth=8,
                history=history, answer="50")


def _sbs_fixture_tie_keeps_both_branches():
    q = make_state("sbs-f2")
    a, b = code_step(analysis="a"), code_step(analysis="b")
    c, e = code_step(analysis="c"), code_step(analysis="e")
    ans1, ans2 = answer_step(answer="1"), answer_step(answer="2")
    s_a, s_b = apply_step(q, a), apply_step(q, b)
    s_ac, s_be = apply_step(s_a, c), apply_step(s_b, e)
    s_ac1, s_be2 = apply_step(s_ac, ans1), apply_step(s_be, ans2)
    backend = ScriptedBackend(
        proposals={
            q.render(): [a, b],
            s_a.render(): [c], s_b.render(): [e],
            s_ac.render(): [ans1], s_be.render(): [ans2],
        },
        values={
            s_a.render(): 0.5, s_b.render(): 0.5,
            s_ac.render(): 0.7, s_be.render(): 0.6,
            s_ac1.render(): 0.9, s_be2.render(): 0.4,
        },
    )
    history = [
        [(s_a, 0.5, False), (s_b, 0.5, False)],
        [(s_ac, 0.7, False), (s_be, 0.6, False)],
        [(s_ac1, 0.9, True), (s_be2, 0.4, True)],
    ]
    return dict(question=q, backend=backend, b1=2, b2=2, max_depth=8,
                history=history, answer="1")


def _sbs_fixture_finished_candidate_wins():
    q = make_state("sbs-f3")
    early, a = answer_step(answer="9"), code_step(analysis="a")
    c, d = code_step(analysis="c"), code_step(analysis="d")
    s_e, s_a = apply_step(q, early), apply_step(q, a)
    s_ac = apply_step(s_a, c)
    s_acd = apply_step(s_ac, d)  # depth 3 == budget: terminal, unanswered
    backend = ScriptedBackend(
        proposals={q.render(): [early, a], s_a.render(): [c], s_ac.render(): [d]},
        values={
            s_e.render(): 0.6, s_a.render(): 0.6,
            s_ac.render(): 0.7, s_acd.render(): 0.2,
        },
    )
    history = [
        [(s_e, 0.6, True), (s_a, 0.6, False)],
        [(s_ac, 0.7, False), (s_e, 0.6, True)],
        [(s_e, 0.6, True), (s_acd, 0.2, True)],
    ]
    return dict(question=q, backend=backend, b1=2, b2=2, max_depth=3,
                history=history, answer="9")


def _sbs_fixture_finished_candidate_loses():
    q = make_state("sbs-f4")
    early, a = answer_step(answer="8"), code_step(analysis="a")
    c, late = code_step(analysis="c"), answer_step(answer="77")
    s_e, s_a = apply_step(q, early), apply_step(q, a)
    s_ac = apply_step(s_a, c)
    s_ac77 = apply_step(s_ac, late)
    backend = ScriptedBackend(
        proposals={q.render(): [early, a], s_a.render(): [c], s_ac.render(): [late]},
        values={
            s_e.render(): 0.5, s_a.render(): 0.5,
            s_ac.render(): 0.8, s_ac77.render(): 0.9,
        },
    )
    history = [
        [(s_e, 0.5, True), (s_a, 0.5, False)],
        [(s_ac, 0.8, False), (s_e, 0.5, True)],
        [(s_ac77, 0.9, True), (s_e, 0.5, True)],
    ]
    return dict(question=q, backend=backend, b1=2, b2=2, max_depth=8,
                history=history, answer="77")


def _sbs_fixture_dead_end_shrinks_beam():
    q = make_state("sbs-f5")
    dead, alive = code_step(analysis="dead"), code_step(analysis="alive")
    c, ans = code_step(analysis="c"), answer_step(answer="5")
    s_dead, s_alive = apply_step(q, dead), apply_step(q, alive)
    s_ac = apply_step(s_alive, c)
    s_ac5 = apply_step(s_ac, ans)
    backend = ScriptedBackend(
        proposals={
            q.render(): [dead, alive],
            s_alive.render(): [c],
            s_ac.render(): [ans],
            # s_dead has no entry: proposing from it returns nothing
        },
        values={
            s_dead.render(): 0.5, s_alive.render(): 0.5,
            s_ac.render(): 0.4, s_ac5.render(): 0.6,
        },
    )
    history = [
        [(s_dead, 0.5, False), (s_alive, 0.5, False)],
        [(s_ac, 0.4, False)],
        [(s_ac5, 0.6, True)],
    ]
    return dict(question=q, backend=backend, b1=2, b2=2, max_depth=8,
                history=history, answer="5")


def _sbs_fixture_all_dead_ends_stop_unanswered():
    q = make_state("sbs-f6")
    x, y = code_step(analysis="x"), code_step(analysis="y")
    s_x, s_y = apply_step(q, x), apply_step(q, y)
    backend = ScriptedBackend(
        proposals={q.render(): [x, y]},
        values={s_x.render(): 0.7, s_y.render(): 0.2},
    )
    # 0.7 beats 0.2 twice over, so the cut keeps two copies of the same
    # extension; both then dead-end and the search stops with one level.
    history = [[(s_x, 0.7, False), (s_x, 0.7, False)]]
    return dict(question=q, backend=backend, b1=2, b2=2, max_depth=8,
                history=history, answer=None)


def _sbs_fixture_depth_budget_cuts_off():
    q = make_state("sbs-f7")
    c1, c2, c3 = (code_step(analysis=f"c{i}") for i in range(1, 4))
    s1 = apply_step(q, c1)
    s2 = apply_step(s1, c2)
    s3 = apply_step(s2, c3)
    backend = ScriptedBackend(
        proposals={q.render(): [c1], s1.render(): [c2], s2.render(): [c3]},
        values={s1.render(): 0.5, s2.render(): 0.5, s3.render(): 0.5},
    )
    history = [[(s1, 0.5, False)], [(s2, 0.5, False)], [(s3, 0.5, True)]]
    return dict(question=q, backend=backend, b1=1, b2=1, max_depth=3,
                history=history, answer=None)


def _sbs_fixture_wide_beam_pool_cut():
    q = make_state("sbs-f8")
    a, b = code_step(analysis="a"), code_step(analysis="b")
    c, d, e = code_step(analysis="c"), code_step(analysis="d"), code_step(analysis="e")
    ans4, ans3 = answer_step(answer="4"), answer_step(answer="3")
    s_a, s_b = apply_step(q, a), apply_step(q, b)
    s_ac, s_ad, s_be = apply_step(s_a, c), apply_step(s_a, d), apply_step(s_b, e)
    s_ac4, s_ad3 = apply_step(s_ac, ans4), apply_step(s_ad, ans3)
    backend = ScriptedBackend(
        proposals={
            q.render(): [a, b],
            s_a.render(): [c, d], s_b.render(): [e],
            s_ac.render(): [ans4], s_ad.render(): [ans3],
        },
        values={
            s_a.render(): 0.9, s_b.render(): 0.9,
            s_ac.render(): 0.8, s_ad.render(): 0.7, s_be.render(): 0.6,
            s_ac4.render(): 0.9, s_ad3.render(): 0.3,
        },
    )
    history = [
        [(s_a, 0.9, False), (s_b, 0.9, False), (s_a, 0.9, False)],
        [(s_ac, 0.8, False), (s_ac, 0.8, False), (s_ad, 0.7, False)],
        [(s_ac4, 0.9, True), (s_ac4, 0.9, True), (s_ad3, 0.3, True)],
    ]
    return dict(question=q, backend=backend, b1=3, b2=2, max_depth=8,
                history=history, answer="4")


def _sbs_fixture_value_switches_branch():
    q = make_state("sbs-f9")
    a, b = code_step(analysis="a"), code_step(analysis="b")
    c, d = code_step(analysis="c"), code_step(analysis="d")
    ans, e = answer_step(answer="12"), code_step(analysis="e")
    s_a, s_b = apply_step(q, a), apply_step(q, b)
    s_ac, s_ad = apply_step(s_a, c), apply_step(s_a, d)
    s_ad12, s_ade = apply_step(s_ad, ans), apply_step(s_ad, e)
    backend = ScriptedBackend(
        proposals={q.render(): [a, b], s_a.render(): [c, d], s_ad.render(): [ans, e]},
        values={
            s_a.render(): 0.7, s_b.render(): 0.4,
            s_ac.render(): 0.2, s_ad.render(): 0.65,
            s_ad12.render(): 0.8, s_ade.render(): 0.1,
        },
    )
    history = [
        [(s_a, 0.7, False)],
        [(s_ad, 0.65, False)],
        [(s_ad12, 0.8, True)],
    ]
    return dict(question=q, backend=backend, b1=1, b2=2, max_depth=8,
                history=history, answer="12")


def _sbs_fixture_frozen_score_is_stable():
    q = make_state("sbs-f10")
    early, a = answer_step(answer="33"), code_step(analysis="a")
    b, c = code_step(analysis="b"), code_step(analysis="c")
    s_e, s_a = apply_step(q, early), apply_step(q, a)
    s_ab = apply_step(s_a, b)
    s_abc = apply_step(s_ab, c)  # depth 3 == budget
    backend = ScriptedBackend(
        proposals={q.render(): [early, a], s_a.render(): [b], s_ab.render(): [c]},
        values={
            s_e.render(): 0.55, s_a.render(): 0.55,
            s_ab.render(): 0.5, s_abc.render(): 0.5,
        },
    )
    history = [
        [(s_e, 0.55, True), (s_a, 0.55, False)],
        [(s_e, 0.55, True), (s_ab, 0.5, False)],
        [(s_e, 0.55, True), (s_abc, 0.5, True)],
    ]
    return dict(question=q, backend=backend, b1=2, b2=2, max_depth=3,
                history=history, answer="33")


_SBS_FIXTURES = [
    _sbs_fixture_argmax_chain,
    _sbs_fixture_tie_keeps_both_branches,
    _sbs_fixture_finished_candidate_wins,
    _sbs_fixture_finished_candidate_loses,
    _sbs_fixture_dead_end_shrinks_beam,
    _sbs_fixture_all_dead_ends_stop_unanswered,
    _sbs_fixture_depth_budget_cuts_off,
    _sbs_fixture_wide_beam_pool_cut,
    _sbs_fixture_value_switches_branch,
    _sbs_fixture_frozen_score_is_stable,
]


def test_criterion_04_beam_search_matches_hand_traces():
    with criterion(4):
        for build in _SBS_FIXTURES:
            fixture = build()
            beam, history = sbs_search(
                fixture["question"],
                fixture["backend"],
                beam_width=fixture["b1"],
                expansion_width=fixture["b2"],
                max_depth=fixture["max_depth"],
            )
            got = [[(c.state, c.score, c.terminal) for c in level] for level in history]
            assert got == fixture["history"], build.__name__
            report = sbs_decode(
                fixture["question"],
                fixture["backend"],
                beam_width=fixture["b1"],
                expansion_width=fixture["b2"],
                max_depth=fixture["max_depth"],
            )
            if fixture["answer"] is None:
                assert report.answer is None, build.__name__
            else:
                assert report.answer is not None, build.__name__
                assert report.answer.normalized == fixture["answer"], build.__name__


# --- criterion 5: tree sweep against hand-traced selections ------------------
#
# Each fixture is a snapshot document with prescribed edge statistics; the
# expected retained sets per level (by preorder node id) were traced by hand
# for every beam width in {1, 2, 3}.


def _snap_node(node_id, parent_id, *, q=None, visits=1, terminal=False,
               answer=None, depth=0):
    if parent_id is None:
        kind, text = None, None
    elif answer is not None:
        kind = "a"
        text = render_answer_step(f"node {node_id}", f" ${answer}$")
    else:
        kind = "c"
        text = render_code_step(f"node {node_id}", "pass", "ok")
    total = 0.0 if q is None else q * visits
    return {
        "id": node_id,
        "parent_id": parent_id,
        "step_kind": kind,
        "step_text": text,
        "prior": 0.5 if parent_id is not None else 1.0,
        "visits": visits,
        "total_value": total,
        "q": total / visits if visits else None,
        "model_value": None,
        "terminal": terminal,
        "reward": None,
        "depth": depth,
    }


def _snap_doc(nodes):
    return {
        "schema": "rsp-tree/1",
        "question_id": "sweep-fixture",
        "question_text": "<question>\nsweep\n</question>\n",
        "gold_answer": None,
        "seed": 0,
        "simulations_run": 0,
        "total_backups": 0,
        "config": {
            "c_puct": 1.25,
            "n_simulations": 40,
            "expansion_width": 5,
            "max_depth": 8,
            "temperature": 0.6,
            "evaluation": "model_only",
            "q_init": 0.0,
        },
        "nodes": nodes,
    }


def _sweep_fixtures():
    root = _snap_node(0, None)
    fixtures = []

    # linear chain: only one path to follow at any width
    nodes = [
        root,
        _snap_node(1, 0, q=0.5, depth=1),
        _snap_node(2, 1, q=0.7, depth=2),
        _snap_node(3, 2, q=0.9, terminal=True, answer="50", depth=3),
    ]
    fixtures.append(("chain", nodes, {
        1: ([[1], [2], [3]], 3),
        2: ([[1], [2], [3]], 3),
        3: ([[1], [2], [3]], 3),
    }))

    # the stronger root edge hides the better leaf; width >= 2 recovers it
    nodes = [
        root,
        _snap_node(1, 0, q=0.8, depth=1),
        _snap_node(2, 1, q=0.2, terminal=True, answer="1", depth=2),
        _snap_node(3, 0, q=0.6, depth=1),
        _snap_node(4, 3, q=0.9, terminal=True, answer="2", depth=2),
    ]
    fixtures.append(("greedy-trap", nodes, {
        1: ([[1], [2]], 2),
        2: ([[1, 3], [4, 2]], 4),
        3: ([[1, 3], [4, 2]], 4),
    }))

    # a finished root child carries forward and stays on top
    nodes = [
        root,
        _snap_node(1, 0, q=0.9, terminal=True, answer="7", depth=1),
        _snap_node(2, 0, q=0.7, depth=1),
        _snap_node(3, 2, q=0.5, terminal=True, answer="8", depth=2),
    ]
    fixtures.append(("finished-carries", nodes, {
        1: ([[1]], 1),
        2: ([[1, 2], [1, 3]], 1),
        3: ([[1, 2], [1, 3]], 1),
    }))

    # unexpanded frontier: the sweep settles for the best found so far
    nodes = [
        root,
        _snap_node(1, 0, q=0.6, depth=1),
        _snap_node(2, 0, q=0.4, depth=1),
    ]
    fixtures.append(("settle-unexpanded", nodes, {
        1: ([[1]], 1),
        2: ([[1, 2]], 1),
        3: ([[1, 2]], 1),
    }))

    # equal edge values keep insertion order; childless losers drop out
    nodes = [
        root,
        _snap_node(1, 0, q=0.5, depth=1),
        _snap_node(2, 1, q=0.1, terminal=True, answer="3", depth=2),
        _snap_node(3, 0, q=0.5, depth=1),
    ]
    fixtures.append(("tie-insertion-order", nodes, {
        1: ([[1], [2]], 2),
        2: ([[1, 3], [2]], 2),
        3: ([[1, 3], [2]], 2),
    }))

    # three levels; the winner is only reachable when the beam is wide
    nodes = [
        root,
        _snap_node(1, 0, q=0.9, depth=1),
        _snap_node(2, 1, q=0.3, terminal=True, answer="5", depth=2),
        _snap_node(3, 1, q=0.2, terminal=True, answer="6", depth=2),
        _snap_node(4, 0, q=0.8, depth=1),
        _snap_node(5, 4, q=0.95, depth=2),
        _snap_node(6, 5, q=1.0, terminal=True, answer="4", depth=3),
    ]
    fixtures.append(("width-dependent-winner", nodes, {
        1: ([[1], [2]], 2),
        2: ([[1, 4], [5, 2], [6, 2]], 6),
        3: ([[1, 4], [5, 2, 3], [6, 2, 3]], 6),
    }))

    # an unvisited edge ranks at the initialization value, above -0.5
    nodes = [
        root,
        _snap_node(1, 0, q=-0.5, visits=2, depth=1),
        _snap_node(2, 0, visits=0, terminal=True, answer="9", depth=1),
    ]
    fixtures.append(("unvisited-at-q-init", nodes, {
        1: ([[2]], 2),
        2: ([[2, 1], [2]], 2),
        3: ([[2, 1], [2]], 2),
    }))

    # all values negative: ordering logic is sign-agnostic
    nodes = [
        root,
        _snap_node(1, 0, q=-0.2, depth=1),
        _snap_node(2, 1, q=-0.1, terminal=True, answer="11", depth=2),
        _snap_node(3, 0, q=-0.9, depth=1),
        _snap_node(4, 3, q=-0.95, terminal=True, answer="12", depth=2),
    ]
    fixtures.append(("negative-values", nodes, {
        1: ([[1], [2]], 2),
        2: ([[1, 3], [2, 4]], 2),
        3: ([[1, 3], [2, 4]], 2),
    }))

    # a carried finished candidate is beaten by a deeper, stronger leaf
    nodes = [
        root,
        _snap_node(1, 0, q=0.4, terminal=True, answer="13", depth=1),
        _snap_node(2, 0, q=0.6, depth=1),
        _snap_node(3, 2, q=0.9, terminal=True, answer="14", depth=2),
    ]
    fixtures.append(("finished-loses-to-deeper", nodes, {
        1: ([[2], [3]], 3),
        2: ([[2, 1], [3, 1]], 3),
        3: ([[2, 1], [3, 1]], 3),
    }))

    # five finished children: the cut keeps the top width, ties in order
    nodes = [
        root,
        _snap_node(1, 0, q=0.9, terminal=True, answer="21", depth=1),
        _snap_node(2, 0, q=0.7, terminal=True, answer="22", depth=1),
        _snap_node(3, 0, q=0.7, terminal=True, answer="23", depth=1),
        _snap_node(4, 0, q=0.5, terminal=True, answer="24", depth=1),
        _snap_node(5, 0, q=0.3, terminal=True, answer="25", depth=1),
    ]
    fixtures.append(("wide-cut", nodes, {
        1: ([[1]], 1),
        2: ([[1, 2]], 1),
        3: ([[1, 2, 3]], 1),
    }))

    return fixtures


def _ids_by_node(tree):
    mapping = {}

    def visit(node):
        mapping[node] = len(mapping)
        for child in node.children:
            visit(child)

    visit(tree.root)
    return mapping


def test_criterion_05_tree_sweep_matches_hand_traces():
    with criterion(5):
        fixtures = _sweep_fixtures()
        assert len(fixtures) == 10
        for name, nodes, expectations in fixtures:
            for width, (want_history, want_best) in expectations.items():
                tree = snapshot_to_tree(_snap_doc(nodes))
                ids = _ids_by_node(tree)
                best, history = q_sweep(tree.root, width)
                got = [[ids[node] for node in level] for level in history]
                assert got == want_history, (name, width)
                assert ids[best] == want_best, (name, width)
        # the decode wrapper reports the same winner it swept to
        name, nodes, expectations = fixtures[0]
        report = decode_tree(snapshot_to_tree(_snap_doc(nodes)), beam_width=1)
        assert report.answer is not None and report.answer.normalized == "50"


# --- criterion 6: filtering against the reference examples ------------------


def _question_fields(qid):
    return dict(question_id=qid, question_text="<question>\nfilter\n</question>\n")


def _path_all_code_errored_but_answered():
    # Every code step failed, yet the path still states the right answer:
    # the answer cannot have come from the computation, so drop the path.
    steps = (
        code_step(analysis="try a library", code="import missing",
                  output="ImportError: No module named 'missing'"),
        code_step(analysis="retry by hand", code="value = undefined",
                  output="NameError: name 'undefined' is not defined"),
        answer_step(answer="50"),
    )
    return SolutionPath(
        steps=steps, predicted_answer=normalize_answer("50"), correct=True,
        tree_id=0, **_question_fields("flt-rejected"),
    )


def _path_code_output_restates_answer():
    steps = (
        code_step(analysis="count the ways", code="print(total)", output="50000"),
        answer_step(answer="50000"),
    )
    return SolutionPath(
        steps=steps, predicted_answer=normalize_answer("50000"), correct=True,
        tree_id=0, **_question_fields("flt-level1"),
    )


def _path_clean_code_output_differs():
    # The code ran fine but printed the roots, not the count the question
    # asked for; correct and error-free, but the output never states "0".
    steps = (
        code_step(analysis="solve the quadratic", code="print(roots)",
                  output="[1+2j, 1-2j]"),
        answer_step(answer="0"),
    )
    return SolutionPath(
        steps=steps, predicted_answer=normalize_answer("0"), correct=True,
        tree_id=0, **_question_fields("flt-level2"),
    )


def test_criterion_06_filtering_reproduces_reference_labels():
    with criterion(6):
        rejected = _path_all_code_errored_but_answered()
        level1 = _path_code_output_restates_answer()
        level2 = _path_clean_code_output_differs()
        assert classify_solution(rejected) is FilterLevel.REJECTED
        assert classify_solution(level1) is FilterLevel.LEVEL1
        assert classify_solution(level2) is FilterLevel.LEVEL2

        from dataclasses import replace

        corpus = [
            rejected,
            level1,
            replace(level1, tree_id=3),   # duplicate text from another tree
            level2,
            replace(level2, tree_id=5),
            replace(rejected, tree_id=7),
        ]
        survivors = filter_solutions(corpus)
        assert [(p.solution_text(), p.filter_level, p.tree_id) for p in survivors] == [
            (level1.solution_text(), FilterLevel.LEVEL1, 0),
            (level2.solution_text(), FilterLevel.LEVEL2, 0),
        ]


# --- criteria 7 and 8: generated datasets -----------------------------------


@pytest.fixture(scope="module")
def generate_rounds(tmp_path_factory):
    """Write a 20-question corpus and run the generate command twice on it."""
    base = tmp_path_factory.mktemp("generate-rounds")
    dataset = base / "questions.jsonl"
    rows = corpus_to_records(toy_corpus(20, seed=707))
    with dataset.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    outs = []
    for name in ("round_a.jsonl", "round_b.jsonl"):
        out = base / name
        code = main(["generate", str(dataset), "--out", str(out), "--seed", "9"])
        assert code == 0
        outs.append(out)
    return rows, outs


def test_criterion_07_exported_targets_match_tree_edges(generate_rounds):
    rows, outs = generate_rounds
    with criterion(7):
        records = [
            json.loads(line)
            for line in outs[0].read_text(encoding="utf-8").splitlines()
        ]
        assert records, "generation exported no records"
        index_of = {row["id"]: i for i, row in enumerate(rows)}
        gold_of = {row["id"]: row["gold_answer"] for row in rows}
        backend = ToyBackend(mode=Mode.COLD)
        search = SearchConfig(
            c_puct=1.25,
            n_simulations=40,
            expansion_width=5,
            max_depth=8,
            temperature=1.0,
            evaluation=EvaluationMode.TERMINAL_REWARD,
        )
        trees = {}
        for record in records:
            qid = record["question_id"]
            key = (qid, record["tree_id"])
            if key not in trees:
                seed = derive_seed(9, index_of[qid], record["tree_id"])
                assert seed == record["seed"]
                state = ReasoningState(question_id=qid, question_text=record["question"])
                trees[key] = build_tree(state, gold_of[qid], backend, search, seed)
            node = trees[key].root
            for position, step_doc in enumerate(record["steps"]):
                node = next(
                    child for child in node.children
                    if child.step.text == step_doc["text"]
                )
                last = position == len(record["steps"]) - 1
                if last:
                    assert node.terminal and node.reward is not None
                    assert step_doc["target_value"] in (-1.0, 1.0)
                    assert step_doc["target_value"] == node.reward.value
                else:
                    assert step_doc["target_value"] == node.stats.q()


def test_criterion_08_generation_reruns_are_byte_identical(generate_rounds):
    from rsp.datagen import manifest_path_for
    from pathlib import Path

    _, outs = generate_rounds
    with criterion(8):
        first, second = (Path(p) for p in outs)
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_bytes()) > 0
        assert (
            manifest_path_for(first).read_bytes()
            == manifest_path_for(second).read_bytes()
        )


# --- criterion 9: scoring primitives ----------------------------------------


def test_criterion_09_scoring_primitives_reference_values():
    with criterion(9):
        tol = 1e-6
        assert abs(code_step(mean_log_prob=0.0).prior - 1.0) <= tol
        assert abs(code_step(mean_log_prob=-1.0).prior - 0.367879) <= tol
        assert abs(code_step(mean_log_prob=-2.0).prior - 0.135335) <= tol
        with pytest.raises(ContractViolation):
            code_step(mean_log_prob=0.1)

        visited = NodeStats(prior=0.2, visits=1, total_value=0.5)
        assert abs(puct_score(visited, parent_visits=4, c_puct=1.25) - 0.75) <= tol
        fresh = NodeStats(prior=0.2)
        assert abs(puct_score(fresh, parent_visits=0, c_puct=1.25) - 0.0) <= tol
        sure_loss = NodeStats(prior=1e-12, visits=2, total_value=-2.0)
        assert abs(puct_score(sure_loss, parent_visits=100, c_puct=1.25) - (-1.0)) <= tol

        question = make_state("eval-q")
        answered = apply_step(question, answer_step(answer="50"))
        partial = apply_step(question, code_step(analysis="partial"))
        backend = ScriptedBackend(
            proposals={},
            values={answered.render(): 0.9, partial.render(): 0.42},
        )
        training = SearchConfig(evaluation=EvaluationMode.TERMINAL_REWARD)
        inference = SearchConfig(evaluation=EvaluationMode.MODEL_ONLY)

        def terminal_node(reward):
            return SearchNode(
                state=answered,
                stats=NodeStats(prior=1.0),
                depth=1,
                terminal=True,
                reward=Reward(reward),
            )

        assert abs(evaluate(terminal_node(1.0), backend, training) - 1.0) <= tol
        assert abs(evaluate(terminal_node(-1.0), backend, training) - (-1.0)) <= tol
        partial_node = SearchNode(state=partial, stats=NodeStats(prior=1.0), depth=1)
        assert abs(evaluate(partial_node, backend, training) - 0.42) <= tol
        assert abs(evaluate(partial_node, backend, inference) - 0.42) <= tol


# --- criterion 10: bounded values and conserved counts -----------------------


def _assert_search_invariants(tree):
    root = tree.root
    assert root.stats.visits == tree.total_backups
    assert root.children, "the first simulation must expand the root"
    assert root.stats.visits == sum(c.stats.visits for c in root.children)
    stack = [root]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.stats.visits:
            assert abs(node.stats.q()) <= 1.0 + 1e-9
        if node.terminal:
            assert not node.children
            assert node.stats.visits >= 1
        elif node.children:
            if node is not root:
                assert node.stats.visits == 1 + sum(
                    c.stats.visits for c in node.children
                )
        elif node is not root:
            assert node.stats.visits == 1


def test_criterion_10_invariants_hold_across_ten_thousand_simulations():
    with criterion(10):
        rng = random.Random(1010)
        target = 10_000
        per_tree = 40
        simulations = 0
        while simulations < target:
            problem = generate_problem(rng.randrange(1, 2**31))
            training = rng.random() < 0.5
            backend = ToyBackend.for_corpus(
                [problem], mode=rng.choice((Mode.COLD, Mode.ORACLE))
            )
            config = SearchConfig(
                n_simulations=1,
                expansion_width=rng.choice((2, 3, 5)),
                max_depth=rng.choice((6, 8)),
                evaluation=(
                    EvaluationMode.TERMINAL_REWARD
                    if training
                    else EvaluationMode.MODEL_ONLY
                ),
            )
            tree = build_tree(
                problem.root_state(),
                problem.gold_answer if training else None,
                backend,
                config,
                seed=rng.randrange(2**31),
            )
            simulations += 1
            _assert_search_invariants(tree)
            for _ in range(min(per_tree - 1, target - simulations)):
                run_simulation(tree, backend)
                simulations += 1
                _assert_search_invariants(tree)
        assert simulations == target
