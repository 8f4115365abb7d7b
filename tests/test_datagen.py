"""Training-data pipeline tests: harvest, filtering, selection, export."""

import json

import pytest

from conftest import answer_step, code_step
from rsp.core import ContractViolation, is_correct, normalize_answer
from rsp.datagen import (
    FilterLevel,
    SolutionPath,
    build_manifest,
    classify_solution,
    export_jsonl,
    filter_solutions,
    harvest_paths,
    manifest_path_for,
    select_for_round,
)
from rsp.mcts import (
    EvaluationMode,
    SearchConfig,
    SnapshotError,
    build_tree,
    snapshot_to_tree,
    tree_to_snapshot,
)
from rsp.toyenv import ToyBackend, generate_problem, toy_corpus


def labeled_path(
    steps,
    answer="50",
    correct=True,
    filter_level=None,
    targets=None,
    question_id="q-1",
    tree_id=0,
    path_index=0,
):
    steps = tuple(steps)
    return SolutionPath(
        question_id=question_id,
        question_text="<question>\nq\n</question>\n",
        steps=steps,
        predicted_answer=normalize_answer(answer),
        correct=correct,
        filter_level=filter_level,
        per_step_targets=targets if targets is not None else (0.5,) * len(steps),
        tree_id=tree_id,
        seed=0,
        path_index=path_index,
    )


def build_toy_trees(problem_seed=31, seeds=(0, 1), n_simulations=40):
    problem = generate_problem(problem_seed)
    backend = ToyBackend.for_corpus([problem])
    config = SearchConfig(n_simulations=n_simulations)
    trees = [
        build_tree(problem.root_state(), problem.gold_answer, backend, config, seed=s)
        for s in seeds
    ]
    return problem, trees


def test_harvest_covers_every_visited_answered_terminal():
    problem, trees = build_toy_trees()
    paths = harvest_paths(trees)
    assert paths
    gold = normalize_answer(problem.gold_answer)
    for path in paths:
        last = path.steps[-1]
        assert last.answer is not None
        assert path.predicted_answer is not None
        from rsp.core import answers_equivalent

        assert path.correct == answers_equivalent(path.predicted_answer, gold)
        assert len(path.per_step_targets) == len(path.steps)
        assert path.tree_id in (0, 1)
        assert path.seed == trees[path.tree_id].seed


def test_harvest_targets_match_tree_edges():
    _, trees = build_toy_trees()
    for path in harvest_paths(trees):
        node = trees[path.tree_id].root
        for step, target in zip(path.steps, path.per_step_targets):
            node = next(c for c in node.children if c.step.text == step.text)
            if node.terminal:
                assert target == node.reward.value
                assert target in (-1.0, 1.0)
            else:
                assert target == node.stats.q()


def test_harvest_indexes_paths_in_traversal_order():
    _, trees = build_toy_trees()
    paths = harvest_paths(trees)
    for tree_id in (0, 1):
        indices = [p.path_index for p in paths if p.tree_id == tree_id]
        assert indices == list(range(len(indices)))


def test_harvest_requires_gold_answers():
    problem = generate_problem(31)
    backend = ToyBackend.for_corpus([problem])
    config = SearchConfig(n_simulations=10, evaluation=EvaluationMode.MODEL_ONLY)
    tree = build_tree(problem.root_state(), None, backend, config)
    with pytest.raises(ContractViolation):
        harvest_paths([tree])


def test_harvest_refuses_an_answered_node_without_a_reward():
    # A snapshot may hold "reward": null on an answered terminal; harvesting
    # it names the node's depth instead of exporting a target of None.
    _, trees = build_toy_trees(seeds=(0,))
    doc = json.loads(json.dumps(tree_to_snapshot(trees[0])))
    answered = [n for n in doc["nodes"] if n["step_kind"] == "a" and n["visits"] > 0]
    assert answered
    answered[0]["reward"] = None
    tree = snapshot_to_tree(doc)
    with pytest.raises(ContractViolation, match=f"depth {answered[0]['depth']} "):
        harvest_paths([tree])


def test_harvest_labels_agree_with_grading_each_answer():
    # the label is the answered node's reward, graded once as the tree grew;
    # on 300 toy trees it equals grading each path's answer afresh
    labels = set()
    for problem in toy_corpus(30, seed=7):
        backend = ToyBackend.for_corpus([problem])
        config = SearchConfig(n_simulations=20)
        trees = [
            build_tree(problem.root_state(), problem.gold_answer, backend, config, seed=s)
            for s in range(10)
        ]
        for path in harvest_paths(trees):
            assert path.correct == is_correct(path.predicted_answer, problem.gold_answer)
            labels.add(path.correct)
    assert labels == {True, False}


def test_a_snapshot_whose_answers_are_not_terminal_is_refused_not_harvested_empty():
    # such a document used to load, and harvest dropped every one of its paths
    _, trees = build_toy_trees(seeds=(0,))
    doc = json.loads(json.dumps(tree_to_snapshot(trees[0])))
    assert len(harvest_paths([snapshot_to_tree(doc)])) == 6
    for node in doc["nodes"]:
        if node["step_kind"] == "a":
            node.update(terminal=False, reward=None)
    with pytest.raises(SnapshotError, match="answers but is not terminal"):
        snapshot_to_tree(doc)


def test_classify_rejects_paths_whose_code_never_ran():
    path = labeled_path(
        [
            code_step(analysis="try", errored=True),
            code_step(analysis="retry", errored=True),
            answer_step("50"),
        ],
        correct=True,  # even a correct answer cannot come from dead code
    )
    assert classify_solution(path) is FilterLevel.REJECTED


def test_classify_incorrect_paths_pass_through():
    path = labeled_path(
        [code_step(output="7"), answer_step("7")], answer="7", correct=False
    )
    assert classify_solution(path) is FilterLevel.INCORRECT


def test_classify_level1_when_code_output_states_the_answer():
    path = labeled_path(
        [code_step(output="50"), answer_step("50")], answer="50", correct=True
    )
    assert classify_solution(path) is FilterLevel.LEVEL1


def test_classify_level1_uses_numeric_equivalence():
    path = labeled_path(
        [code_step(output="50"), answer_step("50.0")], answer="50.0", correct=True
    )
    assert classify_solution(path) is FilterLevel.LEVEL1


def test_classify_level2_for_clean_code_without_matching_output():
    path = labeled_path(
        [code_step(output="intermediate"), answer_step("50")],
        answer="50",
        correct=True,
    )
    assert classify_solution(path) is FilterLevel.LEVEL2


def test_classify_level2_for_pure_reasoning_paths():
    path = labeled_path([answer_step("50")], answer="50", correct=True)
    assert classify_solution(path) is FilterLevel.LEVEL2


def test_classify_level3_when_some_code_errored():
    path = labeled_path(
        [
            code_step(analysis="bad", errored=True),
            code_step(analysis="good", output="junk"),
            answer_step("50"),
        ],
        answer="50",
        correct=True,
    )
    assert classify_solution(path) is FilterLevel.LEVEL3


def test_classify_requires_a_correctness_label():
    path = labeled_path([answer_step("50")], correct=None)
    with pytest.raises(ContractViolation):
        classify_solution(path)


def test_filter_deduplicates_and_drops_rejected():
    keep = labeled_path([code_step(output="50"), answer_step("50")], tree_id=0)
    dup = labeled_path([code_step(output="50"), answer_step("50")], tree_id=1)
    rejected = labeled_path(
        [code_step(analysis="x", errored=True), answer_step("50")], tree_id=2
    )
    wrong = labeled_path(
        [code_step(analysis="w", output="9"), answer_step("9")],
        answer="9",
        correct=False,
        tree_id=3,
    )
    survivors = filter_solutions([keep, dup, rejected, wrong])
    assert [p.tree_id for p in survivors] == [0, 3]
    assert survivors[0].filter_level is FilterLevel.LEVEL1
    assert survivors[1].filter_level is FilterLevel.INCORRECT


def test_filter_output_texts_are_unique():
    _, trees = build_toy_trees(seeds=(0, 1, 2))
    survivors = filter_solutions(harvest_paths(trees))
    texts = [p.solution_text() for p in survivors]
    assert len(texts) == len(set(texts))
    assert all(p.filter_level is not None for p in survivors)
    assert all(p.filter_level is not FilterLevel.REJECTED for p in survivors)


def test_selection_prefers_better_levels():
    pool = [
        labeled_path([answer_step(str(i))], filter_level=FilterLevel.LEVEL1, path_index=i)
        for i in range(6)
    ] + [
        labeled_path([answer_step(str(i))], filter_level=FilterLevel.LEVEL2, path_index=i)
        for i in range(6, 8)
    ]
    chosen = select_for_round(pool, max_pos=4, max_neg=4, seed=1)
    assert len(chosen) == 4
    assert all(p.filter_level is FilterLevel.LEVEL1 for p in chosen)


def test_selection_fills_from_lower_levels_when_short():
    pool = [
        labeled_path([answer_step("1")], filter_level=FilterLevel.LEVEL1, path_index=0),
        labeled_path([answer_step("2")], filter_level=FilterLevel.LEVEL2, path_index=1),
        labeled_path([answer_step("3")], filter_level=FilterLevel.LEVEL3, path_index=2),
    ]
    chosen = select_for_round(pool, max_pos=2, max_neg=0, seed=0)
    assert [p.filter_level for p in chosen] == [FilterLevel.LEVEL1, FilterLevel.LEVEL2]


def test_selection_caps_negatives():
    pool = [
        labeled_path(
            [answer_step(str(i))],
            correct=False,
            filter_level=FilterLevel.INCORRECT,
            path_index=i,
        )
        for i in range(5)
    ]
    chosen = select_for_round(pool, max_pos=4, max_neg=2, seed=3)
    assert len(chosen) == 2
    assert all(p.filter_level is FilterLevel.INCORRECT for p in chosen)


def test_selection_is_deterministic_per_seed():
    pool = [
        labeled_path([answer_step(str(i))], filter_level=FilterLevel.LEVEL2, path_index=i)
        for i in range(10)
    ]
    first = select_for_round(pool, max_pos=3, max_neg=0, seed=9)
    second = select_for_round(pool, max_pos=3, max_neg=0, seed=9)
    assert [p.path_index for p in first] == [p.path_index for p in second]
    assert set(p.path_index for p in first) <= set(range(10))
    with pytest.raises(ContractViolation):
        select_for_round(pool, max_pos=-1, max_neg=0)


def test_manifest_counts_and_ratio():
    pool = [
        labeled_path([answer_step("1")], filter_level=FilterLevel.LEVEL1),
        labeled_path([answer_step("2")], filter_level=FilterLevel.LEVEL2),
        labeled_path(
            [answer_step("3")], correct=False, filter_level=FilterLevel.INCORRECT
        ),
    ]
    manifest = build_manifest(
        pool, round_index=2, trees_per_question=10, max_pos=4, max_neg=4
    )
    assert manifest.records == 3
    assert manifest.pos_neg_ratio == pytest.approx(2.0)
    assert manifest.to_dict() == {
        "round": 2,
        "trees_per_question": 10,
        "max_pos": 4,
        "max_neg": 4,
        "records": 3,
        "pos_neg_ratio": 2.0,
    }


def test_manifest_ratio_is_null_without_negatives():
    pool = [labeled_path([answer_step("1")], filter_level=FilterLevel.LEVEL1)]
    manifest = build_manifest(
        pool, round_index=1, trees_per_question=1, max_pos=1, max_neg=1
    )
    assert manifest.pos_neg_ratio is None


def test_export_record_schema(tmp_path):
    path = labeled_path(
        [code_step(output="50"), answer_step("50")],
        filter_level=FilterLevel.LEVEL1,
        targets=(0.25, 1.0),
    )
    manifest = build_manifest([path], 1, 1, 4, 4)
    out, manifest_out = export_jsonl([path], tmp_path / "round1.jsonl", manifest)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert list(record) == [
        "question_id",
        "question",
        "steps",
        "label",
        "filter_level",
        "tree_id",
        "seed",
    ]
    assert record["label"] == "correct"
    assert record["filter_level"] == "level1"
    assert [s["target_value"] for s in record["steps"]] == [0.25, 1.0]
    assert [s["text"] for s in record["steps"]] == [s.text for s in path.steps]
    assert manifest_out == manifest_path_for(out)
    assert json.loads(manifest_out.read_text())["records"] == 1


def test_export_empty_dataset_writes_empty_file(tmp_path):
    manifest = build_manifest([], 1, 10, 4, 4)
    out, manifest_out = export_jsonl([], tmp_path / "empty.jsonl", manifest)
    assert out.read_text(encoding="utf-8") == ""
    assert json.loads(manifest_out.read_text())["records"] == 0


def test_export_orders_records_deterministically(tmp_path):
    paths = [
        labeled_path(
            [answer_step(str(i))],
            filter_level=FilterLevel.LEVEL2,
            question_id=qid,
            tree_id=tree_id,
            path_index=i,
        )
        for i, (qid, tree_id) in enumerate(
            [("q-2", 1), ("q-1", 1), ("q-2", 0), ("q-1", 0)]
        )
    ]
    manifest = build_manifest(paths, 1, 2, 4, 4)
    out, _ = export_jsonl(paths, tmp_path / "sorted.jsonl", manifest)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    keys = [(r["question_id"], r["tree_id"]) for r in records]
    assert keys == sorted(keys)


def test_export_orders_integer_ids_before_string_ids(tmp_path):
    # a dataset may mix id kinds; ints and strs do not compare with "<"
    paths = [
        labeled_path([answer_step("1")], filter_level=FilterLevel.LEVEL2, question_id=qid)
        for qid in ("b", 5, "a", 2)
    ]
    manifest = build_manifest(paths, 1, 1, 4, 4)
    out, _ = export_jsonl(paths, tmp_path / "mixed.jsonl", manifest)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["question_id"] for r in records] == [2, 5, "a", "b"]


def test_export_reruns_are_byte_identical(tmp_path):
    _, trees = build_toy_trees()
    survivors = filter_solutions(harvest_paths(trees))
    selected = select_for_round(survivors, max_pos=4, max_neg=4, seed=5)
    manifest = build_manifest(selected, 1, 2, 4, 4)
    first, first_manifest = export_jsonl(selected, tmp_path / "a.jsonl", manifest)
    second, second_manifest = export_jsonl(selected, tmp_path / "b.jsonl", manifest)
    assert first.read_bytes() == second.read_bytes()
    assert first_manifest.read_bytes() == second_manifest.read_bytes()


def test_export_rejects_unlabeled_or_unaligned_paths(tmp_path):
    manifest = build_manifest([], 1, 1, 4, 4)
    unlabeled = labeled_path([answer_step("1")], filter_level=None)
    with pytest.raises(ContractViolation):
        export_jsonl([unlabeled], tmp_path / "x.jsonl", manifest)
    misaligned = labeled_path(
        [answer_step("1")], filter_level=FilterLevel.LEVEL2, targets=(0.1, 0.2)
    )
    with pytest.raises(ContractViolation):
        export_jsonl([misaligned], tmp_path / "y.jsonl", manifest)