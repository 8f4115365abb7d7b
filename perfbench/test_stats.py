"""Tests of the benchmark's own arithmetic.

Run from the repository root with: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from instrument import Tracer  # noqa: E402
from stats import (  # noqa: E402
    covered_length,
    percentile,
    quartile_spread,
    samples_beyond,
    self_times,
    tail_percentile,
)


def test_percentile_interpolates_between_ranks():
    values = [40.0, 10.0, 30.0, 20.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == pytest.approx(25.0)
    assert percentile(values, 90) == pytest.approx(37.0)
    assert percentile([7.0], 99) == 7.0


def test_percentile_rejects_empty_sample_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_counts_ranks_above_the_percentile():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(901, 99) == 9
    assert samples_beyond(902, 99) == 10
    assert samples_beyond(11, 50) == 5
    assert samples_beyond(0, 50) == 0


def test_tail_percentile_is_highest_with_ten_samples_beyond_it():
    assert tail_percentile(100_000) == 95.0
    assert tail_percentile(182) == 95.0
    assert tail_percentile(181) == 90.0
    assert tail_percentile(101) == 90.0
    # Too few samples for any tail: the median stands in.
    assert tail_percentile(15) == 50.0


def test_covered_length_merges_overlaps_and_clips_to_the_window():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(2, 4), (6, 7)], 0, 10) == 3
    assert covered_length([(2, 6), (4, 8)], 0, 10) == 6
    assert covered_length([(-5, 3), (8, 20)], 0, 10) == 5
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_times_subtract_direct_children_only():
    spans = [
        (0, 100, -1),  # root
        (10, 40, 0),  # child of root
        (20, 30, 1),  # grandchild: counted against the child, not the root
        (50, 70, 0),  # second child of root
        (60, 90, 3),  # overruns its parent: clipped at 70
    ]
    assert self_times(spans) == [50, 20, 10, 10, 30]


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.0, 12.0, 8.0, 10.0, 10.0, 11.0, 9.0]
    # quantiles(n=4) of these values are 9.0, 10.0 and 11.0
    assert quartile_spread(values) == pytest.approx(0.2)


def test_tracer_rolls_up_self_time_and_backend_time_per_item():
    # Every clock reading advances 10 ns.
    tracer = Tracer(retain=1, clock=iter(range(0, 1000, 10)).__next__)

    def item():
        tracer.call("mcts.build_tree", lambda: tracer.call("backend.propose", lambda: None))

    tracer.item = 0
    tracer.call("bench.item", item)
    tracer.flush()
    tracer.item = 1
    tracer.call("bench.item", item)
    tracer.flush()
    # bench.item spans 0..50, build_tree 10..40, propose 20..30 on each item
    assert tracer.totals["bench.item"] == [2, 100, 40]
    assert tracer.totals["mcts.build_tree"] == [2, 60, 40]
    assert tracer.backend_within["mcts.build_tree"] == 20
    assert tracer.backend_within["bench.item"] == 20
    assert tracer.items == {0: (50, 10), 1: (50, 10)}
    assert tracer.layer_self_ns() == {"bench": 40, "mcts": 40, "backend": 20}
    assert list(tracer.durations["backend.propose"]) == [10, 10]
    # Only the first flush is retained for the span file.
    assert [span[0] for span in tracer.kept] == ["bench.item", "mcts.build_tree", "backend.propose"]
    assert [span[3] for span in tracer.kept] == [-1, 0, 1]


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def test_rollout_check_fails_a_biased_run_but_not_a_noisy_one():
    from workloads import Outcome, Rollout

    class ExactValues:
        def true_value(self, state):
            return state  # the fake states are their own exact values

    ctx = {"backend": ExactValues()}
    truths = [-0.5] * 400
    noisy = Outcome(pending=[(i, v, v + (0.05 if i % 2 else -0.05)) for i, v in enumerate(truths)])
    Rollout().check(ctx, noisy, ROOT)
    assert not noisy.failed and noisy.accurate == 400

    shrunk = Outcome(pending=[(i, v, v + 0.05) for i, v in enumerate(truths)])
    Rollout().check(ctx, shrunk, ROOT)
    assert shrunk.failed == set(range(400))
