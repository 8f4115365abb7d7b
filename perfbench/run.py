"""Benchmark of the rsp search engine on the toy environment.

Usage, from the repository root:

    python3 perfbench/run.py --workload generate|solve-wire|rollout \
        --seed N --seconds S --trace 0|1

With --trace 0 the run sets up several times, measures end-to-end metrics
for S seconds with tracing off, checks every output, and prints every
end-to-end metric. With --trace 1 it measures S/2 seconds untraced and S/2
seconds traced, on the same inputs, and prints the per-layer metrics; the
spans of the first items are written under .perfbench_run/. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import requests

from stats import percentile, samples_beyond, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_run"

# setup_s is the median of several set-ups per run: at least
# SETUP_MIN_REPEATS, then more while they fit in SETUP_BUDGET_S.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 1.0

# (name, unit, better), in the order they are printed. The BENCHMARK.json
# lists must match these; a test checks that they do.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_tail_ms", "ms", "lower"),
    ("accuracy", "ratio", "higher"),
    ("propose_calls_per_item", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# End-to-end metrics that read 0 on some workload. They are printed with
# the others, but as zero they cannot carry a relative bound, so the JSON
# line carries them only in the traced run, among the per-layer metrics.
END_TO_END_ZERO = [
    ("value_calls_per_item", "count", "lower"),
    ("round_trips_per_item", "count", "lower"),
    ("wire_bytes_per_item", "bytes", "lower"),
    ("failed_ratio", "ratio", "lower"),
]
LAYERS = ("bench", "backend", "core", "mcts", "wire", "inference", "datagen")
PER_LAYER = (
    [
        ("backend.propose_us_p50", "us", "lower"),
        ("backend.value_us_p50", "us", "lower"),
        ("backend.propose_share", "ratio", "lower"),
        ("backend.value_share", "ratio", "lower"),
        ("backend.dead_ends_per_item", "count", "lower"),
        ("core.apply_step_us", "us", "lower"),
        ("core.apply_step_calls_per_item", "count", "lower"),
        ("core.render_us", "us", "lower"),
        ("core.render_calls_per_item", "count", "lower"),
        ("mcts.us_per_sim", "us", "lower"),
        ("mcts.select_us_per_sim", "us", "lower"),
        ("mcts.expand_self_us_per_sim", "us", "lower"),
        ("mcts.evaluate_self_us_per_sim", "us", "lower"),
        ("mcts.backup_us_per_sim", "us", "lower"),
        ("mcts.other_us_per_sim", "us", "lower"),
        ("mcts.sims_per_tree", "count", "lower"),
        ("mcts.nodes_per_tree", "count", "lower"),
        ("mcts.exhausted_tree_share", "ratio", "higher"),
        ("wire.rtt_p50_us", "us", "lower"),
        ("wire.rtt_tail_us", "us", "lower"),
        ("wire.server_backend_us_per_rt", "us", "lower"),
        ("wire.server_decode_us_per_rt", "us", "lower"),
        ("wire.overhead_us_per_rt", "us", "lower"),
        ("wire.request_bytes_per_rt", "bytes", "lower"),
        ("wire.response_bytes_per_rt", "bytes", "lower"),
        ("wire.retries", "count", "lower"),
        ("wire.failed_round_trips", "count", "lower"),
        ("wire.rerequests_per_propose", "ratio", "lower"),
    ]
    + [
        (f"inference.{s}.{m}", unit, better)
        for s in ("greedy", "sbs1", "sbs3", "mcts", "maj")
        for m, unit, better in (
            ("accuracy", "ratio", "higher"),
            ("round_trips_per_question", "count", "lower"),
            ("self_ms_per_question", "ms", "lower"),
        )
    ]
    + [
        ("inference.q_sweep_us", "us", "lower"),
        ("datagen.harvest_us_per_tree", "us", "lower"),
        ("datagen.filter_us_per_path", "us", "lower"),
        ("datagen.select_us_per_question", "us", "lower"),
        ("datagen.export_us_per_record", "us", "lower"),
        ("datagen.paths_per_tree", "count", "higher"),
        ("datagen.kept_ratio", "ratio", "higher"),
        ("datagen.pos_neg_ratio", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "higher"),
    ]
    + [(f"trace.self_us_per_item.{layer}", "us", "lower") for layer in LAYERS]
    + END_TO_END_ZERO
)


def machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "requests": requests.__version__,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(outcome, setup_s: float) -> tuple[dict, str]:
    n = outcome.attempted
    latencies_ms = [ns / 1e6 for ns in outcome.latencies_ns]
    tail = tail_percentile(n)
    values = {
        "setup_s": setup_s,
        "items_per_s": n / outcome.wall_s,
        "item_p50_ms": percentile(latencies_ms, 50.0),
        "item_tail_ms": percentile(latencies_ms, tail),
        "accuracy": outcome.accurate / n,
        "propose_calls_per_item": outcome.counts["propose"] / n,
        "peak_rss_mb": outcome.peak_rss_mb,
        "value_calls_per_item": outcome.counts["value"] / n,
        "round_trips_per_item": outcome.counts["round_trips"] / n,
        "wire_bytes_per_item": outcome.counts["wire_bytes"] / n,
        "failed_ratio": len(outcome.failed) / n,
    }
    note = f"p{tail:g} of {n} items, {samples_beyond(n, tail)} beyond it"
    return values, note


def per_layer_metrics(outcome, tracer, untraced_items_per_s: float) -> dict:
    n = outcome.attempted
    counts = outcome.counts
    wall_ns = outcome.wall_s * 1e9
    values, _ = end_to_end_metrics(outcome, 0.0)
    out = {name: values[name] for name, _, _ in END_TO_END_ZERO}

    def p50_us(name):
        durations = tracer.durations[name]
        return percentile(durations, 50.0) / 1e3 if durations else 0.0

    def mean_us(name):
        return _ratio(tracer.total_ns(name), tracer.count(name)) / 1e3

    def self_us(name):
        """Span time with the backend calls made inside it taken out."""
        return (tracer.total_ns(name) - tracer.backend_within[name]) / 1e3

    out["backend.propose_us_p50"] = p50_us("backend.propose")
    out["backend.value_us_p50"] = p50_us("backend.value")
    out["backend.propose_share"] = _ratio(tracer.total_ns("backend.propose"), wall_ns)
    out["backend.value_share"] = _ratio(tracer.total_ns("backend.value"), wall_ns)
    out["backend.dead_ends_per_item"] = counts["dead_ends"] / n
    out["core.apply_step_us"] = mean_us("core.apply_step")
    out["core.apply_step_calls_per_item"] = tracer.count("core.apply_step") / n
    out["core.render_us"] = mean_us("core.render")
    out["core.render_calls_per_item"] = tracer.count("core.render") / n

    sims = counts["sims"]
    per_sim = {
        part: _ratio(self_us(f"mcts.{part}"), sims)
        for part in ("build_tree", "select", "expand", "evaluate", "backup")
    }
    out["mcts.us_per_sim"] = per_sim["build_tree"]
    out["mcts.select_us_per_sim"] = per_sim["select"]
    out["mcts.expand_self_us_per_sim"] = per_sim["expand"]
    out["mcts.evaluate_self_us_per_sim"] = per_sim["evaluate"]
    out["mcts.backup_us_per_sim"] = per_sim["backup"]
    out["mcts.other_us_per_sim"] = per_sim["build_tree"] - sum(
        per_sim[p] for p in ("select", "expand", "evaluate", "backup")
    )
    out["mcts.sims_per_tree"] = _ratio(sims, counts["trees"])
    out["mcts.nodes_per_tree"] = _ratio(counts["nodes"], counts["trees"])
    out["mcts.exhausted_tree_share"] = _ratio(counts["exhausted_trees"], counts["trees"])

    wire, server = outcome.wire, outcome.server or {}
    rtts = tracer.durations["wire.rtt"]
    round_trips = wire.round_trips if wire else 0
    server_backend_us = _ratio(server.get("backend_ns", 0), server.get("requests", 0)) / 1e3
    out["wire.rtt_p50_us"] = p50_us("wire.rtt")
    out["wire.rtt_tail_us"] = percentile(rtts, tail_percentile(len(rtts))) / 1e3 if rtts else 0.0
    out["wire.server_backend_us_per_rt"] = server_backend_us
    out["wire.server_decode_us_per_rt"] = _ratio(server.get("decode_ns", 0), server.get("requests", 0)) / 1e3
    out["wire.overhead_us_per_rt"] = mean_us("wire.rtt") - server_backend_us if rtts else 0.0
    out["wire.request_bytes_per_rt"] = _ratio(wire.request_bytes, round_trips) if wire else 0.0
    out["wire.response_bytes_per_rt"] = _ratio(wire.response_bytes, round_trips) if wire else 0.0
    out["wire.retries"] = wire.retries if wire else 0
    out["wire.failed_round_trips"] = round_trips - wire.statuses[200] if wire else 0
    out["wire.rerequests_per_propose"] = (
        _ratio(wire.by_path["/propose"] - wire.retried_paths["/propose"] - counts["propose"], counts["propose"])
        if wire else 0.0
    )

    for strategy in ("greedy", "sbs1", "sbs3", "mcts", "maj"):
        items = [(i, d) for i, d in outcome.decodes.items() if d[0] == strategy]
        self_ns = [tracer.items[i][0] - tracer.items[i][1] for i, _ in items if i in tracer.items]
        out[f"inference.{strategy}.accuracy"] = _ratio(sum(d[1] for _, d in items), len(items))
        out[f"inference.{strategy}.round_trips_per_question"] = _ratio(sum(d[2] for _, d in items), len(items))
        out[f"inference.{strategy}.self_ms_per_question"] = _ratio(sum(self_ns), len(self_ns)) / 1e6
    out["inference.q_sweep_us"] = mean_us("inference.q_sweep")

    out["datagen.harvest_us_per_tree"] = _ratio(tracer.total_ns("datagen.harvest_paths"), counts["trees"]) / 1e3
    out["datagen.filter_us_per_path"] = _ratio(tracer.total_ns("datagen.filter_solutions"), counts["harvested"]) / 1e3
    out["datagen.select_us_per_question"] = _ratio(tracer.total_ns("datagen.select_for_round"), counts["questions"]) / 1e3
    out["datagen.export_us_per_record"] = _ratio(tracer.total_ns("datagen.export_jsonl"), counts["exported"]) / 1e3
    out["datagen.paths_per_tree"] = _ratio(counts["harvested"], counts["trees"])
    out["datagen.kept_ratio"] = _ratio(counts["exported"], counts["harvested"])
    out["datagen.pos_neg_ratio"] = _ratio(counts["positives"], counts["negatives"])

    out["trace.overhead_ratio"] = _ratio(n / outcome.wall_s, untraced_items_per_s)
    layer_self = tracer.layer_self_ns()
    for layer in LAYERS:
        out[f"trace.self_us_per_item.{layer}"] = layer_self[layer] / n / 1e3
    return out


def _phase(workload, seed: int, seconds: float, tracer, out_dir: Path):
    """Set up once, measure, close, then check the outputs.

    Returns the outcome and the set-up time in seconds.
    """
    from instrument import NullTracer, patched

    started = perf_counter()
    ctx = workload.setup(seed, SRC)
    setup_s = perf_counter() - started
    try:
        if tracer is None:
            outcome = workload.measure(ctx, seconds, NullTracer(), out_dir)
        else:
            with patched(tracer, traced_attributes()):
                outcome = workload.measure(ctx, seconds, tracer, out_dir)
    finally:
        workload.close(ctx)
    workload.check(ctx, outcome, out_dir)
    return outcome, setup_s


def traced_attributes() -> list:
    """Module attributes the search and decoding loops look up at call time."""
    import rsp.core
    import rsp.inference
    import rsp.mcts

    return [
        (rsp.mcts, "select", "mcts.select"),
        (rsp.mcts, "expand", "mcts.expand"),
        (rsp.mcts, "evaluate", "mcts.evaluate"),
        (rsp.mcts, "backup", "mcts.backup"),
        (rsp.mcts, "apply_step", "core.apply_step"),
        (rsp.inference, "apply_step", "core.apply_step"),
        (rsp.inference, "sbs_search", "inference.sbs_search"),
        (rsp.inference, "q_sweep", "inference.q_sweep"),
        (rsp.core.ReasoningState, "render", "core.render"),
    ]


def write_spans(tracer, path: Path, info: dict) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"machine": info, "fields": ["name", "start_ns", "end_ns", "parent", "item"]}) + "\n")
        for span in tracer.kept:
            handle.write(json.dumps(span) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "rsp" / "__init__.py").is_file():
        print(f"error: no rsp package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rsp

    if Path(rsp.__file__).resolve().parent != (SRC / "rsp").resolve():
        print(f"error: imported rsp from {rsp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from instrument import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    info = machine_info()
    print(f"# machine: {json.dumps(info)}")
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    if args.trace == 0:
        # The measured phase makes the last set-up.
        setups = []
        while len(setups) < SETUP_MIN_REPEATS - 1 or (
            sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX_REPEATS - 1
        ):
            started = perf_counter()
            ctx = workload.setup(args.seed, SRC)
            setups.append(perf_counter() - started)
            workload.close(ctx)
        outcome, setup_s = _phase(workload, args.seed, args.seconds, None, out_dir)
        setups.append(setup_s)
        values, note = end_to_end_metrics(outcome, statistics.median(setups))
        shown = END_TO_END + END_TO_END_ZERO
        reported = END_TO_END
        attempted, failed = outcome.attempted, len(outcome.failed)
    else:
        untraced, _ = _phase(workload, args.seed, args.seconds / 2, None, out_dir / "untraced")
        tracer = Tracer()
        outcome, _ = _phase(workload, args.seed, args.seconds / 2, tracer, out_dir / "traced")
        values = per_layer_metrics(outcome, tracer, untraced.attempted / untraced.wall_s)
        note = ""
        shown = reported = PER_LAYER
        attempted = untraced.attempted + outcome.attempted
        failed = len(untraced.failed) + len(outcome.failed)
        spans_path = out_dir / "spans.jsonl"
        write_spans(tracer, spans_path, info)
        print(f"# spans of the first items: {spans_path.relative_to(ROOT)}")

    for name, unit, _ in shown:
        extra = f"   ({note})" if name == "item_tail_ms" else ""
        print(f"{name:40s} {values[name]:14.6g} {unit}{extra}")
    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in reported},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
