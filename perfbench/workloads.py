"""The three benchmark workloads.

Each is a closed loop from one client with one worker: the next item starts
when the previous one finishes. A workload has four steps, timed apart by
the runner: ``setup`` builds a fresh corpus and backend from the workload
seed, ``measure`` runs items until the time is up, ``check`` verifies every
output against an independent reference, and ``close`` releases what setup
started.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from rsp import cli
from rsp.core import EngineError, ReasoningState, answers_equivalent, apply_step, derive_seed, normalize_answer
from rsp.datagen import build_manifest, export_jsonl, filter_solutions, harvest_paths, manifest_path_for, select_for_round
from rsp.inference import decode_tree, greedy_decode, inference_search_config, majority_vote, sbs_decode
from rsp.mcts import EvaluationMode, SearchConfig, build_tree, mc_rollout_estimate
from rsp.policy import RemoteBackend
from rsp.toyenv import ActionKind, Mode, ToyBackend, corpus_to_records, toy_corpus

from instrument import CountingBackend, NullTracer, WireCounter

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    """What one measured phase produced, before and after its checks."""

    latencies_ns: list[int] = field(default_factory=list)
    wall_s: float = 0.0
    failed: set[int] = field(default_factory=set)
    accurate: int = 0
    counts: Counter = field(default_factory=Counter)
    # (strategy, correct, round trips) per solve-wire item, by item id
    decodes: dict[int, tuple[str, bool, int]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    wire: WireCounter | None = None
    server: dict | None = None
    pending: list = field(default_factory=list)  # what check() verifies

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def add_tree(self, tree) -> None:
        nodes = 0
        stack = [tree.root]
        while stack:
            node = stack.pop()
            nodes += 1
            stack.extend(node.children)
        self.counts["trees"] += 1
        self.counts["sims"] += tree.simulations_run
        self.counts["nodes"] += nodes
        self.counts["exhausted_trees"] += int(tree.root.exhausted)

    def add_backend(self, backend: CountingBackend) -> None:
        self.counts["propose"] += backend.propose_calls
        self.counts["value"] += backend.value_calls
        self.counts["dead_ends"] += backend.dead_ends


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_item(tracer, outcome: Outcome, fn, *args):
    """Run one item as a 'bench.item' span; an EngineError marks it failed."""
    item = outcome.attempted
    tracer.item = item
    started = perf_counter_ns()
    try:
        result = tracer.call("bench.item", fn, *args)
    except EngineError as exc:
        print(f"item {item} failed: {exc}", file=sys.stderr)
        outcome.failed.add(item)
        result = None
    outcome.latencies_ns.append(perf_counter_ns() - started)
    tracer.item = None
    tracer.flush()
    return item, result


# --- generate ---------------------------------------------------------------

# `rsp generate` defaults: cold values, training-mode trees, 10 trees per
# question, settings seed 0, at most 4 positive and 4 negative paths each.
GENERATE_SEARCH = SearchConfig(
    c_puct=1.25,
    n_simulations=40,
    expansion_width=5,
    max_depth=8,
    temperature=1.0,
    evaluation=EvaluationMode.TERMINAL_REWARD,
)
GENERATE_TREES = 10
GENERATE_SETTINGS_SEED = 0
GENERATE_MAX_POS = GENERATE_MAX_NEG = 4
GENERATE_ROUND = 1
# Questions per exported file. Each chunk is one `rsp generate` run over a
# dataset of this many rows, with its own cold backend.
GENERATE_CHUNK = 10
# More questions than one run gets through, so every question is new and
# the toy caches stay cold; a faster program wraps around to fresh backends.
GENERATE_CORPUS = 1500


class Generate:
    name = "generate"

    def setup(self, seed: int, src: Path) -> dict:
        return {"rows": corpus_to_records(toy_corpus(GENERATE_CORPUS, seed))}

    def close(self, ctx: dict) -> None:
        pass

    def _question(self, tracer, outcome: Outcome, backend, index: int, row: dict):
        state = ReasoningState(question_id=row["id"], question_text=row["question"])
        trees = [
            tracer.call(
                "mcts.build_tree", build_tree, state, row["gold_answer"], backend,
                GENERATE_SEARCH, derive_seed(GENERATE_SETTINGS_SEED, index, t),
            )
            for t in range(GENERATE_TREES)
        ]
        harvested = tracer.call("datagen.harvest_paths", harvest_paths, trees)
        pooled = tracer.call("datagen.filter_solutions", filter_solutions, harvested)
        chosen = tracer.call(
            "datagen.select_for_round", select_for_round, pooled,
            GENERATE_MAX_POS, GENERATE_MAX_NEG,
            seed=derive_seed(GENERATE_SETTINGS_SEED, index, 0x5E1EC7),
        )
        if tracer.enabled:
            for tree in trees:
                outcome.add_tree(tree)
        outcome.counts["harvested"] += len(harvested)
        return chosen

    def _export(self, tracer, selected, path: Path):
        manifest = build_manifest(
            selected, round_index=GENERATE_ROUND, trees_per_question=GENERATE_TREES,
            max_pos=GENERATE_MAX_POS, max_neg=GENERATE_MAX_NEG,
        )
        return tracer.call("datagen.export_jsonl", export_jsonl, selected, path, manifest)

    def measure(self, ctx: dict, seconds: float, tracer, out_dir: Path) -> Outcome:
        rows = ctx["rows"]
        outcome = Outcome()
        export_dir = out_dir / "export"
        export_dir.mkdir(parents=True, exist_ok=True)
        started = perf_counter()
        chunk = 0
        while perf_counter() - started < seconds:
            chunk_rows = [rows[(chunk * GENERATE_CHUNK + i) % len(rows)] for i in range(GENERATE_CHUNK)]
            backend = CountingBackend(ToyBackend(mode=Mode.COLD), tracer)
            selected, items = [], []
            for index, row in enumerate(chunk_rows):
                item, chosen = _run_item(tracer, outcome, self._question, tracer, outcome, backend, index, row)
                items.append(item)
                if chosen:
                    selected.extend(chosen)
                    outcome.accurate += any(p.correct for p in chosen)
            out_path, manifest_path = tracer.call(
                "bench.chunk", self._export, tracer, selected, export_dir / f"chunk-{chunk:05d}.jsonl"
            )
            tracer.flush()
            outcome.counts["questions"] += len(chunk_rows)
            outcome.counts["exported"] += len(selected)
            outcome.counts["positives"] += sum(1 for p in selected if p.correct)
            outcome.counts["negatives"] += sum(1 for p in selected if p.correct is False)
            outcome.add_backend(backend)
            outcome.pending.append((chunk_rows, out_path, manifest_path, items))
            chunk += 1
        outcome.wall_s = perf_counter() - started
        outcome.peak_rss_mb = _peak_rss_mb()
        return outcome

    def check(self, ctx: dict, outcome: Outcome, out_dir: Path) -> None:
        """Each exported chunk and its manifest must equal `rsp generate` byte for byte."""
        ref_dir = out_dir / "reference"
        ref_dir.mkdir(parents=True, exist_ok=True)
        for chunk, (rows, out_path, manifest_path, items) in enumerate(outcome.pending):
            dataset = ref_dir / f"chunk-{chunk:05d}.dataset.jsonl"
            dataset.write_text(
                "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8"
            )
            ref_out = ref_dir / f"chunk-{chunk:05d}.jsonl"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["generate", str(dataset), "--out", str(ref_out)])
            same = (
                code == cli.EXIT_OK
                and out_path.read_bytes() == ref_out.read_bytes()
                and manifest_path.read_bytes() == manifest_path_for(ref_out).read_bytes()
            )
            if not same:
                print(f"generate chunk {chunk}: export differs from `rsp generate`", file=sys.stderr)
                outcome.failed.update(items)


# --- solve-wire -------------------------------------------------------------

STRATEGIES = ("greedy", "sbs1", "sbs3", "mcts", "maj")
# Questions cycle; a run of the current program decodes far fewer.
SOLVE_CORPUS = 200


def decode(tracer, strategy: str, state: ReasoningState, backend, seed: int, outcome: Outcome | None = None):
    """One decode of one question by one strategy, with the paper's settings."""
    if strategy == "greedy":
        return tracer.call("inference.greedy_decode", greedy_decode, state, backend)
    if strategy in ("sbs1", "sbs3"):
        return tracer.call(
            "inference.sbs_decode", sbs_decode, state, backend,
            beam_width=int(strategy[-1]), expansion_width=5, temperature=1.0, seed=seed,
        )
    if strategy == "mcts":
        tree = tracer.call("mcts.build_tree", build_tree, state, None, backend, inference_search_config(), seed)
        if outcome is not None and tracer.enabled:
            outcome.add_tree(tree)
        return tracer.call("inference.decode_tree", decode_tree, tree, 1)
    if strategy == "maj":
        return tracer.call(
            "inference.majority_vote", majority_vote, state, backend, k=5, temperature=1.0, seed=seed
        )
    raise ValueError(f"unknown strategy {strategy!r}")


class WireServer:
    """The reference server in a child process, driven over its stdin."""

    def __init__(self, src: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "wire_server.py"), str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("wire server exited before it was listening")
        self.url = f"http://127.0.0.1:{json.loads(line)['port']}"

    def command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def stop(self) -> None:
        if self.proc.poll() is None:
            with contextlib.suppress(OSError):
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class SolveWire:
    name = "solve-wire"

    def setup(self, seed: int, src: Path) -> dict:
        problems = toy_corpus(SOLVE_CORPUS, seed)
        server = WireServer(src)
        try:
            remote = RemoteBackend(server.url)
            reference = ToyBackend(mode=Mode.ORACLE)
            root = problems[0].root_state()
            # Health check: the server answers, and with the oracle's value.
            if remote.predict_value(root).value != reference.predict_value(root).value:
                raise RuntimeError("wire server health check returned a wrong value")
        except BaseException:
            server.stop()
            raise
        return {"seed": seed, "problems": problems, "server": server, "remote": remote}

    def close(self, ctx: dict) -> None:
        ctx["server"].stop()

    def measure(self, ctx: dict, seconds: float, tracer, out_dir: Path) -> Outcome:
        problems, server = ctx["problems"], ctx["server"]
        outcome = Outcome(wire=WireCounter(tracer))
        backend = CountingBackend(ctx["remote"], tracer)
        server.command("reset")
        with outcome.wire.installed() as wire:
            started = perf_counter()
            question = 0
            while perf_counter() - started < seconds:
                problem = problems[question % len(problems)]
                seed = derive_seed(ctx["seed"], question)
                gold = normalize_answer(problem.gold_answer)
                for strategy in STRATEGIES:
                    round_trips = wire.round_trips
                    item, report = _run_item(
                        tracer, outcome, decode, tracer, strategy, problem.root_state(), backend, seed, outcome
                    )
                    answer = report.answer if report is not None else None
                    correct = answer is not None and answers_equivalent(answer, gold)
                    outcome.accurate += correct
                    outcome.decodes[item] = (strategy, correct, wire.round_trips - round_trips)
                    outcome.pending.append((item, problem, strategy, seed, answer))
                question += 1
            outcome.wall_s = perf_counter() - started
        outcome.peak_rss_mb = _peak_rss_mb()
        if outcome.wire.round_trips == 0:
            # The client no longer sends through requests: the wire counts
            # would silently read 0, so stop instead.
            raise RuntimeError("no HTTP round trips seen at the requests transport adapter")
        outcome.server = server.command("stats")
        outcome.add_backend(backend)
        outcome.counts["round_trips"] = outcome.wire.round_trips
        outcome.counts["wire_bytes"] = outcome.wire.body_bytes
        return outcome

    def check(self, ctx: dict, outcome: Outcome, out_dir: Path) -> None:
        """Each answer must equal an in-process decode with the same seed."""
        reference = ToyBackend(mode=Mode.ORACLE)
        for item, problem, strategy, seed, answer in outcome.pending:
            expected = decode(NullTracer(), strategy, problem.root_state(), reference, seed).answer
            got = answer.normalized if answer is not None else None
            want = expected.normalized if expected is not None else None
            if got != want:
                print(f"solve-wire item {item} ({strategy}): {got!r} != in-process {want!r}", file=sys.stderr)
                outcome.failed.add(item)


# --- rollout ----------------------------------------------------------------

ROLLOUTS = 200
# Rewards are +/-1, so by Hoeffding an estimate from n rollouts lands farther
# than 6/sqrt(n) from the truth with probability below 2*exp(-18): such an
# estimate is a defect. Within 2/sqrt(n) (two standard deviations at the
# largest possible variance) counts towards accuracy. The same bound over
# all n*N rollouts of a run catches a bias too small to show in one
# estimate: the mean of sign(truth) * error must stay within 6/sqrt(n*N).
ROLLOUT_FAIL_TOL = 6.0 / ROLLOUTS**0.5
ROLLOUT_ACCURATE_TOL = 2.0 / ROLLOUTS**0.5


def _random_deeper_state(problem, rng: random.Random) -> ReasoningState:
    """Walk 1-2 non-answer actions down from the root, as acceptance criterion 2 does."""
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


class Rollout:
    name = "rollout"

    def setup(self, seed: int, src: Path) -> dict:
        problems = toy_corpus(20, seed)
        backend = ToyBackend.for_corpus(problems, mode=Mode.ORACLE)
        rng = random.Random(seed)
        states = [(p, p.root_state()) for p in problems]
        while len(states) < 50:
            problem = problems[rng.randrange(len(problems))]
            states.append((problem, _random_deeper_state(problem, rng)))
        return {"seed": seed, "backend": backend, "states": states}

    def close(self, ctx: dict) -> None:
        pass

    def measure(self, ctx: dict, seconds: float, tracer, out_dir: Path) -> Outcome:
        states = ctx["states"]
        outcome = Outcome()
        backend = CountingBackend(ctx["backend"], tracer)
        started = perf_counter()
        while perf_counter() - started < seconds:
            index = outcome.attempted
            problem, state = states[index % len(states)]
            item, estimate = _run_item(
                tracer, outcome, tracer.call, "mcts.mc_rollout_estimate", mc_rollout_estimate,
                state, problem.gold_answer, backend, ROLLOUTS, derive_seed(ctx["seed"], index),
            )
            outcome.pending.append((item, state, estimate))
        outcome.wall_s = perf_counter() - started
        outcome.peak_rss_mb = _peak_rss_mb()
        outcome.add_backend(backend)
        return outcome

    def check(self, ctx: dict, outcome: Outcome, out_dir: Path) -> None:
        """Score each estimate, and the run's estimates together, against the exact values."""
        signed = []
        for item, state, estimate in outcome.pending:
            if estimate is None:
                continue
            truth = ctx["backend"].true_value(state)
            error = estimate - truth
            if abs(error) > ROLLOUT_FAIL_TOL:
                print(f"rollout item {item}: estimate {estimate} is {error:+.3f} off", file=sys.stderr)
                outcome.failed.add(item)
            outcome.accurate += abs(error) <= ROLLOUT_ACCURATE_TOL
            signed.append(math.copysign(1.0, truth) * error if truth else 0.0)
        bias = sum(signed) / len(signed) if signed else 0.0
        if abs(bias) > ROLLOUT_FAIL_TOL / len(signed) ** 0.5:
            print(f"rollout estimates are biased: mean signed error {bias:+.4f}", file=sys.stderr)
            outcome.failed.update(item for item, _, _ in outcome.pending)


WORKLOADS = {w.name: w for w in (Generate(), SolveWire(), Rollout())}
