"""Command-line interface: solve questions, generate training data, and
inspect tree snapshots.

Settings are resolved as: built-in defaults, then a JSON config file
(--config), then explicit flags. The remote backend URL is additionally
overridden by the RSP_BACKEND_URL environment variable. Every setting is
checked against its allowed values before any input loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .core import (
    ContractViolation,
    EngineError,
    ReasoningState,
    derive_seed,
    is_correct,
    json_field,
    parse_json,
)
from .datagen import (
    build_manifest,
    export_jsonl,
    filter_solutions,
    harvest_paths,
    select_for_round,
)
from .inference import DECODERS, DEFAULT_TEMPERATURES, q_sweep
from .mcts import (
    EvaluationMode,
    SearchConfig,
    SnapshotError,
    build_tree,
    iter_nodes,
    snapshot_to_tree,
    tree_to_snapshot,
)
from .policy import BACKEND_URL_ENV, RemoteBackend
from .toyenv import Mode, ToyBackend, corpus_to_records, toy_corpus

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATASET = 3
EXIT_BACKEND = 4


class ConfigError(EngineError):
    pass


class DatasetError(EngineError):
    pass


STRATEGIES = tuple(DECODERS)

# The largest beam width (b1, for solve and inspect) and vote count (k): far
# above any useful width, and small enough that a beam that wide fits in memory.
MAX_WIDTH = 1000

# Every setting: its built-in default, the JSON kind a config file gives it
# (read by core.json_field; null means the default), and its allowed values:
# a tuple of choices, the least allowed integer, a range of integers, or None
# (SearchConfig checks the search settings).
_SETTINGS = {
    "strategy": ("sbs", str, STRATEGIES),
    "backend": ("toy", str, ("toy", "remote")),
    "toy_mode": (None, str, tuple(m.value for m in Mode)),  # oracle for solve, cold for generate
    "backend_url": (None, str, None),
    "b1": (1, int, range(1, MAX_WIDTH + 1)),
    "b2": (SearchConfig.expansion_width, int, None),
    "n_simulations": (SearchConfig.n_simulations, int, None),
    "c_puct": (SearchConfig.c_puct, float, None),
    "t_max": (SearchConfig.max_depth, int, None),
    "temperature": (None, float, None),  # resolved per strategy
    "k": (5, int, range(1, MAX_WIDTH + 1)),
    "seed": (0, int, range(-2**63, 2**63)),  # what core.derive_seed mixes: 8 signed bytes
    "jobs": (1, int, 1),
    "trees_per_question": (10, int, 1),
    "max_pos": (4, int, 0),
    "max_neg": (4, int, 0),
    "round": (1, int, None),
}

_FLAG_HELP = {"b1": "beam width", "b2": "proposals per expansion", "k": "votes for maj"}


def _load_config_file(path: str) -> dict:
    try:
        raw = parse_json(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except ValueError as exc:  # not UTF-8, not JSON (nesting too deep included), or an integer too long to read
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    try:
        given = {key: json_field(raw, key, (kind, None), None) for key, (_, kind, _) in _SETTINGS.items()}
    except ValueError as exc:
        raise ConfigError(f"config file {path}: {exc}")
    for key in raw:
        if key not in _SETTINGS:
            raise ConfigError(f"unknown config key {key!r} in {path}")
    # null, like a missing key, means the default
    return {key: _SETTINGS[key][1](value) for key, value in given.items() if value is not None}


def _check(key: str, value) -> None:
    """Refuse a value outside the setting's allowed values."""
    allowed = _SETTINGS[key][2]
    if isinstance(allowed, tuple):
        if value is not None and value not in allowed:  # None: resolved per command
            raise ConfigError(f"unknown {key.replace('_', ' ')} {value!r}")
    elif allowed is not None:
        low = allowed if isinstance(allowed, int) else allowed.start
        if value < low:
            raise ConfigError(f"{key} must be >= {low}")
        if isinstance(allowed, range) and value not in allowed:
            raise ConfigError(f"{key} must be <= {allowed[-1]}")


def _merge_settings(args: argparse.Namespace) -> dict:
    merged = {key: entry[0] for key, entry in _SETTINGS.items()}
    if getattr(args, "config", None):
        merged.update(_load_config_file(args.config))
    for key in _SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    for key, value in merged.items():
        _check(key, value)
    return merged


def _make_backend(settings: dict, default_toy_mode: Mode):
    if settings["backend"] == "toy":
        return ToyBackend(mode=Mode(settings["toy_mode"] or default_toy_mode.value))
    url = os.environ.get(BACKEND_URL_ENV) or settings["backend_url"]
    if not url:
        raise ConfigError(f"remote backend needs --backend-url or ${BACKEND_URL_ENV}")
    return RemoteBackend(url)


# The JSON kinds of a dataset record's fields; other fields are kept unread.
_RECORD_FIELDS = {"id": (str, int), "question": (str,), "gold_answer": (str, None)}


def _load_dataset(path: str, require_gold: bool) -> list[dict]:
    rows: list[dict] = []
    seen: set[str] = set()
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except (OSError, ValueError) as exc:  # ValueError: bytes that are not UTF-8
        raise DatasetError(f"cannot read dataset {path}: {exc}")
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = parse_json(line)
        except ValueError as exc:  # a JSONDecodeError, nesting too deep, or an integer too long to read
            raise DatasetError(f"{path}:{lineno}: invalid JSON: {exc}")
        try:
            for key, kinds in _RECORD_FIELDS.items():
                json_field(row, key, kinds, None)
        except ValueError as exc:
            raise DatasetError(f"{path}:{lineno}: {exc}")
        if "id" not in row or "question" not in row:
            raise DatasetError(f"{path}:{lineno}: each record needs 'id' and 'question'")
        if row["id"] in seen:
            raise DatasetError(f"{path}:{lineno}: duplicate id {row['id']!r}")
        seen.add(row["id"])
        if require_gold and not row.get("gold_answer"):
            raise DatasetError(
                f"{path}:{lineno}: record {row['id']!r} lacks a gold_answer, "
                f"which data generation requires"
            )
        rows.append(row)
    # an empty dataset is legal: solve reports zero questions, generate
    # writes an empty training file
    return rows


def _check_out(out: str) -> None:
    """Refuse an output file that cannot be written before any work is done."""
    if Path(out).is_dir():
        raise ConfigError(f"output {out} is a directory")
    if not Path(out).parent.is_dir():
        raise ConfigError(f"output {out}: directory {Path(out).parent} does not exist")


def _search_config(settings: dict, evaluation: EvaluationMode, temperature: float) -> SearchConfig:
    """The search settings, built (and so checked) before any question runs;
    ``temperature`` applies when the setting is unset. In ``solve`` it is
    the ``config`` that every ``rsp.inference.DECODERS`` entry reads."""
    return SearchConfig(
        c_puct=settings["c_puct"],
        n_simulations=settings["n_simulations"],
        expansion_width=settings["b2"],
        max_depth=settings["t_max"],
        temperature=temperature if settings["temperature"] is None else settings["temperature"],
        evaluation=evaluation,
    )


def _dump_name(question_id) -> str:
    """Snapshot file name for a question; ids that could name another
    directory, or whose name is over 255 bytes (NAME_MAX on Linux and
    macOS) or that the file system cannot encode (a lone surrogate), are a
    dataset error."""
    name = f"{question_id}.tree.json"
    try:
        fits = len(os.fsencode(name)) <= 255 and not any(c in name for c in "/\\\0")
    except UnicodeEncodeError:
        fits = False
    if not fits:
        raise DatasetError(f"question id {question_id!r} cannot name a tree snapshot file")
    return name


def _map_in_order(work, items, jobs: int) -> list:
    """``work`` applied to each item, on ``jobs`` threads, results in input
    order; one job runs in the calling thread."""
    if jobs == 1:
        return [work(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(work, items))


def _solve_one(
    settings: dict,
    search: SearchConfig,
    backend,
    index: int,
    row: dict,
    dump_dir: Path | None,
) -> dict:
    state = ReasoningState(question_id=row["id"], question_text=row["question"])
    entry = {
        "id": row["id"],
        "answer": None,
        "gold": row.get("gold_answer"),
        "correct": None,
        "elapsed_seconds": None,  # the decode's wall time, whether it returns or raises
        "steps": 0,
        "candidates": 0,
        "error": None,
    }
    started = time.perf_counter()
    try:
        report = DECODERS[settings["strategy"]](
            state, backend, search, derive_seed(settings["seed"], index), settings["b1"], settings["k"]
        )
    except EngineError as exc:
        entry["error"] = str(exc)
        if entry["gold"]:
            entry["correct"] = False
        return entry
    finally:
        entry["elapsed_seconds"] = time.perf_counter() - started
    if dump_dir is not None:  # only mcts dumps, and it builds a tree
        (dump_dir / _dump_name(row["id"])).write_text(
            json.dumps(tree_to_snapshot(report.tree), ensure_ascii=False), encoding="utf-8"
        )
    entry["answer"] = report.answer.normalized if report.answer else None
    entry["steps"] = report.steps_taken
    entry["candidates"] = report.candidates_returned
    if entry["gold"]:
        entry["correct"] = is_correct(report.answer, entry["gold"])
    return entry


def run_solve(settings: dict, dataset_path: str, out: str | None, dump_trees: str | None) -> dict:
    if dump_trees and settings["strategy"] != "mcts":
        raise ConfigError("--dump-trees requires --strategy mcts")
    if dump_trees and Path(dump_trees).exists() and not Path(dump_trees).is_dir():
        raise ConfigError(f"--dump-trees {dump_trees} exists and is not a directory")
    if out:
        _check_out(out)
    search = _search_config(
        settings, EvaluationMode.MODEL_ONLY, DEFAULT_TEMPERATURES[settings["strategy"]]
    )
    backend = _make_backend(settings, default_toy_mode=Mode.ORACLE)
    rows = _load_dataset(dataset_path, require_gold=False)
    dump_dir = Path(dump_trees) if dump_trees else None
    if dump_dir:
        named: dict[str, object] = {}
        for row in rows:
            name = _dump_name(row["id"])
            if name in named:  # ids 5 and "5" are distinct records
                raise DatasetError(
                    f"question ids {named[name]!r} and {row['id']!r} both name {name}"
                )
            named[name] = row["id"]
        dump_dir.mkdir(parents=True, exist_ok=True)

    def work(item: tuple[int, dict]) -> dict:
        index, row = item
        return _solve_one(settings, search, backend, index, row, dump_dir)

    entries = _map_in_order(work, enumerate(rows), settings["jobs"])

    n = max(1, len(entries))
    summary = {
        "strategy": settings["strategy"],
        "n_questions": len(entries),
        "n_solutions": sum(1 for e in entries if e["answer"] is not None),
        "avg_time_s": sum(e["elapsed_seconds"] for e in entries) / n,
        "avg_steps": sum(e["steps"] for e in entries) / n,
        "avg_candidates": sum(e["candidates"] for e in entries) / n,
    }
    graded = [e for e in entries if e["gold"]]
    if graded:
        summary["accuracy"] = sum(1 for e in graded if e["correct"]) / len(graded)
    # the merged settings (seed included) ride along so any run, in
    # particular one against a remote model server, stays auditable
    result = {"summary": summary, "config": settings, "reports": entries}
    if out:
        Path(out).write_text(
            json.dumps(result, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )
    return result


def run_generate(settings: dict, dataset_path: str, out: str) -> dict:
    _check_out(out)
    search = _search_config(settings, EvaluationMode.TERMINAL_REWARD, 1.0)
    backend = _make_backend(settings, default_toy_mode=Mode.COLD)
    rows = _load_dataset(dataset_path, require_gold=True)
    if isinstance(backend, ToyBackend):  # the toy rebuilds each problem from its id
        for row in rows:
            try:
                backend.problem_for(row["id"])
            except ContractViolation as exc:
                raise DatasetError(f"{dataset_path}: {exc}")

    def work(item: tuple[int, dict]) -> list:
        index, row = item
        state = ReasoningState(question_id=row["id"], question_text=row["question"])
        try:
            trees = [
                build_tree(
                    state,
                    row["gold_answer"],
                    backend,
                    search,
                    derive_seed(settings["seed"], index, tree_index),
                )
                for tree_index in range(settings["trees_per_question"])
            ]
        except ContractViolation as exc:  # every setting was checked: the backend broke it
            raise EngineError(f"question {row['id']!r}: {exc}") from exc
        pooled = filter_solutions(harvest_paths(trees))
        return select_for_round(
            pooled,
            settings["max_pos"],
            settings["max_neg"],
            seed=derive_seed(settings["seed"], index, 0x5E1EC7),
        )

    per_question = _map_in_order(work, enumerate(rows), settings["jobs"])

    selected = [path for group in per_question for path in group]
    manifest = build_manifest(
        selected,
        round_index=settings["round"],
        trees_per_question=settings["trees_per_question"],
        max_pos=settings["max_pos"],
        max_neg=settings["max_neg"],
    )
    out_path, manifest_path = export_jsonl(selected, Path(out), manifest)
    return {
        "out": str(out_path),
        "manifest": str(manifest_path),
        "records": manifest.records,
        "pos_neg_ratio": manifest.pos_neg_ratio,
    }


def _histogram(values: list[float], lo: float, hi: float, bins: int) -> list[tuple[str, int]]:
    counts = [0] * bins
    width = (hi - lo) / bins
    for v in values:
        slot = min(bins - 1, max(0, int((v - lo) / width)))
        counts[slot] += 1
    return [
        (f"[{lo + i * width:+.2f},{lo + (i + 1) * width:+.2f})", counts[i])
        for i in range(bins)
    ]


def _step_caption(node) -> str:
    if node.step is None:
        return "(root)"
    for line in node.step.text.splitlines():
        if line and not line.startswith("<"):
            return line[:60]
    return node.step.text[:60]


def run_inspect(snapshot_path: str, beam_width: int) -> str:
    _check("b1", beam_width)
    try:
        doc = parse_json(Path(snapshot_path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DatasetError(f"cannot read snapshot {snapshot_path}: {exc}")
    except ValueError as exc:  # not UTF-8, not JSON (nesting too deep included), or an integer too long to read
        raise SnapshotError(f"snapshot {snapshot_path} is not valid JSON: {exc}")
    tree = snapshot_to_tree(doc)

    nodes = list(iter_nodes(tree.root))
    by_depth: dict[int, int] = {}
    for node in nodes:
        by_depth[node.depth] = by_depth.get(node.depth, 0) + 1
    visited = [n for n in nodes if n.stats.visits > 0]
    q_values = [n.stats.q() for n in visited if n is not tree.root]
    terminals = sum(1 for n in nodes if n.terminal)

    lines = [
        f"snapshot: {snapshot_path}",
        f"question: {tree.question.question_id}",
        f"simulations run: {tree.simulations_run}   "
        f"nodes: {len(nodes)}   terminal: {terminals}",
        "",
        "nodes per depth:",
    ]
    root_depth = tree.root.depth
    for depth in sorted(by_depth):
        lines.append(f"  depth {depth:2d}: {by_depth[depth]}")
    lines.append("")
    lines.append("visit counts (visited nodes):")
    max_visits = max((n.stats.visits for n in visited), default=1)
    for label, count in _histogram(
        [float(n.stats.visits) for n in visited], 0.0, float(max_visits) + 1.0, 6
    ):
        lines.append(f"  {label:>18} {'#' * min(count, 50)} {count}")
    lines.append("")
    lines.append("edge values (visited non-root nodes):")
    for label, count in _histogram(q_values, -1.0, 1.0, 8):
        lines.append(f"  {label:>18} {'#' * min(count, 50)} {count}")
    lines.append("")
    lines.append(f"value sweep (beam width {beam_width}):")
    best, history = q_sweep(tree.root, beam_width, tree.config.q_init)
    for level, kept in enumerate(history, start=root_depth + 1):
        shown = ", ".join(
            f"q={n.stats.q(tree.config.q_init):+.3f} {_step_caption(n)!r}" for n in kept
        )
        lines.append(f"  depth {level}: {shown}")
    lines.append(
        f"best path: depth {best.depth}, q={best.stats.q(tree.config.q_init):+.3f}, "
        f"terminal={best.terminal}"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsp", description="Value-guided step-level tree search"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_settings(p: argparse.ArgumentParser, *left_out: str) -> None:
        """The dataset, a flag for each setting not ``left_out``, and --config."""
        p.add_argument("dataset")
        for key, (_, kind, allowed) in _SETTINGS.items():
            if key not in left_out:
                p.add_argument(
                    "--n-sims" if key == "n_simulations" else "--" + key.replace("_", "-"),
                    dest=key,
                    type=kind,
                    choices=allowed if isinstance(allowed, tuple) else None,
                    help=_FLAG_HELP.get(key),
                )
        p.add_argument("--config", default=None, help="JSON file with default settings")

    solve = sub.add_parser("solve", help="answer questions from a JSONL dataset")
    add_settings(solve, "trees_per_question", "max_pos", "max_neg", "round")
    solve.add_argument("--out", default=None, help="write full report JSON here")
    solve.add_argument(
        "--dump-trees", dest="dump_trees", default=None,
        help="directory for tree snapshots (mcts strategy only)",
    )

    generate = sub.add_parser("generate", help="build value-model training data")
    add_settings(generate, "strategy", "b1", "k")
    generate.add_argument("--out", required=True, help="output JSONL path")

    inspect = sub.add_parser("inspect", help="summarize a tree snapshot")
    inspect.add_argument("snapshot")
    inspect.add_argument("--b1", type=int, default=1, help="sweep beam width")

    toydata = sub.add_parser("toydata", help="write a toy dataset JSONL")
    toydata.add_argument("--n", type=int, default=20)
    toydata.add_argument("--seed", type=int, default=0)
    toydata.add_argument("--out", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            settings = _merge_settings(args)
            result = run_solve(settings, args.dataset, args.out, args.dump_trees)
            summary = result["summary"]
            accuracy = summary.get("accuracy")
            print(
                f"strategy={summary['strategy']} questions={summary['n_questions']} "
                f"solved={summary['n_solutions']} "
                f"accuracy={'n/a' if accuracy is None else f'{accuracy:.3f}'} "
                f"avg_time_s={summary['avg_time_s']:.4f} "
                f"avg_steps={summary['avg_steps']:.2f} "
                f"avg_candidates={summary['avg_candidates']:.2f}",
                flush=True,
            )
            errors = [e for e in result["reports"] if e["error"]]
            for entry in errors[:5]:
                print(f"  {entry['id']}: {entry['error']}", file=sys.stderr)
            if errors:
                print(f"  ({len(errors)} question(s) failed)", file=sys.stderr)
            return EXIT_OK
        if args.command == "generate":
            settings = _merge_settings(args)
            result = run_generate(settings, args.dataset, args.out)
            ratio = result["pos_neg_ratio"]
            print(
                f"wrote {result['records']} records to {result['out']} "
                f"(pos:neg={'n/a' if ratio is None else f'{ratio:.2f}'}, "
                f"manifest {result['manifest']})",
                flush=True,
            )
            return EXIT_OK
        if args.command == "inspect":
            print(run_inspect(args.snapshot, args.b1), flush=True)
            return EXIT_OK
        if args.command == "toydata":
            _check_out(args.out)
            corpus = toy_corpus(args.n, args.seed)
            records = corpus_to_records(corpus)
            with open(args.out, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            print(f"wrote {len(records)} problems to {args.out}", flush=True)
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (DatasetError, SnapshotError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except (ConfigError, ContractViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EngineError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except BrokenPipeError:
        # stdout closed early (say, piped into head): point it at devnull so
        # that the flush at exit cannot fail again, and exit 1 as Python does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:  # an output that could not be written
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
