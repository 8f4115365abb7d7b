"""End-to-end command-line tests against the toy backend."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rsp.cli import EXIT_BACKEND, EXIT_CONFIG, EXIT_DATASET, EXIT_OK, MAX_WIDTH, build_parser, main
from rsp.core import ReasoningState, derive_seed, render_answer_step
from rsp.datagen import manifest_path_for
from rsp.inference import greedy_decode, inference_search_config, majority_vote, mcts_decode, sbs_decode
from rsp.mcts import build_tree, tree_to_snapshot
from rsp.policy import BACKEND_URL_ENV
from rsp.server import serve_backend
from rsp.toyenv import Mode, ToyBackend, corpus_to_records, toy_corpus, toy_state_decoder
from conftest import stop_server

# Config files whose one value has the wrong JSON type for its setting.
CONFIGS = Path(__file__).parent / "configs"


def write_dataset(tmp_path, rows, name="data.jsonl"):
    path = tmp_path / name
    path.write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
    )
    return str(path)


def toy_dataset(tmp_path, n=3, seed=0):
    return write_dataset(tmp_path, corpus_to_records(toy_corpus(n, seed)))


def test_toydata_writes_a_parseable_corpus(tmp_path, capsys):
    out = tmp_path / "toy.jsonl"
    assert main(["toydata", "--n", "4", "--seed", "2", "--out", str(out)]) == EXIT_OK
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 4
    assert all(set(r) == {"id", "question", "gold_answer"} for r in rows)
    assert "wrote 4 problems" in capsys.readouterr().out


def test_solve_reports_summary_and_accuracy(tmp_path, capsys):
    dataset = toy_dataset(tmp_path)
    out = tmp_path / "report.json"
    code = main(["solve", dataset, "--strategy", "sbs", "--b1", "3", "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.startswith("strategy=sbs questions=3")
    assert "accuracy=1.000" in printed
    report = json.loads(out.read_text())
    assert set(report) == {"summary", "config", "reports"}
    assert report["summary"]["accuracy"] == 1.0
    assert report["summary"]["n_solutions"] == 3
    assert report["config"]["seed"] == 0
    assert report["config"]["b1"] == 3
    assert [e["correct"] for e in report["reports"]] == [True, True, True]


def test_solve_without_golds_omits_accuracy(tmp_path, capsys):
    rows = [
        {"id": r["id"], "question": r["question"]}
        for r in corpus_to_records(toy_corpus(2, 1))
    ]
    dataset = write_dataset(tmp_path, rows)
    out = tmp_path / "report.json"
    assert main(["solve", dataset, "--out", str(out)]) == EXIT_OK
    assert "accuracy=n/a" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert "accuracy" not in report["summary"]
    assert all(e["correct"] is None for e in report["reports"])


def test_solve_summary_keys_are_in_a_fixed_order(tmp_path):
    keys = ["strategy", "n_questions", "n_solutions", "avg_time_s", "avg_steps", "avg_candidates"]
    records = corpus_to_records(toy_corpus(2, 1))
    for rows, expected in (
        (records, keys + ["accuracy"]),
        ([{"id": r["id"], "question": r["question"]} for r in records], keys),
    ):
        dataset = write_dataset(tmp_path, rows)
        out = tmp_path / "report.json"
        assert main(["solve", dataset, "--out", str(out)]) == EXIT_OK
        assert list(json.loads(out.read_text())["summary"]) == expected


def test_solve_empty_dataset_succeeds(tmp_path, capsys):
    dataset = write_dataset(tmp_path, [])
    assert main(["solve", dataset]) == EXIT_OK
    assert "questions=0" in capsys.readouterr().out


def test_solve_preserves_input_order_across_jobs(tmp_path):
    dataset = toy_dataset(tmp_path, n=6, seed=4)
    out = tmp_path / "report.json"
    assert main(["solve", dataset, "--jobs", "4", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    with open(dataset, encoding="utf-8") as rows:
        want = [json.loads(line)["id"] for line in rows]
    assert [e["id"] for e in report["reports"]] == want


def test_every_strategy_solves_the_toy_corpus(tmp_path):
    dataset = toy_dataset(tmp_path, n=2, seed=7)
    for strategy in ("greedy", "sbs", "mcts", "maj"):
        assert main(["solve", dataset, "--strategy", strategy]) == EXIT_OK


def test_solve_missing_dataset_is_a_dataset_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.jsonl")]) == EXIT_DATASET
    assert "input error" in capsys.readouterr().err


def test_malformed_dataset_line_is_reported_with_its_number(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "question": "q"}\nnot json\n', encoding="utf-8")
    assert main(["solve", str(path)]) == EXIT_DATASET
    err = capsys.readouterr().err
    assert f"{path}:2" in err


def test_duplicate_question_ids_are_rejected(tmp_path, capsys):
    dataset = write_dataset(
        tmp_path,
        [{"id": "a", "question": "q1"}, {"id": "a", "question": "q2"}],
    )
    assert main(["solve", dataset]) == EXIT_DATASET
    assert "duplicate id" in capsys.readouterr().err


def test_dataset_rows_need_id_and_question(tmp_path, capsys):
    dataset = write_dataset(tmp_path, [{"id": "a"}])
    assert main(["solve", dataset]) == EXIT_DATASET
    assert "'id' and 'question'" in capsys.readouterr().err


_TOY_ROW = {"id": "toy-0000000042", "question": "q", "gold_answer": "17"}


@pytest.mark.parametrize(
    "command, field, value, message",
    [
        ("solve", "gold_answer", 27, "gold_answer must be a string or null"),
        ("generate", "gold_answer", 27, "gold_answer must be a string or null"),
        ("solve", "gold_answer", ["17"], "gold_answer must be a string or null"),
        ("solve", "id", [1], "id must be a string or an integer"),
        ("solve", "id", True, "id must be a string or an integer"),
        ("generate", "id", 5.0, "id must be a string or an integer"),
        ("solve", "question", 5, "question must be a string"),
        ("solve", "question", None, "question must be a string"),
    ],
)
def test_dataset_fields_of_the_wrong_json_type_are_input_errors(
    tmp_path, capsys, command, field, value, message
):
    rows = corpus_to_records(toy_corpus(1, 0)) + [{**_TOY_ROW, field: value}]
    dataset = write_dataset(tmp_path, rows)
    out = ["--out", str(tmp_path / "out.jsonl")] if command == "generate" else []
    assert main([command, dataset, *out]) == EXIT_DATASET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{dataset}:2: {message}" in captured.err
    assert not (tmp_path / "out.jsonl").exists()


def test_an_integer_id_the_toy_backend_cannot_rebuild_is_a_failed_question(tmp_path, capsys):
    rows = [{**_TOY_ROW, "id": 5}] + corpus_to_records(toy_corpus(1, 0))
    out = tmp_path / "report.json"
    assert main(["solve", write_dataset(tmp_path, rows), "--out", str(out)]) == EXIT_OK
    first, second = json.loads(out.read_text())["reports"]
    assert first["id"] == 5
    assert first["error"] == "not a generated toy problem id: 5"
    assert first["correct"] is False
    assert second["error"] is None and second["correct"] is True


@pytest.mark.parametrize("strategy", ["greedy", "sbs", "mcts", "maj"])
def test_a_failed_question_reports_its_own_time(tmp_path, strategy):
    rows = corpus_to_records(toy_corpus(3, 0)) + [{**_TOY_ROW, "id": "not-a-toy-id"}]
    out = tmp_path / "report.json"
    assert main(["solve", write_dataset(tmp_path, rows), "--strategy", strategy, "--out", str(out)]) == EXIT_OK
    result = json.loads(out.read_text())
    entries = result["reports"]
    assert [e["error"] is None for e in entries] == [True, True, True, False]
    for entry in entries:
        assert isinstance(entry["elapsed_seconds"], float) and entry["elapsed_seconds"] > 0.0
    assert result["summary"]["avg_time_s"] == sum(e["elapsed_seconds"] for e in entries) / len(entries)


@pytest.mark.parametrize("n", ["0", "-3"])
def test_toydata_refuses_an_empty_corpus(tmp_path, capsys, n):
    out = tmp_path / "toy.jsonl"
    assert main(["toydata", "--n", n, "--out", str(out)]) == EXIT_CONFIG
    assert "at least one problem" in capsys.readouterr().err
    assert not out.exists()


def test_generate_calls_an_id_the_toy_cannot_rebuild_an_input_error(tmp_path, capsys, monkeypatch):
    built = []
    monkeypatch.setattr("rsp.cli.build_tree", lambda *args: built.append(args))
    rows = corpus_to_records(toy_corpus(1, 0)) + [{**_TOY_ROW, "id": "q1"}]
    out = tmp_path / "out.jsonl"
    assert main(["generate", write_dataset(tmp_path, rows), "--out", str(out)]) == EXIT_DATASET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error" in captured.err and "'q1'" in captured.err
    assert built == []  # refused before any tree is built
    assert not out.exists()


# Output paths that cannot be written, as a command's extra arguments, run in
# a directory that holds a regular file "file" and a directory "dir".
_UNWRITABLE_OUTPUTS = [
    ("solve", ["--out", "nodir/r.json"]),
    ("solve", ["--out", "dir"]),
    ("generate", ["--out", "nodir/x.jsonl"]),
    ("generate", ["--out", "dir"]),
    ("toydata", ["--out", "nodir/x.jsonl"]),
    ("toydata", ["--out", "dir"]),
    ("solve", ["--strategy", "mcts", "--dump-trees", "file"]),
]


@pytest.mark.parametrize(
    "command, flags", _UNWRITABLE_OUTPUTS, ids=[f"{c} {' '.join(f)}" for c, f in _UNWRITABLE_OUTPUTS]
)
def test_an_unwritable_output_exits_2_before_the_dataset_loads(
    tmp_path, capsys, monkeypatch, command, flags
):
    monkeypatch.chdir(tmp_path)
    Path("dir").mkdir()
    Path("file").write_text("keep", encoding="utf-8")
    missing = [] if command == "toydata" else ["missing.jsonl"]  # exit 3 if it were read
    assert main([command, *missing, *flags]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and flags[-1] in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert not any(Path("dir").iterdir())
    assert Path("file").read_text(encoding="utf-8") == "keep"


def test_an_output_that_fails_while_written_is_one_line_without_a_traceback(tmp_path, capsys):
    (tmp_path / "file").write_text("keep", encoding="utf-8")
    dataset = toy_dataset(tmp_path, n=1)
    dump_dir = str(tmp_path / "file" / "trees")  # under a regular file
    assert main(["solve", dataset, "--strategy", "mcts", "--dump-trees", dump_dir]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert dump_dir in err


@pytest.mark.parametrize(
    "command, code", [("dataset", EXIT_DATASET), ("config", EXIT_CONFIG), ("snapshot", EXIT_DATASET)]
)
def test_an_input_file_that_is_not_utf8_is_refused_without_a_traceback(tmp_path, capsys, command, code):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"id": "a", "question": "\xff"}\n')
    argv = {
        "dataset": ["solve", str(bad)],
        "config": ["solve", toy_dataset(tmp_path, n=1), "--config", str(bad)],
        "snapshot": ["inspect", str(bad)],
    }[command]
    assert main(argv) == code
    assert "utf-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, code", [("dataset", EXIT_DATASET), ("config", EXIT_CONFIG), ("snapshot", EXIT_DATASET)]
)
def test_an_input_file_nested_too_deep_is_refused_like_any_malformed_json(tmp_path, capsys, command, code):
    # deeper than the JSON decoder can recurse
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    argv = {
        "dataset": ["solve", str(nested)],
        "config": ["solve", toy_dataset(tmp_path, n=1), "--config", str(nested)],
        "snapshot": ["inspect", str(nested)],
    }[command]
    assert main(argv) == code
    assert "nested too deeply" in capsys.readouterr().err


def test_unknown_config_key_is_a_config_error(tmp_path, capsys):
    dataset = toy_dataset(tmp_path, n=1)
    config = tmp_path / "cfg.json"
    # "beta" was once accepted but never read
    for command, key in [("solve", "beem_width"), ("generate", "beta")]:
        config.write_text(f'{{"{key}": 3}}', encoding="utf-8")
        out = ["--out", str(tmp_path / "out.jsonl")] if command == "generate" else []
        assert main([command, dataset, "--config", str(config), *out]) == EXIT_CONFIG
        assert key in capsys.readouterr().err


def test_flags_override_the_config_file(tmp_path):
    dataset = toy_dataset(tmp_path, n=1)
    config = tmp_path / "cfg.json"
    config.write_text('{"b1": 3, "seed": 11}', encoding="utf-8")
    out = tmp_path / "report.json"
    assert (
        main(
            [
                "solve", dataset,
                "--config", str(config),
                "--b1", "1",
                "--out", str(out),
            ]
        )
        == EXIT_OK
    )
    merged = json.loads(out.read_text())["config"]
    assert merged["b1"] == 1  # flag wins
    assert merged["seed"] == 11  # config beats the built-in default


def test_remote_backend_requires_a_url(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(BACKEND_URL_ENV, raising=False)
    dataset = toy_dataset(tmp_path, n=1)
    assert main(["solve", dataset, "--backend", "remote"]) == EXIT_CONFIG
    assert BACKEND_URL_ENV in capsys.readouterr().err


@pytest.mark.parametrize("url", ["nohost", "ftp://x", "http://", "http://127.0.0.1:99999"])
@pytest.mark.parametrize("command", ["solve", "generate"])
def test_a_backend_url_without_an_http_host_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, url
):
    monkeypatch.delenv(BACKEND_URL_ENV, raising=False)
    sleeps = []
    monkeypatch.setattr("rsp.policy.time.sleep", sleeps.append)
    dataset = toy_dataset(tmp_path, n=2)
    out = tmp_path / "out.json"
    code = main([command, dataset, "--backend", "remote", "--backend-url", url, "--out", str(out)])
    assert code == EXIT_CONFIG
    assert repr(url) in capsys.readouterr().err
    assert not out.exists()
    assert sleeps == []


def test_dump_trees_needs_the_tree_strategy(tmp_path, capsys):
    dataset = toy_dataset(tmp_path, n=1)
    code = main(
        ["solve", dataset, "--strategy", "sbs", "--dump-trees", str(tmp_path / "t")]
    )
    assert code == EXIT_CONFIG
    assert "mcts" in capsys.readouterr().err


def test_dump_trees_without_the_tree_strategy_exits_before_the_dataset_loads(tmp_path, capsys):
    missing = str(tmp_path / "missing.jsonl")  # exit 3 if it were read
    dump_dir = tmp_path / "t"
    code = main(["solve", missing, "--strategy", "sbs", "--dump-trees", str(dump_dir)])
    assert code == EXIT_CONFIG
    assert "--dump-trees requires --strategy mcts" in capsys.readouterr().err
    assert not dump_dir.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--strategy", "sbs", "--b1", "0"],
        ["--strategy", "sbs", "--b2", "0"],
        ["--strategy", "mcts", "--c-puct", "-1"],
        ["--strategy", "mcts", "--n-sims", "0"],
        ["--strategy", "mcts", "--toy-mode", "oracle", "--c-puct", "nan"],
        ["--strategy", "mcts", "--c-puct", "inf"],
        ["--strategy", "sbs", "--temperature", "inf"],
        ["--strategy", "mcts", "--temperature", "inf"],
        ["--config", str(CONFIGS / "b1_float.json")],
        ["--config", str(CONFIGS / "jobs_true.json")],
        ["--config", str(CONFIGS / "b2_string.json")],
        ["--config", str(CONFIGS / "seed_float.json")],
        ["--config", str(CONFIGS / "temperature_string.json")],
        ["--strategy", "sbs", "--b1", "1000000000000000000000000000000"],
        ["--strategy", "mcts", "--b1", str(MAX_WIDTH + 1)],
        ["--strategy", "maj", "--k", str(MAX_WIDTH + 1)],
        ["--seed", "9223372036854775808"],
        ["--seed", "-99999999999999999999999"],
        ["--t-max", "0"],
        ["--config", str(CONFIGS / "no-such-config.json")],
    ],
)
def test_invalid_settings_exit_before_any_question(tmp_path, capsys, flags):
    dataset = toy_dataset(tmp_path, n=2)
    out = tmp_path / "report.json"
    assert main(["solve", dataset, "--out", str(out), *flags]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_an_unknown_strategy_in_a_config_file_exits_before_the_dataset_loads(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"strategy": "beam"}', encoding="utf-8")
    out = tmp_path / "report.json"
    missing = str(tmp_path / "missing.jsonl")  # exit 3 if it were read
    assert main(["solve", missing, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert "unknown strategy 'beam'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--b1", "1000000000000000000000000000000"], f"b1 must be <= {MAX_WIDTH}"),
        (["--strategy", "maj", "--k", str(MAX_WIDTH + 1)], f"k must be <= {MAX_WIDTH}"),
    ],
    ids=["b1", "k"],
)
def test_widths_above_the_bound_exit_before_the_dataset_loads(tmp_path, capsys, flags, message):
    out = tmp_path / "report.json"
    missing = str(tmp_path / "missing.jsonl")  # exit 3 if it were read
    assert main(["solve", missing, "--out", str(out), *flags]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, message",
    [('{"toy_mode": "bogus"}', "unknown toy mode 'bogus'"), ('{"backend": "bogus"}', "unknown backend 'bogus'")],
    ids=["toy_mode", "backend"],
)
@pytest.mark.parametrize("command", ["solve", "generate"])
def test_a_bad_backend_choice_in_a_config_file_exits_before_the_dataset_loads(
    tmp_path, capsys, command, setting, message
):
    config = tmp_path / "cfg.json"
    config.write_text(setting, encoding="utf-8")
    out = tmp_path / "out.jsonl"
    missing = str(tmp_path / "missing.jsonl")  # exit 3 if it were read
    assert main([command, missing, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("generate", {"strategy": "beam"}, "unknown strategy 'beam'"),
        ("generate", {"b1": 0}, "b1 must be >= 1"),
        ("generate", {"k": MAX_WIDTH + 1}, f"k must be <= {MAX_WIDTH}"),
        ("solve", {"max_pos": -1}, "max_pos must be >= 0"),
        ("solve", {"trees_per_question": 0}, "trees_per_question must be >= 1"),
        # seeds are mixed as 8 signed bytes
        ("solve", {"seed": 2**63}, f"seed must be <= {2**63 - 1}"),
        ("solve", {"seed": -(10**23)}, f"seed must be >= {-(2**63)}"),
        ("generate", {"seed": 2**63}, f"seed must be <= {2**63 - 1}"),
        ("generate", {"seed": -(10**23)}, f"seed must be >= {-(2**63)}"),
    ],
    ids=[
        "generate-strategy", "generate-b1", "generate-k", "solve-max_pos", "solve-trees_per_question",
        "solve-seed-high", "solve-seed-low", "generate-seed-high", "generate-seed-low",
    ],
)
def test_a_setting_outside_its_domain_is_refused_by_every_command(
    tmp_path, capsys, command, setting, message
):
    # a setting the command does not read is still checked
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(setting), encoding="utf-8")
    out = tmp_path / "out.json"
    missing = str(tmp_path / "missing.jsonl")  # exit 3 if it were read
    assert main([command, missing, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "generate"])
def test_null_config_values_mean_the_built_in_defaults(tmp_path, command):
    dataset = toy_dataset(tmp_path, n=2)
    config = tmp_path / "cfg.json"
    keys = [
        "strategy", "backend", "toy_mode", "backend_url", "b1", "b2", "n_simulations",
        "c_puct", "t_max", "temperature", "k", "seed", "jobs", "trees_per_question",
        "max_pos", "max_neg", "round",
    ]
    config.write_text(json.dumps(dict.fromkeys(keys)), encoding="utf-8")
    outputs = []
    for extra in ([], ["--config", str(config)]):
        out = tmp_path / f"out{len(outputs)}.json"
        assert main([command, dataset, "--out", str(out), *extra]) == EXIT_OK
        if command == "solve":
            report = json.loads(out.read_text())
            outputs.append((_without_timings(report), report["config"]))
        else:
            outputs.append((out.read_bytes(), manifest_path_for(out).read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("jobs", ["0", "-5"])
@pytest.mark.parametrize("command", ["solve", "generate"])
def test_jobs_below_one_exit_before_the_dataset_loads(tmp_path, capsys, command, jobs):
    out = tmp_path / "out.jsonl"
    missing = str(tmp_path / "missing.jsonl")  # exit 3 if it were read
    assert main([command, missing, "--out", str(out), "--jobs", jobs]) == EXIT_CONFIG
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "bad_id",
    [
        "../x",
        "a/b",
        "a\\b",
        # a toy id the backend rebuilds, but whose snapshot name is over 255 bytes
        pytest.param("toy-" + "0" * 290 + "17", id="name-over-255-bytes"),
        pytest.param("a\ud800", id="lone-surrogate"),
    ],
)
def test_dump_trees_rejects_path_like_ids(tmp_path, capsys, bad_id):
    rows = corpus_to_records(toy_corpus(2, 0))
    rows[1]["id"] = bad_id
    dataset = write_dataset(tmp_path, rows)
    dump_dir = tmp_path / "deep" / "trees"
    out = tmp_path / "report.json"
    code = main(
        ["solve", dataset, "--strategy", "mcts", "--dump-trees", str(dump_dir), "--out", str(out)]
    )
    assert code == EXIT_DATASET
    assert repr(bad_id) in capsys.readouterr().err
    assert not out.exists()
    assert not dump_dir.exists()
    assert list(tmp_path.rglob("*.tree.json")) == []


def test_dump_trees_rejects_ids_whose_snapshot_names_collide(tmp_path, capsys):
    # 5 and "5" are distinct records, but both would be written to 5.tree.json
    rows = corpus_to_records(toy_corpus(3, 0))
    rows[0]["id"], rows[2]["id"] = 5, "5"
    dataset = write_dataset(tmp_path, rows)
    dump_dir = tmp_path / "trees"
    code = main(["solve", dataset, "--strategy", "mcts", "--dump-trees", str(dump_dir)])
    assert code == EXIT_DATASET
    err = capsys.readouterr().err
    assert "5 and '5'" in err and "5.tree.json" in err
    assert not dump_dir.exists()


def test_solve_over_the_wire_backend(tmp_path, monkeypatch):
    corpus = toy_corpus(2, seed=3)
    inner = ToyBackend.for_corpus(corpus, mode=Mode.ORACLE)
    server = serve_backend(inner, toy_state_decoder(inner))
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        monkeypatch.setenv(BACKEND_URL_ENV, url)
        dataset = write_dataset(tmp_path, corpus_to_records(corpus))
        out = tmp_path / "report.json"
        code = main(["solve", dataset, "--backend", "remote", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["summary"]["accuracy"] == 1.0
    finally:
        stop_server(server)


def _without_timings(result):
    summary = {k: v for k, v in result["summary"].items() if k != "avg_time_s"}
    reports = [
        {k: v for k, v in entry.items() if k != "elapsed_seconds"}
        for entry in result["reports"]
    ]
    return summary, reports


@pytest.mark.parametrize(
    "flags",
    [
        ["--strategy", "mcts"],
        ["--strategy", "sbs", "--b1", "3"],
        ["--strategy", "greedy"],
        # the k paths share one random stream
        ["--strategy", "maj", "--k", "4"],
    ],
)
def test_remote_jobs_match_serial_and_in_process_reports(tmp_path, monkeypatch, flags):
    corpus = toy_corpus(6, seed=8)
    dataset = write_dataset(tmp_path, corpus_to_records(corpus))
    inner = ToyBackend.for_corpus(corpus, mode=Mode.ORACLE)
    server = serve_backend(inner, toy_state_decoder(inner))
    runs = {}
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}"
        monkeypatch.setenv(BACKEND_URL_ENV, url)
        # each worker thread holds its own persistent connection
        for name, extra in (
            ("remote-1", ["--backend", "remote", "--jobs", "1"]),
            ("remote-2", ["--backend", "remote", "--jobs", "2"]),
            ("toy", []),
        ):
            out = tmp_path / f"{name}.json"
            assert main(["solve", dataset, *flags, *extra, "--out", str(out)]) == EXIT_OK
            runs[name] = _without_timings(json.loads(out.read_text()))
    finally:
        stop_server(server)
    assert all(e["error"] is None for e in runs["toy"][1])
    assert runs["remote-1"] == runs["remote-2"] == runs["toy"]


@pytest.mark.parametrize("non_default", [False, True], ids=["defaults", "non-default"])
@pytest.mark.parametrize("strategy", ["greedy", "sbs", "mcts", "maj"])
def test_solve_runs_each_strategy_as_the_library_decoder_does(tmp_path, strategy, non_default):
    # solve's defaults are the library's; the non-default flags map to these arguments
    given = (
        {"beam_width": 2, "expansion_width": 3, "max_depth": 6, "k": 4, "temperature": 0.8}
        if non_default else {}
    )
    seed = 11 if non_default else 0
    flags = (
        ["--b1", "2", "--b2", "3", "--t-max", "6", "--k", "4", "--temperature", "0.8", "--seed", "11"]
        if non_default else []
    )
    rows = corpus_to_records(toy_corpus(3, seed=4))
    dataset = write_dataset(tmp_path, rows)
    out = tmp_path / "report.json"
    dump_dir = tmp_path / "trees"
    dump = ["--dump-trees", str(dump_dir)] if strategy == "mcts" else []
    assert main(["solve", dataset, "--strategy", strategy, *flags, *dump, "--out", str(out)]) == EXIT_OK
    entries = json.loads(out.read_text())["reports"]
    assert len(entries) == len(rows)

    def pick(*names):
        return {name: given[name] for name in names if name in given}

    backend = ToyBackend(mode=Mode.ORACLE)
    config = inference_search_config(**pick("expansion_width", "max_depth", "temperature"))
    for index, (row, entry) in enumerate(zip(rows, entries)):
        state = ReasoningState(question_id=row["id"], question_text=row["question"])
        question_seed = derive_seed(seed, index)
        if strategy == "greedy":
            report = greedy_decode(state, backend, **pick("max_depth"))
        elif strategy == "sbs":
            report = sbs_decode(
                state, backend, seed=question_seed,
                **pick("beam_width", "expansion_width", "max_depth", "temperature"),
            )
        elif strategy == "mcts":
            report = mcts_decode(state, backend, config, seed=question_seed, **pick("beam_width"))
            tree = build_tree(state, None, backend, config, question_seed)
            dumped = (dump_dir / f"{row['id']}.tree.json").read_text(encoding="utf-8")
            assert dumped == json.dumps(tree_to_snapshot(tree), ensure_ascii=False)
        else:
            report = majority_vote(state, backend, seed=question_seed, **pick("k", "temperature", "max_depth"))
        assert entry["error"] is None
        assert entry["answer"] == (report.answer.normalized if report.answer else None)
        assert (entry["steps"], entry["candidates"]) == (report.steps_taken, report.candidates_returned)


def test_backend_failures_become_per_question_entries(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(BACKEND_URL_ENV, "http://127.0.0.1:1")
    dataset = toy_dataset(tmp_path, n=2)
    out = tmp_path / "report.json"
    code = main(["solve", dataset, "--backend", "remote", "--out", str(out)])
    assert code == EXIT_OK  # the run continues past per-question failures
    report = json.loads(out.read_text())
    assert all(e["error"] for e in report["reports"])
    assert all(e["correct"] is False for e in report["reports"])
    assert report["summary"]["accuracy"] == 0.0
    assert "failed" in capsys.readouterr().err


def test_generate_writes_dataset_and_manifest(tmp_path, capsys):
    dataset = toy_dataset(tmp_path, n=3, seed=2)
    out = tmp_path / "round1.jsonl"
    code = main(
        ["generate", dataset, "--out", str(out), "--trees-per-question", "4"]
    )
    assert code == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records
    for record in records:
        assert list(record) == [
            "question_id", "question", "steps", "label", "filter_level",
            "tree_id", "seed",
        ]
        for step in record["steps"]:
            assert set(step) == {"text", "target_value"}
            assert -1.0 <= step["target_value"] <= 1.0
    manifest = json.loads((tmp_path / "round1.manifest.json").read_text())
    assert manifest["records"] == len(records)
    assert manifest["trees_per_question"] == 4


@pytest.mark.parametrize(
    "flags",
    [
        ["--temperature", "0"],
        ["--temperature", "-1"],
        ["--trees-per-question", "0"],
        ["--trees-per-question", "-1"],
        ["--max-pos", "-1"],
        ["--max-neg", "-1"],
        ["--c-puct", "nan"],
        ["--temperature", "inf"],
        ["--config", str(CONFIGS / "trees_per_question_float.json")],
        ["--config", str(CONFIGS / "c_puct_true.json")],
        ["--seed", "9223372036854775808"],
        ["--seed", "-99999999999999999999999"],
    ],
)
def test_generate_rejects_invalid_settings_before_writing(tmp_path, capsys, flags):
    dataset = toy_dataset(tmp_path, n=1)
    out = tmp_path / "round1.jsonl"
    assert main(["generate", dataset, "--out", str(out), *flags]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "round1.manifest.json").exists()


def test_generate_reruns_are_byte_identical(tmp_path):
    dataset = toy_dataset(tmp_path, n=2, seed=6)
    outs = []
    for name, jobs in (("a.jsonl", "1"), ("b.jsonl", "1"), ("c.jsonl", "4")):
        out = tmp_path / name
        code = main(
            [
                "generate", dataset,
                "--out", str(out),
                "--trees-per-question", "3",
                "--jobs", jobs,
            ]
        )
        assert code == EXIT_OK
        outs.append(out)
    first = outs[0].read_bytes()
    assert outs[1].read_bytes() == first
    assert outs[2].read_bytes() == first  # parallelism cannot change the output
    manifests = [
        (tmp_path / f"{o.stem}.manifest.json").read_bytes() for o in outs
    ]
    assert manifests[0] == manifests[1] == manifests[2]


def test_generate_requires_gold_answers(tmp_path, capsys):
    rows = corpus_to_records(toy_corpus(2, 0))
    del rows[1]["gold_answer"]
    dataset = write_dataset(tmp_path, rows)
    code = main(["generate", dataset, "--out", str(tmp_path / "x.jsonl")])
    assert code == EXIT_DATASET
    err = capsys.readouterr().err
    assert rows[1]["id"] in err


def test_generate_empty_dataset_writes_empty_output(tmp_path, capsys):
    dataset = write_dataset(tmp_path, [])
    out = tmp_path / "empty.jsonl"
    assert main(["generate", dataset, "--out", str(out)]) == EXIT_OK
    assert out.read_text() == ""
    manifest = json.loads((tmp_path / "empty.manifest.json").read_text())
    assert manifest["records"] == 0
    assert "wrote 0 records" in capsys.readouterr().out


def test_generate_with_unreachable_gold_yields_only_negatives(tmp_path):
    rows = corpus_to_records(toy_corpus(1, 5))
    rows[0]["gold_answer"] = "999999"  # no path can produce this answer
    dataset = write_dataset(tmp_path, rows)
    out = tmp_path / "neg.jsonl"
    assert main(["generate", dataset, "--out", str(out)]) == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert records
    assert all(r["label"] == "incorrect" for r in records)
    manifest = json.loads((tmp_path / "neg.manifest.json").read_text())
    assert manifest["pos_neg_ratio"] == 0.0


def test_inspect_summarizes_a_dumped_tree(tmp_path, capsys):
    dataset = toy_dataset(tmp_path, n=1, seed=9)
    dump_dir = tmp_path / "trees"
    code = main(
        [
            "solve", dataset,
            "--strategy", "mcts",
            "--n-sims", "1",
            "--dump-trees", str(dump_dir),
        ]
    )
    assert code == EXIT_OK
    capsys.readouterr()
    snapshots = list(dump_dir.glob("*.tree.json"))
    assert len(snapshots) == 1
    assert main(["inspect", str(snapshots[0]), "--b1", "2"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "depth  0: 1" in text
    assert "depth  1:" in text
    assert "value sweep (beam width 2):" in text
    assert "best path:" in text


def _doctor_c_puct(doc):
    doc["config"]["c_puct"] = -1.0


def _doctor_step_text(doc):
    doc["nodes"][-1]["step_text"] = doc["nodes"][-1]["step_text"].removeprefix("<step>")


def _doctor_max_depth_zero(doc):
    doc["config"]["max_depth"] = 0
    return "malformed snapshot: max_depth must be >= 1"


def _doctor_leaf_prior_zero(doc):
    doc["nodes"][-1]["prior"] = 0.0
    return "malformed snapshot: prior must lie in (0, 1]"


def _doctor_leaf_prior_negative(doc):
    doc["nodes"][-1]["prior"] = -0.5
    return "malformed snapshot: prior must lie in (0, 1]"


def _doctor_no_nodes(doc):
    doc["nodes"] = []
    return "snapshot has no root node"


def _doctor_reward_without_gold(doc):
    # an inference tree has no gold answer, so an answer in it has no reward
    assert doc["gold_answer"] is None
    leaf = doc["nodes"][-1]
    leaf.update(step_kind="a", step_text=render_answer_step("done", " 1"), terminal=True, reward=1.0)
    return f"node {leaf['id']} has reward 1.0, but its path has no reward"


def _doctor_answer_not_terminal(doc):
    leaf = doc["nodes"][-1]
    leaf.update(step_kind="a", step_text=render_answer_step("done", " 1"), terminal=False)
    return f"node {leaf['id']} answers but is not terminal"


def _doctor_leaf_model_value(doc):
    doc["nodes"][-1]["model_value"] = 5.0
    return f"node {doc['nodes'][-1]['id']} has model value 5.0; values lie in [-1, 1]"


def _doctor_root_step_kind(doc):
    # empty, so a check on the kind's truth rather than its presence would pass it
    doc["nodes"][0]["step_kind"] = ""
    return f"root node {doc['nodes'][0]['id']} has step kind '' but no step"


def _doctor_step_kind_not_the_texts(doc):
    # the kind is read from the text; the field must agree with it
    leaf = doc["nodes"][-1]
    leaf.update(step_kind="c", step_text=render_answer_step("done", " 1"), terminal=True, reward=None)
    return f"node {leaf['id']} has step kind 'c', but its text is of kind 'a'"


def _doctor_negative_simulations_run(doc):
    doc["simulations_run"] = -3
    return "simulations_run is -3; a count is >= 0"


def _doctor_negative_total_backups(doc):
    doc["total_backups"] = -9
    return "total_backups is -9; a count is >= 0"


# Each doctor breaks a dumped snapshot and may return the message expected
# after "input error: "; without one, any malformed-snapshot message will do.
@pytest.mark.parametrize(
    "doctor",
    [_doctor_c_puct, _doctor_step_text, _doctor_max_depth_zero, _doctor_leaf_prior_zero,
     _doctor_leaf_prior_negative, _doctor_no_nodes, _doctor_reward_without_gold,
     _doctor_answer_not_terminal, _doctor_leaf_model_value, _doctor_negative_simulations_run,
     _doctor_negative_total_backups, _doctor_root_step_kind, _doctor_step_kind_not_the_texts],
)
def test_inspect_calls_an_unloadable_snapshot_an_input_error(tmp_path, capsys, doctor):
    dataset = toy_dataset(tmp_path, n=1, seed=9)
    dump_dir = tmp_path / "trees"
    assert main(
        ["solve", dataset, "--strategy", "mcts", "--n-sims", "2", "--dump-trees", str(dump_dir)]
    ) == EXIT_OK
    (snapshot,) = dump_dir.glob("*.tree.json")
    doc = json.loads(snapshot.read_text(encoding="utf-8"))
    message = doctor(doc) or "malformed snapshot"
    snapshot.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["inspect", str(snapshot)]) == EXIT_DATASET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"input error: {message}" in captured.err


# A field of a dumped snapshot given a value of another JSON kind: (where,
# field, value), where is the document, its config or its last (leaf) node.
_MISTYPED_SNAPSHOT_FIELDS = [
    ("doc", "gold_answer", 5),
    ("doc", "question_text", 5),
    ("doc", "seed", "x"),
    ("doc", "simulations_run", "2"),
    ("config", "n_simulations", 2.5),
    ("leaf", "terminal", "no"),
    ("leaf", "prior", True),
    ("leaf", "visits", 1.0),
    ("leaf", "reward", True),
    ("leaf", "model_value", "1"),
]


@pytest.mark.parametrize(
    "where, field, value",
    [(None, None, [1, 2])] + _MISTYPED_SNAPSHOT_FIELDS,
    ids=["list"] + [f"{where}-{field}={value!r}" for where, field, value in _MISTYPED_SNAPSHOT_FIELDS],
)
def test_inspect_refuses_a_snapshot_field_of_the_wrong_json_kind(tmp_path, capsys, where, field, value):
    dataset = toy_dataset(tmp_path, n=1, seed=9)
    dump_dir = tmp_path / "trees"
    assert main(
        ["solve", dataset, "--strategy", "mcts", "--n-sims", "2", "--dump-trees", str(dump_dir)]
    ) == EXIT_OK
    (snapshot,) = dump_dir.glob("*.tree.json")
    doc = json.loads(snapshot.read_text(encoding="utf-8"))
    assert doc["nodes"][-1]["visits"] == 1  # so that 1.0 differs only in its kind
    if where is None:
        doc = value
    else:
        {"doc": doc, "config": doc["config"], "leaf": doc["nodes"][-1]}[where][field] = value
    snapshot.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["inspect", str(snapshot)]) == EXIT_DATASET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input error: malformed snapshot" in captured.err
    assert "not a JSON object" in captured.err if where is None else field in captured.err


def test_inspect_rejects_a_beam_width_below_one(tmp_path, capsys):
    dataset = toy_dataset(tmp_path, n=1, seed=9)
    dump_dir = tmp_path / "trees"
    assert main(
        ["solve", dataset, "--strategy", "mcts", "--n-sims", "1", "--dump-trees", str(dump_dir)]
    ) == EXIT_OK
    capsys.readouterr()
    (snapshot,) = dump_dir.glob("*.tree.json")
    assert main(["inspect", str(snapshot), "--b1", "0"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "b1 must be >= 1" in captured.err


def test_inspect_rejects_a_beam_width_above_the_bound(tmp_path, capsys):
    missing = str(tmp_path / "missing.tree.json")  # exit 3 if it were read
    assert main(["inspect", missing, "--b1", str(MAX_WIDTH + 1)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"b1 must be <= {MAX_WIDTH}" in captured.err


def test_inspect_rejects_missing_and_malformed_snapshots(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "gone.json")]) == EXIT_DATASET
    empty = tmp_path / "empty.json"
    empty.write_text("", encoding="utf-8")
    assert main(["inspect", str(empty)]) == EXIT_DATASET
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"schema": "rsp-tree/9", "nodes": []}', encoding="utf-8")
    assert main(["inspect", str(wrong)]) == EXIT_DATASET
    assert "rsp-tree/9" in capsys.readouterr().err


def _stdout_closed_at_once(tmp_path, *args):
    """Run the CLI in a child whose stdout pipe is closed before it writes."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.Popen(
        [sys.executable, "-m", "rsp.cli", *args],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    child.stdout.close()
    try:
        err = child.stderr.read()
    finally:
        child.stderr.close()
    return child.wait(timeout=120), err


def test_a_closed_stdout_exits_1_without_a_traceback(tmp_path, capsys):
    code, err = _stdout_closed_at_once(tmp_path, "toydata", "--n", "3", "--out", "x.jsonl")
    assert (code, err) == (1, b"")
    dataset = toy_dataset(tmp_path, n=1, seed=9)
    dump_dir = tmp_path / "trees"
    assert main(["solve", dataset, "--strategy", "mcts", "--n-sims", "2", "--dump-trees", str(dump_dir)]) == EXIT_OK
    (snapshot,) = dump_dir.glob("*.tree.json")
    code, err = _stdout_closed_at_once(tmp_path, "inspect", str(snapshot), "--b1", "2")
    assert (code, err) == (1, b"")


# The setting flags of each command as (option strings, dest, type, choices);
# argparse passes a string through as is when no type is given.
_SOLVE_FLAGS = {
    (("--strategy",), "strategy", str, ("greedy", "sbs", "mcts", "maj")),
    (("--b1",), "b1", int, None),
    (("--k",), "k", int, None),
    (("--out",), "out", str, None),
    (("--dump-trees",), "dump_trees", str, None),
}
_GENERATE_FLAGS = {
    (("--out",), "out", str, None),
    (("--trees-per-question",), "trees_per_question", int, None),
    (("--max-pos",), "max_pos", int, None),
    (("--max-neg",), "max_neg", int, None),
    (("--round",), "round", int, None),
}
_SHARED_FLAGS = {
    ((), "dataset", str, None),
    (("--backend",), "backend", str, ("toy", "remote")),
    (("--toy-mode",), "toy_mode", str, ("cold", "oracle")),
    (("--backend-url",), "backend_url", str, None),
    (("--b2",), "b2", int, None),
    (("--n-sims",), "n_simulations", int, None),
    (("--c-puct",), "c_puct", float, None),
    (("--t-max",), "t_max", int, None),
    (("--temperature",), "temperature", float, None),
    (("--seed",), "seed", int, None),
    (("--jobs",), "jobs", int, None),
    (("--config",), "config", str, None),
}


@pytest.mark.parametrize(
    "command, expected",
    [("solve", _SOLVE_FLAGS | _SHARED_FLAGS), ("generate", _GENERATE_FLAGS | _SHARED_FLAGS)],
)
def test_each_command_takes_exactly_its_flags(command, expected):
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    flags = {
        (
            tuple(action.option_strings),
            action.dest,
            action.type or str,
            None if action.choices is None else tuple(action.choices),
        )
        for action in commands.choices[command]._actions
        if action.dest != "help"
    }
    assert flags == expected
