"""The same JSON values sent through every outside input that checks JSON
types: a config key of each setting type, each dataset field, each /propose
field the server reads and each proposal field the client reads.

The table below records what each site does with each value: accept it
("ok") or refuse it with the error class named. It pins the sets so that a
change to how a site reads its fields cannot widen or narrow them.
"""

import json
import math

import pytest

from conftest import code_step, make_state
from rsp.cli import EXIT_CONFIG, EXIT_DATASET, _load_config_file, _load_dataset, main
from rsp.core import EngineError, Step
from rsp.policy import _step_from_wire, _step_to_wire
from rsp.server import _proposal_request_from_wire

VALUES = {
    "0": 0,
    "1": 1,
    "-3": -3,
    "2.5": 2.5,
    "1e308": 1e308,
    "10**400": 10**400,
    "true": True,
    "false": False,
    "null": None,
    '"1"': "1",
    "[]": [],
    "{}": {},
    "nan": math.nan,
    "inf": math.inf,
}

# (site, field) -> the outcome of each value that is not the site's usual
# refusal; every other value gets the refusal named in REFUSAL.
ACCEPTED = {
    # a seed must fit the 8 signed bytes core.derive_seed mixes, so 10**400 is refused
    ("config", "seed"): {"0": "ok", "1": "ok", "-3": "ok", "null": "ok"},
    ("config", "c_puct"): {"1": "ok", "2.5": "ok", "1e308": "ok", "null": "ok"},
    ("config", "backend_url"): {"null": "ok", '"1"': "ok"},
    ("dataset", "id"): {"0": "ok", "1": "ok", "-3": "ok", "10**400": "ok", '"1"': "ok"},
    ("dataset", "question"): {'"1"': "ok"},
    ("dataset", "gold_answer"): {"null": "ok", '"1"': "ok"},
    ("propose", "n_samples"): {
        "0": "ContractViolation", "1": "ok", "-3": "ContractViolation", "10**400": "ok",
    },
    ("propose", "temperature"): {
        "0": "ContractViolation", "1": "ok", "-3": "ContractViolation", "2.5": "ok", "1e308": "ok",
    },
    ("propose", "seed"): {"0": "ok", "1": "ok", "-3": "ok", "10**400": "ok", "null": "ok"},
    ("propose", "with_values"): {"true": "ok", "false": "ok"},
    ("proposal", "mean_log_prob"): {
        "0": "ok", "1": "ContractViolation", "-3": "ok",
        "2.5": "ContractViolation", "1e308": "ContractViolation",
    },
    ("proposal", "contains_code"): {"true": "ok", "false": "ok"},
    ("proposal", "code_errored"): {"true": "ok", "false": "ok"},
    ("proposal", "code_output"): {"null": "ok", '"1"': "ok"},
}

REFUSAL = {"config": "refused", "dataset": "DatasetError", "propose": "ValueError", "proposal": "TransportError"}


def _config(tmp_path, field, value):
    """"ok" when the run gets past its settings to the (missing) dataset;
    the settings the file gives are checked to hold the value."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({field: value}), encoding="utf-8")
    code = main(["solve", str(tmp_path / "missing.jsonl"), "--config", str(config)])
    if code == EXIT_CONFIG:
        return "refused"
    assert code == EXIT_DATASET
    settings = _load_config_file(str(config))
    if value is None:
        assert field not in settings
    else:
        expected = float(value) if field == "c_puct" else value
        assert type(settings[field]) is type(expected) and settings[field] == expected
    return "ok"


def _dataset(tmp_path, field, value):
    row = {"id": "a", "question": "q", "gold_answer": "1", field: value}
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    (loaded,) = _load_dataset(str(path), require_gold=False)
    assert loaded == row
    return "ok"


def _propose(tmp_path, field, value):
    body = {"state": "q", "n_samples": 2, "temperature": 1.0, "seed": 7, field: value}
    request = _proposal_request_from_wire(make_state(), body)
    read = {**body, "temperature": float(body["temperature"])}
    assert [getattr(request, key) for key in ("n_samples", "temperature", "seed", "with_values")] == [
        read["n_samples"], read["temperature"], read["seed"], read.get("with_values", False)
    ]
    assert type(request.temperature) is float
    return "ok"


def _proposal(tmp_path, field, value):
    payload = {**_step_to_wire(code_step()), field: value}
    step = _step_from_wire(payload)
    assert step.mean_log_prob == payload["mean_log_prob"] and type(step.mean_log_prob) is float
    parsed = Step(payload["text"])
    assert (step.contains_code, step.code_errored, step.code_output) == (
        parsed.contains_code, parsed.code_errored, parsed.code_output
    )
    return "ok"


SITES = {"config": _config, "dataset": _dataset, "propose": _propose, "proposal": _proposal}


@pytest.mark.parametrize("label", list(VALUES))
@pytest.mark.parametrize("site, field", list(ACCEPTED), ids=[f"{site}-{field}" for site, field in ACCEPTED])
def test_every_site_accepts_and_refuses_the_same_values(tmp_path, capsys, site, field, label):
    try:
        outcome = SITES[site](tmp_path, field, VALUES[label])
    except (ValueError, EngineError) as exc:
        outcome = type(exc).__name__
        assert field in str(exc)
    if outcome == "refused":
        assert field in capsys.readouterr().err
    assert outcome == ACCEPTED[site, field].get(label, REFUSAL[site])
