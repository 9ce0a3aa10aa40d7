"""Experiment runner: configs, records, comparison, CLI contract."""
import json
import os

import numpy as np
import pytest

from qns import cli, harness, masknet
from qns.harness import ConfigError, ExperimentConfig, compare, format_compare_table, run

PLANTED_TASK = {
    "kind": "planted",
    "layers": [[2, 2, "relu"], [2, 1, "identity"]],
    "n_samples": 16,
    "seed": 9,
}


def config_doc(method="grover", out="runs", **extra):
    doc = {
        "method": method,
        "task": dict(PLANTED_TASK),
        "epsilon": 1e-6,
        "method_params": {},
        "seeds": [1, 2],
        "output_dir": out,
    }
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# Config validation.

def test_config_errors_name_the_field(tmp_path):
    with pytest.raises(ConfigError, match="method"):
        ExperimentConfig.from_dict({"task": PLANTED_TASK, "seeds": [1]})
    with pytest.raises(ConfigError, match="task"):
        ExperimentConfig.from_dict({"method": "grover", "seeds": [1]})
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_dict({"method": "grover", "task": PLANTED_TASK,
                                    "seeds": []})
    with pytest.raises(ConfigError, match="unknown method"):
        ExperimentConfig.from_dict(config_doc(method="warp"))


def test_missing_referenced_path_is_named(tmp_path):
    doc = config_doc(method="distill")
    doc["task"] = {"kind": "distill", "teacher_path": str(tmp_path / "no.json"),
                   "seed": 1}
    with pytest.raises(ConfigError, match="no.json"):
        ExperimentConfig.from_dict(doc)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        harness.load_config(path)
    with pytest.raises(ConfigError, match="not found"):
        harness.load_config(tmp_path / "missing.json")


# ---------------------------------------------------------------------------
# Records.

def test_run_is_byte_deterministic(tmp_path):
    cfg = ExperimentConfig.from_dict(config_doc(out=str(tmp_path)))
    a = run(cfg)
    b = run(cfg)
    payload_a = json.dumps([e["metrics"] for e in a["per_seed"]], sort_keys=True)
    payload_b = json.dumps([e["metrics"] for e in b["per_seed"]], sort_keys=True)
    assert payload_a == payload_b
    assert a["hashes"]["metrics"] == b["hashes"]["metrics"]


def test_records_are_append_only(tmp_path):
    cfg = ExperimentConfig.from_dict(config_doc(out=str(tmp_path)))
    a = run(cfg)
    b = run(cfg)
    assert a["path"] != b["path"]
    assert os.path.exists(a["path"]) and os.path.exists(b["path"])


def test_record_file_content_matches_returned_record(tmp_path):
    cfg = ExperimentConfig.from_dict(config_doc(out=str(tmp_path)))
    record = run(cfg)
    on_disk = json.loads(open(record["path"]).read())
    assert on_disk["per_seed"] == record["per_seed"]
    assert on_disk["hashes"] == record["hashes"]


def test_exhaustive_record_contains_true_optimum(tmp_path):
    cfg = ExperimentConfig.from_dict(config_doc(method="exhaustive",
                                                out=str(tmp_path)))
    record = run(cfg)
    metrics = record["per_seed"][0]["metrics"]
    assert metrics["loss"] == 0.0  # the planted mask reaches zero loss
    assert metrics["success"] is True
    assert metrics["k_solutions"] >= 1


# ---------------------------------------------------------------------------
# Comparison.

def test_compare_single_record_single_row(tmp_path):
    cfg = ExperimentConfig.from_dict(config_doc(out=str(tmp_path)))
    rows = compare([run(cfg)])
    assert len(rows) == 1
    assert rows[0]["method"] == "grover"
    assert rows[0]["runs"] == 2


def test_compare_grover_beats_exhaustive_on_calls(tmp_path):
    grover_cfg = ExperimentConfig.from_dict(
        config_doc(out=str(tmp_path), seeds=[1, 2, 3, 4]))
    exhaustive_cfg = ExperimentConfig.from_dict(
        config_doc(method="exhaustive", out=str(tmp_path)))
    rows = compare([run(grover_cfg), run(exhaustive_cfg)])
    by_method = {r["method"]: r for r in rows}
    assert by_method["grover"]["min_loss"] == by_method["exhaustive"]["min_loss"]
    assert (by_method["grover"]["mean_oracle_calls"]
            < by_method["exhaustive"]["mean_oracle_calls"])
    table = format_compare_table(rows)
    assert "grover" in table and "exhaustive" in table


def test_compare_rejects_mismatched_tasks(tmp_path):
    a = run(ExperimentConfig.from_dict(config_doc(out=str(tmp_path))))
    other = config_doc(out=str(tmp_path))
    other["task"]["seed"] = 10
    b = run(ExperimentConfig.from_dict(other))
    with pytest.raises(ValueError, match="task"):
        compare([a, b])
    with pytest.raises(ValueError):
        compare([])


# ---------------------------------------------------------------------------
# CLI.

def test_cli_run_success_exit_code(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_doc(out=str(tmp_path / "runs"))))
    assert cli.main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "record written" in out


def test_cli_run_config_error_exit_code(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"method": "grover"}))
    assert cli.main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_run_method_failure_exit_code(tmp_path):
    """A task with no acceptable mask makes the search fail: exit code 3."""
    rng = np.random.default_rng(0)
    csv_path = tmp_path / "noise.csv"
    rows = np.hstack([rng.normal(size=(12, 2)), rng.normal(size=(12, 1))])
    np.savetxt(csv_path, rows, delimiter=",")
    doc = {
        "method": "grover",
        "task": {"kind": "csv", "path": str(csv_path), "n_inputs": 2,
                 "layers": [[2, 2, "relu"], [2, 1, "identity"]], "net_seed": 1},
        "epsilon": 1e-12,
        "method_params": {"max_restarts": 2},
        "seeds": [1],
        "output_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 3


@pytest.mark.parametrize("content", ["1,2,3\n4,x,6\n", "1,2,3\n4,5\n"],
                         ids=["bad-cell", "short-row"])
def test_cli_malformed_csv_task_is_config_error(tmp_path, capsys, content):
    csv_path = tmp_path / "task.csv"
    csv_path.write_text(content)
    doc = config_doc(method="exhaustive", out=str(tmp_path / "runs"))
    doc["task"] = {"kind": "csv", "path": str(csv_path), "n_inputs": 2,
                   "layers": [[2, 1, "identity"]], "net_seed": 1}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "field 'task.path'" in err
    assert str(csv_path) in err
    assert "line 2" in err


@pytest.mark.parametrize("method", ["exhaustive", "anneal", "qaoa", "vqe", "grover",
                                    "edge_popup"])
def test_run_builds_the_task_once_per_call(tmp_path, monkeypatch, method):
    calls = {"task": 0, "table": 0}

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(harness, "build_selection_task", "task")
    counted(harness.oracle, "build_cost_hamiltonian", "table")
    params = {"anneal": {"steps": 5}, "qaoa": {"budget": 5}, "vqe": {"budget": 5},
              "edge_popup": {"epochs": 1}}.get(method, {})
    cfg = ExperimentConfig.from_dict(config_doc(
        method=method, out=str(tmp_path), method_params=params, seeds=[1, 2, 3]))
    tables = int(method in {"exhaustive", "anneal", "qaoa", "vqe"})
    run(cfg)
    assert calls == {"task": 1, "table": tables}
    run(cfg)  # the next call builds its own task
    assert calls == {"task": 2, "table": 2 * tables}


@pytest.mark.parametrize("params", [{}, {"unknown_k": True}])
def test_grover_seeds_share_one_cost_table(tmp_path, monkeypatch, params):
    # epsilon left to each seed, so the shared oracle's threshold changes per seed
    doc = config_doc(out=str(tmp_path), method_params=params, epsilon=None)
    alone = [run(ExperimentConfig.from_dict({**doc, "seeds": [seed]}))["per_seed"][0]
             for seed in doc["seeds"]]
    enumerate_costs = harness.oracle.CostOracle.enumerate_costs
    enumerations = []

    def spy(self):
        if self._enumerated is None:
            enumerations.append(self)
        return enumerate_costs(self)
    monkeypatch.setattr(harness.oracle.CostOracle, "enumerate_costs", spy)
    shared = run(ExperimentConfig.from_dict(doc))["per_seed"]
    assert len(enumerations) == 1
    assert shared[0]["metrics"]["epsilon"] != shared[1]["metrics"]["epsilon"]
    assert [e["metrics"] for e in shared] == [e["metrics"] for e in alone]


def test_cli_maps_method_exceptions_to_exit_codes(tmp_path, capsys):
    """An exception raised inside a method is a method failure."""
    csv_path = tmp_path / "huge.csv"
    np.savetxt(csv_path, np.full((4, 3), 1e200), delimiter=",")
    doc = {
        "method": "edge_popup",
        "task": {"kind": "csv", "path": str(csv_path), "n_inputs": 2,
                 "layers": [[2, 1, "identity"]], "net_seed": 1},
        "epsilon": 1.0,
        "method_params": {"epochs": 1},
        "seeds": [3],  # every squared loss overflows: FloatingPointError
        "output_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with np.errstate(over="ignore"):
        assert cli.main(["run", str(path)]) == 3
    assert "method failure" in capsys.readouterr().err

    # a method_params value violating a module bound is a config problem
    doc = {
        "method": "nk_esn",
        "task": {"kind": "sequence", "length": 80, "seed": 1},
        "method_params": {"n_outputs": 4, "k": 9, "reservoir_size": 30},  # K > N
        "seeds": [4],
        "output_dir": str(tmp_path / "runs"),
    }
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_nilpotent_reservoir_is_a_method_failure(tmp_path, capsys):
    """Run seed 273 derives a reservoir seed whose 20x20 draw has spectral
    radius 0; that depends on the seed, so it is no config error."""
    doc = {
        "method": "nk_esn",
        "task": {"kind": "sequence", "length": 80, "seed": 1},
        "method_params": {"n_outputs": 4, "k": 2, "reservoir_size": 20},
        "seeds": [273],
        "output_dir": str(tmp_path / "runs"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 3
    assert "method failure" in capsys.readouterr().err


def test_cli_compare(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc(out=str(tmp_path / "runs"))))
    assert cli.main(["run", str(cfg_path)]) == 0
    records = list((tmp_path / "runs").glob("record_*.json"))
    out_csv = tmp_path / "summary.csv"
    assert cli.main(["compare", *map(str, records), "--csv", str(out_csv)]) == 0
    assert out_csv.exists()
    assert "mean_loss" in out_csv.read_text()
    assert cli.main(["compare", str(tmp_path / "nope.json")]) == 2


def test_cli_compare_bad_record_is_config_error(tmp_path, capsys):
    not_json = tmp_path / "not_json.json"
    not_json.write_text("this is not JSON")
    no_task = tmp_path / "no_task.json"
    no_task.write_text(json.dumps({"config": {"method": "grover"}, "per_seed": []}))
    for path, detail in [(not_json, "Expecting value"), (no_task, "missing field 'task'")]:
        assert cli.main(["compare", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: record {path}: " in err
        assert detail in err


def test_cli_distill_malformed_teacher_is_config_error(tmp_path, capsys):
    """A teacher file load_network cannot read exits 2 and names the field;
    a weights-only document with a null seed and no bias masks still runs."""
    teacher_path = tmp_path / "teacher.json"
    doc = {
        "method": "distill",
        "task": {"kind": "distill", "teacher_path": str(teacher_path),
                 "n_samples": 8, "seed": 1},
        "method_params": {"backend": "exhaustive", "width_factor": 1},
        "seeds": [2],
        "output_dir": str(tmp_path / "runs"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    teacher_path.write_text(json.dumps({
        "specs": [{"fan_in": 2, "fan_out": 1, "activation": "identity"}],
        "seed": None, "mask_biases": False,
        "weights": [[[0.5], [-0.25]]], "biases": [[0.1]], "masks": [[[1.0], [1.0]]],
    }))
    assert cli.main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    for teacher, detail in [
        ({}, "missing field 'specs'"),  # KeyError
        ({"specs": 5}, "not iterable"),  # TypeError
        ({"specs": [{"fan_in": 2, "fan_out": 1, "activation": "relu"}],
          "seed": 3}, "identity activation"),  # ValueError
    ]:
        teacher_path.write_text(json.dumps(teacher))
        assert cli.main(["run", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"config error: field 'task.teacher_path': {teacher_path}: " in err
        assert detail in err


def test_cli_sweep_writes_summary(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc(out=str(tmp_path / "runs"),
                                              seeds=[1])))
    code = cli.main(["sweep", str(cfg_path), "--param",
                     "method_params.max_restarts", "--values", "1,3"])
    assert code == 0
    sweeps = list((tmp_path / "runs").glob("sweep_*.csv"))
    assert len(sweeps) == 1
    lines = sweeps[0].read_text().strip().splitlines()
    assert lines[0] == "value,mean_loss,success_rate,record"
    assert len(lines) == 3


def test_cli_sweep_bad_values(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config_doc(out=str(tmp_path / "runs"))))
    assert cli.main(["sweep", str(cfg_path), "--param", "x", "--values",
                     "{bad"]) == 2


# ---------------------------------------------------------------------------
# Remaining method runners, one smoke test each.

@pytest.mark.parametrize("method,params", [
    ("anneal", {"total_time": 40, "steps": 400}),
    ("qaoa", {"p": 2, "budget": 150}),
    ("vqe", {"layers": 2, "budget": 150}),
    ("edge_popup", {"alpha": 0.1, "epochs": 8}),
])
def test_method_runners_produce_metrics(tmp_path, method, params):
    doc = config_doc(method=method, out=str(tmp_path))
    doc["method_params"] = params
    doc["epsilon"] = 0.1
    doc["seeds"] = [3]
    record = run(ExperimentConfig.from_dict(doc))
    metrics = record["per_seed"][0]["metrics"]
    assert "loss" in metrics and "success" in metrics


def test_nk_esn_runner(tmp_path):
    doc = {
        "method": "nk_esn",
        "task": {"kind": "sequence", "length": 100, "seed": 2},
        "method_params": {"n_outputs": 6, "k": 2, "reservoir_size": 30},
        "seeds": [4],
        "output_dir": str(tmp_path),
    }
    record = run(ExperimentConfig.from_dict(doc))
    metrics = record["per_seed"][0]["metrics"]
    assert metrics["success"] is True
    assert metrics["dp_gap"] >= 0.0


def test_distill_runner(tmp_path):
    teacher = masknet.init_network([(2, 2, "relu"), (2, 1, "identity")], seed=4)
    teacher_path = tmp_path / "teacher.json"
    masknet.save_network(teacher, teacher_path)
    doc = {
        "method": "distill",
        "task": {"kind": "distill", "teacher_path": str(teacher_path),
                 "n_samples": 16, "seed": 1},
        "method_params": {"backend": "exhaustive", "width_factor": 1,
                          "bit_budget": 12},
        "seeds": [2],
        "output_dir": str(tmp_path),
    }
    record = run(ExperimentConfig.from_dict(doc))
    metrics = record["per_seed"][0]["metrics"]
    assert metrics["block_gaps"] == [0.0, 0.0]

    doc["method_params"]["backend"] = "grover"
    searched = run(ExperimentConfig.from_dict(doc))
    eps = searched["per_seed"][0]["metrics"]["block_epsilons"]
    assert len(eps) == 2 and all(e > 0 for e in eps)  # thresholds recorded


def test_sequence_task_is_seed_deterministic():
    a = harness.make_sequence_task(50, seed=1)
    b = harness.make_sequence_task(50, seed=1)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.targets, b.targets)
