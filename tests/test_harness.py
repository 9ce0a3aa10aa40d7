"""Experiment runner: configs, records, comparison, CLI contract."""
import json
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qns
from qns import cli, edgepopup, harness, masknet, nkesn, search, variational
from qns.bitstrings import all_patterns, index_to_bits
from qns.harness import ConfigError, ExperimentConfig, compare, format_compare_table, run
from qns.qsim import measure

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
    text = open(record["path"]).read()
    assert "\n" not in text  # compact: one line
    on_disk = json.loads(text)
    assert on_disk == {key: value for key, value in record.items() if key != "path"}
    assert on_disk["hashes"]["metrics"] == harness._sha256(
        [entry["metrics"] for entry in on_disk["per_seed"]])


def test_run_never_overwrites_a_record_at_its_stamped_path(tmp_path, monkeypatch):
    """Another run's record already at the stamped path stays untouched, even
    when an existence probe would miss it (a second process between probe
    and write): the file is created exclusively."""
    stamp = harness.datetime(2026, 1, 2, 3, 4, 5, 678901, tzinfo=harness.timezone.utc)

    class FixedClock(harness.datetime):
        @classmethod
        def now(cls, tz=None):
            return stamp

    monkeypatch.setattr(harness, "datetime", FixedClock)
    cfg = ExperimentConfig.from_dict(config_doc(out=str(tmp_path)))
    taken = tmp_path / "record_grover_20260102T030405678901.json"
    taken.write_text("another run's record")
    monkeypatch.setattr(Path, "exists", lambda self: False)
    record = run(cfg)
    assert taken.read_text() == "another run's record"
    assert record["path"] == str(tmp_path / "record_grover_20260102T030405678901_1.json")
    assert json.loads(Path(record["path"]).read_text())["hashes"] == record["hashes"]


def test_config_hash_ignores_output_dir_and_input_location(tmp_path):
    """One experiment gets one hashes.config, whatever its output directory
    and wherever its teacher file lies; other teacher bytes change it. The
    record's config payload still holds the paths as resolved."""
    def record_for(name, teacher_seed):
        (tmp_path / name).mkdir()
        teacher_path = tmp_path / name / "teacher.json"
        masknet.save_network(
            masknet.init_network([(2, 2, "relu"), (2, 1, "identity")], seed=teacher_seed),
            teacher_path)
        doc = {
            "method": "distill",
            "task": {"kind": "distill", "teacher_path": str(teacher_path),
                     "n_samples": 8, "seed": 1},
            "method_params": {"width_factor": 1},
            "seeds": [2],
            "output_dir": str(tmp_path / name / "runs"),
        }
        record = run(ExperimentConfig.from_dict(doc))
        assert record["config"]["task"]["teacher_path"] == str(teacher_path)
        assert record["config"]["output_dir"] == doc["output_dir"]
        return record["hashes"]

    a, b = record_for("a", 4), record_for("b", 4)
    assert a == b
    other = record_for("c", 5)
    assert other["config"] != a["config"]


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


@pytest.mark.parametrize("content", ["1,2,3\n4,x,6\n", "1,2,3\n4,5\n", "1,2,3\n4,nan,6\n",
                                     "1,2,3\n4,5,inf\n"],
                         ids=["bad-cell", "short-row", "nan-cell", "inf-cell"])
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
    tables = int(method != "edge_popup")
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
    enumerate_losses = harness.oracle.masknet.enumerate_losses
    enumerations = []

    def spy(net, data):
        enumerations.append(net)
        return enumerate_losses(net, data)
    monkeypatch.setattr(harness.oracle.masknet, "enumerate_losses", spy)
    shared = run(ExperimentConfig.from_dict(doc))["per_seed"]
    assert len(enumerations) == 1
    assert shared[0]["metrics"]["epsilon"] != shared[1]["metrics"]["epsilon"]
    assert [e["metrics"] for e in shared] == [e["metrics"] for e in alone]


# ---------------------------------------------------------------------------
# Seed-independent work, computed once per call.

MIXERS = ("transverse_field", "bit_flip_ring")
TWO_BIT_LAYERS = [[2, 1, "identity"]]


_TABLE_METHOD_PARAMS = {
    "exhaustive": st.just({}),
    "grover": st.fixed_dictionaries({"unknown_k": st.booleans()}),
    "anneal": st.fixed_dictionaries({"steps": st.integers(1, 12),
                                     "mixer": st.sampled_from(MIXERS)}),
    "qaoa": st.fixed_dictionaries({"p": st.integers(1, 2), "budget": st.integers(1, 20),
                                   "mixer": st.sampled_from(MIXERS)}),
    "vqe": st.fixed_dictionaries({"layers": st.integers(1, 2), "budget": st.integers(1, 20)}),
}


@pytest.mark.parametrize("method", sorted(_TABLE_METHOD_PARAMS))
def test_table_methods_score_with_the_per_row_losses(tmp_path, method):
    """With epsilon omitted, a table method's epsilon is the recipe priced by
    forward passes, and its loss and success are those of the reported mask's
    own forward pass: the table it reads equals the per-row losses bit for bit."""
    tasks = st.fixed_dictionaries({
        "kind": st.just("planted"),
        "layers": st.sampled_from([TWO_BIT_LAYERS, PLANTED_TASK["layers"],
                                   [[3, 2, "relu"], [2, 1, "identity"]]]),
        "n_samples": st.integers(1, 8),
        "seed": st.integers(0, 1000),
    })

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(task=tasks, params=_TABLE_METHOD_PARAMS[method],
           seeds=st.lists(st.integers(0, 2 ** 31 - 1), min_size=1, max_size=2, unique=True))
    def check(task, params, seeds):
        record = run(ExperimentConfig.from_dict({
            "method": method, "task": task, "method_params": params, "seeds": seeds,
            "output_dir": str(tmp_path / "runs")}))
        net, data = harness.build_selection_task(task)
        n = net.total_maskable()
        per_row = masknet.batch_losses(net, data, all_patterns(n))
        for entry in record["per_seed"]:
            metrics = entry["metrics"]
            probes = np.random.default_rng(entry["seed"]).integers(
                0, 2, size=(64, n)).astype(np.uint8)
            assert metrics["epsilon"] == np.median(
                masknet.batch_losses(net, data, probes)) * 0.5
            index = int(metrics.get("bits_hex") or metrics["best_bits_hex"], 16)
            assert metrics["loss"] == per_row[index]
            assert metrics["success"] == (metrics["loss"] < metrics["epsilon"])

    check()


def _alone(doc):
    """The per-seed entries of one one-seed run per seed of ``doc``."""
    return [run(ExperimentConfig.from_dict({**doc, "seeds": [seed]}))["per_seed"][0]
            for seed in doc["seeds"]]


def _with_qaoa_traces(doc, runner):
    """``runner(doc)`` and every QAOA optimizer trace it made, as (bytes, value)."""
    traces = []
    optimize = variational.qaoa_optimize

    def spy(*args, **kwargs):
        result = optimize(*args, **kwargs)
        traces.append([(x.tobytes(), v) for x, v in result.trace])
        return result
    with mock.patch.object(variational, "qaoa_optimize", spy):
        return runner(doc), traces


def _shared_equals_alone(doc):
    """Assert that a run over ``doc``'s seeds gives each seed the metrics and
    the QAOA trace of a run over that seed alone; return the shared record."""
    record, shared_traces = _with_qaoa_traces(
        doc, lambda d: run(ExperimentConfig.from_dict(d)))
    alone, alone_traces = _with_qaoa_traces(doc, _alone)
    assert [e["metrics"] for e in record["per_seed"]] == [e["metrics"] for e in alone]
    assert shared_traces == alone_traces
    return record


def _teacher_file(directory, seed):
    path = directory / f"teacher_{seed}.json"
    masknet.save_network(
        masknet.init_network([(2, 2, "relu"), (2, 1, "identity")], seed=seed), path)
    return str(path)


@st.composite
def sharing_docs(draw, method, directory):
    """A tiny config of ``method`` over three distinct seeds, epsilon left to each."""
    task_seed = draw(st.integers(0, 50))
    task = {"kind": "planted", "n_samples": 8, "seed": task_seed,
            "layers": draw(st.sampled_from([TWO_BIT_LAYERS, PLANTED_TASK["layers"]]))}
    if method == "anneal":
        params = {"total_time": draw(st.sampled_from([1.0, 5.0])),
                  "steps": draw(st.integers(1, 12)), "mixer": draw(st.sampled_from(MIXERS))}
    elif method == "qaoa":
        # budgets in the hundreds let a simplex converge and restart from a seeded draw
        params = {"p": draw(st.integers(1, 2)), "budget": draw(st.integers(1, 400)),
                  "mixer": draw(st.sampled_from(MIXERS))}
    elif method == "vqe":
        params = {"layers": draw(st.integers(1, 2)), "budget": draw(st.integers(1, 30))}
    elif method == "nk_esn":
        task = {"kind": "sequence", "length": draw(st.integers(30, 80)), "seed": task_seed}
        params = {"n_outputs": 4, "k": 2, "reservoir_size": 10, "connectivity": 0.5,
                  "washout": 10}
    else:
        task = {"kind": "distill", "teacher_path": _teacher_file(directory, task_seed),
                "n_samples": 8, "seed": task_seed}
        params = {"backend": "exhaustive", "width_factor": 1}
    seeds = draw(st.lists(st.integers(0, 2 ** 31 - 1), min_size=3, max_size=3,
                          unique=True))
    return {"method": method, "task": task, "method_params": params, "seeds": seeds,
            "output_dir": str(directory / "runs")}


@pytest.mark.parametrize("method", ["anneal", "qaoa", "vqe", "nk_esn", "distill"])
def test_seeds_of_one_run_equal_one_run_per_seed(tmp_path, method):
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(sharing_docs(method, tmp_path))
    def check(doc):
        _shared_equals_alone(doc)

    check()


def test_anneal_seeds_share_one_evolution(tmp_path, monkeypatch):
    doc = config_doc("anneal", out=str(tmp_path), method_params={"steps": 20},
                     epsilon=None, seeds=[1, 2, 3])
    alone = _alone(doc)
    anneal = qns.anneal.anneal
    schedules = []

    def spy(h, *schedule):
        schedules.append(schedule)
        return anneal(h, *schedule)
    monkeypatch.setattr(qns.anneal, "anneal", spy)
    record = run(ExperimentConfig.from_dict(doc))
    assert len(schedules) == 1
    shared = [e["metrics"] for e in record["per_seed"]]
    assert len({m["epsilon"] for m in shared}) > 1
    assert shared == [e["metrics"] for e in alone]
    assert record["work"] == {"anneal_evolutions": 1, "qaoa_objective_evaluations": 0,
                              "qaoa_objective_lookups": 0}


@pytest.mark.parametrize("mixer", MIXERS)
def test_qaoa_seeds_share_objective_values(tmp_path, monkeypatch, mixer):
    budget = 40
    doc = config_doc("qaoa", out=str(tmp_path), epsilon=None, seeds=[1, 2, 3],
                     method_params={"p": 2, "budget": budget, "mixer": mixer})
    alone = _alone(doc)
    qaoa_state = variational.qaoa_state
    states = []

    def spy(*args):
        states.append(args)
        return qaoa_state(*args)
    monkeypatch.setattr(variational, "qaoa_state", spy)
    record = run(ExperimentConfig.from_dict(doc))
    # the simplex paths coincide: one state per point, then one final state per seed
    assert len(states) <= budget + 3
    assert [e["metrics"] for e in record["per_seed"]] == [e["metrics"] for e in alone]
    assert record["work"] == {"anneal_evolutions": 0,
                              "qaoa_objective_evaluations": budget,
                              "qaoa_objective_lookups": 2 * budget}


@pytest.mark.parametrize("mixer", MIXERS)
def test_qaoa_paths_that_diverge_compute_their_own_points(tmp_path, mixer):
    """A 2-bit simplex converges inside a budget of 250 and restarts from a
    seeded draw, so each seed's path leaves the others' after the restart."""
    budget = 250
    doc = config_doc("qaoa", out=str(tmp_path), epsilon=None, seeds=[1, 2, 3],
                     task={**PLANTED_TASK, "layers": TWO_BIT_LAYERS},
                     method_params={"p": 1, "budget": budget, "mixer": mixer})
    work = _shared_equals_alone(doc)["work"]
    assert work["qaoa_objective_evaluations"] > budget  # new points after the restarts
    assert work["qaoa_objective_lookups"] > 0  # the shared prefix
    assert work["qaoa_objective_evaluations"] + work["qaoa_objective_lookups"] == 3 * budget


def test_shared_anneal_state_is_read_only():
    h = harness._RunTask(dict(PLANTED_TASK)).hamiltonian
    shared = {}
    params = {"total_time": 5.0, "steps": 10}
    search.select("anneal", h, 0.0, params, 1, shared)
    (result,) = shared["anneal"].values()
    search.select("anneal", h, 0.0, params, 2, shared)
    (again,) = shared["anneal"].values()
    assert again is result
    amplitudes = result.final_state.amplitudes
    before = amplitudes.copy()
    with pytest.raises(ValueError, match="read-only"):
        amplitudes[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        amplitudes *= 2.0
    measure(result.final_state, np.random.default_rng(0))  # reading is fine
    np.testing.assert_array_equal(amplitudes, before)


def test_sequence_and_teacher_are_built_once_per_call(tmp_path, monkeypatch):
    calls = {"sequence": 0, "teacher": 0}

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(harness, "make_sequence_task", "sequence")
    counted(harness.masknet, "load_network", "teacher")
    run(ExperimentConfig.from_dict({
        "method": "nk_esn", "task": {"kind": "sequence", "length": 60, "seed": 2},
        "method_params": {"n_outputs": 4, "k": 2, "reservoir_size": 10,
                          "connectivity": 0.5, "washout": 10},
        "seeds": [1, 2, 3], "output_dir": str(tmp_path)}))
    run(ExperimentConfig.from_dict({
        "method": "distill",
        "task": {"kind": "distill", "teacher_path": _teacher_file(tmp_path, 4),
                 "n_samples": 8, "seed": 1},
        "method_params": {"backend": "exhaustive", "width_factor": 1},
        "seeds": [1, 2, 3], "output_dir": str(tmp_path)}))
    assert calls == {"sequence": 1, "teacher": 1}


def test_work_counts_sit_outside_the_metrics_hash(tmp_path, capsys):
    doc = config_doc("qaoa", out=str(tmp_path / "runs"),
                     method_params={"p": 1, "budget": 10})
    record = run(ExperimentConfig.from_dict(doc))
    assert record["work"] == {"anneal_evolutions": 0, "qaoa_objective_evaluations": 10,
                              "qaoa_objective_lookups": 10}
    assert record["hashes"]["metrics"] == harness._sha256(
        [e["metrics"] for e in record["per_seed"]])
    without = {k: v for k, v in record.items() if k != "work"}
    assert compare([record]) == compare([without])
    assert json.loads(open(record["path"]).read())["work"] == record["work"]
    assert cli.main(["compare", record["path"]]) == 0
    assert "qaoa" in capsys.readouterr().out


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
        ({"specs": [{"fan_in": 2, "fan_out": 1, "activation": "identity"}],
          "seed": 3, "mask_biases": True}, "mask_biases: "),  # masks gate weights only
        ({"specs": [{"fan_in": 2, "fan_out": 1, "activation": "identity"}],
          "weights": [[[0.5], [float("nan")]]]},
         "layer 0 has a non-finite weight or bias"),  # json writes NaN, and reads it
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


@pytest.mark.parametrize("topk_fraction", [None, 0.5])
def test_edge_popup_without_epochs_reports_its_final_masks_loss(tmp_path, topk_fraction):
    # no epoch leaves the angles at zero: the threshold rule keeps every
    # weight, and the top-k rule the first half of each layer's weights
    doc = config_doc(method="edge_popup", out=str(tmp_path), seeds=[1], epsilon=1.0,
                     method_params={"epochs": 0, "topk_fraction": topk_fraction})
    doc["task"].update(layers=[[2, 4, "relu"], [4, 1, "identity"]], seed=3)
    cfg = ExperimentConfig.from_dict(doc)
    metrics = run(cfg)["per_seed"][0]["metrics"]
    net, data = harness.build_selection_task(cfg.task)
    rule = (edgepopup.threshold_mask if topk_fraction is None
            else partial(edgepopup.topk_mask, fraction=topk_fraction))
    masks = [rule(np.zeros_like(w)) for w in net.weights]
    assert metrics["loss_curve"] == []
    assert metrics["loss"] == edgepopup.masked_loss(net, masks, data)


def test_nk_esn_runner(tmp_path):
    """On both topologies the record's loss is the table price of the
    stitched mask it names, bit for bit, and its conflicts are the vote's;
    only an adjacent landscape has the DP reference."""
    for topology in ("adjacent", "random"):
        doc = {
            "method": "nk_esn",
            "task": {"kind": "sequence", "length": 100, "seed": 2},
            "method_params": {"n_outputs": 6, "k": 2, "reservoir_size": 30,
                              "topology": topology},
            "seeds": [4],
            "output_dir": str(tmp_path),
        }
        cfg = ExperimentConfig.from_dict(doc)
        metrics = run(cfg)["per_seed"][0]["metrics"]
        assert metrics["success"] is True

        params = dict(cfg.params)
        washout = params.pop("washout")
        model = nkesn.make_nkesn(input_dim=1, seed=4, **params)
        land = model.landscape
        table = nkesn.build_table(model, harness.make_sequence_task(100, 2), washout)
        bits = index_to_bits(int(metrics["combined_bits_hex"], 16), land.n)
        assert metrics["loss"] == nkesn.mean_loss_from_table(table, land, bits)
        patterns = [s.bits for s in nkesn.select_per_output(table, land, seed=4)]
        voted, conflicts = nkesn.combine_per_output(patterns, land)
        np.testing.assert_array_equal(voted, bits)
        assert metrics["conflicts"] == len(conflicts)
        if topology == "adjacent":
            assert metrics["dp_loss"] == nkesn.dp_optimize(land, table)[1]
            assert metrics["dp_gap"] == metrics["loss"] - metrics["dp_loss"]
            assert metrics["dp_gap"] >= 0.0
        else:
            assert "dp_loss" not in metrics and "dp_gap" not in metrics


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
    assert metrics["loss"] == float(sum(metrics["block_losses"]))

    doc["method_params"]["backend"] = "grover"
    searched = run(ExperimentConfig.from_dict(doc))["per_seed"][0]["metrics"]
    eps = searched["block_epsilons"]
    assert len(eps) == 2 and all(e > 0 for e in eps)  # thresholds recorded
    assert searched["loss"] == float(sum(searched["block_losses"]))


def test_sequence_task_is_seed_deterministic():
    a = harness.make_sequence_task(50, seed=1)
    b = harness.make_sequence_task(50, seed=1)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.targets, b.targets)


# ---------------------------------------------------------------------------
# Import cost: scipy loads only with the methods that call it.

_SCIPY_CHILD = """
import json, sys
import qns

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

docs = json.loads(sys.argv[1])
for doc in docs["numpy_only"]:
    qns.harness.run(qns.harness.ExperimentConfig.from_dict(doc))
numpy_only = scipy_modules()
hashes = [qns.harness.run(qns.harness.ExperimentConfig.from_dict(doc))["hashes"]["metrics"]
          for doc in docs["scipy"]]
print(json.dumps({"numpy_only": numpy_only, "scipy": scipy_modules(), "hashes": hashes}))
"""


def test_only_the_bit_flip_mixer_loads_scipy(tmp_path):
    def doc(method, params, task=None):
        return {"method": method, "task": task or dict(PLANTED_TASK, n_samples=8),
                "method_params": params, "seeds": [1],
                "output_dir": str(tmp_path / method)}

    distill_task = {"kind": "distill", "teacher_path": _teacher_file(tmp_path, 4),
                    "n_samples": 8}
    numpy_only = [
        doc("exhaustive", {}),
        doc("grover", {}),
        doc("distill", {"backend": "exhaustive", "width_factor": 1}, distill_task),
        doc("distill", {"backend": "grover", "width_factor": 1}, distill_task),
        doc("distill", {"backend": "qaoa", "width_factor": 1}, distill_task),
        doc("anneal", {"steps": 4, "mixer": "transverse_field"}),
        doc("qaoa", {"p": 1, "budget": 20, "mixer": "transverse_field"}),
        doc("vqe", {"layers": 1, "budget": 20}),
        doc("edge_popup", {"epochs": 2}),
        doc("nk_esn", {"n_outputs": 4, "k": 2, "reservoir_size": 30},
            {"kind": "sequence", "length": 60, "seed": 2}),
    ]
    with_scipy = [doc("anneal", {"steps": 4, "mixer": "bit_flip_ring"}),
                  doc("qaoa", {"p": 1, "budget": 20, "mixer": "bit_flip_ring"})]
    src = Path(qns.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", _SCIPY_CHILD,
         json.dumps({"numpy_only": numpy_only, "scipy": with_scipy})],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["numpy_only"] == []
    assert {"scipy.sparse", "scipy.special"} <= set(report["scipy"])
    assert "scipy.optimize" not in report["scipy"]
    assert report["hashes"] == [run(ExperimentConfig.from_dict(d))["hashes"]["metrics"]
                                for d in with_scipy]


_IMPORT_CHILD = """
import json, sys
import qns

WATCHED = ("qns.anneal", "qns.variational", "qns.edgepopup", "qns.nkesn",
           "qns.distill", "concurrent.futures", "numpy.ma", "scipy")

def loaded():
    return [m for m in WATCHED if m in sys.modules]

report = {"after_import": sorted(m for m in sys.modules if m.startswith("qns."))}
docs = json.loads(sys.argv[1])
for doc in docs["table"]:
    qns.harness.run(qns.harness.ExperimentConfig.from_dict(doc))
report["after_table"] = loaded()
qns.harness.run(qns.harness.ExperimentConfig.from_dict(docs["qaoa"]))
report["after_qaoa"] = loaded()
star = {}
exec("from qns import *", star)
report["star"] = sorted(name for name, value in star.items()
                        if value is sys.modules.get("qns." + name))
report["attributes"] = sorted(name for name in qns.__all__
                              if getattr(qns, name) is sys.modules["qns." + name])
try:
    qns.no_such_module
except AttributeError:
    report["unknown"] = "AttributeError"
print(json.dumps(report))
"""


def test_a_run_loads_only_its_methods_modules(tmp_path):
    """``import qns`` loads no submodule, and a table run loads neither the
    other methods' modules nor their imports: ``concurrent.futures`` (NK
    tables), ``numpy.ma`` (``np.median``'s NaN check) and scipy."""
    def doc(method, params):
        return {"method": method, "task": dict(PLANTED_TASK, n_samples=8),
                "method_params": params, "epsilon": 1.0, "seeds": [1],
                "output_dir": str(tmp_path / method)}

    table = [doc("exhaustive", {}), doc("grover", {}), doc("grover", {"unknown_k": True}),
             dict(doc("grover", {}), epsilon=None)]  # the default epsilon's median
    qaoa = doc("qaoa", {"p": 1, "budget": 20, "mixer": "transverse_field"})
    src = Path(qns.__file__).resolve().parents[1]
    child = subprocess.run(
        [sys.executable, "-c", _IMPORT_CHILD, json.dumps({"table": table, "qaoa": qaoa})],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["after_table"] == []
    assert report["after_qaoa"] == ["qns.variational"]
    assert report["star"] == report["attributes"] == sorted(qns.__all__)
    assert report["unknown"] == "AttributeError"
