"""The config schema: one table of keys per method, checked in from_dict."""
import json
import math
import re
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qns import cli, harness, masknet
from qns.harness import METHOD_PARAMS, ConfigError, ExperimentConfig

PLANTED = {"kind": "planted", "layers": [[2, 2, "relu"], [2, 1, "identity"]],
           "n_samples": 8, "seed": 9}
SEQUENCE = {"kind": "sequence", "length": 60, "seed": 1}


def config(method="exhaustive", params=None, task=PLANTED, **top):
    doc = {"method": method, "task": dict(task), "method_params": params or {},
           "seeds": [1], "epsilon": 0.1}
    doc.update(top)
    return doc


# One row per config problem; each must exit 2 and name its field.
BAD_CONFIGS = [
    ("qaoa-typo", config("qaoa", {"budgt": 5, "p": 1}), "method_params.budgt"),
    ("top-level-typo", {**config(), "epsion": 0.1}, "'epsion'"),
    ("qaoa-p-string", config("qaoa", {"p": "two"}), "method_params.p"),
    ("qaoa-p-float", config("qaoa", {"p": 1.5}), "method_params.p"),
    ("anneal-time-string", config("anneal", {"total_time": "1"}),
     "method_params.total_time"),
    ("anneal-steps-bool", config("anneal", {"steps": True}), "method_params.steps"),
    ("target-bit-transverse", config("anneal", {"target_bit": 1}),
     "method_params.target_bit"),
    ("target-bit-two", config("qaoa", {"mixer": "bit_flip_ring", "target_bit": 2}),
     "method_params.target_bit"),
    ("unknown-k-string", config("grover", {"unknown_k": "no"}),
     "method_params.unknown_k"),
    ("exhaustive-stray-key", config("exhaustive", {"foo": 1}), "method_params.foo"),
    ("method-params-string", config(method_params="x"), "'method_params'"),
    ("epsilon-negative", config(epsilon=-1), "'epsilon'"),
    ("epsilon-bool", config(epsilon=True), "'epsilon'"),
    ("seeds-bool", config(seeds=[True]), "'seeds'"),
    ("task-n-samples", config(task={**PLANTED, "n_samples": "x"}), "task.n_samples"),
    ("task-layers", config(task={**PLANTED, "layers": "x"}), "task.layers"),
    ("task-seed", config(task={**PLANTED, "seed": "x"}), "task.seed"),
    ("sequence-length", config("nk_esn", task={**SEQUENCE, "length": "x"}),
     "task.length"),
    ("qaoa-budget-negative", config("qaoa", {"budget": -3}), "method_params.budget"),
    ("known-k-too-large", config("grover", {"known_k": 10 ** 6}),
     "method_params.known_k"),
    ("known-k-zero", config("grover", {"known_k": 0}), "method_params.known_k"),
    ("known-k-with-iterations", config("grover", {"iterations": 3, "known_k": 2}),
     "method_params.known_k"),
]


@pytest.mark.parametrize("doc,field", [row[1:] for row in BAD_CONFIGS],
                         ids=[row[0] for row in BAD_CONFIGS])
def test_cli_config_problem_exits_2_naming_the_field(tmp_path, capsys, doc, field):
    doc = {**doc, "output_dir": str(tmp_path / "runs")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert field in err
    assert not (tmp_path / "runs").exists()


def test_sweep_checks_every_value_before_running_any(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config("qaoa", {"p": 1, "budget": 3},
                                      output_dir=str(tmp_path / "runs"))))
    code = cli.main(["sweep", str(path), "--param", "method_params.budget",
                     "--values", "3,4,-1"])
    assert code == 2
    assert "method_params.budget" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_value_error_inside_a_method_exits_3(tmp_path, capsys, monkeypatch, command):
    def boom(cfg, seed, task):
        raise ValueError("numerical trouble")
    monkeypatch.setitem(harness._RUNNERS, "exhaustive", boom)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config(output_dir=str(tmp_path / "runs"))))
    argv = {"run": ["run", str(path)],
            "sweep": ["sweep", str(path), "--param", "epsilon", "--values", "0.1"]}
    assert cli.main(argv[command]) == 3
    assert "method failure" in capsys.readouterr().err


def test_distill_block_over_bit_budget_is_config_error(tmp_path, capsys):
    """The block width depends on the teacher file, so it is checked where
    the file is read; it still exits 2 and names the field."""
    teacher_path = tmp_path / "teacher.json"
    masknet.save_network(masknet.init_network([(2, 1, "identity")], seed=1),
                         teacher_path)
    doc = config("distill", {"width_factor": 4, "bit_budget": 12},
                 task={"kind": "distill", "teacher_path": str(teacher_path)},
                 output_dir=str(tmp_path / "runs"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "method_params.bit_budget" in err and "24 maskable weights" in err


# ---------------------------------------------------------------------------
# Property: from_dict resolves every key or names the offending one.

@pytest.fixture(scope="module")
def teacher_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("teacher") / "teacher.json"
    masknet.save_network(masknet.init_network([(2, 1, "identity")], seed=1), path)
    return str(path)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)
CHOICES = sorted({m.value for p in METHOD_PARAMS.values() for q in p.values()
                  if issubclass(q.kind, Enum) for m in q.kind} | {"tanh", "identity"})
VALUES = (st.booleans() | st.none() | st.integers(-1, 12) | st.floats(-1.0, 2.0)
          | st.sampled_from(CHOICES) | JSON)


def params_of(method):
    keys = st.sampled_from([*METHOD_PARAMS[method], "budgt", "stray"])
    return st.dictionaries(keys, VALUES, max_size=4)


def _declared(param, value) -> bool:
    if value is None:
        return param.default is None
    if issubclass(param.kind, Enum):
        return isinstance(value, param.kind)
    if isinstance(value, bool):
        return param.kind is bool
    if param.kind is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, param.kind)


@pytest.mark.parametrize("method", sorted(METHOD_PARAMS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_from_dict_resolves_or_names_a_method_param(teacher_file, method, data):
    params = data.draw(params_of(method))
    task = {"nk_esn": {"kind": "sequence"},
            "distill": {"kind": "distill", "teacher_path": teacher_file}
            }.get(method, PLANTED)
    try:
        cfg = ExperimentConfig.from_dict(config(method, params, task=task))
    except ConfigError as err:
        named = re.search(r"field 'method_params\.([^']*)'", str(err))
        assert named is not None, str(err)
        assert named.group(1) in params
        return
    assert cfg.method_params == params  # the record keeps the config as written
    for key, param in METHOD_PARAMS[method].items():
        value = cfg.params[key]
        assert _declared(param, value), (key, value)
        if key not in params:
            assert value == param.default
        elif value is not None and param.check is not None:
            param.check(value)  # within range
    resolved = cfg.params
    if method == "nk_esn":
        assert resolved["k"] <= resolved["n_outputs"]
        assert resolved["washout"] < cfg.task_params["length"]
    if "target_bit" in params:
        assert resolved["mixer"] == "bit_flip_ring"
    if method == "grover" and resolved["unknown_k"]:
        assert not {"iterations", "known_k", "max_restarts"} & set(params)
    if method == "grover" and resolved["iterations"] is not None:
        assert resolved["known_k"] is None


# ---------------------------------------------------------------------------
# The README's parameter table is the table in harness.

def test_readme_lists_every_method_param_and_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| [^|]+ \| `([^`]+)` \|", readme, re.M)
    documented = {(method, key): default for method, key, default in rows}
    declared = {(method, key): json.dumps(param.default)
                for method, table in METHOD_PARAMS.items()
                for key, param in table.items()}
    assert documented == declared
