"""Experiment runner: config loading, seeding, method dispatch, persistence.

A JSON config names a method, a task, method parameters, and a seed list.
``METHOD_PARAMS`` and ``TASK_FIELDS`` declare every key a method or task
kind accepts, with its type, default and allowed values;
``ExperimentConfig.from_dict`` checks a config against them, so that every
configuration problem is a ``ConfigError`` naming its field before anything
runs. A method's own module (anneal, variational, edge-popup, distillation,
NK) is imported when its config is checked or its runner first runs, so a
process loads only the methods it runs. ``run`` executes every seed,
collects deterministic metrics, and appends an immutable record file.
``compare`` summarizes records that share a task. (config, seed) determines
every metric byte-for-byte; wall-clock timings are stored beside the
metrics, never inside them.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import masknet, oracle, search
from .bitstrings import bits_to_index
from .grover import GroverConfig
from .qsim import Mixer, MixerSpec, max_qubits


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the failing field."""


# ---------------------------------------------------------------------------
# The config schema: every key a method or a task kind accepts.

_REQUIRED = object()  # the default of a field the config must give


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite int or float, never a bool."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


@dataclass(frozen=True)
class Param:
    """One config key: its JSON type, its default and the values it allows.

    ``kind`` is bool, int, float, str, list or dict, or an Enum whose values are
    the allowed strings. An int is a float too; a bool is never a number.
    A default of None also allows null. ``check`` raises ValueError for a
    value out of range.
    """

    kind: type
    default: object = _REQUIRED
    check: Callable[[object], object] | None = None

    def resolve(self, name: str, value):
        """``value`` checked, with an Enum's string turned into its member."""
        if value is None and self.default is None:
            return None
        if issubclass(self.kind, Enum):
            try:
                return self.kind(value)
            except ValueError:
                raise ConfigError(
                    f"field '{name}': expected one of "
                    f"{[m.value for m in self.kind]}, got {value!r}") from None
        ok = (_is_number(value) if self.kind is float
              else _is_int(value) if self.kind is int
              else isinstance(value, self.kind))
        if not ok:
            raise ConfigError(
                f"field '{name}': expected {self.kind.__name__}, got {value!r}")
        if self.check is not None:
            try:
                self.check(value)
            except ValueError as err:
                raise ConfigError(f"field '{name}': {err}") from None
        return value


def _rule(text: str, ok: Callable[[object], bool]) -> Callable[[object], None]:
    def check(value):
        if not ok(value):
            raise ValueError(f"must be {text}, got {value!r}")
    return check


_POSITIVE = _rule(">= 1", lambda v: v >= 1)
_NONNEGATIVE = _rule(">= 0", lambda v: v >= 0)


def _check_layers(layers) -> None:
    """Raise ValueError unless ``layers`` chain into a masknet network."""
    if not layers:
        raise ValueError("needs at least one layer")
    specs = []
    for i, layer in enumerate(layers):
        if not (isinstance(layer, list) and len(layer) in (2, 3)
                and all(_is_int(v) for v in layer[:2])
                and all(isinstance(v, str) for v in layer[2:])):
            raise ValueError(f"layer {i} must be [fan_in, fan_out, activation], "
                             f"got {layer!r}")
        specs.append(masknet.LayerSpec(*layer))  # checks the sizes and activation
    for i, (a, b) in enumerate(zip(specs, specs[1:])):
        if a.fan_out != b.fan_in:
            raise ValueError(f"layer {i} fan_out {a.fan_out} does not feed "
                             f"layer {i + 1} fan_in {b.fan_in}")
    if specs[-1].activation is not masknet.Activation.IDENTITY:
        raise ValueError("the final layer must use the identity activation")


_MIXER_PARAMS = {
    "mixer": Param(Mixer, Mixer.TRANSVERSE_FIELD),
    "target_bit": Param(int, 0, lambda v: MixerSpec(Mixer.BIT_FLIP_RING, v)),
}

# the methods that search a selection task's 2^bits cost table, and their defaults
_TABLE_METHODS = search.DEFAULTS


def _schedule(**fields):
    """An ``AnnealSchedule``, which checks ``fields``."""
    from . import anneal
    return anneal.AnnealSchedule(**fields)


def _edge_popup_params() -> dict[str, Param]:
    from .edgepopup import PopupTrainConfig, ResampleRule
    return {
        "alpha": Param(float, PopupTrainConfig.alpha,
                       lambda v: PopupTrainConfig(alpha=v)),
        "epochs": Param(int, PopupTrainConfig.epochs,
                        lambda v: PopupTrainConfig(epochs=v)),
        "resample": Param(ResampleRule, PopupTrainConfig.resample),
        "topk_fraction": Param(float, None,
                               lambda v: PopupTrainConfig(topk_fraction=v)),
    }


def _distill_params() -> dict[str, Param]:
    from .distill import Backend, Chaining, CompressMode
    return {
        "width_factor": Param(int, 4, _POSITIVE),
        "backend": Param(Backend, Backend.EXHAUSTIVE),
        "bit_budget": Param(int, 12, _POSITIVE),
        "compress": Param(CompressMode, CompressMode.AVERAGE_POOL),
        "chaining": Param(Chaining, Chaining.STUDENT),
    }


def _nk_esn_params() -> dict[str, Param]:
    from . import nkesn
    return {
        "n_outputs": Param(int, 8, _POSITIVE),
        "k": Param(int, 2, _POSITIVE),
        "reservoir_size": Param(int, 40, _POSITIVE),
        "topology": Param(nkesn.Topology, nkesn.Topology.ADJACENT),
        "spectral_radius": Param(float, 0.9, _rule("in (0, 1)", lambda v: 0 < v < 1)),
        "connectivity": Param(float, 0.1, _rule("> 0", lambda v: v > 0)),
        "activation": Param(str, "tanh", _rule("'tanh' or 'identity'",
                                               lambda v: v in ("tanh", "identity"))),
        "washout": Param(int, nkesn.DEFAULT_WASHOUT, _NONNEGATIVE),
    }


class _Tables(Mapping):
    """Method name -> parameter table, where a builder's table is built on
    first lookup: those tables need their method's enums and defaults, and
    with them its module."""

    def __init__(self, tables: dict):
        self._tables = tables

    def __getitem__(self, method: str) -> dict[str, Param]:
        table = self._tables[method]
        if callable(table):
            table = self._tables[method] = table()
        return table

    def __iter__(self):
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)


# Where a library constructor bounds a value, ``check`` builds it.
METHOD_PARAMS: Mapping[str, dict[str, Param]] = _Tables({
    "grover": {
        "unknown_k": Param(bool, False),
        "iterations": Param(int, None, lambda v: GroverConfig(iterations=v)),
        "known_k": Param(int, None, lambda v: GroverConfig(known_k=v)),
        "max_restarts": Param(int, GroverConfig.max_restarts,
                              lambda v: GroverConfig(max_restarts=v)),
    },
    "anneal": {
        "total_time": Param(float, _TABLE_METHODS["anneal"]["total_time"],
                            lambda v: _schedule(total_time=v)),
        "steps": Param(int, _TABLE_METHODS["anneal"]["steps"],
                       lambda v: _schedule(total_time=1.0, steps=v)),
        **_MIXER_PARAMS,
    },
    "qaoa": {
        "p": Param(int, _TABLE_METHODS["qaoa"]["p"], _POSITIVE),
        "budget": Param(int, _TABLE_METHODS["qaoa"]["budget"], _POSITIVE),
        **_MIXER_PARAMS,
    },
    "vqe": {
        "layers": Param(int, _TABLE_METHODS["vqe"]["layers"], _POSITIVE),
        "budget": Param(int, _TABLE_METHODS["vqe"]["budget"], _POSITIVE),
    },
    "edge_popup": _edge_popup_params,
    "distill": _distill_params,
    "nk_esn": _nk_esn_params,
    "exhaustive": {},
})

_SEED = Param(int, _REQUIRED, _NONNEGATIVE)
_LAYERS = Param(list, _REQUIRED, _check_layers)

TASK_FIELDS: dict[str, dict[str, Param]] = {
    "planted": {"layers": _LAYERS, "n_samples": Param(int, _REQUIRED, _POSITIVE),
                "seed": _SEED},
    "csv": {"path": Param(str), "n_inputs": Param(int, _REQUIRED, _POSITIVE),
            "layers": _LAYERS, "net_seed": _SEED},
    "distill": {"teacher_path": Param(str), "n_samples": Param(int, 32, _POSITIVE),
                "seed": Param(int, 0, _NONNEGATIVE)},
    "sequence": {"length": Param(int, 200, _POSITIVE),
                 "seed": Param(int, 0, _NONNEGATIVE)},
}

# task fields naming an input file
_PATH_FIELDS = ("path", "teacher_path")

_SELECTION = ("planted", "csv")
METHOD_TASKS = {**{m: _SELECTION for m in METHOD_PARAMS},
                "distill": ("distill",), "nk_esn": ("sequence",)}

CONFIG_FIELDS = {
    "method": Param(str),
    "task": Param(dict),
    "method_params": Param(dict, {}),
    "seeds": Param(list, _REQUIRED, _rule("a nonempty list of integers >= 0", lambda v:
                                          v and all(_is_int(s) and s >= 0 for s in v))),
    "output_dir": Param(str, "runs"),
    "epsilon": Param(float, None, _NONNEGATIVE),
}


def _resolve(prefix: str, table: dict[str, Param], written: dict) -> dict:
    """Every key of ``table``: its checked written value or its default."""
    for key in written:
        if key not in table:
            raise ConfigError(f"field '{prefix}{key}': unknown key, "
                              f"expected one of {list(table)}")
    resolved = {}
    for key, param in table.items():
        if key in written:
            resolved[key] = param.resolve(prefix + key, written[key])
        elif param.default is _REQUIRED:
            raise ConfigError(f"field '{prefix}{key}' is required")
        else:
            resolved[key] = param.default
    return resolved


def _check_combinations(cfg: "ExperimentConfig") -> None:
    """The rules that tie one field to another or to the qubit ceiling."""
    method, params, written = cfg.method, cfg.params, cfg.method_params
    task = cfg.task_params

    def fail(name, why):
        raise ConfigError(f"field '{name}': {why}")

    if cfg.task["kind"] in _SELECTION:
        bits = sum(layer[0] * layer[1] for layer in task["layers"])
        if cfg.task["kind"] == "csv" and task["n_inputs"] != task["layers"][0][0]:
            fail("task.n_inputs", f"{task['n_inputs']} inputs, but the first layer "
                                  f"takes {task['layers'][0][0]}")
        if method in _TABLE_METHODS and bits > max_qubits():
            fail("task.layers", f"{bits} maskable weights, the qubit ceiling is "
                                f"{max_qubits()}")
    if method == "grover":
        if params["unknown_k"]:
            for key in ("iterations", "known_k", "max_restarts"):
                if key in written:
                    fail(f"method_params.{key}", "not used with unknown_k")
        elif params["known_k"] is not None and params["iterations"] is not None:
            fail("method_params.known_k", "not used with iterations")
        elif params["known_k"] is not None and params["known_k"] > 1 << bits:
            fail("method_params.known_k",
                 f"{params['known_k']} solutions among 2^{bits} masks")
    if "target_bit" in written and params["mixer"] is not Mixer.BIT_FLIP_RING:
        fail("method_params.target_bit", "applies only to the bit_flip_ring mixer")
    if method == "nk_esn":
        from . import nkesn
        n, k = params["n_outputs"], params["k"]
        if k > n:
            fail("method_params.k" if "k" in written else "method_params.n_outputs",
                 f"K={k} exceeds n_outputs={n}")
        if k > max_qubits():
            fail("method_params.k", f"K={k} exceeds the qubit ceiling {max_qubits()}")
        if params["topology"] is nkesn.Topology.ADJACENT and (
                k > nkesn.DP_MAX_K or n > nkesn.DP_MAX_N):
            fail("method_params.k" if k > nkesn.DP_MAX_K else "method_params.n_outputs",
                 f"N={n}, K={k} beyond the adjacent topology's bounds "
                 f"({nkesn.DP_MAX_N}, {nkesn.DP_MAX_K})")
        if params["washout"] >= task["length"]:
            fail("method_params.washout" if "washout" in written else "task.length",
                 f"washout {params['washout']} leaves nothing of a length-"
                 f"{task['length']} sequence")


@dataclass
class ExperimentConfig:
    """A checked config. ``params`` and ``task_params`` hold every key of the
    method's and the task kind's table, defaults filled in; ``to_dict``
    gives the config as written."""

    method: str
    task: dict
    method_params: dict
    seeds: list[int]
    output_dir: str
    epsilon: float | None = None
    params: dict = field(init=False, repr=False, compare=False)
    task_params: dict = field(init=False, repr=False, compare=False)

    @staticmethod
    def from_dict(doc: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("the config must be a JSON object")
        top = _resolve("", CONFIG_FIELDS, doc)
        method = top["method"].lower()
        if method not in METHOD_PARAMS:
            raise ConfigError(f"field 'method': unknown method {top['method']!r}, "
                              f"expected one of {tuple(METHOD_PARAMS)}")
        task = top["task"]
        if "kind" not in task:
            raise ConfigError("field 'task.kind' is required")
        if task["kind"] not in METHOD_TASKS[method]:
            raise ConfigError(f"field 'task.kind': {method} runs need kind "
                              f"{' or '.join(METHOD_TASKS[method])}, "
                              f"got {task['kind']!r}")
        params = top["method_params"]
        cfg = ExperimentConfig(method, dict(task), dict(params), list(top["seeds"]),
                               top["output_dir"], top["epsilon"])
        cfg.task_params = _resolve(
            "task.", TASK_FIELDS[task["kind"]],
            {k: v for k, v in task.items() if k != "kind"})
        cfg.params = _resolve("method_params.", METHOD_PARAMS[method], params)
        _check_combinations(cfg)
        cfg._check_paths(base_dir or Path("."))
        return cfg

    def _check_paths(self, base_dir: Path) -> None:
        for key in _PATH_FIELDS:
            if key in self.task:
                path = Path(self.task[key])
                if not path.is_absolute():
                    path = base_dir / path
                if not path.exists():
                    raise ConfigError(f"field 'task.{key}': no such file {path}")
                self.task[key] = self.task_params[key] = str(path)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "task": self.task,
            "method_params": self.method_params,
            "seeds": self.seeds,
            "output_dir": self.output_dir,
            "epsilon": self.epsilon,
        }


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return ExperimentConfig.from_dict(doc, base_dir=path.parent)


# ---------------------------------------------------------------------------
# Tasks.

def make_sequence_task(length: int, seed: int) -> masknet.Dataset:
    """Driven sine series: input u_t, target a delayed, damped response."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    phase = rng.uniform(0, 2 * np.pi)
    u = np.sin(0.3 * t + phase) + 0.1 * rng.normal(size=length)
    y = 0.6 * np.sin(0.3 * (t - 2) + phase) + 0.2 * np.cos(0.15 * t + phase)
    return masknet.Dataset(u[:, None], y[:, None], name="sequence")


def build_selection_task(task: dict) -> tuple[masknet.MaskedNetwork, masknet.Dataset]:
    """Network + dataset of a planted or csv task that ``from_dict`` accepted."""
    if task["kind"] == "planted":
        net_seed, mask_seed, data_seed = np.random.SeedSequence(
            task["seed"]).generate_state(3)
        net = masknet.init_network(
            [tuple(layer) for layer in task["layers"]], int(net_seed))
        rng = np.random.default_rng(int(mask_seed))
        hidden = rng.integers(0, 2, size=net.total_maskable())
        data = masknet.make_planted_dataset(net, hidden, task["n_samples"],
                                            int(data_seed))
        return net, data
    try:
        data = masknet.load_dataset_csv(task["path"], task["n_inputs"])
    except ValueError as err:
        raise ConfigError(f"field 'task.path': {task['path']}: {err}") from err
    net = masknet.init_network(
        [tuple(layer) for layer in task["layers"]], task["net_seed"])
    if data.targets.shape[1] != net.output_dim:
        raise ConfigError(
            f"field 'task.path': {task['path']}: {data.targets.shape[1]} target "
            f"columns, the network has {net.output_dim} outputs")
    return net, data


def _resolve_epsilon(cfg: ExperimentConfig, seed: int, losses_of, n_bits: int) -> float:
    """The config's epsilon, else the default recipe with probes priced by ``losses_of``."""
    if cfg.epsilon is not None:
        return float(cfg.epsilon)
    return oracle.default_epsilon(losses_of, n_bits, seed)


def _table_epsilon(cfg: ExperimentConfig, seed: int, costs: np.ndarray) -> float:
    """Epsilon of a table method: its probes are table reads, bit for bit forward passes."""
    n = costs.size.bit_length() - 1
    return _resolve_epsilon(cfg, seed, lambda rows: costs[rows @ (1 << np.arange(n))], n)


class _RunTask:
    """The seed-independent work of one :func:`run` call, each part built on first use.

    Computed once and shared by the call's seeds: a selection task and its
    cost table, which Grover and the Hamiltonian methods all search; the
    searches' ``shared`` work (an anneal's evolved state, every QAOA
    objective value: seeds whose simplex paths coincide look theirs up, a
    path that leaves the others computes its new points; a QAOA final
    state per best point); the sequence task; the teacher and its I/O
    data. Computed per seed: epsilon, the measurement, and the seeded
    methods (VQE, edge-popup, distillation's student, the NK model). The
    shared cost table and evolved states are read-only. The object lives
    only as long as the call: the next call reads a CSV task's or teacher's
    file again.
    """

    def __init__(self, spec: dict):
        self.spec = spec  # the task kind and its checked fields
        self.shared: dict = {}  # search.select's seed-independent work

    @cached_property
    def selection(self) -> tuple[masknet.MaskedNetwork, masknet.Dataset]:
        return build_selection_task(self.spec)

    @cached_property
    def hamiltonian(self):
        return oracle.build_cost_hamiltonian(*self.selection)

    @cached_property
    def sequence(self) -> masknet.Dataset:
        return make_sequence_task(self.spec["length"], self.spec["seed"])

    @cached_property
    def teacher_io(self) -> tuple[masknet.MaskedNetwork, masknet.Dataset]:
        """The teacher network and the data it labels: uniform inputs in [-1, 1]."""
        path = self.spec["teacher_path"]
        try:
            teacher = masknet.load_network(path)
        except (ValueError, KeyError, TypeError) as err:
            detail = f"missing field {err}" if isinstance(err, KeyError) else err
            raise ConfigError(f"field 'task.teacher_path': {path}: {detail}") from err
        data_seed = int(np.random.SeedSequence(self.spec["seed"]).generate_state(1)[0])
        rng = np.random.default_rng(data_seed)
        xs = rng.uniform(-1, 1, size=(self.spec["n_samples"], teacher.input_dim))
        return teacher, masknet.Dataset(xs, masknet.forward_batch(teacher, xs),
                                        name="teacher-io")

    def work(self) -> dict:
        """What the call computed, and what its seeds looked up instead."""
        return search.shared_work(self.shared)


# ---------------------------------------------------------------------------
# Per-method runners. Each takes (config, seed, the call's _RunTask) and
# returns a JSON-safe metrics dict. They read ``cfg.params`` and
# ``cfg.task_params``, which ``from_dict`` checked and filled in.

def _run_table(cfg, seed, task):
    """A table method: the seed's epsilon, one search of the task's table, its score."""
    h = task.hamiltonian
    eps = _table_epsilon(cfg, seed, h.costs)
    return search.select(cfg.method, h, eps, cfg.params, seed, task.shared).metrics()


def _run_edge_popup(cfg, seed, task):
    from . import edgepopup
    net, data = task.selection
    eps = _resolve_epsilon(cfg, seed, partial(masknet.batch_losses, net, data),
                           net.total_maskable())
    train_cfg = edgepopup.PopupTrainConfig(seed=seed, **cfg.params)
    result = edgepopup.popup_train(net, data, train_cfg)
    loss = (result.loss_curve[-1] if result.loss_curve
            else edgepopup.masked_loss(net, result.final_masks, data))
    return {
        "loss": float(loss),
        "success": bool(loss < eps),
        "oracle_calls": 0,
        "epsilon": eps,
        "loss_curve": [float(v) for v in result.loss_curve],
    }


def _run_distill(cfg, seed, task):
    from . import distill
    params, path = cfg.params, cfg.task_params["teacher_path"]
    teacher, data = task.teacher_io
    pair = distill.make_student(teacher, params["width_factor"], seed)
    widest = max(block.total_maskable() for block in pair.blocks)
    if widest > params["bit_budget"]:
        raise ConfigError(f"field 'method_params.bit_budget': a student block of "
                          f"{path} has {widest} maskable weights, the budget is "
                          f"{params['bit_budget']}")
    if widest > max_qubits():
        raise ConfigError(f"field 'method_params.width_factor': a student block of "
                          f"{path} has {widest} maskable weights, the qubit ceiling "
                          f"is {max_qubits()}")
    result = distill.distill_select(
        pair, data,
        backend=params["backend"],
        per_block_bit_budget=params["bit_budget"],
        mode=params["compress"],
        chaining=params["chaining"],
        seed=seed,
    )
    metrics = {
        "loss": result.total_loss,
        "success": True,
        "oracle_calls": int(sum(r.oracle_calls for r in result.reports)),
        "block_losses": [float(r.loss) for r in result.reports],
        "block_gaps": [float(r.gap) for r in result.reports],
    }
    if any(r.epsilon is not None for r in result.reports):
        metrics["block_epsilons"] = [r.epsilon for r in result.reports]
    return metrics


def _run_nk_esn(cfg, seed, task):
    from . import nkesn
    data = task.sequence
    params = dict(cfg.params)
    washout = params.pop("washout")
    model = nkesn.make_nkesn(input_dim=1, seed=seed, **params)
    table = nkesn.build_table(model, data, washout=washout)
    patterns, selections = nkesn.select_per_output(table, model.landscape, seed=seed)
    combined = nkesn.combine_per_output(patterns, model.landscape, table)
    metrics = {
        "loss": combined.mean_loss,
        "success": all(s.success for s in selections),
        "oracle_calls": sum(s.oracle_calls for s in selections),
        "conflicts": len(combined.conflicts),
        "combined_bits_hex": format(bits_to_index(combined.bits), "x"),
    }
    if combined.dp_loss is not None:
        metrics["dp_loss"] = combined.dp_loss
        metrics["dp_gap"] = combined.dp_gap
    return metrics


_RUNNERS = {
    **{method: _run_table for method in _TABLE_METHODS},
    "edge_popup": _run_edge_popup,
    "distill": _run_distill,
    "nk_esn": _run_nk_esn,
}


# ---------------------------------------------------------------------------
# Records.

def _jsonify(value):
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _sha256(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _config_hash(cfg: ExperimentConfig) -> str:
    """The config as written, without ``output_dir`` and with each input
    file's path replaced by the sha256 of its bytes: one experiment hashes
    the same in any output directory or checkout."""
    doc = cfg.to_dict()
    del doc["output_dir"]
    doc["task"] = {key: (hashlib.sha256(Path(value).read_bytes()).hexdigest()
                         if key in _PATH_FIELDS else value)
                   for key, value in doc["task"].items()}
    return _sha256(doc)


def run(cfg: ExperimentConfig) -> dict:
    """Execute every seed, write an immutable record, return it.

    The record is compact JSON with sorted keys. Its path is timestamped,
    and the file is created exclusively, taking the next ``_N`` suffix when
    the path is taken, so no run overwrites another's record. The metrics
    hash covers only the deterministic per-seed payload; the call's
    ``work`` counts and the timings sit outside it.
    """
    runner = _RUNNERS[cfg.method]
    task = _RunTask({"kind": cfg.task["kind"], **cfg.task_params})
    per_seed = []
    for seed in cfg.seeds:
        started = time.perf_counter()
        metrics = _jsonify(runner(cfg, seed, task))
        per_seed.append({
            "seed": seed,
            "metrics": metrics,
            "wall_time_s": time.perf_counter() - started,
        })
    record = {
        "config": cfg.to_dict(),
        "per_seed": per_seed,
        "work": task.work(),
        "hashes": {
            "config": _config_hash(cfg),
            "metrics": _sha256([entry["metrics"] for entry in per_seed]),
        },
    }
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    text = json.dumps(record, sort_keys=True)
    for counter in itertools.count():
        suffix = f"_{counter}" if counter else ""
        path = out_dir / f"record_{cfg.method}_{stamp}{suffix}.json"
        try:
            with path.open("x") as f:
                f.write(text)
        except FileExistsError:
            continue
        break
    record["path"] = str(path)
    return record


def method_failed(record: dict) -> bool:
    return any(entry["metrics"].get("success") is False
               for entry in record["per_seed"])


# ---------------------------------------------------------------------------
# Comparison.

_COMPARE_HEADERS = ("method", "runs", "mean_loss", "min_loss", "mean_oracle_calls",
                    "success_rate")


def compare(records: list[dict]) -> list[dict]:
    """Per-method mean/min loss, mean oracle calls, and success rate."""
    if not records:
        raise ValueError("no records to compare")
    tasks = {json.dumps(r["config"]["task"], sort_keys=True) for r in records}
    if len(tasks) > 1:
        raise ValueError("records do not share a task")
    rows = []
    by_method: dict[str, list[dict]] = {}
    for record in records:
        by_method.setdefault(record["config"]["method"], []).extend(
            entry["metrics"] for entry in record["per_seed"])
    for method in sorted(by_method):
        metrics = by_method[method]
        losses = [m["loss"] for m in metrics if m.get("loss") is not None]
        calls = [m["oracle_calls"] for m in metrics if "oracle_calls" in m]
        rows.append({
            "method": method,
            "runs": len(metrics),
            "mean_loss": float(np.mean(losses)) if losses else None,
            "min_loss": float(np.min(losses)) if losses else None,
            "mean_oracle_calls": float(np.mean(calls)) if calls else None,
            "success_rate": float(np.mean([bool(m.get("success")) for m in metrics])),
        })
    return rows


def format_compare_table(rows: list[dict]) -> str:
    rendered = [[_format_cell(row[h]) for h in _COMPARE_HEADERS] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rendered)) if rendered else len(h)
              for i, h in enumerate(_COMPARE_HEADERS)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(_COMPARE_HEADERS, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def write_compare_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COMPARE_HEADERS)
        for row in rows:
            writer.writerow([row[h] if row[h] is not None else "" for h in _COMPARE_HEADERS])
