"""Experiment runner: config loading, seeding, method dispatch, persistence.

A JSON config names a method, a task, method parameters, and a seed list;
``run`` executes every seed, collects deterministic metrics, and appends an
immutable record file. ``compare`` summarizes records that share a task.
(config, seed) determines every metric byte-for-byte; wall-clock timings
are stored beside the metrics, never inside them.
"""
from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from . import anneal as anneal_mod
from . import distill as distill_mod
from . import edgepopup, masknet, nkesn, oracle, variational
from .bitstrings import bits_to_index
from .grover import GroverConfig, grover_search, search_unknown_k
from .qsim import MixerSpec, measure, ring_graph

METHODS = ("grover", "anneal", "qaoa", "vqe", "edge_popup", "distill",
           "nk_esn", "exhaustive")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the failing field."""


@dataclass
class ExperimentConfig:
    method: str
    task: dict
    method_params: dict
    seeds: list[int]
    output_dir: str
    epsilon: float | None = None

    @staticmethod
    def from_dict(doc: dict, base_dir: Path | None = None) -> "ExperimentConfig":
        if "method" not in doc:
            raise ConfigError("missing field 'method'")
        method = str(doc["method"]).lower()
        if method not in METHODS:
            raise ConfigError(f"field 'method': unknown method {doc['method']!r}, "
                              f"expected one of {METHODS}")
        task = doc.get("task")
        if not isinstance(task, dict) or "kind" not in task:
            raise ConfigError("field 'task': must be an object with a 'kind'")
        seeds = doc.get("seeds")
        if not seeds or not all(isinstance(s, int) for s in seeds):
            raise ConfigError("field 'seeds': must be a nonempty list of integers")
        cfg = ExperimentConfig(
            method=method,
            task=dict(task),
            method_params=dict(doc.get("method_params", {})),
            seeds=list(seeds),
            output_dir=str(doc.get("output_dir", "runs")),
            epsilon=doc.get("epsilon"),
        )
        cfg._check_paths(base_dir or Path("."))
        return cfg

    def _check_paths(self, base_dir: Path) -> None:
        for key in ("path", "teacher_path"):
            if key in self.task:
                path = Path(self.task[key])
                if not path.is_absolute():
                    path = base_dir / path
                if not path.exists():
                    raise ConfigError(f"field 'task.{key}': no such file {path}")
                self.task[key] = str(path)

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
    """Network + dataset for the mask-search methods."""
    kind = task.get("kind")
    if kind == "planted":
        for key in ("layers", "n_samples", "seed"):
            if key not in task:
                raise ConfigError(f"field 'task.{key}' is required for planted tasks")
        net_seed, mask_seed, data_seed = np.random.SeedSequence(
            task["seed"]).generate_state(3)
        net = masknet.init_network(
            [tuple(layer) for layer in task["layers"]], int(net_seed))
        rng = np.random.default_rng(int(mask_seed))
        hidden = masknet.flat_mask(
            net, rng.integers(0, 2, size=net.total_maskable()))
        data = masknet.make_planted_dataset(net, hidden, task["n_samples"],
                                            int(data_seed))
        return net, data
    if kind == "csv":
        for key in ("path", "n_inputs", "layers", "net_seed"):
            if key not in task:
                raise ConfigError(f"field 'task.{key}' is required for csv tasks")
        try:
            data = masknet.load_dataset_csv(task["path"], task["n_inputs"])
        except ValueError as err:
            raise ConfigError(f"field 'task.path': {task['path']}: {err}") from err
        net = masknet.init_network(
            [tuple(layer) for layer in task["layers"]], task["net_seed"])
        return net, data
    raise ConfigError(f"field 'task.kind': {kind!r} is not a selection task")


def _mixer_from_params(params: dict, n_bits: int) -> MixerSpec:
    spec = params.get("mixer", "transverse_field")
    if spec == "transverse_field":
        return MixerSpec.transverse_field()
    if spec == "bit_flip_ring":
        return MixerSpec.bit_flip(ring_graph(n_bits),
                                  params.get("target_bit", 0))
    raise ConfigError(f"field 'method_params.mixer': unknown mixer {spec!r}")


def _resolve_epsilon(cfg: ExperimentConfig, net, data, seed: int) -> float:
    if cfg.epsilon is not None:
        return float(cfg.epsilon)
    return oracle.default_epsilon(net, data, seed)


class _RunTask:
    """The selection task of one :func:`run` call, built on first use.

    Neither the task nor its cost table depends on the run seed, so the
    call's seeds share them. The object lives only as long as the call: the
    next call reads a CSV task's file again.
    """

    def __init__(self, spec: dict):
        self.spec = spec

    @cached_property
    def selection(self) -> tuple[masknet.MaskedNetwork, masknet.Dataset]:
        return build_selection_task(self.spec)

    @cached_property
    def hamiltonian(self):
        h = oracle.build_cost_hamiltonian(*self.selection)
        h.costs.flags.writeable = False  # shared by every seed
        return h


# ---------------------------------------------------------------------------
# Per-method runners. Each takes (config, seed, the call's _RunTask) and
# returns a JSON-safe metrics dict.

def _hamiltonian_task(cfg, seed, task):
    """(cost Hamiltonian, epsilon) of a selection task."""
    eps = _resolve_epsilon(cfg, *task.selection, seed)
    return task.hamiltonian, eps


def _score(h, eps, index: int, **extra) -> dict:
    """Metrics of the basis state ``index``; every table entry counts as a call."""
    loss = float(h.costs[index])
    return {
        "loss": loss,
        "success": bool(loss < eps),
        "oracle_calls": int(h.dim),
        "epsilon": eps,
        **extra,
    }


def _score_measured(h, eps, state, seed, **extra) -> dict:
    """Measure ``state`` once with a ``seed``-seeded generator and score it."""
    measured = measure(state, np.random.default_rng(seed))
    return _score(h, eps, measured, bits_hex=format(measured, "x"), **extra)


def _run_exhaustive(cfg, seed, task):
    h, eps = _hamiltonian_task(cfg, seed, task)
    best = int(np.argmin(h.costs))
    return _score(h, eps, best, best_bits_hex=format(best, "x"),
                  k_solutions=oracle.count_solutions(h, eps))


def _run_grover(cfg, seed, task):
    net, data = task.selection
    eps = _resolve_epsilon(cfg, net, data, seed)
    o = oracle.SubnetworkOracle(net, data, eps)
    params = cfg.method_params
    if params.get("unknown_k", False):
        result = search_unknown_k(o, o.n_bits, seed=seed)
    else:
        result = grover_search(o, GroverConfig(
            n_qubits=o.n_bits,
            iterations=params.get("iterations"),
            known_k=params.get("known_k"),
            max_restarts=params.get("max_restarts", 3),
            seed=seed,
        ))
    loss = o.cost(result.bits)
    return {
        "loss": float(loss),
        "success": bool(result.measured_good),
        "oracle_calls": result.oracle_calls,
        "epsilon": eps,
        **{k: v for k, v in result.to_record().items() if k != "success"},
    }


def _run_anneal(cfg, seed, task):
    h, eps = _hamiltonian_task(cfg, seed, task)
    params = cfg.method_params
    sched = anneal_mod.AnnealSchedule(
        total_time=params.get("total_time", 50.0),
        steps=params.get("steps", 400),
        mixer=_mixer_from_params(params, h.n_qubits),
    )
    result = anneal_mod.anneal(h, sched)
    return _score_measured(h, eps, result.final_state, seed,
                           p_ground=result.p_ground,
                           final_expectation=result.final_expectation)


def _run_qaoa(cfg, seed, task):
    h, eps = _hamiltonian_task(cfg, seed, task)
    params = cfg.method_params
    mixer = _mixer_from_params(params, h.n_qubits)
    result = variational.qaoa_optimize(h, params.get("p", 2),
                                       params.get("budget", 300), seed, mixer)
    state = variational.qaoa_state(h, result.best_params, mixer)
    return _score_measured(h, eps, state, seed,
                           best_expectation=result.best_value,
                           evaluations=len(result.trace))


def _run_vqe(cfg, seed, task):
    h, eps = _hamiltonian_task(cfg, seed, task)
    params = cfg.method_params
    ansatz = variational.make_ansatz(h.n_qubits, params.get("layers", 2), seed)
    result = variational.vqe_run(h, ansatz, params.get("budget", 300), seed)
    final = variational.VqeAnsatz(ansatz.layers, result.best_params,
                                  ansatz.entangler)
    return _score_measured(h, eps, variational.ansatz_state(final), seed,
                           best_expectation=result.best_value,
                           evaluations=len(result.trace))


def _run_edge_popup(cfg, seed, task):
    net, data = task.selection
    eps = _resolve_epsilon(cfg, net, data, seed)
    params = cfg.method_params
    train_cfg = edgepopup.PopupTrainConfig(
        alpha=params.get("alpha", 0.05),
        epochs=params.get("epochs", 20),
        seed=seed,
        resample=edgepopup.ResampleRule(params.get("resample", "per_sample")),
        topk_fraction=params.get("topk_fraction"),
    )
    result = edgepopup.popup_train(net, data, train_cfg)
    loss = result.loss_curve[-1] if result.loss_curve else masknet.dataset_loss(net, data)
    return {
        "loss": float(loss),
        "success": bool(loss < eps),
        "oracle_calls": 0,
        "epsilon": eps,
        "loss_curve": [float(v) for v in result.loss_curve],
    }


def _run_distill(cfg, seed, _task):
    task = cfg.task
    if task.get("kind") != "distill":
        raise ConfigError("field 'task.kind': distill runs need kind 'distill'")
    if "teacher_path" not in task:
        raise ConfigError("field 'task.teacher_path' is required for distill tasks")
    try:
        teacher = masknet.load_network(task["teacher_path"])
    except (ValueError, KeyError, TypeError) as err:
        detail = f"missing field {err}" if isinstance(err, KeyError) else err
        raise ConfigError(
            f"field 'task.teacher_path': {task['teacher_path']}: {detail}") from err
    data_seed = int(np.random.SeedSequence(task.get("seed", 0)).generate_state(1)[0])
    rng = np.random.default_rng(data_seed)
    xs = rng.uniform(-1, 1, size=(task.get("n_samples", 32), teacher.input_dim))
    data = masknet.Dataset(xs, masknet.forward_batch(teacher, xs), name="teacher-io")
    params = cfg.method_params
    pair = distill_mod.make_student(teacher, params.get("width_factor", 4), seed)
    result = distill_mod.distill_select(
        pair, data,
        backend=distill_mod.Backend(params.get("backend", "exhaustive")),
        per_block_bit_budget=params.get("bit_budget", 12),
        mode=distill_mod.CompressMode(params.get("compress", "average_pool")),
        chaining=distill_mod.Chaining(params.get("chaining", "student")),
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


def _run_nk_esn(cfg, seed, _task):
    task = cfg.task
    if task.get("kind") != "sequence":
        raise ConfigError("field 'task.kind': nk_esn runs need kind 'sequence'")
    data = make_sequence_task(task.get("length", 200), task.get("seed", 0))
    params = cfg.method_params
    model = nkesn.make_nkesn(
        n_outputs=params.get("n_outputs", 8),
        k=params.get("k", 2),
        reservoir_size=params.get("reservoir_size", 40),
        input_dim=1,
        topology=nkesn.Topology(params.get("topology", "adjacent")),
        spectral_radius=params.get("spectral_radius", 0.9),
        connectivity=params.get("connectivity", 0.1),
        activation=params.get("activation", "tanh"),
        seed=seed,
    )
    washout = params.get("washout", 20)
    table = nkesn.build_table(model, data, washout=washout)
    patterns, results = nkesn.select_per_output(table, model.landscape, seed=seed)
    combined = nkesn.combine_per_output(patterns, model.landscape, table)
    metrics = {
        "loss": combined.mean_loss,
        "success": all(r.measured_good for r in results),
        "oracle_calls": int(sum(r.oracle_calls for r in results)),
        "conflicts": len(combined.conflicts),
        "combined_bits_hex": format(bits_to_index(combined.bits), "x"),
    }
    if combined.dp_loss is not None:
        metrics["dp_loss"] = combined.dp_loss
        metrics["dp_gap"] = combined.dp_gap
    return metrics


_RUNNERS = {
    "exhaustive": _run_exhaustive,
    "grover": _run_grover,
    "anneal": _run_anneal,
    "qaoa": _run_qaoa,
    "vqe": _run_vqe,
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


def run(cfg: ExperimentConfig) -> dict:
    """Execute every seed, write an immutable record, return it.

    The record path is timestamped so re-running never overwrites earlier
    records. The metrics hash covers only the deterministic payload.
    """
    runner = _RUNNERS[cfg.method]
    task = _RunTask(cfg.task)
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
        "hashes": {
            "config": _sha256(cfg.to_dict()),
            "metrics": _sha256([entry["metrics"] for entry in per_seed]),
        },
    }
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    path = out_dir / f"record_{cfg.method}_{stamp}.json"
    counter = 0
    while path.exists():
        counter += 1
        path = out_dir / f"record_{cfg.method}_{stamp}_{counter}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    record["path"] = str(path)
    return record


def method_failed(record: dict) -> bool:
    return any(entry["metrics"].get("success") is False
               for entry in record["per_seed"])


# ---------------------------------------------------------------------------
# Comparison.

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
    headers = ["method", "runs", "mean_loss", "min_loss", "mean_oracle_calls",
               "success_rate"]
    rendered = [[_format_cell(row[h]) for h in headers] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rendered)) if rendered else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
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
    headers = ["method", "runs", "mean_loss", "min_loss", "mean_oracle_calls",
               "success_rate"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        for row in rows:
            writer.writerow([row[h] if row[h] is not None else "" for h in headers])
