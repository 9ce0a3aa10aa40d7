"""The four benchmark workloads: configs, seed streams and generated inputs.

A workload is a fixed list of configs. The closed loop runs them in rounds,
one op per config per round, where an op is one ``harness.run`` call over
all of the config's seeds. A run holds a fixed number of rounds, sized from
``--seconds`` by the workload's nominal round time, so that the same seed
gives the same ops, and the same failed ops, in every run. Every op draws a
fresh task seed and fresh run seeds from the workload seed, so no op repeats
a task; the seeds inside one op share that op's task, as real configs do.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Seed streams: the untimed warm-up pass and the timed rounds never share seeds.
WARMUP_STREAM = 0
TIMED_STREAM = 1


@dataclass(frozen=True)
class Config:
    name: str
    method: str
    task: dict  # task template; the op fills in its own "seed"
    n_seeds: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: tuple[Config, ...]
    # spans that must record calls in a traced run of this workload
    spans: frozenset[str]
    # nominal wall time of one round, one BLAS thread, under sustained load on
    # the 2-core machine the sizes were chosen on
    round_s: float

    def rounds(self, seconds: float) -> int:
        """Rounds of a run that is to measure about ``seconds``."""
        return max(1, round(seconds / self.round_s))


def _planted(layers, n_samples):
    return {"kind": "planted", "layers": layers, "n_samples": n_samples}


TEACHER_FILE = "teacher.json"

# Sizes per scale. "full" is what the benchmark measures; "tiny" keeps the
# same configs and code paths at toy sizes for the smoke test.
_SIZES = {
    "full": {
        "enum_layers": [[2, 2, "relu"], [2, 4, "identity"]],          # 12 bits
        "mixer_layers": [[2, 2, "relu"], [2, 3, "identity"]],         # 10 bits
        "anneal_bitflip_steps": 150,
        "qaoa_bitflip_budget": 80,
        "tf_layers": [[3, 3, "relu"], [3, 1, "identity"]],            # 12 bits
        "anneal_tf_steps": 400,
        "qaoa_tf_budget": 150,
        "vqe_budget": 100,
        "popup_layers": [[4, 16, "relu"], [16, 16, "relu"], [16, 1, "identity"]],
        "popup_samples": 128,
        # per-config sizes keep the four op latencies close, so the median
        # and tail do not jump between configs as the op count changes
        "popup_epochs_per_sample": 30,
        "popup_epochs_per_epoch": 50,
        "seq_length_adjacent": 6000,
        "seq_length_random": 8000,
        "nk_outputs": 20,
        "nk_k": 8,
        "reservoir": 40,
        "round_s": {"mask-enumeration": 3.4, "bitflip-mixer": 3.7,
                    "transverse-variational": 2.6, "per-sample-loops": 1.5},
    },
    "tiny": {
        "enum_layers": [[2, 2, "relu"], [2, 1, "identity"]],          # 6 bits
        "mixer_layers": [[2, 2, "relu"], [2, 1, "identity"]],
        "anneal_bitflip_steps": 5,
        "qaoa_bitflip_budget": 5,
        "tf_layers": [[2, 2, "relu"], [2, 1, "identity"]],
        "anneal_tf_steps": 5,
        "qaoa_tf_budget": 5,
        "vqe_budget": 5,
        "popup_layers": [[2, 3, "relu"], [3, 1, "identity"]],
        "popup_samples": 8,
        "popup_epochs_per_sample": 2,
        "popup_epochs_per_epoch": 2,
        "seq_length_adjacent": 120,
        "seq_length_random": 120,
        "nk_outputs": 6,
        "nk_k": 2,
        "reservoir": 20,
        "round_s": {"mask-enumeration": 1.7, "bitflip-mixer": 0.02,
                    "transverse-variational": 0.05, "per-sample-loops": 0.03},
    },
}

_PLANTED_SPANS = {
    "harness.run", "harness.build_selection_task", "oracle.default_epsilon",
    "masknet.apply_flat_mask", "masknet.forward_batch", "qsim.measure",
}


def workloads(scale: str = "full") -> dict[str, Workload]:
    s = _SIZES[scale]
    enum_task = _planted(s["enum_layers"], 16)
    mixer_task = _planted(s["mixer_layers"], 16)
    tf_task = _planted(s["tf_layers"], 16)
    popup_task = _planted(s["popup_layers"], s["popup_samples"])
    distill_task = {"kind": "distill", "teacher_path": TEACHER_FILE, "n_samples": 32}
    def seq_task(topology):
        return {"kind": "sequence", "length": s[f"seq_length_{topology}"]}

    round_s = s["round_s"]
    nk = {"n_outputs": s["nk_outputs"], "k": s["nk_k"],
          "reservoir_size": s["reservoir"]}
    ws = [
        Workload(
            "mask-enumeration",
            "Per-mask cost loops (enumerate_costs, distill_select) take ~all "
            "the time and no Hamiltonian is evolved: a batched evaluator shows "
            "here, a mixer kernel does not.",
            (
                Config("exhaustive", "exhaustive", enum_task, 2),
                Config("grover", "grover", enum_task, 2),
                Config("grover-unknown-k", "grover", enum_task, 2, {"unknown_k": True}),
                Config("distill-exhaustive", "distill", distill_task, 2,
                       {"backend": "exhaustive", "width_factor": 2}),
                Config("distill-grover", "distill", distill_task, 2,
                       {"backend": "grover", "width_factor": 2}),
            ),
            frozenset(_PLANTED_SPANS | {
                "oracle.build_cost_hamiltonian", "oracle.CostOracle.enumerate_costs",
                "grover.grover_search", "grover.search_unknown_k",
                "distill.distill_select", "distill.block_loss",
                "distill.record_activations",
            }),
            round_s["mask-enumeration"],
        ),
        Workload(
            "bitflip-mixer",
            "The dense bit-flip mixer exponential (qsim.evolve, qaoa_state) "
            "takes ~all the time and the cost table little: a mixer kernel "
            "shows here, a batched evaluator does not.",
            (
                Config("anneal-bitflip", "anneal", mixer_task, 1,
                       {"mixer": "bit_flip_ring", "steps": s["anneal_bitflip_steps"]}),
                Config("qaoa-bitflip", "qaoa", mixer_task, 1,
                       {"mixer": "bit_flip_ring", "p": 2,
                        "budget": s["qaoa_bitflip_budget"]}),
            ),
            frozenset(_PLANTED_SPANS | {
                "oracle.build_cost_hamiltonian", "oracle.CostOracle.enumerate_costs",
                "qsim.evolve", "anneal.anneal", "variational.qaoa_optimize",
                "variational.qaoa_state",
            }),
            round_s["bitflip-mixer"],
        ),
        Workload(
            "transverse-variational",
            "Factorised transverse-field rotations and CZ gates over many short "
            "state preparations, plus the cost table: guards the qsim paths a "
            "dense-mixer change must not slow.",
            (
                Config("anneal-transverse", "anneal", tf_task, 2,
                       {"steps": s["anneal_tf_steps"]}),
                Config("qaoa-transverse", "qaoa", tf_task, 2,
                       {"p": 2, "budget": s["qaoa_tf_budget"]}),
                Config("vqe", "vqe", tf_task, 2,
                       {"layers": 2, "budget": s["vqe_budget"]}),
            ),
            frozenset(_PLANTED_SPANS | {
                "oracle.build_cost_hamiltonian", "oracle.CostOracle.enumerate_costs",
                "qsim.evolve", "anneal.anneal", "variational.qaoa_optimize",
                "variational.qaoa_state", "variational.vqe_run",
                "variational.ansatz_state",
            }),
            round_s["transverse-variational"],
        ),
        Workload(
            "per-sample-loops",
            "Python per-sample and per-step loops of edge-popup and the NK "
            "echo-state network, with K-qubit registers and no 2^n table; the "
            "only workload that covers edgepopup and nkesn.",
            (
                Config("popup-per-sample", "edge_popup", popup_task, 1,
                       {"epochs": s["popup_epochs_per_sample"],
                        "resample": "per_sample"}),
                Config("popup-per-epoch-topk", "edge_popup", popup_task, 1,
                       {"epochs": s["popup_epochs_per_epoch"], "resample": "per_epoch",
                        "topk_fraction": 0.5}),
                Config("nkesn-adjacent", "nk_esn", seq_task("adjacent"), 1,
                       {**nk, "topology": "adjacent"}),
                Config("nkesn-random", "nk_esn", seq_task("random"), 1,
                       {**nk, "topology": "random"}),
            ),
            frozenset({
                "harness.run", "harness.build_selection_task",
                "harness.make_sequence_task", "oracle.default_epsilon",
                "masknet.apply_flat_mask", "masknet.forward_batch",
                "grover.grover_search", "qsim.measure", "edgepopup.popup_train",
                "edgepopup.popup_update", "nkesn.make_nkesn", "nkesn.run_reservoir",
                "nkesn.build_table", "nkesn.select_per_output",
                "nkesn.combine_per_output", "nkesn.dp_optimize",
            }),
            round_s["per-sample-loops"],
        ),
    ]
    return {w.name: w for w in ws}


def op_seeds(workload_seed: int, stream: int, round_index: int, config_index: int,
             n_seeds: int) -> tuple[int, list[int]]:
    """(task seed, run seeds) of one op, derived from the workload seed only."""
    state = np.random.SeedSequence(
        [workload_seed, stream, round_index, config_index]).generate_state(n_seeds + 1)
    values = [int(v) % (2 ** 31) for v in state]
    return values[0], values[1:]


def op_document(cfg: Config, workload_seed: int, stream: int, round_index: int,
                config_index: int, input_dir: Path, output_dir: Path) -> dict:
    """The experiment config document of one op, as ``qns run`` would load it."""
    task_seed, run_seeds = op_seeds(workload_seed, stream, round_index,
                                    config_index, cfg.n_seeds)
    task = {**cfg.task, "seed": task_seed}
    if "teacher_path" in task:
        task["teacher_path"] = str(input_dir / task["teacher_path"])
    return {
        "method": cfg.method,
        "task": task,
        "method_params": dict(cfg.params),
        "seeds": run_seeds,
        "output_dir": str(output_dir),
    }


def write_inputs(workload: Workload, workload_seed: int, input_dir: Path) -> None:
    """Generate the workload's input files: the distillation teacher, if used.

    The teacher is one identity layer 4 -> 1 with weights and bias drawn from
    the workload seed, written in the ``qns`` network JSON format.
    """
    if not any(c.method == "distill" for c in workload.configs):
        return
    rng = np.random.default_rng(np.random.SeedSequence([workload_seed, 2]))
    weights = rng.uniform(-1.0, 1.0, size=(4, 1))
    bias = rng.uniform(-0.5, 0.5, size=1)
    doc = {
        "specs": [{"fan_in": 4, "fan_out": 1, "activation": "identity"}],
        "seed": None,
        "mask_biases": False,
        "weights": [weights.tolist()],
        "biases": [bias.tolist()],
        "masks": [np.ones((4, 1)).tolist()],
    }
    (input_dir / TEACHER_FILE).write_text(json.dumps(doc))
