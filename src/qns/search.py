"""One register search over a cost table, for every table method.

The global search of a run (:mod:`qns.harness`), each distillation block
(:mod:`qns.distill`) and each NK output column (:mod:`qns.nkesn`) all call
:func:`select`; they differ only in the table and the parameters they pass.
The anneal and variational modules are imported by the first search that
uses them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitstrings import bits_to_index, bits_to_string, index_to_bits
from .grover import GroverConfig, grover_search, search_unknown_k
from .oracle import count_solutions
from .qsim import (
    DEFAULT_TROTTER_STEPS,
    DiagonalCostHamiltonian,
    Mixer,
    MixerSpec,
    measure,
    within_table,
)

LOCAL_MAX_RESTARTS = 8  # Grover restarts of a distillation block or an NK output


_MIXER = {"mixer": Mixer.TRANSVERSE_FIELD, "target_bit": 0}

# The parameters of each table method with their defaults: `qns run`'s
# (``harness.METHOD_PARAMS`` reads them) and, unless they pass their own,
# the local searches'.
DEFAULTS: dict[str, dict] = {
    "exhaustive": {},
    "grover": {"unknown_k": False},  # and GroverConfig's fields, with its defaults
    "anneal": {"total_time": 50.0, "steps": DEFAULT_TROTTER_STEPS, **_MIXER},
    "qaoa": {"p": 2, "budget": 300, **_MIXER},
    "vqe": {"layers": 2, "budget": 300},
}


@dataclass(frozen=True)
class Selection:
    """The pattern a search chose on an n-bit table, scored there.

    ``loss`` is the table entry of ``index``; ``success``, that it lies below
    ``epsilon``, is Grover's verified ``measured_good``. ``oracle_calls`` is
    Grover's queries plus verifications, else 2^n: every entry was read.
    ``fields`` holds the method's own record fields.
    """

    index: int
    n_bits: int
    loss: float
    epsilon: float
    oracle_calls: int
    fields: dict

    @property
    def bits(self) -> np.ndarray:
        return index_to_bits(self.index, self.n_bits).astype(np.uint8)

    @property
    def success(self) -> bool:
        return bool(self.loss < self.epsilon)

    def metrics(self) -> dict:
        """The run record's metrics: loss, success, oracle calls, epsilon, fields."""
        return {"loss": self.loss, "success": self.success,
                "oracle_calls": self.oracle_calls, "epsilon": self.epsilon,
                **self.fields}


def select(method: str, h: DiagonalCostHamiltonian, epsilon: float, params: dict,
           seed: int, shared: dict | None = None) -> Selection:
    """Run ``method`` (``exhaustive``, ``grover``, ``anneal``, ``qaoa`` or
    ``vqe``) on the table ``h.costs`` and score its choice against ``epsilon``.

    ``params`` overrides :data:`DEFAULTS` of the method. ``seed`` drives the
    search, and a Hamiltonian method picks its index by one measurement of
    its final state, drawn from the seed. ``shared`` keeps work that no
    seed changes, for callers that search one ``h`` with many seeds: anneal
    results by (total time, steps, mixer), QAOA objective memos by mixer,
    and QAOA final states by (mixer, best point), every kept state's
    amplitudes read-only (see :func:`shared_work`).
    """
    params = {**DEFAULTS[method], **params}
    shared = {} if shared is None else shared

    def scored(index: int, oracle_calls: int, **fields) -> Selection:
        return Selection(int(index), h.n_qubits, float(h.costs[index]), float(epsilon),
                         int(oracle_calls), fields)

    if method == "exhaustive":
        best = int(np.argmin(h.costs))
        return scored(best, h.dim, best_bits_hex=format(best, "x"),
                      k_solutions=count_solutions(h, epsilon))
    if method == "grover":
        if params.pop("unknown_k"):
            result = search_unknown_k(h.costs, epsilon, seed)
        else:
            result = grover_search(h.costs, epsilon, GroverConfig(seed=seed, **params))
        # the scored success, loss < epsilon, is the verified measured_good
        index = bits_to_index(result.bits)
        return scored(index, result.oracle_calls, seed=seed, t=result.iterations,
                      restarts=result.restarts, bits_hex=format(index, "x"),
                      bits=bits_to_string(result.bits))

    if method == "anneal":
        from . import anneal as anneal_mod
        mixer = MixerSpec(params["mixer"], params["target_bit"])
        key = (params["total_time"], params["steps"], mixer)
        runs = shared.setdefault("anneal", {})
        if key not in runs:
            runs[key] = anneal_mod.anneal(h, anneal_mod.AnnealSchedule(*key))
            runs[key].final_state.amplitudes.flags.writeable = False  # shared by every seed
        result = runs[key]
        state = result.final_state
        fields = {"p_ground": result.p_ground,
                  "final_expectation": result.final_expectation}
    elif method == "qaoa":
        from . import variational
        mixer = MixerSpec(params["mixer"], params["target_bit"])
        memo = shared.setdefault("qaoa", {}).setdefault(mixer, {})
        result = variational.qaoa_optimize(h, params["p"], params["budget"], seed,
                                           mixer, memo=memo)
        shared["qaoa_calls"] = shared.get("qaoa_calls", 0) + len(result.trace)
        best, p = result.best_params, params["p"]
        key = (mixer, best.tobytes())
        finals = shared.setdefault("qaoa_state", {})
        if key not in finals:
            finals[key] = variational.qaoa_state(h, best[:p], best[p:], mixer)
            finals[key].amplitudes.flags.writeable = False  # shared by every seed
        state = finals[key]
    else:
        from . import variational
        thetas = variational.make_ansatz(h.n_qubits, params["layers"], seed)
        result = variational.vqe_run(h, thetas, params["budget"], seed)
        state = result.best_state
    if method != "anneal":
        fields = {"best_expectation": within_table(result.best_value, h),
                  "evaluations": len(result.trace)}
    measured = measure(state, np.random.default_rng(seed))
    return scored(measured, h.dim, bits_hex=format(measured, "x"), **fields)


def shared_work(shared: dict) -> dict:
    """What the searches that shared ``shared`` computed, and what they looked up."""
    evaluations = sum(len(memo) for memo in shared.get("qaoa", {}).values())
    return {
        "anneal_evolutions": len(shared.get("anneal", {})),
        "qaoa_objective_evaluations": evaluations,
        "qaoa_objective_lookups": shared.get("qaoa_calls", 0) - evaluations,
    }
