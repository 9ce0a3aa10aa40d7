"""Spans around the public functions of each ``qns`` layer, installed from outside.

``Tracer.install`` replaces every ``qns.*`` module attribute bound to a traced
function object (modules import each other's functions with
``from .x import f``, so one function can have several bindings), and
traced methods on their class. Each call records its duration and its self
time (duration minus the time of the traced calls it made). Spans are
folded into per-op aggregates as they close, so memory stays bounded
however many leaf calls an op makes; ``Tracer.op_end`` closes an op and
keeps its aggregates until the run reports them.

Counters are taken from arguments and return values at the same
boundaries (Trotter steps, optimizer trace lengths, register sizes,
``oracle_calls``), never from inside the program.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# span name -> (module, attribute path); the span name is "<module>.<path>"
SPANS = (
    ("harness", "run"), ("harness", "build_selection_task"),
    ("harness", "make_sequence_task"),
    ("oracle", "build_cost_hamiltonian"), ("oracle", "default_epsilon"),
    ("oracle", "CostOracle.enumerate_costs"),
    ("masknet", "apply_flat_mask"), ("masknet", "forward_batch"),
    ("grover", "grover_search"), ("grover", "search_unknown_k"),
    ("qsim", "evolve"), ("qsim", "measure"),
    ("anneal", "anneal"),
    ("variational", "qaoa_optimize"), ("variational", "vqe_run"),
    ("variational", "qaoa_state"), ("variational", "ansatz_state"),
    ("edgepopup", "popup_train"), ("edgepopup", "popup_update"),
    ("distill", "distill_select"), ("distill", "block_loss"),
    ("distill", "record_activations"),
    ("nkesn", "make_nkesn"), ("nkesn", "run_reservoir"), ("nkesn", "build_table"),
    ("nkesn", "select_per_output"), ("nkesn", "combine_per_output"),
    ("nkesn", "dp_optimize"),
)
# counted at the boundary but not a span: its time stays with its caller
COUNTED = (("qsim", "mixer_dense"),)

MODULES = ("harness", "oracle", "masknet", "qsim", "grover", "anneal",
           "variational", "edgepopup", "distill", "nkesn")

STATEVECTOR_BYTES_PER_AMPLITUDE = 16  # complex128

# the metrics of layer_metrics, with their units, in report order
LAYER_UNITS = (
    ("harness.self_s", "s"), ("harness.task_builds", "count"),
    ("oracle.enumerate_s", "s"), ("oracle.enumerations", "count"),
    ("oracle.masks_costed", "count"), ("oracle.us_per_mask", "us"),
    ("oracle.default_epsilon_s", "s"), ("oracle.queries", "count"),
    ("oracle.masks_per_query", "ratio"),
    ("masknet.view_s", "s"), ("masknet.forward_s", "s"),
    ("masknet.forward_passes", "count"),
    ("qsim.evolve_s", "s"), ("qsim.trotter_steps", "count"),
    ("qsim.trotter_step_us", "us"), ("qsim.statevector_bytes", "bytes"),
    ("qsim.dense_mixer_bytes", "bytes"),
    ("grover.self_s", "s"), ("grover.rounds", "count"), ("grover.round_us", "us"),
    ("grover.restarts", "count"), ("grover.verify_hit_ratio", "ratio"),
    ("anneal.self_s", "s"),
    ("variational.objective_evals", "count"),
    ("variational.objective_eval_us", "us"),
    ("variational.optimizer_self_s", "s"),
    ("edgepopup.updates", "count"), ("edgepopup.update_us", "us"),
    ("edgepopup.train_self_s", "s"),
    ("distill.block_losses", "count"), ("distill.block_loss_us", "us"),
    ("distill.select_self_s", "s"),
    ("nkesn.build_s", "s"), ("nkesn.reservoir_failures", "count"),
    ("nkesn.reservoir_steps", "count"), ("nkesn.run_reservoir_s", "s"),
    ("nkesn.table_s", "s"), ("nkesn.table_entries", "count"),
    ("nkesn.select_s", "s"), ("nkesn.dp_s", "s"),
    *((f"{module}.share", "ratio") for module in MODULES),
)


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self.ops: list[dict] = []
        self._open_op()

    # -- per-op state ------------------------------------------------------

    def _open_op(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(float)
        self.peaks = defaultdict(int)
        self._seen_oracles = []

    def op_end(self) -> None:
        """Close the current op and keep its aggregates."""
        self.ops.append({"spans": {k: list(v) for k, v in self.spans.items()},
                         "counts": dict(self.counts), "peaks": dict(self.peaks)})
        self._open_op()

    # -- installation ------------------------------------------------------

    def install(self):
        qns_modules = {name: mod for name, mod in list(sys.modules.items())
                       if name == "qns" or name.startswith("qns.")}
        targets = [(m, p, True) for m, p in SPANS] + [(m, p, False) for m, p in COUNTED]
        for module_name, path, is_span in targets:
            owner = qns_modules.get(f"qns.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue  # a function that is gone records no calls: coverage fails
            wrapper = self._wrap(f"{module_name}.{path}", original, is_span)
            if outer:  # a method: rebind on its class
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in qns_modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, original, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _rebind(self, owner, name, original, wrapper):
        self._restore.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, name: str, fn, is_span: bool):
        on_call = _HOOKS.get(name)
        signature = inspect.signature(fn) if on_call else None
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            if is_span:
                stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[f"errors.{name}"] += 1
                raise
            finally:
                duration = perf_counter() - start
                if is_span:
                    stack.pop()
                    if stack:
                        stack[-1][0] += duration
                    agg = tracer.spans[name]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[0]
            if on_call is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(tracer, bound.arguments, result, duration)
            return result

        return wrapper


# -- counters --------------------------------------------------------------

def _peak(tracer, key, value):
    tracer.peaks[key] = max(tracer.peaks[key], int(value))


def _on_run(tracer, args, record, duration):
    for entry in record["per_seed"]:
        metrics = entry["metrics"]
        tracer.counts["oracle.queries"] += metrics.get("oracle_calls", 0)


def _on_task(tracer, args, result, duration):
    tracer.counts["harness.task_builds"] += 1


def _on_enumerate(tracer, args, costs, duration):
    oracle = args["self"]
    # a repeat call on the same oracle returns its cached table
    if any(o is oracle for o in tracer._seen_oracles):
        return
    tracer._seen_oracles.append(oracle)
    tracer.counts["oracle.enumerations"] += 1
    tracer.counts["oracle.masks_costed"] += len(costs)
    tracer.counts["oracle.enumerate_first_s"] += duration


def _on_grover(tracer, args, result, duration):
    tracer.counts["grover.rounds"] += result.oracle_calls - result.restarts
    tracer.counts["grover.restarts"] += result.restarts
    tracer.counts["grover.accepted"] += bool(result.measured_good)
    _peak(tracer, "qsim.statevector_bytes",
          STATEVECTOR_BYTES_PER_AMPLITUDE << len(result.bits))


def _on_evolve(tracer, args, state, duration):
    tracer.counts["qsim.trotter_steps"] += args["steps"]
    _peak(tracer, "qsim.statevector_bytes",
          STATEVECTOR_BYTES_PER_AMPLITUDE << state.n_qubits)


def _on_state(tracer, args, state, duration):
    _peak(tracer, "qsim.statevector_bytes",
          STATEVECTOR_BYTES_PER_AMPLITUDE << state.n_qubits)


def _on_mixer_dense(tracer, args, matrix, duration):
    _peak(tracer, "qsim.dense_mixer_bytes", matrix.nbytes)


def _on_optimize(tracer, args, result, duration):
    tracer.counts["variational.objective_evals"] += len(result.trace)


def _on_reservoir(tracer, args, states, duration):
    tracer.counts["nkesn.reservoir_steps"] += len(states)


def _on_table(tracer, args, table, duration):
    tracer.counts["nkesn.table_entries"] += table.size


_HOOKS = {
    "harness.run": _on_run,
    "harness.build_selection_task": _on_task,
    "harness.make_sequence_task": _on_task,
    "oracle.CostOracle.enumerate_costs": _on_enumerate,
    "grover.grover_search": _on_grover,
    "grover.search_unknown_k": _on_grover,
    "qsim.evolve": _on_evolve,
    "variational.qaoa_state": _on_state,
    "variational.ansatz_state": _on_state,
    "qsim.mixer_dense": _on_mixer_dense,
    "variational.qaoa_optimize": _on_optimize,
    "variational.vqe_run": _on_optimize,
    "nkesn.run_reservoir": _on_reservoir,
    "nkesn.build_table": _on_table,
}


# -- per-layer metrics -----------------------------------------------------

def _totals(ops: list[dict]):
    """Per-span calls, inclusive and self seconds, counters and peaks over all ops."""
    calls, incl, self_s = defaultdict(float), defaultdict(float), defaultdict(float)
    counts, peaks = defaultdict(float), defaultdict(int)
    for op in ops:
        for name, (c, t, s) in op["spans"].items():
            calls[name] += c
            incl[name] += t
            self_s[name] += s
        for key, value in op["counts"].items():
            counts[key] += value
        for key, value in op["peaks"].items():
            peaks[key] = max(peaks[key], value)
    return calls, incl, self_s, counts, peaks


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced ops: per op unless the name says otherwise."""
    n_ops = max(len(ops), 1)
    calls, incl, self_s, counts, peaks = _totals(ops)

    def module_self(module):
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == module)

    def per_op(value):
        return value / n_ops

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    op_time = incl["harness.run"]
    m = {
        "harness.self_s": per_op(module_self("harness")),
        "harness.task_builds": per_op(counts["harness.task_builds"]),
        "oracle.enumerate_s": per_op(incl["oracle.CostOracle.enumerate_costs"]),
        "oracle.enumerations": per_op(counts["oracle.enumerations"]),
        "oracle.masks_costed": per_op(counts["oracle.masks_costed"]),
        "oracle.us_per_mask": ratio(counts["oracle.enumerate_first_s"],
                                    counts["oracle.masks_costed"], 1e6),
        "oracle.default_epsilon_s": per_op(incl["oracle.default_epsilon"]),
        "oracle.queries": per_op(counts["oracle.queries"]),
        "oracle.masks_per_query": ratio(counts["oracle.masks_costed"],
                                        counts["oracle.queries"]),
        "masknet.view_s": per_op(incl["masknet.apply_flat_mask"]),
        "masknet.forward_s": per_op(incl["masknet.forward_batch"]),
        "masknet.forward_passes": per_op(calls["masknet.forward_batch"]),
        "qsim.evolve_s": per_op(incl["qsim.evolve"]),
        "qsim.trotter_steps": per_op(counts["qsim.trotter_steps"]),
        "qsim.trotter_step_us": ratio(incl["qsim.evolve"],
                                      counts["qsim.trotter_steps"], 1e6),
        "qsim.statevector_bytes": float(peaks["qsim.statevector_bytes"]),
        "qsim.dense_mixer_bytes": float(peaks["qsim.dense_mixer_bytes"]),
        "grover.self_s": per_op(module_self("grover")),
        "grover.rounds": per_op(counts["grover.rounds"]),
        "grover.round_us": ratio(module_self("grover"), counts["grover.rounds"], 1e6),
        "grover.restarts": per_op(counts["grover.restarts"]),
        "grover.verify_hit_ratio": ratio(counts["grover.accepted"],
                                         counts["grover.restarts"]),
        "anneal.self_s": per_op(module_self("anneal")),
        "variational.objective_evals": per_op(counts["variational.objective_evals"]),
        "variational.objective_eval_us": ratio(
            incl["variational.qaoa_optimize"] + incl["variational.vqe_run"],
            counts["variational.objective_evals"], 1e6),
        "variational.optimizer_self_s": per_op(
            self_s["variational.qaoa_optimize"] + self_s["variational.vqe_run"]),
        "edgepopup.updates": per_op(calls["edgepopup.popup_update"]),
        "edgepopup.update_us": ratio(incl["edgepopup.popup_update"],
                                     calls["edgepopup.popup_update"], 1e6),
        "edgepopup.train_self_s": per_op(self_s["edgepopup.popup_train"]),
        "distill.block_losses": per_op(calls["distill.block_loss"]),
        "distill.block_loss_us": ratio(incl["distill.block_loss"],
                                       calls["distill.block_loss"], 1e6),
        "distill.select_self_s": per_op(self_s["distill.distill_select"]),
        "nkesn.build_s": per_op(incl["nkesn.make_nkesn"]),
        "nkesn.reservoir_failures": counts["errors.nkesn.make_nkesn"],
        "nkesn.reservoir_steps": per_op(counts["nkesn.reservoir_steps"]),
        "nkesn.run_reservoir_s": per_op(incl["nkesn.run_reservoir"]),
        "nkesn.table_s": per_op(self_s["nkesn.build_table"]),
        "nkesn.table_entries": per_op(counts["nkesn.table_entries"]),
        "nkesn.select_s": per_op(incl["nkesn.select_per_output"]),
        "nkesn.dp_s": per_op(incl["nkesn.dp_optimize"]),
    }
    for module in MODULES:
        m[f"{module}.share"] = ratio(module_self(module), op_time)
    return m


def span_table(ops: list[dict]) -> list[tuple[str, float, float, float]]:
    """(span, calls per op, inclusive s per op, self s per op), by self time."""
    n_ops = max(len(ops), 1)
    calls, incl, self_s, _, _ = _totals(ops)
    rows = [(name, calls[name] / n_ops, incl[name] / n_ops, self_s[name] / n_ops)
            for name in calls]
    return sorted(rows, key=lambda row: -row[3])
