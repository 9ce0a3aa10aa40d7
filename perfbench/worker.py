"""One benchmark process: set up a workload, run its closed loop, verify, report.

Started by ``run.py`` in a fresh interpreter, with the checkout's ``src`` on
``PYTHONPATH``. Modes:

* ``setup``   import ``qns``, write the inputs, run the untimed warm-up
              round, report the set-up time and exit;
* ``measure`` set up, then run the workload's fixed number of rounds for
              ``--seconds``, then check every op against the reference;
* ``trace``   as ``measure``, with spans installed around the ``qns``
              layers after the warm-up.

The last line of standard output is one JSON report for ``run.py``.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import environment  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from qns import distill, harness, masknet  # noqa: E402


def _run_op(doc: dict) -> dict:
    cfg = harness.ExperimentConfig.from_dict(doc)
    started = time.perf_counter()
    try:
        record = harness.run(cfg)
    except Exception as err:  # the loop must go on; the op counts as failed
        return {"latency_s": time.perf_counter() - started, "record": None,
                "error": f"{type(err).__name__}: {err}"}
    return {"latency_s": time.perf_counter() - started, "record": record,
            "error": None}


def _op_hash(op: dict) -> str:
    if op["record"] is None:
        return "error:" + op["error"].split(":", 1)[0]
    return op["record"]["hashes"]["metrics"]


def verify(cfg: workloads.Config, doc: dict, record: dict) -> list[str]:
    """Check every seed of one op against the independent reference."""
    entries = record["per_seed"]
    if [e["seed"] for e in entries] != doc["seeds"]:
        return [f"{cfg.name}: record seeds differ from the config seeds"]
    task, params = doc["task"], doc["method_params"]
    if cfg.method == "distill":
        teacher = masknet.load_network(task["teacher_path"])

        def check(entry):
            block = distill.make_student(teacher, params["width_factor"],
                                         entry["seed"]).blocks[0]
            return reference.check_distill(task["teacher_path"], task, block,
                                           params["backend"], entry["metrics"])
    elif cfg.method == "nk_esn":
        def check(entry):
            return reference.check_nkesn(entry["metrics"])
    else:
        ref = reference.PlantedReference(*harness.build_selection_task(task))

        def check(entry):
            return reference.check_planted(cfg.method, ref, entry["seed"],
                                           entry["metrics"])
    return [f"{cfg.name} seed {entry['seed']}: {problem}"
            for entry in entries for problem in check(entry)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    workload = workloads.workloads(args.scale)[args.workload]
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.mode}-", dir=args.work_dir))
    try:
        report = _session(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def _session(args, workload: workloads.Workload, work_dir: Path) -> dict:
    input_dir = work_dir / "inputs"
    records_dir = work_dir / "records"
    input_dir.mkdir()
    workloads.write_inputs(workload, args.seed, input_dir)

    def document(stream, round_index, index, cfg):
        return workloads.op_document(cfg, args.seed, stream, round_index, index,
                                     input_dir, records_dir)

    # the warm-up runs each config once, on the first of its seeds: enough to
    # load every code path and fill lazy caches at half the set-up cost
    warmup_failures = 0
    for index, cfg in enumerate(workload.configs):
        doc = document(workloads.WARMUP_STREAM, 0, index, cfg)
        op = _run_op({**doc, "seeds": doc["seeds"][:1]})
        warmup_failures += op["error"] is not None
    setup_s = time.perf_counter() - PROCESS_START
    report = {"setup_s": setup_s, "warmup_failures": warmup_failures}
    if args.mode == "setup":
        return report

    tracer = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
    ops = []
    rounds = workload.rounds(args.seconds)
    started = time.perf_counter()
    # a fixed round count, not a deadline, keeps the ops, and so the failed
    # ops, the same in every run of a seed
    for round_index in range(rounds):
        for index, cfg in enumerate(workload.configs):
            doc = document(workloads.TIMED_STREAM, round_index, index, cfg)
            op = _run_op(doc)
            if tracer is not None:
                tracer.op_end()
            ops.append((cfg, doc, op))
    elapsed = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    per_config = len(workload.configs)
    first_round = [_op_hash(op) for _, _, op in ops[:per_config]]
    report.update({
        "elapsed_s": elapsed,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "ops": [{
            "config": cfg.name,
            "latency_s": op["latency_s"],
            "error": op["error"],
            "hash": _op_hash(op),
            "success": ([bool(e["metrics"].get("success"))
                         for e in op["record"]["per_seed"]]
                        if op["record"] is not None else []),
            # checked after the timed loop, outside every measured interval
            "problems": (verify(cfg, doc, op["record"])
                         if op["record"] is not None else []),
        } for cfg, doc, op in ops],
        "workload_hash": hashlib.sha256(
            json.dumps(first_round).encode()).hexdigest(),
        "environment": environment.describe(),
    })
    if tracer is not None:
        table = spans.span_table(tracer.ops)
        fired = {name for name, *_ in table}
        fired_modules = {name.split(".", 1)[0] for name in fired}
        expected_modules = {name.split(".", 1)[0] for name in workload.spans}
        report.update({
            "layers": spans.layer_metrics(tracer.ops),
            "span_table": table,
            "missing_spans": sorted(workload.spans - fired),
            "unexpected_layers": sorted(fired_modules - expected_modules),
        })
    return report


if __name__ == "__main__":
    sys.exit(main())
