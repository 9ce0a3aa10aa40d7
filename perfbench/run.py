"""qns benchmark: four fixed workloads through ``qns.harness.run``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mask-enumeration --seed 0 --seconds 10 --trace 0

``--trace 0`` measures end to end: one measuring process (closed loop, one
client) plus two more set-up-only processes, each a fresh interpreter.
``--trace 1`` runs the workload once untraced and once with spans around
every ``qns`` layer, and reports per-layer metrics. Both check every op
against an independent reference. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from spans import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
HASHES_FILE = HERE / "hashes.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 3
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170
# BLAS threads of every child process. On these small matrices a second
# thread mostly spin-waits; one thread also keeps the metrics hashes, which
# depend on the thread count, independent of the machine's core count
BLAS_THREADS = "1"
# error_rate and success_rate are printed with these, but reported as
# per-layer metrics: they are often 0 and vary with the seed by design
END_TO_END = ("ops_per_s", "op_p50_s", "op_tail_s", "setup_s", "peak_rss_mb")
# the layer metrics of spans.py, then three of the traced run as a whole
PER_LAYER_UNITS = (
    *LAYER_UNITS,
    ("error_rate", "ratio"), ("success_rate", "ratio"),
    ("trace.overhead_ops_per_s", "1/s"),
)
WORKLOADS = ("mask-enumeration", "bitflip-mixer", "transverse-variational",
             "per-sample-loops")


class BenchmarkError(RuntimeError):
    pass


def _child(mode: str, args, work_dir: Path) -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale,
           "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"{mode} process timed out after {err.timeout} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with >= 10 completed ops beyond it.

    Returns (value, percentile, ops beyond). With fewer than 11 ops no
    percentile qualifies; the minimum is returned with its smaller count.
    """
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - index - 1


def failed_ops(report: dict) -> int:
    """Ops that raised or failed a reference check."""
    return sum(op["error"] is not None or bool(op["problems"]) for op in report["ops"])


def quality(report: dict) -> dict:
    """error_rate and success_rate: (value, unit, samples) by name."""
    ops = report["ops"]
    seeds = [ok for op in ops if op["error"] is None for ok in op["success"]]
    return {
        "error_rate": (failed_ops(report) / len(ops), "ratio",
                       f"n={len(ops)} attempted ops"),
        "success_rate": (sum(seeds) / len(seeds) if seeds else 0.0, "ratio",
                         f"n={len(seeds)} seeds of completed ops"),
    }


def end_to_end(report: dict, setup_samples: list[float]) -> dict:
    """Every end-to-end metric: (value, unit, samples) by name."""
    done = [op["latency_s"] for op in report["ops"] if op["error"] is None]
    value, pct, beyond = tail(done) if done else (0.0, 0.0, 0)
    return {
        "ops_per_s": (len(done) / report["elapsed_s"], "1/s",
                      f"{len(done)} ops in {report['elapsed_s']:.3f} s"),
        "op_p50_s": (statistics.median(done) if done else 0.0, "s", f"n={len(done)}"),
        "op_tail_s": (value, "s", f"p{pct:.1f}, n={len(done)}, {beyond} beyond"),
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of n={len(setup_samples)} fresh processes"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB", "n=1 process, getrusage"),
        **quality(report),
    }


def design_shares(span_table: list) -> dict[str, float]:
    """Shares of traced op time that the workload design rests on."""
    self_s = {name: self_time for name, _, _, self_time in span_table}
    op_time = next((incl for name, _, incl, _ in span_table if name == "harness.run"), 0.0)
    cost = sum(v for k, v in self_s.items()
               if k.startswith(("oracle.", "masknet.")) or k == "distill.block_loss")
    mixer = self_s.get("qsim.evolve", 0.0) + self_s.get("variational.qaoa_state", 0.0)
    return {
        "per-mask cost evaluation (oracle + masknet + distill.block_loss self)":
            cost / op_time if op_time else 0.0,
        "mixer evolution (qsim.evolve + variational.qaoa_state self)":
            mixer / op_time if op_time else 0.0,
    }


def _print_environment(env: dict) -> None:
    print("environment:")
    for key, value in env.items():
        print(f"  {key}: {value}")


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit:<8} {samples}")


def _print_hash(args, report: dict) -> None:
    recorded = json.loads(HASHES_FILE.read_text()).get(args.scale, {})
    digest = report["workload_hash"]
    if args.seed != DEFAULT_SEED:
        note = f"(hashes are recorded for seed {DEFAULT_SEED} only)"
    elif args.workload not in recorded:
        note = "(no recorded hash)"
    elif recorded[args.workload] == digest:
        note = "(matches the recorded hash)"
    else:
        note = f"CHANGED from the recorded {recorded[args.workload]}"
    print(f"metrics hash of round 0: {digest} {note}")


def _print_failures(report: dict) -> None:
    for op in report["ops"]:
        if op["error"] is not None:
            print(f"  failed op {op['config']}: {op['error']}")
        for problem in op["problems"]:
            print(f"  reference check failed: {problem}")


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, *_) in metrics.items()},
    })


def run_untraced(args, work_dir: Path) -> str:
    report = _child("measure", args, work_dir)
    setups = [report["setup_s"]] + [_child("setup", args, work_dir)["setup_s"]
                                    for _ in range(SETUP_SAMPLES - 1)]
    metrics = end_to_end(report, setups)
    _print_environment(report["environment"])
    _print_metrics(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
                   f"closed loop, 1 client, {report['rounds']} rounds "
                   f"({report['warmup_failures']} warm-up ops failed):", metrics)
    _print_failures(report)
    _print_hash(args, report)
    return _result(not any(op["problems"] for op in report["ops"]),
                   len(report["ops"]), failed_ops(report),
                   {k: metrics[k] for k in END_TO_END})


def run_traced(args, work_dir: Path) -> str:
    plain = _child("measure", args, work_dir)
    traced = _child("trace", args, work_dir)
    plain_rate = sum(op["error"] is None for op in plain["ops"]) / plain["elapsed_s"]
    traced_rate = sum(op["error"] is None for op in traced["ops"]) / traced["elapsed_s"]
    pairs = list(zip(plain["ops"], traced["ops"]))
    mismatched = [a["config"] for a, b in pairs if a["hash"] != b["hash"]]

    units = dict(PER_LAYER_UNITS)
    metrics = {name: (value, units[name], "") for name, value in traced["layers"].items()}
    for name, (value, unit, samples) in quality(traced).items():
        metrics[name] = (value, unit, samples)
    metrics["trace.overhead_ops_per_s"] = (plain_rate - traced_rate, "1/s",
                                           f"untraced {plain_rate:.4g} - traced "
                                           f"{traced_rate:.4g}")
    _print_environment(traced["environment"])
    _print_metrics(f"workload {args.workload}, seed {args.seed}, traced, "
                   f"{len(traced['ops'])} ops (per op unless the name says otherwise):",
                   metrics)
    print("spans (calls/op, inclusive s/op, self s/op), by self time:")
    for name, calls, incl, self_s in traced["span_table"]:
        print(f"  {name:<36} {calls:>10.1f} {incl:>12.6f} {self_s:>12.6f}")
    for label, share in design_shares(traced["span_table"]).items():
        print(f"share of traced op time, {label}: {share:.4f}")
    print("qsim byte counts are computed from array sizes, not measured.")
    print("oracle.masks_per_query base: masks costed by enumerate_costs per "
          "reported oracle_calls, over the run")
    print(f"traced vs untraced metrics hashes: {len(pairs) - len(mismatched)} of "
          f"{len(pairs)} ops identical")
    problems = [f"span {name} recorded no calls" for name in traced["missing_spans"]]
    problems += [f"layer {name} fired, but this workload does not use it"
                 for name in traced["unexpected_layers"]]
    problems += [f"traced op {name} changed the metrics hash" for name in mismatched]
    if not pairs:
        problems.append("no op ran both traced and untraced")
    for problem in problems:
        print(f"  trace check failed: {problem}")
    _print_failures(traced)
    _print_failures(plain)
    correct = not problems and not any(
        op["problems"] for op in plain["ops"] + traced["ops"])
    return _result(correct, len(plain["ops"]) + len(traced["ops"]),
                   failed_ops(plain) + failed_ops(traced),
                   {k: metrics[k] for k, _ in PER_LAYER_UNITS})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: toy sizes for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "qns" / "__init__.py").is_file():
        print(f"error: no qns sources under {SRC}; run from a qns checkout",
              file=sys.stderr)
        return 2
    # a terminated runner raises SystemExit, so subprocess.run kills and reaps
    # the running child before the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        print((run_traced if args.trace else run_untraced)(args, work_dir))
        return 0
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
