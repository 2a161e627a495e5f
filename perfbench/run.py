"""Benchmark of the jade estimator, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds T] [--trace 0|1]
    python3 perfbench/run.py --write-benchmark-json

With ``--trace 0`` one workload is timed end to end: set-up is measured over
fresh processes, then the workload's call runs back to back for ``--seconds``
and every output is checked. With ``--trace 1`` the traced run (layers.py)
gives the per-layer numbers instead. Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and the
metrics; the lines before it print every metric by name with its unit and
sample count. Details, the environment and the spans go to
``perfbench/out/<workload>-seed<N>-trace<0|1>.json``.

``--all`` runs every workload in its own process and exits non-zero if any
check failed. The program is built from ``src/`` of the checkout the script
sits in; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

import spec
from procs import OUT, ROOT, SRC, python_argv, run_child

EXIT_FAILED_CHECK = 1
EXIT_NO_PROGRAM = 2

HERE = Path(__file__).resolve().parent


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the smoke test")
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="render BENCHMARK.json at the repository root from spec.py")
    args = parser.parse_args(argv)
    if not (args.all or args.write_benchmark_json or args.workload):
        parser.error("give --workload, --all or --write-benchmark-json")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _final_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def _timed(args, work_dir: Path):
    w = spec.workload(args.workload)
    setup_s, setup_failures = [], []
    for _ in range(spec.SETUP_REPEATS if args.size == "full" else 1):
        probe = run_child(python_argv(str(HERE / "setup_probe.py"), w.name, str(args.seed), args.size),
                          work_dir)
        if probe.exit_code != 0:
            setup_failures.append(f"set-up exited {probe.exit_code}: {probe.stderr.strip()}")
        setup_s.append(probe.wall_s)

    import workloads

    timed, tally, seeds = workloads.run_timed(w, args.seed, args.seconds, args.size)
    for why in setup_failures:
        tally.attempted += 1
        tally.fail(1, why)
    metrics = workloads.end_to_end_metrics(w, setup_s, timed, tally)
    for m in spec.END_TO_END + spec.REPORTED:
        entry = metrics[m.name]
        note = f"  [{entry['note']}]" if "note" in entry else ""
        print(f"{w.name} {m.name} = {_fmt(entry['value'])} {m.unit} (n={entry['n']}){note}")
    gated = {m.name: {"value": metrics[m.name]["value"], "unit": m.unit} for m in spec.END_TO_END}
    for name, entry in gated.items():
        if not (isinstance(entry["value"], float) and math.isfinite(entry["value"]) and entry["value"] > 0):
            tally.fail(0, f"{name} is {entry['value']}")
    details = {"metrics": metrics, "run_seeds": seeds}
    return tally, gated, details


def _traced(args, work_dir: Path):
    import layers

    w = spec.workload(args.workload)
    run = layers.TracedRun(w, args.seed, args.size, work_dir)
    run.run(args.seconds)
    metrics = run.metrics()
    missing = sorted(name for name, entry in metrics.items() if entry["value"] is layers.MISSING)
    layer_metrics = {}
    for m in spec.PER_LAYER:
        value = metrics[m.name]["value"]
        shown = "missing" if value is layers.MISSING else _fmt(value)
        note = f"  [{m.note}]" if m.note else ""
        print(f"{w.name} {m.name} = {shown} {m.unit}{note}")
        # A layer that no longer exists costs nothing on its own.
        layer_metrics[m.name] = {"value": 0.0 if value is layers.MISSING else value, "unit": m.unit}
    if missing:
        print(f"# missing layers: {', '.join(missing)}")
    n_traced, n_untraced = len(run.traced_op_ms), len(run.untraced_op_ms)
    print(f"# tracing overhead from {n_traced} traced and {n_untraced} untraced calls; "
          f"{len(run.tracer.spans)} spans")
    details = {"metrics": layer_metrics, "missing": missing, "run_seeds": run.seeds,
               "spans": run.tracer.to_records(), "traced_op_ms": run.traced_op_ms,
               "untraced_op_ms": run.untraced_op_ms}
    return run.tally, layer_metrics, details


def _one(args) -> int:
    import environment

    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment.describe()
        print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
              f"size={args.size}")
        print(f"# env {json.dumps(env)}")
        tally, metrics, details = (_traced if args.trace else _timed)(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    correct = tally.failed == 0 and not tally.problems
    for why in tally.problems:
        print(f"# FAILED: {why}")
    result = {"workload": args.workload, "workload_seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env, "correct": correct,
              "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems,
              **details}
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    print(_final_line(correct, max(tally.attempted, 1), tally.failed, metrics))
    return 0 if correct else EXIT_FAILED_CHECK


def _all(args) -> int:
    work_dir = OUT / f"all-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    status = 0
    try:
        for w in spec.WORKLOADS:
            child = run_child(
                python_argv(str(HERE / "run.py"), "--workload", w.name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--size", args.size),
                work_dir, timeout_s=600.0)
            print(child.stdout, end="")
            if child.exit_code != 0:
                print(f"# {w.name}: exit {child.exit_code} {child.stderr.strip()}")
                status = EXIT_FAILED_CHECK
        print("# every workload passed its checks" if status == 0 else "# some checks FAILED")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(spec.render_benchmark_json())
        return 0
    if not (SRC / "jade" / "__init__.py").exists():
        print(f"error: no jade sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    OUT.mkdir(exist_ok=True)
    return _all(args) if args.all else _one(args)


if __name__ == "__main__":
    sys.exit(main())
