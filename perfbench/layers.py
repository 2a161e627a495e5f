"""Traced run: per-layer numbers from spans around each public call.

Each iteration replays one workload run stage by stage from outside the
library (pulse, channel, correlation, prony, delay), calls ``run_pipeline``
on the same config and seed, then makes the workload's own call. That call
is traced on even iterations and only clocked on odd ones; the difference of
the two medians is the tracing overhead.

Layers the workload does not use itself are measured once per run on a
small probe of the same scenario: Monte Carlo trials, and ``jade simulate``
then ``jade estimate`` run under traced_cli.py, which records the dataset
I/O and stage calls inside those processes.

A stage that no longer exists, or no longer accepts the arguments it is
given here, is reported as missing; the run goes on without it.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from procs import python_argv, run_child
from spec import IO_PROBE_SNAPSHOTS, LAYER_CALLS, PER_LAYER, Workload
from tracer import Tracer
from workloads import (
    Tally,
    check_monte_carlo,
    check_run_report,
    cli_scenario_args,
    derive_seed,
    expected_estimate_output,
    first_call,
    jade,
    parse_estimate_output,
    scenario,
    trials_per_call,
)

MISSING = object()

STAGES = ["generate_pulse", "spectrum", "synthesize", "select_band", "estimate_correlation",
          "svd_prony", "beamform", "fit_delay"]
STARTUP_REPEATS = 3
TRACED_CLI = str(Path(__file__).resolve().parent / "traced_cli.py")


def _binds(fn, args) -> bool:
    try:
        inspect.signature(fn).bind(*args)
    except (TypeError, ValueError):
        return False
    return True


def _field(obj, name: str):
    return MISSING if obj is MISSING else getattr(obj, name, MISSING)


def _array_mb(obj) -> object:
    """Summed nbytes of an object's array attributes, whatever they are called."""
    if obj is MISSING:
        return MISSING
    if dataclasses.is_dataclass(obj):
        values = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        values = list(vars(obj).values())
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray)) / 1e6


def _median(values) -> object:
    values = [v for v in values if v is not MISSING]
    return float(np.median(values)) if values else MISSING


class Calls:
    """Calls library functions by name, each inside the span of its layer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def __call__(self, run_id: str, fn_name: str, *args):
        fn = getattr(jade, fn_name, None)
        if fn is None or any(a is MISSING for a in args) or not _binds(fn, args):
            return MISSING
        with self.tracer.span(LAYER_CALLS[fn_name], run_id):
            return fn(*args)


def stage_chain(calls: Calls, cfg, run_id: str) -> dict:
    """Run the estimation chain stage by stage and keep only small results.

    The snapshot arrays are freed on return, before ``run_pipeline`` runs.
    """
    resolve = getattr(cfg, "resolved", None)
    cfg = resolve() if resolve is not None else cfg
    wave = calls(run_id, "generate_pulse", _field(cfg, "pulse"))
    pulse_spec = calls(run_id, "spectrum", wave, _field(cfg, "band_threshold"))
    snaps = calls(run_id, "synthesize", wave, _field(cfg, "paths"), _field(cfg, "array"),
                  _field(cfg, "fading"), _field(cfg, "num_snapshots"), _field(cfg, "noise_var"),
                  _field(cfg, "seed"))
    band = calls(run_id, "select_band", pulse_spec, _field(cfg, "band_threshold"))
    corr = calls(run_id, "estimate_correlation", snaps, band)
    modes = calls(run_id, "svd_prony", corr, _field(cfg, "prony"))
    beams = calls(run_id, "beamform", snaps, _field(modes, "sines"))
    delays = calls(run_id, "fit_delay", beams, pulse_spec, band, _field(cfg, "weighted_fit"))
    return {
        "snapshot_mb": _array_mb(snaps),
        "S": _field(cfg, "num_snapshots"),
        "M": _field(_field(cfg, "array"), "num_sensors"),
        "N": MISSING if wave is MISSING else len(wave),
        "L": MISSING if _field(cfg, "paths") is MISSING else len(cfg.paths),
        "B": MISSING if band is MISSING else len(band),
        "svd_n": MISSING if modes is MISSING else len(modes.singular_values),
        "fb": _field(_field(cfg, "prony"), "forward_backward"),
        "angles_deg": _field(modes, "angles_deg"),
        "valid": _field(modes, "valid"),
        "delay_median": _field(delays, "delay_median"),
        "reliable": _field(delays, "reliable"),
    }


def work_counts(c: dict) -> dict:
    """Computed flops and flops per byte of the Gram, SVD and beamforming kernels."""
    out = dict.fromkeys(["correlation.gram_gflop", "correlation.gram_flop_per_byte",
                         "prony.svd_gflop", "delay.beamform_gflop",
                         "delay.beamform_flop_per_byte"], MISSING)
    if all(c[k] is not MISSING for k in ("S", "M", "N", "L", "B")):
        s, m, n, paths, b = c["S"], c["M"], c["N"], c["L"], c["B"]
        out["correlation.gram_gflop"] = 8.0 * s * b * m**2 / 1e9
        out["correlation.gram_flop_per_byte"] = 8.0 * s * b * m**2 / (16.0 * s * b * m)
        out["delay.beamform_gflop"] = 8.0 * s * paths * m * n / 1e9
        out["delay.beamform_flop_per_byte"] = 8.0 * s * paths * m * n / (16.0 * s * m * n)
    if all(c[k] is not MISSING for k in ("svd_n", "M", "fb")):
        cols = c["svd_n"]
        rows = (2 * c["M"] - 1 - cols) * (2 if c["fb"] else 1)
        out["prony.svd_gflop"] = 4.0 * (6.0 * rows * cols**2 + 20.0 * cols**3) / 1e9
    return out


class TracedRun:
    def __init__(self, w: Workload, workload_seed: int, size: str, work_dir: Path) -> None:
        self.w = w
        self.workload_seed = workload_seed
        self.size = size
        self.work_dir = work_dir
        self.data = work_dir / "dataset.txt"
        self.spans_file = work_dir / "spans.json"
        self.tracer = Tracer()
        self.calls = Calls(self.tracer)
        self.tally = Tally()
        self.chains: Dict[str, dict] = {}
        self.seeds: List[int] = []
        self.traced_op_ms: List[float] = []
        self.untraced_op_ms: List[float] = []
        self.trial_ms: List[float] = []
        self.failed_trials = 0
        self.dataset_mb: List[float] = []

    # -- the workload's own call ------------------------------------------------

    def monte_carlo(self, cfg, trials: int, run_id: str, traced: bool) -> float:
        t0 = time.perf_counter()
        if traced:
            with self.tracer.span("pipeline.monte_carlo", run_id) as sp:
                report = jade.monte_carlo(cfg, trials=trials)
            self.trial_ms.append(sp.seconds * 1e3 / trials)
            self.failed_trials += report.num_failed
        else:
            report = jade.monte_carlo(cfg, trials=trials)
        elapsed = time.perf_counter() - t0
        check_monte_carlo(report, trials, self.tally, run_id)
        return elapsed

    def _traced_child(self, span: str, cli_id: str, cli_args: List[str]):
        parent = len(self.tracer.spans)
        with self.tracer.span(span, cli_id):
            done = run_child(python_argv(TRACED_CLI, str(self.spans_file), cli_id, *cli_args),
                             self.work_dir)
        if self.spans_file.exists():
            self.tracer.adopt(json.loads(self.spans_file.read_text()), parent)
            self.spans_file.unlink()
        return done

    def cli_round_trip(self, seed: int, run_id: str, report, **extra) -> None:
        """``jade simulate`` then ``jade estimate``; the estimate must match ``report``."""
        args = cli_scenario_args(self.w, seed, self.size, **extra)
        cli_id = f"{run_id}/cli"
        sim = self._traced_child("cli.simulate", cli_id, ["simulate", *args, "--out", str(self.data)])
        if self.data.exists():
            self.dataset_mb.append(self.data.stat().st_size / 1e6)
        est = None
        if sim.exit_code == 0:
            est = self._traced_child("cli.estimate", cli_id,
                                     ["estimate", *args, "--data", str(self.data)])
        self.tally.attempted += 1
        if est is None or est.exit_code != 0:
            failed = est or sim
            self.tally.fail(1, f"{run_id}: CLI exited {failed.exit_code}: {failed.stderr.strip()}")
        elif parse_estimate_output(est.stdout) != expected_estimate_output(report):
            self.tally.fail(1, f"{run_id}: jade estimate disagrees with run_pipeline")

    # -- one iteration ----------------------------------------------------------

    def iteration(self, index: int) -> None:
        seed = derive_seed(self.workload_seed, index)
        self.seeds.append(seed)
        run_id = f"run{index}"
        cfg = scenario(self.w, seed, self.size)
        traced = index % 2 == 0
        self.tally.attempted += 1
        with self.tracer.span("iteration", run_id):
            # Alternate which of the two goes first, so that neither always runs
            # on the allocator and cache state the other left behind.
            if traced:
                chain = stage_chain(self.calls, cfg, run_id)
            with self.tracer.span("pipeline.run_pipeline", run_id) as sp:
                report = jade.run_pipeline(cfg)
            if not traced:
                chain = stage_chain(self.calls, cfg, run_id)
            self.chains[run_id] = chain
            self._check_chain(chain, report, run_id)
            if self.w.kind == "pipeline":
                self.traced_op_ms.append(sp.seconds * 1e3)
                if not traced:
                    t0 = time.perf_counter()
                    jade.run_pipeline(cfg)
                    self.untraced_op_ms.append((time.perf_counter() - t0) * 1e3)
            else:
                trials = trials_per_call(self.size)
                elapsed = self.monte_carlo(cfg, trials, run_id, traced)
                (self.traced_op_ms if traced else self.untraced_op_ms).append(elapsed * 1e3 / trials)

    def _check_chain(self, chain: dict, report, run_id: str) -> None:
        noiseless = float(self.w.scenario_overrides(self.size).get("noise_var", 0.0)) == 0.0
        check_run_report(report, self.tally, noiseless, run_id)
        if chain["angles_deg"] is MISSING or chain["delay_median"] is MISSING:
            return
        same = np.allclose(chain["angles_deg"], report.angles_est_deg, rtol=0, atol=1e-9)
        same &= np.allclose(chain["delay_median"], report.delay_median, rtol=0, atol=1e-9)
        if not same:
            self.tally.fail(1, f"{run_id}: stage-by-stage estimates differ from run_pipeline")

    # -- probes of layers the workload does not use -----------------------------

    def probes(self) -> None:
        for _ in range(STARTUP_REPEATS):
            with self.tracer.span("cli.startup", "startup"):
                done = run_child(python_argv("-c", "import jade"), self.work_dir)
            if done.exit_code != 0:
                self.tally.fail(1, f"import jade exited {done.exit_code}: {done.stderr.strip()}")
        seed = derive_seed(self.workload_seed, 0)
        if self.w.kind != "montecarlo":
            self.monte_carlo(scenario(self.w, seed, self.size), 1, "trial-probe", traced=True)
        report = jade.run_pipeline(scenario(self.w, seed, self.size, snapshots=IO_PROBE_SNAPSHOTS))
        self.cli_round_trip(seed, "io-probe", report, snapshots=IO_PROBE_SNAPSHOTS)

    def run(self, seconds: float) -> None:
        first_call(self.w, self.workload_seed, self.size)
        start = time.perf_counter()
        index = 0
        while index < 2 or time.perf_counter() - start < seconds:
            try:
                self.iteration(index)
            except jade.JadeError as exc:
                self.tally.fail(1, f"run{index}: {exc!r}")
            index += 1
        self.probes()
        self.data.unlink(missing_ok=True)

    # -- metrics ----------------------------------------------------------------

    def metrics(self) -> dict:
        main = list(self.chains)
        chains = list(self.chains.values())
        values: Dict[str, object] = {}
        for fn_name in STAGES:
            values[f"{LAYER_CALLS[fn_name]}_ms"] = _median(
                [s.seconds * 1e3 for s in self.tracer.by_name(LAYER_CALLS[fn_name]) if s.run_id in main])
        # Dataset I/O only happens inside the CLI processes.
        for fn_name in ("save_dataset", "load_dataset"):
            values[f"{LAYER_CALLS[fn_name]}_ms"] = _median(
                [s.seconds * 1e3 for s in self.tracer.by_name(LAYER_CALLS[fn_name])])
        values["channel.snapshot_mb"] = _median([c["snapshot_mb"] for c in chains])
        values["channel.dataset_mb"] = _median(self.dataset_mb)
        for op in ("save", "load"):
            ms, mb = values[f"channel.{op}_dataset_ms"], values["channel.dataset_mb"]
            values[f"channel.{op}_mb_per_s"] = MISSING if MISSING in (ms, mb) else mb / (ms / 1e3)
        if chains:
            values.update(work_counts(chains[0]))
        valid = [c["valid"] for c in chains if c["valid"] is not MISSING]
        values["prony.valid_frac"] = float(np.mean(valid)) if valid else MISSING
        reliable = [np.ravel(c["reliable"]) for c in chains if c["reliable"] is not MISSING]
        values["delay.reliable_fit_frac"] = float(np.mean(np.concatenate(reliable))) if reliable else MISSING
        values["pipeline.run_pipeline_ms"] = _median(
            [s.seconds * 1e3 for s in self.tracer.by_name("pipeline.run_pipeline")])
        values["pipeline.self_ms"] = _median([self._pipeline_self_ms(r) for r in main])
        values["pipeline.trial_ms"] = _median(self.trial_ms)
        values["pipeline.failed_trials"] = self.failed_trials
        startup = _median([s.seconds for s in self.tracer.by_name("cli.startup")])
        values["cli.startup_s"] = startup
        values["cli.self_s"] = self._cli_self_s(startup)
        values["trace.overhead_ms"] = (
            float(np.median(self.traced_op_ms) - np.median(self.untraced_op_ms))
            if self.traced_op_ms and self.untraced_op_ms else MISSING
        )
        return {m.name: {"value": values.get(m.name, MISSING), "unit": m.unit} for m in PER_LAYER}

    def _pipeline_self_ms(self, run_id: str) -> object:
        stages = [self.tracer.by_name(LAYER_CALLS[fn_name], run_id) for fn_name in STAGES]
        if not all(stages):
            return MISSING
        whole = self.tracer.by_name("pipeline.run_pipeline", run_id)[0].seconds
        return (whole - sum(s[0].seconds for s in stages)) * 1e3

    def _cli_self_s(self, startup) -> object:
        """Median over round trips of CLI wall time minus startups and library spans."""
        if startup is MISSING:
            return MISSING
        own = self.tracer.self_seconds()
        per_trip: Dict[str, float] = {}
        for i, s in enumerate(self.tracer.spans):
            if s.name in ("cli.simulate", "cli.estimate"):
                per_trip[s.run_id] = per_trip.get(s.run_id, 0.0) + own[i] - startup
        return _median(list(per_trip.values()))
