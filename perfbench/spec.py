"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 perfbench/run.py --write-benchmark-json``); the smoke test checks
that the two agree.

Every workload is one closed-loop client issuing calls serially from its own
process, with no thread pool and OpenBLAS at its default thread count. Each
run's scenario seed is derived from the workload seed given on the command
line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

RUN_SECONDS = 30

# Acceptance tolerances of the paper's reference case (see tests/test_acceptance.py).
ANGLE_TOL_DEG = 0.05
SLOPE_TOL = 0.15


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "pipeline" (run_pipeline calls) or "montecarlo" (monte_carlo calls)
    overrides: Dict[str, object]  # scenario_from_dict keys on top of the shipped defaults
    tiny: Dict[str, object]  # overrides used by ``--size tiny`` (smoke test)

    def scenario_overrides(self, size: str) -> Dict[str, object]:
        sized = {**self.overrides, **self.tiny} if size == "tiny" else self.overrides
        return {"bits_seed": PULSE_BITS_SEED, **sized}


# Every run transmits the shipped scenario's pulse (bit seed 1, a 64-bin band):
# the pulse is the known waveform, and monte_carlo keeps it fixed across trials
# too. Drawing it per run would make run cost bimodal, because about a third of
# bit draws split the band into some 28 bins.
PULSE_BITS_SEED = 1


WORKLOADS = [
    Workload(
        name="paper_default",
        why="the paper's reference case (M=64, S=200, two Rayleigh paths, noiseless); "
        "synthesis, correlation and beamforming dominate and both arrays fit in the LLC",
        kind="pipeline",
        overrides={},
        tiny={"sensors": 32, "snapshots": 40},
    ),
    Workload(
        name="mc_small_noisy",
        why="monte_carlo at M=16, S=50, noise_var=1: per-trial fixed costs dominate and "
        "it is the only workload with real estimation error",
        kind="montecarlo",
        overrides={"sensors": 16, "snapshots": 50, "noise_var": 1.0},
        tiny={},
    ),
]

# Snapshots in the dataset and CLI probe of a traced run on a workload that
# does not use those layers itself.
IO_PROBE_SNAPSHOTS = 8
# Set-up is measured this many times per run, in fresh processes; the median is reported.
SETUP_REPEATS = 5
# Trials per monte_carlo call of the montecarlo workload (2 at the tiny size).
TRIALS_PER_CALL = 20
TINY_TRIALS_PER_CALL = 2


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    note: str = ""


# End-to-end metrics with a regression bound in BENCHMARK.json. Each is reported
# on every workload and is never 0 for a working program.
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25,
           "median over fresh processes of interpreter start, import, scenario "
           "resolution and the first cold call"),
    Metric("runs_per_s", "1/s", "higher", 0.25,
           "completed runs (run_pipeline calls, trials or round trips) per second"),
    Metric("run_ms_p50", "ms", "lower", 0.25, "median wall time of one run"),
    Metric("peak_rss_mb", "MB", "lower", 0.05, "peak resident set of the workload's process"),
]

# Printed with the sample count and written to the result file on every timed
# run, but without a bound: each is either 0, undefined on some workload, or
# varies across seeds by more than the largest bound allowed (0.25).
REPORTED = [
    Metric("run_ms_p90", "ms", "lower", note="only where at least ten runs lie beyond it"),
    Metric("within_tol_frac", "frac", "higher",
           note=f"(run, path) estimates within +-{ANGLE_TOL_DEG} deg and +-{SLOPE_TOL} slope"),
    Metric("angle_rmse_deg", "deg", "lower", note="worst path"),
    Metric("delay_rmse", "samples", "lower", note="worst path"),
    Metric("error_rate", "frac", "lower", note="failed operations over attempted ones"),
]

# Public library functions the traced run calls or wraps, and the span (layer)
# each call is recorded under.
LAYER_CALLS = {
    "generate_pulse": "pulse.generate_pulse",
    "spectrum": "pulse.spectrum",
    "synthesize": "channel.synthesize",
    "save_dataset": "channel.save_dataset",
    "load_dataset": "channel.load_dataset",
    "select_band": "correlation.select_band",
    "estimate_correlation": "correlation.estimate_correlation",
    "svd_prony": "prony.svd_prony",
    "beamform": "delay.beamform",
    "fit_delay": "delay.fit_delay",
}

# Per-layer metrics from the traced run (``--trace 1``), named module.quantity
# after the modules of src/jade. Work counts and bytes marked "computed" come
# from array shapes, not from counters.
PER_LAYER = [
    Metric("pulse.generate_pulse_ms", "ms", "lower"),
    Metric("pulse.spectrum_ms", "ms", "lower"),
    Metric("channel.synthesize_ms", "ms", "lower"),
    Metric("channel.snapshot_mb", "MB", "lower",
           note="computed: summed nbytes of the array fields synthesize returns"),
    Metric("channel.save_dataset_ms", "ms", "lower"),
    Metric("channel.load_dataset_ms", "ms", "lower"),
    Metric("channel.dataset_mb", "MB", "lower", note="size of the written dataset file"),
    Metric("channel.save_mb_per_s", "MB/s", "higher"),
    Metric("channel.load_mb_per_s", "MB/s", "higher"),
    Metric("correlation.select_band_ms", "ms", "lower"),
    Metric("correlation.estimate_correlation_ms", "ms", "lower"),
    Metric("correlation.gram_gflop", "GFLOP", "lower", note="computed: 8*S*B*M^2"),
    Metric("correlation.gram_flop_per_byte", "flop/B", "higher",
           note="computed: gram flops over the 16*S*B*M bytes of band spectra read"),
    Metric("prony.svd_prony_ms", "ms", "lower"),
    Metric("prony.svd_gflop", "GFLOP", "lower",
           note="computed: 4*(6*m*n^2 + 20*n^3) for the thin complex SVD of the "
           "m x n prediction matrix"),
    Metric("prony.valid_frac", "frac", "higher"),
    Metric("delay.beamform_ms", "ms", "lower"),
    Metric("delay.beamform_gflop", "GFLOP", "lower", note="computed: 8*S*L*M*N"),
    Metric("delay.beamform_flop_per_byte", "flop/B", "higher",
           note="computed: beamform flops over the 16*S*M*N bytes of spectra read"),
    Metric("delay.fit_delay_ms", "ms", "lower"),
    Metric("delay.reliable_fit_frac", "frac", "higher"),
    Metric("pipeline.run_pipeline_ms", "ms", "lower"),
    Metric("pipeline.self_ms", "ms", "lower",
           note="run_pipeline minus its summed stage calls on the same config and seed"),
    Metric("pipeline.trial_ms", "ms", "lower"),
    Metric("pipeline.failed_trials", "count", "lower"),
    Metric("cli.startup_s", "s", "lower", note='python -c "import jade"'),
    Metric("cli.self_s", "s", "lower",
           note="CLI process wall time minus startup and the in-process library spans"),
    Metric("trace.overhead_ms", "ms", "lower",
           note="traced minus untraced run_ms_p50 of the workload's own call"),
]


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; one of {[w.name for w in WORKLOADS]}")


def render_benchmark_json() -> str:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
    return json.dumps(spec, indent=2) + "\n"
