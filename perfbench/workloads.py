"""Timed end-to-end runs of each workload, with their correctness checks.

End-to-end runs only use the library's stable surface: ``scenario_from_dict``,
``run_pipeline``, ``monte_carlo`` (without ``jobs``) and the fields of
``RunReport``/``MonteCarloReport``. Stage functions and the ``jade`` CLI are
only called by the traced run (layers.py).
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from procs import SRC
from spec import ANGLE_TOL_DEG, SLOPE_TOL, TINY_TRIALS_PER_CALL, TRIALS_PER_CALL, Workload

sys.path.insert(0, str(SRC))
import jade  # noqa: E402

# A trial whose angle is off by more than this did not find the path at all;
# the beamwidth of the smallest array benchmarked (16 sensors) is about 7 deg.
MC_ANGLE_SANITY_DEG = 2.0

WARM_INDEX = 1_000_000_000


def derive_seed(workload_seed: int, index: int) -> int:
    """Scenario seed of run ``index``; the warm-up call uses ``WARM_INDEX``."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


def scenario(w: Workload, seed: int, size: str, **extra):
    return jade.scenario_from_dict({**w.scenario_overrides(size), **extra, "seed": seed})


def trials_per_call(size: str) -> int:
    return TINY_TRIALS_PER_CALL if size == "tiny" else TRIALS_PER_CALL


def cli_scenario_args(w: Workload, seed: int, size: str, **extra) -> List[str]:
    """CLI flags that select the same scenario as :func:`scenario`."""
    args = ["--seed", str(seed)]
    for key, value in {**w.scenario_overrides(size), **extra}.items():
        args += ["--set", f"{key}={value}"]
    return args


def first_call(w: Workload, workload_seed: int, size: str) -> None:
    """The cold call that ends set-up: one call of the workload's library entry point."""
    cfg = scenario(w, derive_seed(workload_seed, WARM_INDEX), size)
    if w.kind == "montecarlo":
        jade.monte_carlo(cfg, trials=trials_per_call(size))
    else:
        jade.run_pipeline(cfg)


def within_tolerance(angle_errors, slope_median, delays_true) -> List[bool]:
    return [
        abs(a) <= ANGLE_TOL_DEG and abs(s + d) <= SLOPE_TOL
        for a, s, d in zip(angle_errors, slope_median, delays_true)
    ]


@dataclass
class Tally:
    """Operations attempted and failed, and the estimates that succeeded."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    angle_errors: List[List[float]] = field(default_factory=list)
    delay_errors: List[List[float]] = field(default_factory=list)
    within: List[bool] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 10:
            self.problems.append(why)

    def estimates(self, angle_errors, delay_errors, within) -> None:
        self.angle_errors.append(list(angle_errors))
        self.delay_errors.append(list(delay_errors))
        self.within.extend(within)


def check_run_report(report, tally: Tally, noiseless: bool, label: str) -> None:
    """A noiseless run must land every path within the acceptance tolerances."""
    within = within_tolerance(report.angle_errors_deg, report.slope_median, report.delays_true)
    tally.estimates(report.angle_errors_deg, report.delay_errors, within)
    if noiseless and not (all(within) and report.estimate_valid):
        tally.fail(1, f"{label}: estimate outside tolerance: angle errors "
                      f"{report.angle_errors_deg}, slopes {report.slope_median}")


def check_monte_carlo(report, trials: int, tally: Tally, label: str) -> None:
    """Trial bookkeeping and aggregates of a monte_carlo report must agree."""
    tally.attempted += trials
    if report.num_trials != trials or len(report.trials) != trials:
        tally.fail(trials, f"{label}: {len(report.trials)} trial entries for {trials} trials")
        return
    ok = [t for t in report.trials if t["ok"]]
    for t in report.trials:
        if not t["ok"]:
            tally.fail(1, f"{label}: trial {t['trial']} (seed {t['seed']}) failed: {t['error']}")
    if report.num_failed != trials - len(ok):
        tally.fail(trials, f"{label}: num_failed {report.num_failed} disagrees with trials")
        return
    if not ok:
        return
    truth = sorted(zip(report.config["angles_deg"], report.config["delays"]))
    angles_true = np.array([a for a, _ in truth])
    delays_true = [d for _, d in truth]
    angle_err = np.array([t["angle_errors_deg"] for t in ok])
    est = np.array([t["angles_est_deg"] for t in ok])
    bad = ~np.isclose(est - angles_true, angle_err, rtol=0, atol=1e-9)
    bad |= np.abs(angle_err) > MC_ANGLE_SANITY_DEG
    bad |= ~np.isfinite(np.array([t["delay_errors"] for t in ok]))
    rmse = np.sqrt((angle_err**2).mean(axis=0))
    if not np.allclose(rmse, report.angle_rmse_deg, rtol=1e-9, atol=0):
        tally.fail(trials, f"{label}: angle_rmse_deg {report.angle_rmse_deg} != {rmse.tolist()}")
        return
    for t, row_bad in zip(ok, bad.any(axis=1)):
        if row_bad:
            tally.fail(1, f"{label}: trial {t['trial']} angles {t['angles_est_deg']} "
                          f"inconsistent or off by more than {MC_ANGLE_SANITY_DEG} deg")
        tally.estimates(t["angle_errors_deg"], t["delay_errors"],
                        within_tolerance(t["angle_errors_deg"], t["slope_median"], delays_true))


def parse_estimate_output(text: str) -> Dict[str, List[str]]:
    """Angles and delays printed by ``jade estimate``, as 4-decimal strings.

    Accepts the text lines the command prints and, should it print a JSON
    run report instead, that report.
    """
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    if isinstance(report, dict):
        keys = {"angles_deg": "angles_est_deg", "delay_median": "delay_median",
                "delay_mean": "delay_mean"}
        return {k: [f"{v:.4f}" for v in report.get(src, [])] for k, src in keys.items()}
    out = {}
    for line in text.splitlines():
        key, sep, rest = line.partition(":")
        if sep and key in ("angles_deg", "delay_median", "delay_mean"):
            out[key] = rest.split()
    return out


def expected_estimate_output(report) -> Dict[str, List[str]]:
    return {
        "angles_deg": [f"{v:.4f}" for v in report.angles_est_deg],
        "delay_median": [f"{v:.4f}" for v in report.delay_median],
        "delay_mean": [f"{v:.4f}" for v in report.delay_mean],
    }


@dataclass
class Timed:
    """Samples of one timed window."""

    run_ms: List[float] = field(default_factory=list)
    runs: int = 0
    elapsed_s: float = 0.0
    peak_rss_mb: float = 0.0


def closed_loop(seconds: float, op: Callable[[int], None]) -> float:
    """Call ``op(0)``, ``op(1)``, ... back to back until ``seconds`` have passed."""
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        op(index)
        index += 1
    return time.perf_counter() - start


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_timed(w: Workload, workload_seed: int, seconds: float, size: str):
    """Warm up, run the closed loop for ``seconds``, then check every output."""
    timed = Timed()
    tally = Tally()
    noiseless = float(w.scenario_overrides(size).get("noise_var", 0.0)) == 0.0
    trials = 1 if w.kind == "pipeline" else trials_per_call(size)
    seeds: List[int] = []
    outputs: List[object] = []
    first_call(w, workload_seed, size)

    def op(index: int) -> None:
        seed = derive_seed(workload_seed, index)
        cfg = scenario(w, seed, size)
        t0 = time.perf_counter()
        try:
            if w.kind == "pipeline":
                out = jade.run_pipeline(cfg)
            else:
                out = jade.monte_carlo(cfg, trials=trials)
        except jade.JadeError as exc:
            out = exc
        timed.run_ms.append((time.perf_counter() - t0) * 1e3 / trials)
        timed.runs += trials
        seeds.append(seed)
        outputs.append(out)

    timed.elapsed_s = closed_loop(seconds, op)
    timed.peak_rss_mb = self_peak_rss_mb()
    for seed, out in zip(seeds, outputs):
        label = f"seed {seed}"
        if isinstance(out, jade.JadeError):
            tally.attempted += trials
            tally.fail(trials, f"{label}: {out!r}")
        elif w.kind == "pipeline":
            tally.attempted += 1
            check_run_report(out, tally, noiseless, label)
        else:
            check_monte_carlo(out, trials, tally, label)
    return timed, tally, seeds


def percentile_with_tail(values: List[float], q: float) -> Optional[float]:
    """The q-quantile, or None unless at least ten samples lie beyond it."""
    if len(values) * (1.0 - q) < 10:
        return None
    return float(np.quantile(values, q))


def end_to_end_metrics(w: Workload, setup_s: List[float], timed: Timed, tally: Tally) -> dict:
    """Every end-to-end metric, gated or only reported, as {name: {value, unit, n}}."""
    def metric(value, unit, n, note=""):
        out = {"value": value, "unit": unit, "n": n}
        if note:
            out["note"] = note
        return out

    n_runs = len(timed.run_ms)
    metrics = {
        "setup_s": metric(float(np.median(setup_s)), "s", len(setup_s)),
        "runs_per_s": metric(timed.runs / timed.elapsed_s, "1/s", timed.runs),
        "run_ms_p50": metric(float(np.median(timed.run_ms)), "ms", n_runs),
        "peak_rss_mb": metric(timed.peak_rss_mb, "MB", 1),
    }
    p90 = percentile_with_tail(timed.run_ms, 0.9)
    metrics["run_ms_p90"] = metric(p90, "ms", n_runs,
                                   "" if p90 is not None else "fewer than ten runs beyond p90")
    if tally.angle_errors:
        angle_err = np.array(tally.angle_errors)
        delay_err = np.array(tally.delay_errors)
        angle_rmse = float(np.sqrt((angle_err**2).mean(axis=0)).max())
        delay_rmse = float(np.sqrt((delay_err**2).mean(axis=0)).max())
        within = float(np.mean(tally.within))
    else:
        angle_rmse = delay_rmse = within = math.nan
    n_est = len(tally.within)
    metrics["within_tol_frac"] = metric(within, "frac", n_est)
    metrics["angle_rmse_deg"] = metric(angle_rmse, "deg", len(tally.angle_errors), "worst path")
    metrics["delay_rmse"] = metric(delay_rmse, "samples", len(tally.delay_errors), "worst path")
    metrics["error_rate"] = metric(tally.failed / max(tally.attempted, 1), "frac", tally.attempted)
    return metrics
