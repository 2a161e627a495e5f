"""Command-line harness.

Subcommands
-----------
pulse : write the pulse waveform and spectrum as CSV.
simulate : synthesize snapshots and write them as a text dataset.
estimate : run the estimation chain on a dataset file, report as JSON.
run : full in-memory synthesis + estimation, report as JSON.
montecarlo : repeated seeded runs with bias/RMSE aggregates.

Exit codes: 0 on success, 2 on a configuration/validation error or a file that
cannot be opened, 3 on an estimation failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .exceptions import EstimationError, ValidationError
from .pulse import generate_pulse, omega_grid, spectrum
from .channel import load_dataset, save_dataset, synthesize
from .pipeline import (
    ScenarioConfig,
    estimate,
    monte_carlo,
    read_config,
    run_pipeline,
    scenario_from_dict,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ESTIMATION = 3

DUMP_HELP = "also write correlation.csv, roots.csv and fit_path<i>.csv to --out"


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_pulse_csvs(cfg: ScenarioConfig, out_dir: Path) -> None:
    wave = generate_pulse(cfg.pulse)
    g = spectrum(wave)
    # the pulse settings are checked by now, so a rejected one makes no directory
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "pulse_waveform.csv",
        ["t", "g"],
        zip(cfg.pulse.times, wave),
    )
    omega = omega_grid(len(g))
    order = np.argsort(omega)
    _write_csv(
        out_dir / "pulse_spectrum.csv",
        ["omega", "magnitude", "phase"],
        zip(omega[order], np.abs(g)[order], np.angle(g)[order]),
    )


def _write_dumps(art, out_dir: Path) -> None:
    """The stage CSVs: the two-sided correlation, the pencil's roots (one per
    path, in sin(angle) order) and each path's delay periodogram on its grid."""
    lags = np.arange(-(art.correlation.num_lags - 1), art.correlation.num_lags)
    values = art.correlation.two_sided()
    _write_csv(out_dir / "correlation.csv", ["lag", "re", "im", "abs", "phase"],
               zip(lags, values.real, values.imag, np.abs(values), np.angle(values)))
    roots = art.modes.roots
    _write_csv(out_dir / "roots.csv", ["re", "im", "modulus"],
               zip(roots.real, roots.imag, np.abs(roots)))
    for i, objective in enumerate(art.delays.objective):
        _write_csv(out_dir / f"fit_path{i + 1}.csv", ["tau", "objective"],
                   zip(art.delays.tau_grid, objective))


def _emit(args, text: str, filename: str) -> None:
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / filename).write_text(text + "\n")
        print(f"wrote {args.out / filename}")
    else:
        print(text)


def _emit_report(args, report, include_timing: bool = False) -> None:
    _emit(args, report.to_json(include_timing=include_timing), "report.json")
    if args.dump:
        _write_dumps(report.artifacts, args.out)
    print(f"elapsed: {report.timing_s:.3f} s", file=sys.stderr)


def _load_scenario(args) -> ScenarioConfig:
    """One key map, later sources winning: config file, ``--set``, flags."""
    raw = read_config(args.config) if args.config else {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        raw[key.strip()] = value.strip()
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.snapshots is not None:
        raw["snapshots"] = args.snapshots
    return scenario_from_dict(raw)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="scenario config file (key = value lines)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--snapshots", type=int, help="override the snapshot count")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any config key (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jade",
        description="Joint angle/delay estimation for fading multipath array data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pulse = sub.add_parser("pulse", help="write pulse waveform/spectrum CSVs")
    _add_common(p_pulse)
    p_pulse.add_argument("--out", type=Path, default=Path("."), help="output directory")

    p_sim = sub.add_parser("simulate", help="synthesize snapshots to a dataset file")
    _add_common(p_sim)
    p_sim.add_argument("--out", type=Path, default=Path("dataset.txt"), help="dataset path")

    p_est = sub.add_parser("estimate", help="estimate angles/delays from a dataset file")
    _add_common(p_est)
    p_est.add_argument("--data", type=Path, required=True, help="dataset file to read")
    p_est.add_argument("--out", type=Path, help="directory for report/dumps (default: stdout only)")
    p_est.add_argument("--dump", action="store_true", help=DUMP_HELP)

    p_run = sub.add_parser("run", help="synthesize + estimate in one go")
    _add_common(p_run)
    p_run.add_argument("--out", type=Path, help="directory for report/dumps (default: stdout only)")
    p_run.add_argument("--timing", action="store_true", help="include wall-clock timing in the report")
    p_run.add_argument("--dump", action="store_true", help=DUMP_HELP)

    p_mc = sub.add_parser("montecarlo", help="repeated seeded runs with aggregates")
    _add_common(p_mc)
    p_mc.add_argument("--trials", type=int, default=4, help="number of trials")
    p_mc.add_argument("--out", type=Path, help="directory for the report (default: stdout only)")

    return parser


def _cmd_pulse(args) -> int:
    # the pulse `jade run` transmits: its bits are drawn from the scenario seed
    cfg = _load_scenario(args).resolved()
    _write_pulse_csvs(cfg, args.out)
    print(f"wrote {args.out / 'pulse_waveform.csv'} and {args.out / 'pulse_spectrum.csv'}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _load_scenario(args).resolved()
    wave = generate_pulse(cfg.pulse)
    snaps = synthesize(
        wave, cfg.paths, cfg.array, cfg.fading, cfg.num_snapshots, cfg.noise_var, cfg.seed
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(snaps, args.out)
    print(
        f"wrote {args.out}: S={snaps.num_snapshots} M={snaps.num_sensors} "
        f"N={snaps.num_samples} seed={cfg.seed}"
    )
    return EXIT_OK


def _cmd_estimate(args) -> int:
    cfg = _load_scenario(args)
    cfg.resolved().pulse.validate()  # before parsing the dataset, which gives the array
    _emit_report(args, estimate(load_dataset(args.data), cfg))
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load_scenario(args)
    _emit_report(args, run_pipeline(cfg, keep_artifacts=args.dump), include_timing=args.timing)
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    cfg = _load_scenario(args)
    report = monte_carlo(cfg, trials=args.trials)
    _emit(args, report.to_json(), "montecarlo.json")
    if report.num_failed:
        print(f"{report.num_failed}/{report.num_trials} trials failed", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "pulse": _cmd_pulse,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "run": _cmd_run,
    "montecarlo": _cmd_montecarlo,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "dump", False) and args.out is None:
            raise ValidationError("--dump needs --out, the directory its CSVs go to")
        return _COMMANDS[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
