"""End-to-end scenario configuration, orchestration and reporting.

A scenario bundles every knob of the synthesis + estimation chain. The
shipped defaults describe the reference simulation this package is built
around: a 64-sensor half-wavelength array observing two Rayleigh-faded
paths (-10 and 20 degrees, delays 3 and 7 samples) of a keyed
raised-cosine pulse with rolloff 0.35 and carrier 0.25 cycles per symbol,
sampled over 32 symbols at 4 samples per symbol, noiseless, 200 snapshots.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from . import __version__
from .exceptions import EstimationError, ValidationError
from .pulse import PulseConfig, SampledWaveform, Spectrum, generate_pulse, spectrum
from .channel import ArrayConfig, FadingModel, PathParam, SnapshotSet, synthesize
from .correlation import CorrelationSequence, estimate_correlation, select_band
from .prony import ModeEstimate, PronyConfig, svd_prony
from .delay import DelayEstimate, beamform, fit_delay

__all__ = [
    "ScenarioConfig",
    "RunReport",
    "MonteCarloReport",
    "default_scenario",
    "estimate",
    "run_pipeline",
    "monte_carlo",
    "load_config",
    "read_config",
    "scenario_from_dict",
]

CONFIG_SCHEMA = 1
REPORT_SCHEMA = "jade-report/1"
# Fading parameters and the kinds that use them; any other kind rejects them.
FADING_KEYS = {"beta_re": ("deterministic",), "beta_im": ("deterministic",),
               "sigma": ("rayleigh", "rician", "suzuki"), "nu": ("rician",),
               "mean_db": ("suzuki",), "std_db": ("suzuki",)}
# Config keys a run on given snapshots reads; the others describe their synthesis.
ESTIMATE_KEYS = ("schema", "rolloff", "carrier_freq", "symbols", "oversample", "bits",
                 "bits_seed", "sensors", "spacing", "snapshots", "band_threshold",
                 "forward_backward", "weighted_fit", "prediction_order", "rank", "seed")


@dataclass
class PipelineArtifacts:
    """Stage outputs the ``--dump-*`` CSVs read; never serialized."""

    pulse_spec: Spectrum
    correlation: CorrelationSequence
    modes: ModeEstimate
    delays: DelayEstimate


@dataclass
class ScenarioConfig:
    """Complete synthesis + estimation scenario; :func:`scenario_from_dict` has the defaults."""

    pulse: PulseConfig
    array: ArrayConfig
    paths: List[PathParam]
    fading: FadingModel
    num_snapshots: int
    noise_var: float
    band_threshold: float
    prony: Optional[PronyConfig]
    weighted_fit: bool
    seed: int

    def validate(self) -> None:
        self.pulse.validate()
        self.array.validate()
        if len(self.paths) == 0:
            raise ValidationError("scenario must define at least one path")
        for p in self.paths:
            p.validate(num_samples=self.pulse.num_samples)
        self.fading.validate()
        if self.num_snapshots < 1:
            raise ValidationError(f"snapshots must be >= 1, got {self.num_snapshots}")
        if not (np.isfinite(self.noise_var) and self.noise_var >= 0):
            raise ValidationError(f"noise_var must be finite and >= 0, got {self.noise_var}")
        if not 0.0 <= self.band_threshold < 1.0:
            raise ValidationError(
                f"band_threshold must be in [0, 1), got {self.band_threshold}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.prony is not None and self.prony.num_modes != len(self.paths):
            raise ValidationError(
                f"prony.num_modes ({self.prony.num_modes}) must equal the "
                f"number of paths ({len(self.paths)})"
            )

    def resolved(self) -> "ScenarioConfig":
        """Fill derived defaults (prony config, pulse bit seed)."""
        self.validate()
        prony = self.prony or PronyConfig(num_modes=len(self.paths))
        pulse = self.pulse
        if pulse.bits is None and pulse.bits_seed is None:
            pulse = replace(pulse, bits_seed=self.seed)
        return replace(self, pulse=pulse, prony=prony)

    def to_dict(self) -> dict:
        """Flat key/value echo; feeding it back rebuilds this scenario."""
        cfg = self.resolved()
        out = {
            "schema": CONFIG_SCHEMA,
            "rolloff": cfg.pulse.rolloff,
            "carrier_freq": cfg.pulse.carrier_freq,
            "symbols": cfg.pulse.symbol_count,
            "oversample": cfg.pulse.oversample,
            "sensors": cfg.array.num_sensors,
            "spacing": cfg.array.spacing,
            "angles_deg": [p.angle_deg for p in cfg.paths],
            "delays": [p.delay for p in cfg.paths],
            "fading": cfg.fading.kind,
            "snapshots": cfg.num_snapshots,
            "noise_var": cfg.noise_var,
            "band_threshold": cfg.band_threshold,
            "forward_backward": cfg.prony.forward_backward,
            "weighted_fit": cfg.weighted_fit,
            "seed": cfg.seed,
        }
        if cfg.pulse.bits is not None:
            out["bits"] = "".join(str(int(b)) for b in np.asarray(cfg.pulse.bits))
        else:
            out["bits_seed"] = cfg.pulse.bits_seed
        fm = cfg.fading
        params = {"beta_re": fm.beta.real, "beta_im": fm.beta.imag, "sigma": fm.sigma,
                  "nu": fm.nu, "mean_db": fm.mean_db, "std_db": fm.std_db}
        out.update((k, v) for k, v in params.items() if fm.kind in FADING_KEYS[k])
        if cfg.prony.prediction_order is not None:
            out["prediction_order"] = cfg.prony.prediction_order
        if cfg.prony.rank is not None:
            out["rank"] = cfg.prony.rank
        return out


def default_scenario() -> ScenarioConfig:
    """The shipped two-path Rayleigh reference scenario."""
    return scenario_from_dict({})


_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUTHY:
        return True
    if low in _FALSY:
        return False
    raise ValidationError(f"{key}: expected a boolean, got {raw!r}")


def _number(raw: dict, key: str, kind, default=None):
    """``kind(raw[key])`` (int or float), or ``default`` when the key is absent."""
    if key not in raw:
        return default
    try:
        return kind(raw[key])
    except (TypeError, ValueError) as exc:
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"{key}: expected {what}, got {raw[key]!r}") from exc


def _parse_float_list(key: str, raw) -> List[float]:
    if isinstance(raw, (list, tuple)):
        return [float(v) for v in raw]
    try:
        return [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"{key}: expected comma-separated numbers, got {raw!r}") from exc


_KNOWN_KEYS = {
    "schema", "rolloff", "carrier_freq", "symbols", "oversample", "bits", "bits_seed",
    "sensors", "spacing", "angles_deg", "delays", "fading", "sigma", "nu",
    "mean_db", "std_db", "beta_re", "beta_im", "snapshots", "noise_var",
    "band_threshold", "prediction_order", "rank", "forward_backward", "weighted_fit",
    "seed",
}


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Build a scenario from a flat key/value mapping (config file or echo).

    Every key is optional; the shipped defaults are stated here only.
    """
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    if "schema" in raw and _number(raw, "schema", int) != CONFIG_SCHEMA:
        raise ValidationError(
            f"unsupported config schema {raw['schema']} (expected {CONFIG_SCHEMA})"
        )

    bits = None
    if "bits" in raw:
        bit_str = str(raw["bits"]).strip()
        if set(bit_str) - {"0", "1"}:
            raise ValidationError(f"bits must be a 0/1 string, got {raw['bits']!r}")
        bits = [int(ch) for ch in bit_str]
    pulse = PulseConfig(
        rolloff=_number(raw, "rolloff", float, 0.35),
        carrier_freq=_number(raw, "carrier_freq", float, 0.25),
        symbol_count=_number(raw, "symbols", int, 32),
        oversample=_number(raw, "oversample", int, 4),
        bits=bits,
        bits_seed=_number(raw, "bits_seed", int),
    )
    array = ArrayConfig(
        num_sensors=_number(raw, "sensors", int, 64), spacing=_number(raw, "spacing", float, 0.5)
    )
    angles = _parse_float_list("angles_deg", raw.get("angles_deg", [-10.0, 20.0]))
    delays = _parse_float_list("delays", raw.get("delays", [3.0, 7.0]))
    if len(angles) != len(delays):
        raise ValidationError(
            f"angles_deg ({len(angles)}) and delays ({len(delays)}) differ in length"
        )
    paths = [PathParam(angle_deg=a, delay=d) for a, d in zip(angles, delays)]

    kind = str(raw.get("fading", "rayleigh")).strip().lower()
    if kind not in FadingModel._KINDS:
        raise ValidationError(f"unknown fading kind {kind!r}")
    for key, kinds in FADING_KEYS.items():
        if key in raw and kind not in kinds:
            raise ValidationError(f"{key} is not a parameter of {kind} fading")
    fading = FadingModel(
        kind=kind,
        beta=complex(_number(raw, "beta_re", float, 1.0), _number(raw, "beta_im", float, 0.0)),
        sigma=_number(raw, "sigma", float, 1.0),
        nu=_number(raw, "nu", float, 0.0),
        mean_db=_number(raw, "mean_db", float, 0.0),
        std_db=_number(raw, "std_db", float, 6.0 if kind == "suzuki" else 0.0),
    )

    prony = None
    if any(k in raw for k in ("prediction_order", "rank", "forward_backward")):
        fb = raw.get("forward_backward", False)
        prony = PronyConfig(
            num_modes=len(paths),
            prediction_order=_number(raw, "prediction_order", int),
            rank=_number(raw, "rank", int),
            forward_backward=fb if isinstance(fb, bool) else _parse_bool("forward_backward", fb),
        )

    weighted = raw.get("weighted_fit", False)
    return ScenarioConfig(
        pulse=pulse,
        array=array,
        paths=paths,
        fading=fading,
        num_snapshots=_number(raw, "snapshots", int, 200),
        noise_var=_number(raw, "noise_var", float, 0.0),
        band_threshold=_number(raw, "band_threshold", float, 0.1),
        prony=prony,
        weighted_fit=weighted if isinstance(weighted, bool) else _parse_bool("weighted_fit", weighted),
        seed=_number(raw, "seed", int, 1),
    )


def read_config(path) -> dict:
    """The raw keys of a flat ``key = value`` config file (# starts a comment)."""
    raw: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            raw[key.strip()] = value.strip()
    return raw


def load_config(path) -> ScenarioConfig:
    """The scenario of a flat ``key = value`` config file."""
    return scenario_from_dict(read_config(path))


@dataclass
class RunReport:
    """Everything a single pipeline run produced.

    The truth and error fields are filled in by :func:`run_pipeline` and
    stay ``None`` (and out of the JSON) for a report of :func:`estimate`
    alone. ``to_json`` omits the wall-clock timing by default so that
    reports are byte-identical across reruns of the same seed and config;
    pass ``include_timing=True`` to keep it.
    """

    config: dict
    seed: int
    sines_est: List[float]
    angles_est_deg: List[float]
    amplitudes: List[float]
    singular_values: List[float]
    estimate_valid: bool
    clamped: bool
    band_start: int
    band_stop: int
    slope_per_snapshot: np.ndarray
    slope_median: List[float]
    slope_mean: List[float]
    delay_median: List[float]
    delay_mean: List[float]
    rsq_median: List[float]
    unreliable_fits: int
    angles_true_deg: Optional[List[float]] = None
    delays_true: Optional[List[float]] = None
    angle_errors_deg: Optional[List[float]] = None
    delay_errors: Optional[List[float]] = None
    timing_s: float = 0.0
    version: str = __version__
    artifacts: Optional[PipelineArtifacts] = None

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {"schema": REPORT_SCHEMA, "version": self.version, "seed": self.seed,
               "config": self.config}
        for key in (
            "sines_est", "angles_est_deg", "amplitudes", "singular_values",
            "estimate_valid", "clamped", "band_start", "band_stop",
            "angles_true_deg", "delays_true", "angle_errors_deg", "delay_errors",
            "slope_median", "slope_mean", "delay_median", "delay_mean",
            "rsq_median", "unreliable_fits", "slope_per_snapshot",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value.tolist() if isinstance(value, np.ndarray) else value
        if include_timing:
            out["timing_s"] = self.timing_s
        return out

    def to_json(self, include_timing: bool = False, indent: int = 2) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), indent=indent)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EstimationError:
        raise
    except Exception as exc:
        raise EstimationError(name, str(exc)) from exc


def estimate(snaps: SnapshotSet, pulse_wave: SampledWaveform, cfg: ScenarioConfig) -> RunReport:
    """Estimate angles and delays from ``snaps`` for the known pulse ``pulse_wave``.

    Stages: pulse spectrum, band selection, spatial correlation, SVD Prony
    (angles), beamforming, phase slope fit (delays). ``cfg`` must be
    resolved; only its estimation settings are read, and only those (the
    ``ESTIMATE_KEYS``, with the array and snapshot count of ``snaps``) are
    echoed. Any stage failure is reported with the stage name. The report
    carries no truth fields and keeps the stage outputs in ``artifacts``.
    """
    started = time.perf_counter()
    pulse_spec = _stage("spectrum", spectrum, pulse_wave)
    band = _stage("select_band", select_band, pulse_spec, cfg.band_threshold)
    corr = _stage("correlation", estimate_correlation, snaps, band)
    modes = _stage("prony", svd_prony, corr, cfg.prony)
    beams = _stage("beamform", beamform, snaps, modes.sines)
    delays = _stage("fit_delay", fit_delay, beams, pulse_spec, band, cfg.weighted_fit)
    echo = dict(cfg.to_dict(), sensors=snaps.num_sensors, spacing=snaps.array.spacing,
                snapshots=snaps.num_snapshots)
    return RunReport(
        config={k: v for k, v in echo.items() if k in ESTIMATE_KEYS},
        seed=cfg.seed,
        sines_est=modes.sines.tolist(),
        angles_est_deg=modes.angles_deg.tolist(),
        amplitudes=modes.amplitudes.tolist(),
        singular_values=modes.singular_values.tolist(),
        estimate_valid=bool(modes.valid),
        clamped=bool(modes.clamped),
        band_start=band[0],
        band_stop=band[-1],
        slope_per_snapshot=delays.slope,
        slope_median=np.median(delays.slope, axis=0).tolist(),
        slope_mean=np.mean(delays.slope, axis=0).tolist(),
        delay_median=delays.delay_median.tolist(),
        delay_mean=delays.delay_mean.tolist(),
        rsq_median=np.median(delays.rsq, axis=0).tolist(),
        unreliable_fits=int(np.sum(~delays.reliable)),
        timing_s=time.perf_counter() - started,
        artifacts=PipelineArtifacts(pulse_spec, corr, modes, delays),
    )


def run_pipeline(cfg: ScenarioConfig, keep_artifacts: bool = False) -> RunReport:
    """Synthesize the scenario, estimate angles and delays, and report.

    Stages: pulse generation, snapshot synthesis, then the estimation
    chain of :func:`estimate`, whose report gains the truth and error
    fields. Any stage failure is reported with the stage name.
    Deterministic for a fixed (config, seed).
    """
    cfg = cfg.resolved()
    started = time.perf_counter()

    pulse_wave = _stage("pulse", generate_pulse, cfg.pulse)
    snaps = _stage(
        "synthesize",
        synthesize,
        pulse_wave,
        cfg.paths,
        cfg.array,
        cfg.fading,
        cfg.num_snapshots,
        cfg.noise_var,
        cfg.seed,
    )
    report = estimate(snaps, pulse_wave, cfg)

    # Truth is matched to estimates in sin(angle) order; both sides sorted.
    order = np.argsort([p.sin_angle for p in cfg.paths])
    angles_true = [cfg.paths[i].angle_deg for i in order]
    delays_true = [cfg.paths[i].delay for i in order]
    return replace(
        report,
        config=cfg.to_dict(),
        angles_true_deg=angles_true,
        delays_true=delays_true,
        angle_errors_deg=(np.asarray(report.angles_est_deg) - angles_true).tolist(),
        delay_errors=(np.asarray(report.delay_median) - delays_true).tolist(),
        timing_s=time.perf_counter() - started,
        artifacts=report.artifacts if keep_artifacts else None,
    )


def trial_seed(base_seed: int, trial: int) -> int:
    """Deterministic per-trial seed derivation for Monte Carlo runs."""
    return int(np.random.SeedSequence([base_seed, trial]).generate_state(1, np.uint64)[0])


@dataclass
class MonteCarloReport:
    """Per-trial results plus bias/RMSE aggregates over successful trials."""

    config: dict
    trials: List[dict]
    num_trials: int
    num_failed: int
    angle_bias_deg: Optional[List[float]]
    angle_rmse_deg: Optional[List[float]]
    delay_bias: Optional[List[float]]
    delay_rmse: Optional[List[float]]
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA + "/montecarlo",
            "version": self.version,
            "config": self.config,
            "num_trials": self.num_trials,
            "num_failed": self.num_failed,
            "angle_bias_deg": self.angle_bias_deg,
            "angle_rmse_deg": self.angle_rmse_deg,
            "delay_bias": self.delay_bias,
            "delay_rmse": self.delay_rmse,
            "trials": self.trials,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _run_trial(cfg: ScenarioConfig, trial: int) -> dict:
    seed = trial_seed(cfg.seed, trial)
    trial_cfg = replace(cfg, seed=seed)
    entry = {"trial": trial, "seed": seed}
    try:
        report = run_pipeline(trial_cfg)
    except (EstimationError, ValidationError) as exc:
        entry.update({"ok": False, "error": str(exc)})
        return entry
    entry.update(
        {
            "ok": True,
            "angles_est_deg": report.angles_est_deg,
            "angle_errors_deg": report.angle_errors_deg,
            "slope_median": report.slope_median,
            "delay_median": report.delay_median,
            "delay_errors": report.delay_errors,
            "rsq_median": report.rsq_median,
            "estimate_valid": report.estimate_valid,
        }
    )
    return entry


def monte_carlo(cfg: ScenarioConfig, trials: int) -> MonteCarloReport:
    """Run ``trials`` independent seeded pipelines and aggregate statistics.

    Trials run in order with seeds derived from (config seed, trial
    index). The pulse bit sequence is resolved once from
    the base config, so every trial observes the same known pulse and only
    the fading/noise realizations differ. Failed trials are reported with
    their error and excluded from the bias/RMSE aggregates.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    cfg = cfg.resolved()
    results = [_run_trial(cfg, t) for t in range(trials)]

    ok = [r for r in results if r["ok"]]
    angle_bias = angle_rmse = delay_bias = delay_rmse = None
    if ok:
        angle_err = np.array([r["angle_errors_deg"] for r in ok])
        delay_err = np.array([r["delay_errors"] for r in ok])
        angle_bias = angle_err.mean(axis=0).tolist()
        angle_rmse = np.sqrt((angle_err**2).mean(axis=0)).tolist()
        delay_bias = delay_err.mean(axis=0).tolist()
        delay_rmse = np.sqrt((delay_err**2).mean(axis=0)).tolist()
    return MonteCarloReport(
        config=cfg.to_dict(),
        trials=results,
        num_trials=trials,
        num_failed=len(results) - len(ok),
        angle_bias_deg=angle_bias,
        angle_rmse_deg=angle_rmse,
        delay_bias=delay_bias,
        delay_rmse=delay_rmse,
    )
