"""End-to-end scenario configuration, orchestration and reporting.

A scenario bundles every knob of the synthesis + estimation chain. Its keys
and their shipped defaults, the reference simulation this package is built
around, are :data:`CONFIG_KEYS`.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from . import __version__
from .exceptions import EstimationError, JadeError, ValidationError, open_text
from .pulse import PulseConfig, generate_pulse, spectrum
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
    "read_config",
    "scenario_from_dict",
]

CONFIG_SCHEMA = 1
REPORT_SCHEMA = "jade-report/4"


@dataclass
class PipelineArtifacts:
    """Stage outputs the ``--dump`` CSVs read; never serialized."""

    correlation: CorrelationSequence
    modes: ModeEstimate
    delays: DelayEstimate


@dataclass
class ScenarioConfig:
    """Complete synthesis + estimation scenario; :data:`CONFIG_KEYS` has the defaults."""

    pulse: PulseConfig
    array: ArrayConfig
    paths: List[PathParam]
    fading: FadingModel
    num_snapshots: int
    noise_var: float
    band_threshold: float
    seed: int
    # Not a field: perfbench's replay still passes it to fit_delay; delete it
    # once the replay traces run_pipeline instead (ROADMAP item 1).
    weighted_fit = False

    @property
    def prony(self) -> PronyConfig:
        """The matrix-pencil settings: one mode per path."""
        return PronyConfig(len(self.paths))

    def __post_init__(self) -> None:
        """Check the seed and draw absent pulse bits from it; each stage checks what it reads."""
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.pulse.bits is None and self.pulse.bits_seed is None:
            self.pulse = replace(self.pulse, bits_seed=self.seed)

    def to_dict(self) -> dict:
        """Flat echo in :data:`CONFIG_KEYS` order; feeding it back rebuilds this scenario."""
        echo = ((key, row.echo(self)) for key, row in CONFIG_KEYS.items()
                if not row.fading or self.fading.kind in row.fading)
        return {key: value for key, value in echo if value is not None}


def default_scenario() -> ScenarioConfig:
    """The shipped two-path Rayleigh reference scenario."""
    return scenario_from_dict({})


def _expect(what: str, convert):
    """A key parser: ``convert(value)``, or a ValidationError naming the key and ``what``."""
    def parse(key: str, value):
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{key}: expected {what}, got {value!r}") from exc
    return parse


def _not_bool(value):
    if isinstance(value, (bool, np.bool_)):
        raise TypeError("a bool is not a number")
    return value


def _integer(value) -> int:
    """``int(value)`` of a string, or of a number it does not truncate."""
    number = int(_not_bool(value))
    if not isinstance(value, str) and number != value:
        raise ValueError("the number has a fractional part")
    return number


def _floats(value) -> List[float]:
    listed = isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim == 1)
    items = value if listed else str(value).split(",")
    return [float(_not_bool(x)) for x in items if str(x).strip()]


def _fading_kind(value) -> str:
    kind = str(value).strip().lower()
    if kind not in FadingModel._KINDS:
        raise ValueError(kind)
    return kind


def _schema(key: str, value) -> int:
    if _INT(key, value) != CONFIG_SCHEMA:
        raise ValidationError(f"unsupported config schema {value} (expected {CONFIG_SCHEMA})")
    return CONFIG_SCHEMA


_INT = _expect("an integer", _integer)
_FLOAT = _expect("a number", lambda v: float(_not_bool(v)))
# PulseConfig.validate rejects digits other than 0 and 1
_BITS = _expect("a 0/1 string", lambda v: [int(ch) for ch in str(v).strip()])
_FLOATS = _expect("comma-separated numbers", _floats)


class _Key(NamedTuple):
    """One config key: parser, default, and its echo of a scenario (None: left out)."""

    parse: Callable[[str, object], object]
    default: object
    echo: Callable[[ScenarioConfig], object]
    fading: Tuple[str, ...] = ()  # the fading kinds that take the key; () for every kind


# Every config key, in echo order; the shipped defaults are stated here only.
CONFIG_KEYS = {
    "schema": _Key(_schema, CONFIG_SCHEMA, lambda c: CONFIG_SCHEMA),
    "rolloff": _Key(_FLOAT, 0.35, lambda c: c.pulse.rolloff),
    "carrier_freq": _Key(_FLOAT, 0.25, lambda c: c.pulse.carrier_freq),
    "symbols": _Key(_INT, 32, lambda c: c.pulse.symbol_count),
    "oversample": _Key(_INT, 4, lambda c: c.pulse.oversample),
    "sensors": _Key(_INT, 64, lambda c: c.array.num_sensors),
    "spacing": _Key(_FLOAT, 0.5, lambda c: c.array.spacing),
    # the path count is the number of modes estimation looks for
    "angles_deg": _Key(_FLOATS, [-10.0, 20.0], lambda c: [p.angle_deg for p in c.paths]),
    "delays": _Key(_FLOATS, [3.0, 7.0], lambda c: [p.delay for p in c.paths]),
    "fading": _Key(_expect(f"one of {FadingModel._KINDS}", _fading_kind), "rayleigh",
                   lambda c: c.fading.kind),
    "snapshots": _Key(_INT, 200, lambda c: c.num_snapshots),
    "noise_var": _Key(_FLOAT, 0.0, lambda c: c.noise_var),
    "band_threshold": _Key(_FLOAT, 0.1, lambda c: c.band_threshold),
    "seed": _Key(_INT, 1, lambda c: c.seed),
    "bits": _Key(_BITS, None, lambda c: None if c.pulse.bits is None
                 else "".join(str(int(b)) for b in np.asarray(c.pulse.bits))),
    # a scenario without bits or bits_seed draws its bits from its seed
    "bits_seed": _Key(_INT, None, lambda c: c.pulse.bits_seed if c.pulse.bits is None else None),
    "beta_re": _Key(_FLOAT, 1.0, lambda c: c.fading.beta.real, ("deterministic",)),
    "beta_im": _Key(_FLOAT, 0.0, lambda c: c.fading.beta.imag, ("deterministic",)),
    "sigma": _Key(_FLOAT, 1.0, lambda c: c.fading.sigma, ("rayleigh", "rician", "suzuki")),
    "nu": _Key(_FLOAT, 0.0, lambda c: c.fading.nu, ("rician",)),
    "mean_db": _Key(_FLOAT, 0.0, lambda c: c.fading.mean_db, ("suzuki",)),
    "std_db": _Key(_FLOAT, 6.0, lambda c: c.fading.std_db, ("suzuki",)),
}


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Build a scenario from a flat key/value mapping (config file or echo).

    Every key is optional; an absent key takes its :data:`CONFIG_KEYS` default.
    """
    unknown = set(raw) - set(CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    v = {key: row.parse(key, raw[key]) if key in raw else row.default
         for key, row in CONFIG_KEYS.items()}
    kind = v["fading"]
    for key in raw:
        if CONFIG_KEYS[key].fading and kind not in CONFIG_KEYS[key].fading:
            raise ValidationError(f"{key} is not a parameter of {kind} fading")
    if "bits" in raw and "bits_seed" in raw:
        raise ValidationError("bits_seed is not a parameter of a pulse with explicit bits")
    if len(v["angles_deg"]) != len(v["delays"]):
        raise ValidationError(
            f"angles_deg ({len(v['angles_deg'])}) and delays ({len(v['delays'])}) differ in length"
        )
    return ScenarioConfig(
        pulse=PulseConfig(v["rolloff"], v["carrier_freq"], v["symbols"], v["oversample"],
                          v["bits"], v["bits_seed"]),
        array=ArrayConfig(num_sensors=v["sensors"], spacing=v["spacing"]),
        paths=[PathParam(angle_deg=a, delay=d) for a, d in zip(v["angles_deg"], v["delays"])],
        fading=FadingModel(kind=kind, beta=complex(v["beta_re"], v["beta_im"]), sigma=v["sigma"],
                           nu=v["nu"], mean_db=v["mean_db"], std_db=v["std_db"]),
        num_snapshots=v["snapshots"],
        noise_var=v["noise_var"],
        band_threshold=v["band_threshold"],
        seed=v["seed"],
    )


def read_config(path) -> dict:
    """The raw keys of a flat ``key = value`` config file (# starts a comment)."""
    raw: dict = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = (part.strip() for part in stripped.partition("="))
            if key in raw:
                raise ValidationError(f"{path}:{lineno}: {key} is set again")
            raw[key] = value
    return raw


def _fields(report) -> dict:
    """A report's fields by name, in declaration order."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


@dataclass(kw_only=True)
class RunReport:
    """Everything a single pipeline run produced, its fields in JSON order.

    The truth and error fields are filled in by :func:`run_pipeline` and
    stay ``None`` (and out of the JSON) for a report of :func:`estimate`
    alone. ``to_json`` omits the wall-clock timing by default so that
    reports are byte-identical across reruns of the same seed and config;
    pass ``include_timing=True`` to keep it.
    """

    version: str = __version__
    config: dict
    angles_est_deg: List[float]
    amplitudes: List[float]
    singular_values: List[float]
    estimate_valid: bool
    band_start: int
    band_stop: int
    angles_true_deg: Optional[List[float]] = None
    delays_true: Optional[List[float]] = None
    angle_errors_deg: Optional[List[float]] = None
    delay_errors: Optional[List[float]] = None
    slope_median: List[float]
    delay_median: List[float]
    delay_mean: List[float]
    timing_s: float
    artifacts: Optional[PipelineArtifacts] = None

    def to_dict(self, include_timing: bool = False) -> dict:
        skip = {"artifacts"} if include_timing else {"artifacts", "timing_s"}
        return {"schema": REPORT_SCHEMA, **{k: v for k, v in _fields(self).items()
                                            if v is not None and k not in skip}}

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing=include_timing), indent=2)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except JadeError:
        raise
    except MemoryError as exc:  # the sizes are settings: too large is a bad setting
        raise ValidationError(f"[{name}] {exc}") from exc
    except Exception as exc:
        raise EstimationError(name, str(exc)) from exc


def estimate(snaps: SnapshotSet, cfg: ScenarioConfig) -> RunReport:
    """Estimate angles and delays from ``snaps`` for the known pulse of ``cfg``.

    Generates the pulse of ``cfg`` as :func:`run_pipeline` does, then
    runs its estimation stages: pulse spectrum, band selection, spatial
    correlation, matrix pencil (angles), beamforming, delay periodogram (delays).
    ``snaps`` must hold the pulse's N bins, or N/2+1 if ``half`` (else a
    ValidationError); only bins 0..N/2 are read. The report echoes every key of
    ``cfg`` but its fading and noise (``fading``, ``noise_var`` and each kind's
    keys), whose effect ``snaps`` holds, with the array and snapshot count of
    ``snaps``. A setting a stage rejects, or a size it cannot hold, is a ValidationError;
    any other stage failure is an EstimationError naming the stage. The report has no truth
    fields and keeps the stage outputs in ``artifacts``, none of which refers to
    ``snaps``; unlike :func:`run_pipeline`, this call leaves the set to its caller.
    """
    started = time.perf_counter()
    pulse_wave = _stage("pulse", generate_pulse, cfg.pulse)
    n = len(pulse_wave)
    if snaps.num_samples != (n // 2 + 1 if snaps.half else n):
        raise ValidationError(f"a set of {snaps.num_samples} bins does not fit a pulse of N={n}")
    echo = {k: v for k, v in cfg.to_dict().items()
            if k not in ("fading", "noise_var") and not CONFIG_KEYS[k].fading}
    echo.update(sensors=snaps.num_sensors, spacing=snaps.spacing, snapshots=snaps.num_snapshots)
    values, artifacts = _estimate(replace(snaps, bins=snaps.bins[:n // 2 + 1], half=True),
                                  pulse_wave, cfg)
    return RunReport(config=echo, **values, timing_s=time.perf_counter() - started,
                     artifacts=artifacts)


def _estimate(snaps: SnapshotSet, pulse_wave: np.ndarray,
              cfg: ScenarioConfig) -> Tuple[dict, PipelineArtifacts]:
    """:func:`estimate`'s fields and stage outputs; frees a set no caller holds once beamformed."""
    pulse_spec = _stage("spectrum", spectrum, pulse_wave)
    band = _stage("select_band", select_band, pulse_spec, cfg.band_threshold)
    corr = _stage("correlation", estimate_correlation, snaps, band)
    modes = _stage("prony", svd_prony, corr, cfg.prony)
    beams = _stage("beamform", beamform, snaps, modes.sines)
    del snaps
    delays = _stage("fit_delay", fit_delay, beams, pulse_spec, band)
    values = dict(
        angles_est_deg=modes.angles_deg.tolist(),
        amplitudes=modes.amplitudes.tolist(),
        singular_values=modes.singular_values.tolist(),
        estimate_valid=bool(modes.valid),
        band_start=band[0],
        band_stop=band[-1],
        slope_median=(-delays.delay_median).tolist(),
        # the benchmark still reads both names of the one delay per path
        delay_median=delays.delay_median.tolist(),
        delay_mean=delays.delay_median.tolist(),
    )
    return values, PipelineArtifacts(corr, modes, delays)


def run_pipeline(cfg: ScenarioConfig, keep_artifacts: bool = False) -> RunReport:
    """Synthesize the scenario, estimate angles and delays, and report.

    Stages: pulse generation, snapshot synthesis, then the estimation
    chain of :func:`estimate`, whose report gains the truth and error
    fields. Failures are raised as in :func:`estimate`. Deterministic for
    a fixed (config, seed). Only bins 0..N/2, which hold every band
    :func:`select_band` picks, are synthesized.
    """
    started = time.perf_counter()
    pulse_wave = _stage("pulse", generate_pulse, cfg.pulse)
    values, artifacts = _run(cfg, pulse_wave)
    return RunReport(config=cfg.to_dict(), **values, timing_s=time.perf_counter() - started,
                     artifacts=artifacts if keep_artifacts else None)


def _run(cfg: ScenarioConfig, pulse_wave: np.ndarray) -> Tuple[dict, PipelineArtifacts]:
    """:func:`run_pipeline`'s fields and stage outputs: the chain's estimate from the set it
    synthesizes for ``cfg``, then its errors against the paths of ``cfg``, sorted by angle."""
    values, artifacts = _estimate(_stage("synthesize", synthesize, pulse_wave, cfg.paths,
                                         cfg.array, cfg.fading, cfg.num_snapshots,
                                         cfg.noise_var, cfg.seed, half=True), pulse_wave, cfg)
    truth = sorted(cfg.paths, key=lambda p: p.angle_deg)  # the pencil's sine order
    true_angles, true_delays = [p.angle_deg for p in truth], [p.delay for p in truth]
    values.update(angles_true_deg=true_angles, delays_true=true_delays,
                  angle_errors_deg=np.subtract(values["angles_est_deg"], true_angles).tolist(),
                  delay_errors=np.subtract(values["delay_median"], true_delays).tolist())
    return values, artifacts


def trial_seed(base_seed: int, trial: int) -> int:
    """Deterministic per-trial seed derivation for Monte Carlo runs."""
    return int(np.random.SeedSequence([base_seed, trial]).generate_state(1, np.uint64)[0])


@dataclass(kw_only=True)
class MonteCarloReport:
    """Per-trial results plus bias/RMSE aggregates over successful trials, in JSON order.

    It is built from ``config`` and ``trials`` alone: the counts and the
    aggregates follow from the trial entries. ``num_flagged`` counts the
    successful trials whose entry says ``estimate_valid: false``; the
    aggregates still include them, and are None when every trial failed.
    """

    version: str = __version__
    config: dict
    num_trials: int = field(init=False)
    num_failed: int = field(init=False)
    num_flagged: int = field(init=False)
    angle_bias_deg: Optional[List[float]] = field(init=False)
    angle_rmse_deg: Optional[List[float]] = field(init=False)
    delay_bias: Optional[List[float]] = field(init=False)
    delay_rmse: Optional[List[float]] = field(init=False)
    trials: List[dict]

    def __post_init__(self) -> None:
        ok = [t for t in self.trials if t["ok"]]
        self.num_trials = len(self.trials)
        self.num_failed = len(self.trials) - len(ok)
        self.num_flagged = sum(not t["estimate_valid"] for t in ok)
        self.angle_bias_deg = self.angle_rmse_deg = self.delay_bias = self.delay_rmse = None
        if ok:
            angle_err = np.array([t["angle_errors_deg"] for t in ok])
            delay_err = np.array([t["delay_errors"] for t in ok])
            self.angle_bias_deg = angle_err.mean(axis=0).tolist()
            self.angle_rmse_deg = np.sqrt((angle_err**2).mean(axis=0)).tolist()
            self.delay_bias = delay_err.mean(axis=0).tolist()
            self.delay_rmse = np.sqrt((delay_err**2).mean(axis=0)).tolist()

    def to_dict(self) -> dict:
        return {"schema": REPORT_SCHEMA + "/montecarlo", **_fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# The run-report fields a Monte-Carlo trial entry copies, in its JSON order.
TRIAL_FIELDS = ("angles_est_deg", "angle_errors_deg", "slope_median", "delay_median",
                "delay_errors", "estimate_valid")


def _run_trial(cfg: ScenarioConfig, pulse_wave: np.ndarray, trial: int) -> dict:
    seed = trial_seed(cfg.seed, trial)
    entry = {"trial": trial, "seed": seed}
    try:
        values, _ = _run(replace(cfg, seed=seed), pulse_wave)
    except EstimationError as exc:  # a ValidationError is the config's: it fails the whole call
        entry.update({"ok": False, "error": str(exc)})
        return entry
    entry["ok"] = True
    entry.update((key, values[key]) for key in TRIAL_FIELDS)
    return entry


def monte_carlo(cfg: ScenarioConfig, trials: int) -> MonteCarloReport:
    """Run ``trials`` independent seeded pipelines and aggregate statistics.

    Trials run in order with seeds derived from (config seed, trial
    index). The pulse is generated once per call, so every trial observes
    the same known pulse and only the fading/noise realizations differ. A
    trial equals ``run_pipeline(replace(cfg, seed=trial_seed))``. Trials that
    fail to estimate are reported with their error and excluded from the
    bias/RMSE aggregates; flagged trials (``estimate_valid`` false) are counted
    and kept in them. A setting a stage rejects fails the whole call.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValidationError(f"trials must be an integer >= 1, got {trials!r}")
    pulse_wave = _stage("pulse", generate_pulse, cfg.pulse)
    _stage("synthesize", cfg.array.validate)  # the trials' array check, and its warning, once
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="element spacing")  # not again in each trial
        results = [_run_trial(cfg, pulse_wave, t) for t in range(trials)]
    return MonteCarloReport(config=cfg.to_dict(), trials=results)
